"""Brute-force ideal saturation oracle: degree-capped closure, then Hermite.

Independent of the production path: it saturates the generated one-sided
ideal under lambda-products with a monomial probe set and only then reads
off the canonical generator, instead of trusting the coefficient-stripping
argument.  Each closure round and the generator are read by
``hermite_form``, a slow non-incremental Hermite routine of its own, not by
``PidRowBasis``; the d-coefficients are split from the terms one by one.
The left generator divides by det P through ``leibniz_det`` and
``cofactor_adjugate``, written here too.  Symbols are n x n lists of
{exponents: Fraction} dicts, and the lambda-product g(-l, x+l+d) h(l+d, x)
is a term-by-term substitution and a schoolbook matrix product of its own,
so nothing is imported from ``confalg.cend``; the generators only need an
``entries`` attribute of MPoly rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from confalg.poly import UPoly
from confalg.polymat import PolyMat

# a polynomial as {exponent tuple: coefficient}: (d, x) in a symbol, (d, x, l)
# in a lambda-product
Poly = dict[tuple[int, ...], Fraction]
Sym = list[list[Poly]]


def _clean(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c}


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def _sum(polys) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def _matmul(a: Sym, b: Sym) -> Sym:
    """Schoolbook: entry (i, j) is the sum over k of a[i][k] * b[k][j]."""
    return [[_sum(_mul(row[k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
            for row in a]


def _substitute(p: Poly, d_image: Poly, x_image: Poly) -> Poly:
    """p(d_image, x_image), term by term, for p in (d, x)."""
    one = {(0,) * len(next(iter(d_image))): Fraction(1)}
    out = []
    for (i, j), c in p.items():
        term = {e: c * v for e, v in one.items()}
        for factor, k in ((d_image, i), (x_image, j)):
            for _ in range(k):
                term = _mul(term, factor)
        out.append(term)
    return _sum(out)


def _symbol(elem) -> Sym:
    return [[{(i, j): c for (i, j, _, _), c in e.terms.items()} for e in row]
            for row in elem.entries]


def _times_polymat(sym: Sym, p_mat: PolyMat) -> Sym:
    right = [[{(0, k): c for k, c in enumerate(e.coeffs) if c} for e in row] for row in p_mat.rows]
    return _matmul(sym, right)


# the substitutions of the product: g(-l, x + l + d) and h(l + d, x), in (d, x, l)
_HEAD = ({(0, 0, 1): Fraction(-1)},
         {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)})
_TAIL = ({(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)})
# x -> x - d, in (d, x)
_X_MINUS_D = ({(1, 0): Fraction(1)}, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})


def _l_parts(g: Sym, h: Sym) -> list[Sym]:
    """The l-coefficients of the product g(-l, x+l+d) h(l+d, x), as symbols."""
    head = [[_substitute(e, *_HEAD) for e in row] for row in g]
    tail = [[_substitute(e, *_TAIL) for e in row] for row in h]
    n = len(g)
    parts: dict[int, Sym] = {}
    for i, row in enumerate(_matmul(head, tail)):
        for j, entry in enumerate(row):
            for (dp, xp, lp), c in entry.items():
                grid = parts.setdefault(lp, [[{} for _ in range(n)] for _ in range(n)])
                grid[i][j][(dp, xp)] = c
    return list(parts.values())


def _flatten(sym: Sym, x_cap: int) -> list[UPoly] | None:
    n = len(sym)
    if max((j for row in sym for e in row for _, j in e), default=-1) > x_cap:
        return None
    row = [UPoly.zero("d")] * (n * n * (x_cap + 1))
    for i in range(n):
        for j in range(n):
            coeffs: dict[int, dict[int, Fraction]] = {}
            for (dp, xp), c in sym[i][j].items():
                coeffs.setdefault(xp, {})[dp] = c
            for k, by_d in coeffs.items():
                dense = [by_d.get(e, Fraction(0)) for e in range(max(by_d) + 1)]
                row[(i * n + j) * (x_cap + 1) + k] = UPoly(dense, "d")
    return row


def _unflatten(row, n: int, x_cap: int) -> Sym:
    return [
        [
            {
                (dp, k): c
                for k in range(x_cap + 1)
                for dp, c in enumerate(row[(i * n + j) * (x_cap + 1) + k].coeffs)
                if c
            }
            for j in range(n)
        ]
        for i in range(n)
    ]


def hermite_form(rows, n: int) -> tuple[tuple[UPoly, ...], ...]:
    """The nonzero rows of the Hermite form of the module ``rows`` span.

    Column by column, Euclid on the rows not yet taken: the entry of least
    degree reduces every other one, until one nonzero entry is left; its
    row, made monic, is the next pivot row.  Then each row is reduced by
    the pivot rows below it, leftmost pivot first, so that each entry above
    a pivot has lower degree than the pivot.
    """
    rest = [list(r) for r in rows if any(r)]
    out: list[list[UPoly]] = []
    for col in range(n):
        live = [r for r in rest if r[col]]
        while len(live) > 1:
            low = min(live, key=lambda r: r[col].degree())
            for r in live:
                if r is not low:
                    q = r[col] // low[col]
                    r[:] = [a - q * b for a, b in zip(r, low)]
            live = [r for r in live if r[col]]
        if live:
            inv = 1 / live[0][col].lead()
            out.append([e * inv for e in live[0]])
            rest = [r for r in rest if r is not live[0]]
    for k, row in enumerate(out):
        for pivot_row in out[k + 1 :]:
            col = next(j for j, e in enumerate(pivot_row) if e)
            q = row[col] // pivot_row[col]
            row[:] = [a - q * b for a, b in zip(row, pivot_row)]
    return tuple(tuple(r) for r in out)


def _generator_rows(mats: list[PolyMat]) -> PolyMat:
    """The Hermite form of the stacked rows of ``mats``, zero rows last."""
    n = mats[0].n
    rows = hermite_form([row for m in mats for row in m.rows], n)
    return PolyMat(rows + ((UPoly.zero(),) * n,) * (n - len(rows)))


def _probes(n: int, p_mat: PolyMat, probe_cap: int) -> list[Sym]:
    """E_rc d^i x^j P for every matrix unit and monomial of degree <= probe_cap."""
    out = []
    for i in range(probe_cap + 1):
        for j in range(probe_cap + 1 - i):
            for r in range(n):
                for c in range(n):
                    unit: Sym = [[{} for _ in range(n)] for _ in range(n)]
                    unit[r][c] = {(i, j): Fraction(1)}
                    out.append(_times_polymat(unit, p_mat))
    return out


def _d_coefficient_mats(sym: Sym) -> list[PolyMat]:
    """The matrices a_k over Q[x] of sym = sum_k d^k a_k, for each d-power
    k that occurs, lowest first."""
    n = len(sym)
    parts: dict[int, dict[tuple[int, int], list[Fraction]]] = {}
    for i, row in enumerate(sym):
        for j, entry in enumerate(row):
            for (k, e), c in entry.items():
                cs = parts.setdefault(k, {}).setdefault((i, j), [])
                cs.extend([Fraction(0)] * (e + 1 - len(cs)))
                cs[e] = c
    return [
        PolyMat([[UPoly(parts[k].get((i, j), ()), "x") for j in range(n)] for i in range(n)])
        for k in sorted(parts)
    ]


def _saturate(
    p_mat: PolyMat,
    gens: list,
    side: str,
    probe_cap: int,
    x_cap: int,
    rounds: int,
) -> list[Sym]:
    """The closure's Hermite rows: each round adds the l-coefficients of
    every product of a probe with a row, and ends with one Hermite form,
    until a round leaves the form as it was."""
    n = p_mat.n
    width = n * n * (x_cap + 1)
    rows = []
    for g in gens:
        row = _flatten(_times_polymat(_symbol(g), p_mat), x_cap)
        assert row is not None, "generator exceeds the oracle cap"
        rows.append(row)
    form = hermite_form(rows, width)
    probes = _probes(n, p_mat, probe_cap)
    for _ in range(rounds):
        found = dict.fromkeys(form)
        for e in [_unflatten(r, n, x_cap) for r in form]:
            for c in probes:
                for part in _l_parts(c, e) if side == "left" else _l_parts(e, c):
                    row = _flatten(part, x_cap)
                    if row is not None:
                        found[tuple(row)] = None
        closed = hermite_form(found, width)
        if closed == form:
            break
        form = closed
    return [_unflatten(r, n, x_cap) for r in form]


def brute_left_generator(
    p_mat: PolyMat,
    gens: list,
    probe_cap: int = 2,
    x_cap: int = 8,
    rounds: int = 6,
) -> PolyMat:
    elements = _saturate(p_mat, gens, "left", probe_cap, x_cap, rounds)
    mats: list[PolyMat] = []
    for e in elements:
        mats.extend(_d_coefficient_mats(e))
    hermite = _generator_rows(mats)
    d = leibniz_det(p_mat)
    return (hermite @ cofactor_adjugate(p_mat)).map_entries(lambda e: e.exact_div(d))


def leibniz_det(mat: PolyMat) -> UPoly:
    """Permutation-sum determinant (n! terms; meant for n <= 4)."""
    n = mat.n
    acc = UPoly.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = UPoly.const(sign)
        for i in range(n):
            term = term * mat.rows[i][perm[i]]
        acc = acc + term
    return acc


def cofactor_adjugate(m: PolyMat) -> PolyMat:
    """adj[j][i] = (-1)^(i+j) times the Leibniz minor without row i and column j."""
    n = m.n
    minor = lambda i, j: leibniz_det(  # noqa: E731
        PolyMat([[m.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i])
    )
    return PolyMat([[minor(i, j) * (-1) ** (i + j) for i in range(n)] for j in range(n)])


def brute_right_generator(
    p_mat: PolyMat,
    gens: list,
    probe_cap: int = 2,
    x_cap: int = 8,
    rounds: int = 6,
) -> PolyMat:
    elements = _saturate(p_mat, gens, "right", probe_cap, x_cap, rounds)
    mats: list[PolyMat] = []
    for e in elements:
        # the (d+x)-adapted expansion: x -> z - d (z in the x slot), then strip d
        shifted = [[_substitute(entry, *_X_MINUS_D) for entry in row] for row in e]
        mats.extend(m.transpose() for m in _d_coefficient_mats(shifted))
    return _generator_rows(mats).transpose()
