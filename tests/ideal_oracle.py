"""Brute-force ideal saturation oracle: degree-capped closure, then Hermite.

Independent of the production path: it saturates the generated one-sided
ideal under lambda-products with a monomial probe set and only then reads
off the canonical generator, instead of trusting the coefficient-stripping
argument.  Each closure round and the generator are read by
``hermite_form``, a slow non-incremental Hermite routine of its own, not by
``PidRowBasis``; the d-coefficients are split from the terms one by one.
The left generator divides by det P through ``leibniz_det`` and
``cofactor_adjugate``, written here too; of confalg's kernel routines only
``product_apply`` is used.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from confalg.cend import CendElem, product_apply
from confalg.poly import MPoly, UPoly, upoly_from_mpoly
from confalg.polymat import PolyMat

_D = MPoly.var("d")
_X = MPoly.var("x")


def _flatten(elem: CendElem, x_cap: int) -> list[UPoly] | None:
    n = elem.n
    if elem.x_degree() > x_cap:
        return None
    row = [UPoly.zero("d")] * (n * n * (x_cap + 1))
    for i in range(n):
        for j in range(n):
            for k, part in elem.entries[i][j].coefficients_in("x").items():
                row[(i * n + j) * (x_cap + 1) + k] = upoly_from_mpoly(part, "d")
    return row


def _unflatten(row, n: int, x_cap: int) -> CendElem:
    entries = []
    for i in range(n):
        rr = []
        for j in range(n):
            acc = MPoly.zero()
            for k in range(x_cap + 1):
                c = row[(i * n + j) * (x_cap + 1) + k]
                if not c.is_zero():
                    acc = acc + c.to_mpoly("d") * _X**k
            rr.append(acc)
        entries.append(rr)
    return CendElem(entries)


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


def _probes(n: int, p_mat: PolyMat, probe_cap: int) -> list[CendElem]:
    out = []
    for i in range(probe_cap + 1):
        for j in range(probe_cap + 1 - i):
            mono = _D**i * _X**j
            for r in range(n):
                for c in range(n):
                    out.append(
                        CendElem.matrix_unit(n, r, c, mono).times_polymat(p_mat)
                    )
    return out


def _d_coefficient_mats(elem: CendElem) -> list[PolyMat]:
    """The matrices a_k over Q[x] of elem = sum_k d^k a_k, for each d-power
    k that occurs, lowest first."""
    n = elem.n
    parts: dict[int, dict[tuple[int, int], list[Fraction]]] = {}
    for i, row in enumerate(elem.entries):
        for j, entry in enumerate(row):
            for (k, e, _, _), c in entry.terms.items():
                cs = parts.setdefault(k, {}).setdefault((i, j), [])
                cs.extend([Fraction(0)] * (e + 1 - len(cs)))
                cs[e] = c
    return [
        PolyMat([[UPoly(parts[k].get((i, j), ()), "x") for j in range(n)] for i in range(n)])
        for k in sorted(parts)
    ]


def _saturate(
    p_mat: PolyMat,
    gens: list[CendElem],
    side: str,
    probe_cap: int,
    x_cap: int,
    rounds: int,
) -> list[CendElem]:
    """The closure's Hermite rows: each round adds the l-coefficients of
    every product of a probe with a row, and ends with one Hermite form,
    until a round leaves the form as it was."""
    n = p_mat.n
    width = n * n * (x_cap + 1)
    rows = []
    for g in gens:
        row = _flatten(g.times_polymat(p_mat), x_cap)
        assert row is not None, "generator exceeds the oracle cap"
        rows.append(row)
    form = hermite_form(rows, width)
    probes = _probes(n, p_mat, probe_cap)
    for _ in range(rounds):
        found = dict.fromkeys(form)
        for e in [_unflatten(r, n, x_cap) for r in form]:
            for c in probes:
                if side == "left":
                    raw = product_apply(c.entries, e.entries, "l")
                else:
                    raw = product_apply(e.entries, c.entries, "l")
                coeffs: dict[int, list[list[MPoly]]] = {}
                for i in range(n):
                    for j in range(n):
                        for k, part in raw[i][j].coefficients_in("l").items():
                            grid = coeffs.setdefault(
                                k, [[MPoly.zero()] * n for _ in range(n)]
                            )
                            grid[i][j] = grid[i][j] + part
                for grid in coeffs.values():
                    row = _flatten(CendElem(grid), x_cap)
                    if row is not None:
                        found[tuple(row)] = None
        closed = hermite_form(found, width)
        if closed == form:
            break
        form = closed
    return [_unflatten(r, n, x_cap) for r in form]


def brute_left_generator(
    p_mat: PolyMat,
    gens: list[CendElem],
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
    gens: list[CendElem],
    probe_cap: int = 2,
    x_cap: int = 8,
    rounds: int = 6,
) -> PolyMat:
    elements = _saturate(p_mat, gens, "right", probe_cap, x_cap, rounds)
    mats: list[PolyMat] = []
    for e in elements:
        # the (d+x)-adapted expansion: x -> z - d (z in the x slot), then strip d
        shifted = e.substitute({"x": _X - _D})
        mats.extend(m.transpose() for m in _d_coefficient_mats(shifted))
    return _generator_rows(mats).transpose()
