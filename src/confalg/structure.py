"""Decision procedures: ideals, isomorphism, anti-involutions, extensions.

Every decision returns enough certificate data (transforms, witnesses,
divisor lists) for an independent re-verification pass.  The one search,
``anti_involution_search``, carries a degree cap and reports a three-valued
outcome; the other procedures have no budget and always decide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .cend import (
    ActionClosure,
    AntiInvSpec,
    CendElem,
    RawMat,
    RawVec,
    VecMap,
    _coefficient_grids,
    _twist,
    head_action,
    raw_mat_vec,
    raw_mul,
    raw_subst,
    standard_action,
)
from .poly import _D, _L, _X, MPoly, RatLike, UPoly, upoly_coefficients
from .polymat import (
    DegenerateError,
    PidRowBasis,
    PolyMat,
    adjugate_and_det,
    det,
    hermite_left_generator,
    smith_divisors,
    star,
)


class MismatchError(ValueError):
    """Structural data does not satisfy its defining identity."""


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealReport:
    """Canonical one-sided ideal generator with its derivation certificate.

    For side "left" the ideal is (everything) * generator * defining matrix;
    the certificate carries the Hermite matrix R = generator @ P and the row
    multipliers expressing R in the stacked coefficient rows of the inputs.
    For side "right" the generator is a matrix in the shifted variable z
    (standing for d+x) and the ideal is generator(d+x) * (algebra).  Its
    Hermite rows are the generator's columns: ``hermite`` is the generator
    itself, and the multipliers express the rows of its transpose.
    """

    side: str
    generator: PolyMat
    hermite: PolyMat
    multipliers: tuple[tuple[UPoly, ...], ...]

    def verify(self, p_mat: PolyMat, gens: Sequence[CendElem]) -> str | None:
        """The first check of this report against its inputs that fails, or None.

        The checks run on the coefficient rows, in the Hermite orientation:
        the Hermite rows are the canonical Hermite form of the module they
        span, zero rows last; every input row reduces to zero modulo them;
        and the multipliers, one entry per input row, combine the input rows
        into exactly the nonzero Hermite rows.  On the left the generator
        times P must be the Hermite form.  On the right the generator is the
        Hermite form itself, so a caller holding a separate right generator
        compares it with ``hermite``.
        """
        stacked = _coefficient_rows(self.side, p_mat, det(p_mat), gens)
        oriented = self.hermite if self.side == "left" else self.hermite.transpose()
        hermite_rows = [row for row in oriented.rows if any(row)]
        basis = PidRowBasis(p_mat.n)
        for row in hermite_rows:
            basis.add(row)
        zero_rows = ((UPoly.zero(),) * p_mat.n,) * (p_mat.n - basis.rank())
        if oriented.rows != basis.canonical() + zero_rows:
            return "hermite is not in Hermite normal form"
        if not all(basis.contains(row) for row in stacked):
            return "input row escapes the reported generator module"
        if self.side == "left" and self.generator @ p_mat != self.hermite:
            return "generator times defining matrix is not the hermite form"
        if len(self.multipliers) != len(hermite_rows):
            return "multiplier row count mismatch"
        if any(len(row) != len(stacked) for row in self.multipliers):
            return "multiplier row length mismatch"
        for mult_row, target in zip(self.multipliers, hermite_rows):
            combo = [UPoly.zero()] * p_mat.n
            for coef, source in zip(mult_row, stacked):
                combo = [c + coef * s for c, s in zip(combo, source)]
            if tuple(combo) != target:
                return "multipliers do not reproduce the hermite rows"
        return None


def _coefficient_rows(
    side: str, p_mat: PolyMat, p_det: UPoly, gens: Sequence[CendElem]
) -> list[Sequence[UPoly]]:
    """The coefficient matrices of the elements g * P, rows stacked in order.

    Left: the d-coefficients.  Right: the coefficients of the (d+x)-adapted
    expansion sum_i d^i a_i(d+x), which x -> z - d turns into a plain
    d-expansion with coefficients in the shift variable z (carried in the x
    slot), transposed so that the ideal's generators are rows.  ``p_det``
    is det P, which must be nonzero.
    """
    if p_det.is_zero():
        raise DegenerateError("defining matrix must be nondegenerate")
    if not gens:
        raise ValueError("need at least one generator")
    rows: list[Sequence[UPoly]] = []
    for g in gens:
        if g.n != p_mat.n:
            raise ValueError("generator size mismatch")
        full = g.times_polymat(p_mat)
        if side == "right":
            full = full.substitute({"x": _X - _D})
        in_d = _coefficient_grids(full.entries, lambda e: upoly_coefficients(e, "d", "x"),
                                  UPoly.zero())
        for mat in in_d.values():
            rows.extend(mat if side == "left" else zip(*mat))
    return rows


def _ideal_report(side: str, p_mat: PolyMat, gens: Sequence[CendElem]) -> IdealReport:
    # the left generator is hermite @ adj P / det P: one minor expansion for both
    adj, p_det = adjugate_and_det(p_mat) if side == "left" else (None, det(p_mat))
    rows = _coefficient_rows(side, p_mat, p_det, gens)
    if not rows:  # every generator is zero
        zero = PolyMat.zero(p_mat.n)
        return IdealReport(side, zero, zero, ())
    hermite, mults = hermite_left_generator(rows)
    multipliers = tuple(tuple(row) for row in mults)
    if side == "right":
        generator = hermite.transpose()
        return IdealReport(side, generator, generator, multipliers)
    try:
        generator = (hermite @ adj).map_entries(lambda e: e.exact_div(p_det))
    except ValueError as exc:
        raise MismatchError(
            "saturation did not close on a multiple of the defining matrix"
        ) from exc
    return IdealReport(side, generator, hermite, multipliers)


def left_ideal_generator(p_mat: PolyMat, gens: Sequence[CendElem]) -> IdealReport:
    """Canonical Q: the generated left ideal is (algebra) * Q * P, gens as a-parts."""
    return _ideal_report("left", p_mat, gens)


def right_ideal_generator(p_mat: PolyMat, gens: Sequence[CendElem]) -> IdealReport:
    """Canonical Q(z): the generated right ideal is Q(d+x) * (algebra)."""
    return _ideal_report("right", p_mat, gens)


# ---------------------------------------------------------------------------
# Isomorphism and anti-automorphism decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoDecision:
    isomorphic: bool
    alpha: Fraction | None
    divisors_left: tuple[UPoly, ...]
    divisors_right: tuple[UPoly, ...]


def _divisors(mat: PolyMat, message: str) -> tuple[tuple[UPoly, ...], int, Fraction]:
    """P's Smith divisors, with deg det P and the sum of its roots.

    det P is a constant times the product of the monic divisors, so both
    are sums over the divisors.  A zero last divisor is det P = 0.
    """
    divs = smith_divisors(mat)
    if divs[-1].is_zero():
        raise DegenerateError(message)
    return divs, sum(d.degree() for d in divs), -sum(d.coefficient(d.degree() - 1) for d in divs)


def decide_isomorphism(p_mat: PolyMat, q_mat: PolyMat) -> IsoDecision:
    """Shift-equivalence of elementary divisors, via the unique candidate.

    Equal divisor lists force det P(x+alpha) = c det Q(x), which pins the
    root sums, so alpha = (s_P - s_Q)/deg is the only candidate to test.
    The divisors of P(x+alpha) are P's divisors at x+alpha, since the shift
    is a ring automorphism of Q[x], so each matrix's divisors are computed once.
    """
    dp, deg_p, sum_p = _divisors(p_mat, "both matrices must be nondegenerate")
    dq, deg_q, sum_q = _divisors(q_mat, "both matrices must be nondegenerate")
    if p_mat.n != q_mat.n or deg_p != deg_q:
        return IsoDecision(False, None, dp, dq)
    if deg_p == 0:
        return IsoDecision(True, Fraction(0), dp, dq)
    alpha = (sum_p - sum_q) / deg_p
    shifted = tuple(d.shift(alpha) for d in dp)
    if shifted == dq:
        return IsoDecision(True, alpha, shifted, dq)
    return IsoDecision(False, None, dp, dq)


def anti_automorphism_exists(p_mat: PolyMat) -> IsoDecision:
    """Existence of an anti-automorphism: mirrored divisors at the candidate shift.

    star(P, alpha) = P(alpha - x)^T, and transposing keeps Smith divisors,
    so its divisors are P's at alpha - x, made monic: one divisor list.
    """
    divs, deg, root_sum = _divisors(p_mat, "matrix must be nondegenerate")
    if deg == 0:
        return IsoDecision(True, Fraction(0), divs, divs)
    alpha = 2 * root_sum / deg
    reflected = tuple(d.compose(UPoly((alpha, -1))).monic() for d in divs)
    if reflected == divs:
        return IsoDecision(True, alpha, divs, reflected)
    return IsoDecision(False, None, divs, reflected)


# the search tests at most this many combinations Y before it answers undecided
_MAX_CANDIDATES = 200_000


def anti_involution_search(
    p_mat: PolyMat, degree_cap: int = 1
) -> tuple[IsoDecision, AntiInvSpec | None]:
    """The anti-automorphism decision, and anti-involution data found for it.

    No anti-automorphism means no anti-involution, and no search.  Otherwise
    alpha is the decision's shift and Y = 1 is tried first.  Then, for each
    epsilon, the {0, 1, -1} combinations of an echelon basis of the solutions
    with entry degrees <= degree_cap are tested, lowest degree first, up to
    ``_MAX_CANDIDATES`` in all (README).  Finding nothing is not a disproof.
    """
    report = anti_automorphism_exists(p_mat)
    if not report.isomorphic:
        return report, None
    alpha, n = Fraction(report.alpha), p_mat.n
    p_star = star(p_mat, alpha)
    for eps in (1, -1):  # Y = 1
        if p_star == p_mat.scale(eps):
            return report, AntiInvSpec(p_mat, PolyMat.identity(n), eps, alpha)
    tried = 0
    for eps in (1, -1):
        den, basis = _solution_basis(p_mat, p_star, alpha, eps, degree_cap)
        # highest degree first: every combination of degree <= c comes before the rest
        sums = _signed_sums([0] * (n * n * (degree_cap + 1)), basis[::-1])
        next(sums)  # the zero combination
        for tried, vec in enumerate(sums, tried + 1):
            if tried > _MAX_CANDIDATES:
                return report, None
            if _unimodular(vec, n, degree_cap):  # x^k in Y[i][j] is vec[k*n^2 + i*n + j] / den
                y = [[UPoly(Fraction(c, den) for c in vec[i * n + j :: n * n]) for j in range(n)]
                     for i in range(n)]
                return report, AntiInvSpec(p_mat, PolyMat(y), eps, alpha)
    return report, None


def _signed_sums(vec: list[int], vecs: Sequence[list[int]]) -> Iterator[list[int]]:
    """vec plus each {0, 1, -1} combination of vecs, the zero combination first."""
    if not vecs:
        yield vec
        return
    plus, minus = [a + b for a, b in zip(vec, vecs[0])], [a - b for a, b in zip(vec, vecs[0])]
    for nxt in (vec, plus, minus):
        yield from _signed_sums(nxt, vecs[1:])


def _unimodular(vec: list[int], n: int, degree_cap: int) -> bool:
    """Whether det Y (degree <= n * degree_cap) is one nonzero value at x = 0 .. n * degree_cap."""
    size, dets = n * n, set()
    for t in range(n * degree_cap + 1):
        powers = [t**k for k in range(degree_cap + 1)]
        at = [sum(map(mul, vec[e::size], powers)) for e in range(size)]
        dets.add(_integer_det([at[i : i + n] for i in range(0, size, n)]))
        if 0 in dets or len(dets) > 1:
            return False
    return True


def _integer_det(rows: list[list[int]]) -> int:
    """Laplace expansion along the first row (the CLI bounds n by 4)."""
    if len(rows) <= 2:
        return rows[0][0] if len(rows) == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum((-1) ** j * c * _integer_det([r[:j] + r[j + 1 :] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def _solution_basis(
    p_mat: PolyMat, p_star: PolyMat, alpha: Fraction, eps: int, degree_cap: int
) -> tuple[int, list[list[int]]]:
    """The Y with entry degrees <= degree_cap and Y^* P^* = eps P Y, by `_integer_kernel`.

    Unknown k*n^2 + i*n + j is the x^k coefficient of Y[i][j].  R = Y^* P^* - eps P Y
    has R^* = -eps R, so its entries (a, b) with a <= b hold every equation.
    """
    n, x, zero = p_mat.n, UPoly.variable(), UPoly.zero()
    width = degree_cap + 1 + max(e.degree() for row in p_mat.rows for e in row)
    cols = []
    for k, i, j in itertools.product(range(degree_cap + 1), range(n), range(n)):
        y = PolyMat([[x**k if (a, b) == (i, j) else zero for b in range(n)] for a in range(n)])
        r = star(y, alpha) @ p_star - (p_mat @ y).scale(eps)
        cols.append([r[a, b].coefficient(m) for a in range(n) for b in range(a, n)
                     for m in range(width)])
    return _integer_kernel(list(zip(*cols)), len(cols))


def _integer_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[int, list[list[int]]]:
    """The kernel of a rational matrix: den, and one vector per free column f.

    The vector for f is den at f and 0 at the other free columns and after f:
    reduced echelon form for the columns read last to first.  The rows go
    into an echelon by `_echelon_add`, then back substitution in integers.
    """
    echelon: dict[int, list[int]] = {}
    for row in rows:
        _echelon_add(echelon, row)
    kernel = []
    for free in (f for f in range(ncols) if f not in echelon):
        vec = [0] * free + [1] + [0] * (ncols - free - 1)
        for p in sorted((p for p in echelon if p < free), reverse=True):
            total = sum(map(mul, echelon[p][p + 1 : free + 1], vec[p + 1 : free + 1]))
            g = gcd(total, echelon[p][p])
            vec = [c * (echelon[p][p] // g) for c in vec]
            vec[p] = -total // g
        kernel.append((vec[free], vec))
    den = lcm(*(lead for lead, _ in kernel))
    return den, [[c * (den // lead) for c in vec] for lead, vec in kernel]


def _echelon_add(echelon: dict[int, list[int]], row: Sequence[RatLike]) -> bool:
    """Reduce a rational row against the echelon; keep a nonzero remainder.

    The echelon maps each pivot column to a primitive integer row, zero
    before the pivot.  The row is cleared of denominators and reduced
    fraction-free; the answer is whether the rank rose.
    """
    den = lcm(*(c.denominator for c in row))
    ints = [c.numerator * (den // c.denominator) for c in row]
    lead = next((j for j, c in enumerate(ints) if c), None)
    while lead in echelon:
        a, b = echelon[lead][lead], ints[lead]
        ints = [a * c - b * q for c, q in zip(ints, echelon[lead])]
        lead = next((j for j in range(lead + 1, len(ints)) if ints[j]), None)
    if lead is None:
        return False
    g = gcd(*ints)
    echelon[lead] = [c // g for c in ints]
    return True


# ---------------------------------------------------------------------------
# Extension modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionModule:
    """A module built from a factorization or a Jordan-block twist.

    ``action`` follows the verifier contract, in two stages: (a-part,
    parameter p, a polynomial) -> (vector of polynomials in d -> vector).  The first
    stage builds the element's matrix once, so one element acts on many
    vectors at the cost of a matrix-vector product each.  For the
    factorization kind the vector length is N; for the Jordan kind it is 2N
    (two stacked blocks).
    """

    kind: str
    p_mat: PolyMat
    alpha: Fraction
    s_mat: PolyMat | None
    action: ActionClosure = field(compare=False)

    @property
    def vector_size(self) -> int:
        return self.p_mat.n if self.kind == "factorization" else 2 * self.p_mat.n


def build_extension(
    p_mat: PolyMat,
    kind: str,
    r_mat: PolyMat | None = None,
    s_mat: PolyMat | None = None,
    alpha: RatLike = 0,
    gamma: RatLike = 0,
) -> ExtensionModule:
    if det(p_mat).is_zero():  # every action would be zero
        raise DegenerateError("defining matrix must be nondegenerate")
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    if kind == "factorization":
        if r_mat is None or s_mat is None:
            raise ValueError("factorization kind needs both factors")
        if r_mat @ s_mat != p_mat.shift(alpha):
            raise MismatchError("factors do not multiply to the shifted matrix")
        s_in_d = raw_subst(s_mat.to_mpoly_rows(), {"x": _D})
        r_raw = r_mat.to_mpoly_rows()

        def act(a_part: RawMat, p: MPoly) -> VecMap:
            head = raw_subst(a_part, _twist(p, alpha))
            r_shift = raw_subst(r_raw, {"x": p + _D})
            return head_action(raw_mul(raw_mul(s_in_d, head), r_shift), p)

        return ExtensionModule("factorization", p_mat, alpha, s_mat, act)

    if kind == "jordan":
        p_raw = p_mat.to_mpoly_rows()
        n = p_mat.n

        def act_jordan(a_part: RawMat, p: MPoly) -> VecMap:
            full = raw_mul(a_part, p_raw)
            twist = _twist(p, gamma)
            head0 = raw_subst(full, twist)
            deriv = tuple(tuple(e.derivative("x") for e in row) for row in full)
            head1 = raw_subst(deriv, twist)
            # [[head0, head1], [0, head0]] acting on the two stacked blocks
            zero = (MPoly.zero(),) * n
            block = tuple(r0 + r1 for r0, r1 in zip(head0, head1))
            return head_action(block + tuple(zero + r0 for r0 in head0), p)

        return ExtensionModule("jordan", p_mat, alpha, None, act_jordan)

    raise ValueError(f"unknown extension kind {kind!r}")


def embedded_standard_witness(
    module: ExtensionModule, a: CendElem, vec: RawVec
) -> tuple[RawVec, RawVec]:
    """Both sides of the submodule identity a . (S(d) v) == S(d) (standard a . v).

    Exact equality of the two returned vectors witnesses that S(d) Q[d]^N is
    invariant and carries the standard module structure.
    """
    if module.kind != "factorization":
        raise ValueError("submodule witness applies to the factorization kind")
    assert module.s_mat is not None
    s_in_d = raw_subst(module.s_mat.to_mpoly_rows(), {"x": _D})
    embedded = raw_mat_vec(s_in_d, vec)
    lhs = module.action(a.entries, _L)(embedded)
    std = standard_action(module.p_mat, module.alpha)(a.entries, _L)
    rhs = raw_mat_vec(s_in_d, std(vec))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Unital closure probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureOutcome:
    outcome: str  # "cur_n" | "cend_n"
    basis_rank: int


def unital_closure_probe(gens: Sequence[CendElem]) -> ClosureOutcome:
    """Decide whether a unital generator set generates Cur_N or Cend_N.

    Requires the identity symbol among the generators.  Any x-dependent
    generator gives the full algebra, ``cend_n``.  Otherwise the Q[d]-span of
    the closure is Q[d] (x) A, where A is the unital Q-algebra generated by
    the generators' d-coefficient matrices (README), so the outcome is
    ``cur_n`` and ``basis_rank`` is dim_Q A, the rank of an `_echelon_add`
    echelon of flat N^2-rows: the matrices, then each kept row times a basis
    of their span on the left, until no row is left or the rank is N^2.
    """
    if not gens:
        raise ValueError("need generators")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generator size mismatch")
    if not any(g == CendElem.identity(n) for g in gens):
        raise ValueError("identity symbol must be among the generators")
    if any(g.uses_x() for g in gens):
        return ClosureOutcome("cend_n", 0)
    echelon: dict[int, list[int]] = {}
    for g in gens:
        in_d = _coefficient_grids(g.entries, lambda e: upoly_coefficients(e, "d", "x"),
                                  UPoly.zero())
        for mat in in_d.values():
            _echelon_add(echelon, [e.coefficient(0) for row in mat for e in row])
    letters = list(echelon.values())
    words = list(letters)
    for word in words:  # grows while it is read
        for letter in letters:
            if len(echelon) == n * n:
                return ClosureOutcome("cur_n", n * n)
            product = [sum(letter[i + k] * word[k * n + j] for k in range(n))
                       for i in range(0, n * n, n) for j in range(n)]
            if _echelon_add(echelon, product):
                words.append(product)
    return ClosureOutcome("cur_n", len(echelon))
