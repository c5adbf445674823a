"""Orthogonal/symplectic conformal subalgebras and bilinear-form machinery.

Generators are anti-fixed points of the defining anti-involution; invariance
of the associated bilinear pairing is checked symbolically in both series
parameters, and irreducibility is probed by growing Q[d]-module spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .cend import (
    AntiInvSpec,
    AxiomReport,
    CendElem,
    LambdaSeries,
    ModVec,
    RawMat,
    RawVec,
    VecMap,
    _vec_series,
    apply_antiinv,
    bracket_apply,
    raw_mat_vec,
    raw_mul,
    raw_subst,
    raw_transpose,
    raw_vec_subst,
    standard_action,
)
from .poly import _D, _L, _M, _X, MPoly, UPoly, mpoly_dot
from .polymat import DegenerateError, PidRowBasis, PolyMat, Row, det, is_unimodular, star


# ---------------------------------------------------------------------------
# Conformal bilinear forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfBilinearForm:
    """Pairing <v, w>_l = v^t(-l) P(l) w(l) with a symmetry claim on P."""

    p_mat: PolyMat
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if star(self.p_mat, 0) != self.p_mat.scale(self.epsilon):
            raise ValueError("matrix does not have the claimed symmetry")

    def nondegenerate(self) -> bool:
        return not det(self.p_mat).is_zero()

    def pair(self, v: RawVec, w: RawVec, at: MPoly | None = None) -> MPoly:
        """Evaluate the pairing with the series slot at ``at`` (default l)."""
        if len(v) != len(w):
            raise ValueError("size mismatch")
        lam = at if at is not None else _L
        p_at = raw_subst(self.p_mat.to_mpoly_rows(), {"x": lam})
        v_neg = raw_vec_subst(v, {"d": -lam})
        pw = raw_mat_vec(p_at, raw_vec_subst(w, {"d": lam}))  # w must fit P
        return mpoly_dot(zip(v_neg, pw))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OcSpcGen:
    """One generator x^n A - eps (-d-x)^n A^t, right-multiplied by P."""

    n: int
    a_part: CendElem
    element: CendElem


def make_oc_spc_generators(
    n: int, p_mat: PolyMat, epsilon: int, max_n: int
) -> list[OcSpcGen]:
    """Anti-fixed generators of the orthogonal (eps=+1) / symplectic (eps=-1)
    subalgebra attached to a hermitian / skew-hermitian defining matrix."""
    form = ConfBilinearForm(p_mat, epsilon)  # validates the symmetry claim
    if not form.nondegenerate():
        raise DegenerateError("defining matrix must be nondegenerate")
    if p_mat.n != n:
        raise ValueError("size mismatch")
    gens: list[OcSpcGen] = []
    for power in range(max_n + 1):
        x_pow = _X**power
        neg_pow = (-_D - _X) ** power
        for i in range(n):
            for j in range(n):
                a_part = CendElem.matrix_unit(n, i, j, x_pow) - CendElem.matrix_unit(
                    n, j, i, neg_pow
                ).scale(epsilon)
                if a_part.is_zero():
                    continue
                gens.append(OcSpcGen(power, a_part, a_part.times_polymat(p_mat)))
    return gens


def check_anti_fixed(a: CendElem, spec: AntiInvSpec) -> bool:
    """True iff the anti-involution sends the element a*P to its negative."""
    return apply_antiinv(a, spec) == -a


def sigma_star(a: CendElem) -> CendElem:
    """The transpose-reflection a^t(d, -d-x) (plain defining matrix)."""
    return a.transpose().substitute({"x": -_D - _X})


def anti_fixed_part(a: CendElem) -> CendElem:
    return (a - sigma_star(a)).scale(Fraction(1, 2))


def fixed_part(a: CendElem) -> CendElem:
    return (a + sigma_star(a)).scale(Fraction(1, 2))


def family_conjugacy_verify(
    p_mat: PolyMat,
    q_mat: PolyMat,
    witness: PolyMat,
    epsilon: int,
    scale: Fraction | int = 1,
) -> bool:
    """Certificate check that two defining matrices are congruent forms.

    Both matrices must carry the same symmetry sign and the witness must be
    unimodular with star(witness) @ p_mat @ witness == scale * q_mat (a
    nonzero rational scale is absorbed by rescaling the form).  Conjugacy of
    the attached subalgebra families reduces to exactly this congruence; no
    search is attempted here.
    """
    scale = Fraction(scale)
    if not scale:
        return False
    for m in (p_mat, q_mat):
        if star(m, 0) != m.scale(epsilon):
            return False
        if det(m).is_zero():
            return False
    if not is_unimodular(witness):
        return False
    return star(witness, 0) @ p_mat @ witness == q_mat.scale(scale)


# ---------------------------------------------------------------------------
# Invariance of the pairing
# ---------------------------------------------------------------------------


def invariance_check(form: ConfBilinearForm, a: CendElem) -> AxiomReport:
    """Verify <a_m v, w>_l + <v, a_m w>_{l-m} == 0 on all of Q[d]^N.

    ``a`` is the full symbol of the acting element.  Both terms are
    sesquilinear, so the defect at (d^k v, d^j w) is (m - l)^k l^j times the
    defect at (v, w): the identity holds on the whole module exactly when it
    holds on the N^2 pairs of unit vectors, which are all that is checked.
    """
    if not form.nondegenerate():
        raise DegenerateError("form matrix must be nondegenerate")
    n = form.p_mat.n
    if a.n != n:
        raise ValueError("size mismatch")
    head = raw_subst(a.entries, {"d": -_M, "x": _M + _D})  # a_m e = head * e
    units = [tuple(MPoly.const(int(i == k)) for k in range(n)) for i in range(n)]
    acted = [raw_mat_vec(head, e) for e in units]
    failures = [
        f"defect at v=e{i + 1}, w=e{j + 1}"
        for i in range(n)
        for j in range(n)
        if not (
            form.pair(acted[i], units[j], at=_L) + form.pair(units[i], acted[j], at=_L - _M)
        ).is_zero()
    ]
    return AxiomReport(not failures, n * n, tuple(failures))


# ---------------------------------------------------------------------------
# Bracket closure
# ---------------------------------------------------------------------------


def bracket_closure_check(
    gens: Sequence[CendElem],
    p_mat: PolyMat | None,
    membership: Callable[[CendElem], bool],
) -> AxiomReport:
    """Check that bracket coefficients of generator pairs satisfy a predicate.

    Generators and the coefficients handed to the predicate are a-parts
    relative to p_mat (pass None for the plain algebra).
    """
    failures: list[str] = []
    checked = 0
    for ia, a in enumerate(gens):
        for ib, b in enumerate(gens):
            checked += 1
            series = LambdaSeries.from_raw(
                bracket_apply(a.entries, b.entries, "l", p_mat)
            )
            for (kl, _), coeff in series.coefficients:
                if coeff.is_zero():
                    continue
                if not membership(coeff):
                    failures.append(
                        f"pair ({ia}, {ib}): coefficient of l^{kl} escapes"
                    )
    return AxiomReport(not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# Irreducibility probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeOutcome:
    outcome: str  # "irreducible" | "proper_invariant_detected"
    rank: int
    rounds_used: int
    basis: tuple[tuple[UPoly, ...], ...]


def irreducibility_probe(
    gens: Sequence[CendElem], p_mat: PolyMat, alpha, start: ModVec
) -> ProbeOutcome:
    """Grow the Q[d]-span of action coefficients from a start vector.

    Each round offers every coefficient row of every generator on every basis
    row, and the first round that adds nothing leaves an invariant span:
    irreducible when it is the full module, else a proper invariant
    submodule.  Every round that adds a row strictly enlarges the span, so
    the loop ends (README, "The irreducibility probe").
    """
    n = p_mat.n
    if not start or all(e.is_zero() for e in start):
        raise ValueError("start vector must be nonzero")
    if len(start) != n or any(g.n != n for g in gens):
        raise ValueError("size mismatch")
    if det(p_mat).is_zero():  # every action would be zero
        raise DegenerateError("defining matrix must be nondegenerate")
    std = standard_action(p_mat, alpha)
    acts = [std(g.entries, "l") for g in gens]  # each generator's head, built once
    basis = PidRowBasis(n)
    basis.add(list(start))

    def coefficient_rows(act: VecMap, row: Sequence[UPoly]) -> Iterable[ModVec]:
        vec = tuple(e.to_mpoly("d") for e in row)
        return _vec_series(act(vec)).values()

    def is_full() -> bool:
        return basis.rank() == n and all(
            basis.rows[i][basis.pivots[i]] == UPoly.const(1, "d")
            for i in range(n)
        )

    done: set[tuple[int, Row]] = set()  # (generator, row) pairs already offered
    rounds_used = 0
    while True:
        rounds_used += 1
        snapshot = basis.canonical()
        offered: list[ModVec] = []
        for gi, act in enumerate(acts):
            for row in snapshot:
                if (gi, row) not in done:
                    done.add((gi, row))
                    offered.extend(coefficient_rows(act, row))
        # low degrees first keeps the Hermite entries small (a constant row
        # gives a unit pivot at once); no order changes the span a round ends with
        offered.sort(key=lambda r: max(e.degree() for e in r))
        grew = [basis.add(r) for r in offered]
        if is_full():
            return ProbeOutcome("irreducible", basis.rank(), rounds_used, basis.canonical())
        if not any(grew):
            return ProbeOutcome("proper_invariant_detected", basis.rank(), rounds_used, snapshot)


# ---------------------------------------------------------------------------
# Tensor-square equivariance spot check
# ---------------------------------------------------------------------------


def tensor_action(gen: CendElem, tensor: RawMat) -> RawMat:
    """Diagonal action on V (x) V; slot one lives in d, slot two in x."""
    head1 = raw_subst(gen.entries, {"d": -_L, "x": _L + _D})
    term1 = raw_mul(head1, raw_subst(tensor, {"d": _L + _D}))
    head2 = raw_subst(gen.entries, {"d": -_L, "x": _L + _X})
    term2 = raw_mul(raw_subst(tensor, {"x": _L + _X}), raw_transpose(head2))
    return tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(term1, term2)
    )


def tensor_to_symbol(tensor: RawMat) -> RawMat:
    """p(d) e_i (x) q(d) e_j  ->  p(-x) q(x+d) E_ji."""
    return raw_transpose(raw_subst(tensor, {"d": -_X, "x": _X + _D}))


def phi_equivariance_spotcheck(
    n: int, samples: Sequence[tuple[UPoly, UPoly, int, int, CendElem]]
) -> AxiomReport:
    """Verify that the tensor-to-symbol map intertwines the two actions.

    Samples are (p, q, i, j, generator); p, q are polynomials in d and the
    generator is a plain (defining matrix = identity) anti-fixed symbol.
    """
    failures: list[str] = []
    checked = 0
    for idx, (p, q, i, j, gen) in enumerate(samples):
        checked += 1
        if gen.n != n:
            raise ValueError("generator size mismatch")
        tensor = [[MPoly.zero()] * n for _ in range(n)]
        tensor[i][j] = p.to_mpoly("d") * q.retag("x").to_mpoly()
        tensor_t: RawMat = tuple(tuple(r) for r in tensor)
        lhs = tensor_to_symbol(tensor_action(gen, tensor_t))
        rhs = bracket_apply(gen.entries, tensor_to_symbol(tensor_t), "l")
        if lhs != rhs:
            failures.append(f"sample {idx}: equivariance fails")
    return AxiomReport(not failures, checked, tuple(failures))
