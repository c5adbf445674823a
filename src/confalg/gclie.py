"""Orthogonal/symplectic conformal subalgebras and bilinear-form machinery.

Generators are anti-fixed points of the defining anti-involution; invariance
of the associated bilinear pairing is checked symbolically in both series
parameters, and irreducibility is probed by growing Q[d]-module spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cend import (
    AntiInvSpec,
    AxiomReport,
    CendElem,
    ModVec,
    VecMap,
    _vec_series,
    apply_antiinv,
    raw_subst,
    raw_transpose,
    stacked_product,
    standard_action,
)
from .poly import _D, _L, _M, _X, UPoly
from .polymat import DegenerateError, PidRowBasis, PolyMat, Row, det, star


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


# ---------------------------------------------------------------------------
# Invariance of the pairing
# ---------------------------------------------------------------------------


def invariance_check(form: ConfBilinearForm, a: CendElem) -> AxiomReport:
    """Verify <a_m v, w>_l + <v, a_m w>_{l-m} == 0 on all of Q[d]^N.

    ``a`` is the full symbol of the acting element, and a_m e = H e with
    H = a(-m, m + d).  Both terms are sesquilinear, so the defect at
    (d^k v, d^j w) is (m - l)^k l^j times the defect at (v, w): the identity
    holds on the whole module exactly when it holds on the N^2 pairs of unit
    vectors.  The defect at (e_i, e_j) is entry (i, j) of
    D = H(d -> -l)^T P(l) + P(l - m) H(d -> l - m), one stacked product
    (README, "How invariance is decided").
    """
    if not form.nondegenerate():
        raise DegenerateError("form matrix must be nondegenerate")
    n = form.p_mat.n
    if a.n != n:
        raise ValueError("size mismatch")
    p_rows = form.p_mat.to_mpoly_rows()
    head_left = raw_subst(a.entries, {"d": -_M, "x": _M - _L})  # H(d -> -l)
    head_right = raw_subst(a.entries, {"d": -_M, "x": _L})  # H(d -> l - m)
    defect = stacked_product((
        (raw_transpose(head_left), raw_subst(p_rows, {"x": _L})),
        (raw_subst(p_rows, {"x": _L - _M}), head_right),
    ))
    failures = [
        f"defect at v=e{i + 1}, w=e{j + 1}"
        for i, row in enumerate(defect)
        for j, entry in enumerate(row)
        if not entry.is_zero()
    ]
    return AxiomReport(not failures, n * n, tuple(failures))


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
    acts = [std(g.entries, _L) for g in gens]  # each generator's head, built once
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
