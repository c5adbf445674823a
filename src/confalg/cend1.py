"""Subalgebra closure and classification for the scalar case (N = 1).

A subalgebra of Q[d, x] under the substitution product is saturated as a
Q[d]-module basis over the x-power coordinates, together with a running
bivariate gcd witness.  Stabilized closures split as p(x) * q(d+x), which is
exactly the classification data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cend import product_head, product_tail
from .poly import _D, _L, _X, MPoly, UPoly, _dx_content_and_primitive, bipoly_gcd, upoly_from_mpoly
from .polymat import PidRowBasis

CPARTIAL = "CPARTIAL"
P_ONLY = "P_ONLY"
Q_ONLY = "Q_ONLY"
PQ = "PQ"
FULL = "FULL"


@dataclass(frozen=True)
class SubalgDescriptor:
    """One of the classification types with its defining polynomials.

    ``p`` is monic in x; ``q`` is monic in the shift variable z = d + x.
    """

    type_tag: str
    p: UPoly | None = None
    q: UPoly | None = None

    def __post_init__(self):
        if self.type_tag not in (CPARTIAL, P_ONLY, Q_ONLY, PQ, FULL):
            raise ValueError(f"unknown type tag {self.type_tag!r}")


@dataclass(frozen=True)
class ClosureState:
    basis: tuple[MPoly, ...]
    gcd_witness: MPoly
    rounds: int
    status: str  # "stabilized" | "budget_exhausted"
    x_degree_cap: int


def _rows_to_polys(basis: PidRowBasis) -> tuple[MPoly, ...]:
    out = []
    for row in basis.canonical():
        acc = MPoly.zero()
        for k, entry in enumerate(row):
            if not entry.is_zero():
                acc = acc + entry.to_mpoly("d") * _X**k
        out.append(acc)
    return tuple(out)


def _poly_to_row(p: MPoly, cap: int) -> list[UPoly] | None:
    if p.degree("x") > cap:
        return None
    row = [UPoly.zero("d")] * (cap + 1)
    for k, part in p.coefficients_in("x").items():
        row[k] = upoly_from_mpoly(part, "d")
    return row


def _witness(polys: Sequence[MPoly]) -> MPoly:
    acc = MPoly.zero()
    for p in polys:
        acc = bipoly_gcd(acc, p)
    return acc


def closure(
    gens: Sequence[MPoly], x_degree_cap: int | None = None, rounds: int = 12
) -> ClosureState:
    """Saturate generators under the product's coefficient extraction.

    Elements above the x-degree cap are discarded; the state stabilizes when
    a round adds no row to the echelon basis.  The module only grows, so a
    pair of basis rows multiplied in an earlier round, or an l-part offered
    before, would only be rejected again: each is computed once.  The gcd
    witness is a function of the basis, so it is computed once, at return.
    """
    if not gens:
        raise ValueError("need at least one generator")
    clean = []
    for g in gens:
        extra = g.variables() - {"d", "x"}
        if extra:
            raise ValueError(f"generators live in d, x; found {sorted(extra)}")
        if not g.is_zero():
            clean.append(g)
    if not clean:
        raise ValueError("all generators are zero")
    if x_degree_cap is None:
        x_degree_cap = 2 * max(g.degree("x") for g in clean) + 4
    basis = PidRowBasis(x_degree_cap + 1, var="d")
    for g in clean:
        row = _poly_to_row(g, x_degree_cap)
        if row is None:
            raise ValueError("generator exceeds the x-degree cap")
        basis.add(row)

    heads: dict[MPoly, MPoly] = {}  # a(-l, x+l+d) per basis row a
    tails: dict[MPoly, MPoly] = {}  # b(l+d, x) per basis row b
    multiplied: set[tuple[MPoly, MPoly]] = set()
    offered: set[MPoly] = set()
    status = "budget_exhausted"
    rounds_used = 0
    for rounds_used in range(1, rounds + 1):
        current = _rows_to_polys(basis)
        for r in current:
            if r not in heads:
                heads[r] = product_head(((r,),), _L)[0][0]
                tails[r] = product_tail(((r,),), _L)[0][0]
        changed = False
        for a in current:
            for b in current:
                if (a, b) in multiplied:
                    continue
                multiplied.add((a, b))
                for part in (heads[a] * tails[b]).coefficients_in("l").values():
                    if part in offered:
                        continue
                    offered.add(part)
                    row = _poly_to_row(part, x_degree_cap)
                    if row is not None and basis.add(row):
                        changed = True
        if not changed:
            status = "stabilized"
            break
    polys = _rows_to_polys(basis)
    return ClosureState(polys, _witness(polys), rounds_used, status, x_degree_cap)


def split_witness(witness: MPoly) -> tuple[UPoly, UPoly]:
    """Split a witness as c * p(x) * q(d + x): monic p in x, monic q in z.

    Put d = z - x.  Then w(z - x, x) = c * p(x) * q(z), so p is its content
    over Q[x] and q its primitive part, which is free of x exactly when w
    splits.
    """
    content, primitive = _dx_content_and_primitive(witness.substitute({"d": _D - _X}))
    if not primitive or any(not c.is_constant() for c in primitive.values()):
        raise ValueError("gcd witness does not split as p(x) * q(d+x)")
    coeffs = [0] * (max(primitive) + 1)
    for k, c in primitive.items():
        coeffs[k] = c.constant_value()
    return content, UPoly(coeffs, "z").monic()


def classify_witness(uses_x: bool, witness: MPoly) -> SubalgDescriptor:
    """The type of the closure of generators with this gcd witness.

    The closure is CPARTIAL exactly when no generator uses x, since x-free
    symbols stay x-free under the product; otherwise the split of the
    witness decides the type.
    """
    if not uses_x:
        return SubalgDescriptor(CPARTIAL)
    p, q = split_witness(witness)
    if q.is_constant():
        return SubalgDescriptor(FULL if p.is_constant() else P_ONLY, p=p)
    if p.is_constant():
        return SubalgDescriptor(Q_ONLY, q=q)
    return SubalgDescriptor(PQ, p=p, q=q)


def classify(state: ClosureState) -> SubalgDescriptor:
    """Split the stabilized gcd witness as p(x) * q(d + x) and tag the type."""
    if state.status != "stabilized":
        raise ValueError("closure did not stabilize; classification refused")
    return classify_witness(any(b.uses("x") for b in state.basis), state.gcd_witness)


def irreducible_on_standard(desc: SubalgDescriptor) -> bool:
    """Whether the classified subalgebra acts irreducibly on Q[d]."""
    return desc.type_tag in (CPARTIAL, P_ONLY, FULL)
