"""Subalgebra closure and classification for the scalar case (N = 1).

The closure of generators in Q[d, x] under the substitution product is typed
by its gcd w.  Once the running gcd of the generators and of l-parts derived
from them splits as p(x) * q(d+x), it is the gcd of the whole closure, for
any x-degree cap and round count (README).  So a classification is decided
by a short derivation, which ``replay`` checks in one product per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cend import product_apply
from .poly import _D, _X, MPoly, UPoly, _dx_content_and_primitive, bipoly_gcd

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
    derivation: tuple[tuple[int, int, int], ...]  # steps (a, b, k), as in replay
    gcd_witness: MPoly
    rounds: int  # the derivation depth; the rounds used when undecided
    status: str  # "split" | "x_free" | "budget_exhausted"
    x_degree_cap: int


def _witness(polys: Sequence[MPoly]) -> MPoly:
    acc = MPoly.zero()
    for p in polys:
        acc = bipoly_gcd(acc, p)
    if acc.is_zero():
        raise ValueError("all generators are zero")
    return acc


def _l_parts(a: MPoly, b: MPoly) -> dict[int, MPoly]:
    """The nonzero l-coefficients of a(-l, x+l+d) * b(l+d, x), by power."""
    return product_apply(((a,),), ((b,),), "l")[0][0].coefficients_in("l")


def x_degree_cap_for(gens: Sequence[MPoly], cap: int | None) -> int:
    """``cap``, or by default twice the generators' x-degree plus 4."""
    return 2 * max(g.degree("x") for g in gens) + 4 if cap is None else cap


def closure(
    gens: Sequence[MPoly], x_degree_cap: int | None = None, rounds: int = 12
) -> ClosureState:
    """Search for a derivation whose running gcd splits.

    Round 0 takes the gcd of the generators.  Round r multiplies the pairs of
    elements kept before it that no earlier round multiplied, and keeps an
    l-part only when it is within the x-degree cap and strictly lowers the
    running gcd; the search stops as soon as the gcd splits, so a kept part
    has depth r.  Each kept part lowers the degree of the gcd, so at most
    deg(gcd of the generators) parts are kept.  A round that keeps nothing
    leaves no new pair, and ends the search undecided, as does the budget.
    Generators in variables other than d, x raise ``ValueError`` in the gcd.
    """
    x_degree_cap = x_degree_cap_for(gens, x_degree_cap)
    witness = _witness(gens)
    if not any(g.uses("x") for g in gens):
        return ClosureState((), witness, 0, "x_free", x_degree_cap)
    if split_witness(witness) is not None:
        return ClosureState((), witness, 0, "split", x_degree_cap)
    elems = list(gens)
    steps: list[tuple[int, int, int]] = []
    multiplied = round_no = 0  # every pair of elems[:multiplied] was multiplied
    for round_no in range(1, rounds + 1):
        end = len(elems)
        for a in range(end):
            for b in range(0 if a >= multiplied else multiplied, end):
                for k, part in _l_parts(elems[a], elems[b]).items():
                    if part.degree("x") > x_degree_cap:
                        continue
                    lowered = bipoly_gcd(witness, part)
                    if lowered == witness:
                        continue
                    elems.append(part)
                    steps.append((a, b, k))
                    witness = lowered
                    if split_witness(witness) is not None:
                        return ClosureState(tuple(steps), witness, round_no, "split", x_degree_cap)
        if len(elems) == end:
            break
        multiplied = end
    return ClosureState(tuple(steps), witness, round_no, "budget_exhausted", x_degree_cap)


def replay(
    gens: Sequence[MPoly], derivation: Sequence[Sequence[int]], x_degree_cap: int
) -> tuple[MPoly, int]:
    """The running gcd after a derivation, and the derivation's depth.

    Element i < len(gens) is generator i, and step j derives element
    len(gens) + j.  Raises ``ValueError`` unless every step names earlier
    elements and keeps a part that is within the cap and strictly lowers the
    gcd; so a replay makes at most deg(gcd of the generators) + 1 products.
    """
    elems = list(gens)
    depth = [0] * len(elems)
    witness = _witness(elems)
    for j, (a, b, k) in enumerate(derivation):
        if not (0 <= a < len(elems) and 0 <= b < len(elems)):
            raise ValueError(f"derivation step {j} names an element not derived before it")
        part = _l_parts(elems[a], elems[b]).get(k, MPoly.zero())
        if part.degree("x") > x_degree_cap:
            raise ValueError(f"derivation step {j} exceeds the x-degree cap")
        lowered = bipoly_gcd(witness, part)
        if lowered == witness:
            raise ValueError(f"derivation step {j} does not lower the gcd")
        elems.append(part)
        depth.append(max(depth[a], depth[b]) + 1)
        witness = lowered
    return witness, max(depth)


def split_witness(witness: MPoly) -> tuple[UPoly, UPoly] | None:
    """Split a witness as c * p(x) * q(d + x): monic p in x, monic q in z.

    Put d = z - x.  Then w(z - x, x) = c * p(x) * q(z), so p is its content
    over Q[x] and q its primitive part, which is free of x exactly when w
    splits.  None when it does not split (zero included).
    """
    content, primitive = _dx_content_and_primitive(witness.substitute({"d": _D - _X}))
    if not primitive or any(not c.is_constant() for c in primitive.values()):
        return None
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
    split = split_witness(witness)
    if split is None:
        raise ValueError("gcd witness does not split as p(x) * q(d+x)")
    p, q = split
    if q.is_constant():
        return SubalgDescriptor(FULL if p.is_constant() else P_ONLY, p=p)
    if p.is_constant():
        return SubalgDescriptor(Q_ONLY, q=q)
    return SubalgDescriptor(PQ, p=p, q=q)


def classify(state: ClosureState) -> SubalgDescriptor:
    """Split the decided gcd witness as p(x) * q(d + x) and tag the type."""
    if state.status == "budget_exhausted":
        raise ValueError("closure undecided; classification refused")
    return classify_witness(state.status == "split", state.gcd_witness)


def irreducible_on_standard(desc: SubalgDescriptor) -> bool:
    """Whether the classified subalgebra acts irreducibly on Q[d]."""
    return desc.type_tag in (CPARTIAL, P_ONLY, FULL)
