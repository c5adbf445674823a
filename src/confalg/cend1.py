"""Subalgebra closure and classification for the scalar case (N = 1).

The closure of generators in Q[d, x] under the substitution product is typed
by its gcd w.  Once the running gcd of the generators and of l-parts derived
from them splits as p(x) * q(d+x), it is the gcd of the whole closure; and
the l-parts of the first nonzero generator times itself always make it split
(README).  So every classification is decided by a derivation of at most
one product, which ``replay`` checks in one product per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cend import product_apply
from .poly import _D, _X, MPoly, UPoly, _dx_content_and_primitive, bipoly_gcd
from .polymat import DegenerateError

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
    rounds: int  # the derivation depth: 0, or 1 when a product was needed
    status: str  # "split" | "x_free"


def _witness(polys: Sequence[MPoly]) -> MPoly:
    acc = MPoly.zero()
    for p in polys:
        acc = bipoly_gcd(acc, p)
    if acc.is_zero():
        raise DegenerateError("all generators are zero")
    return acc


def _l_parts(a: MPoly, b: MPoly) -> dict[int, MPoly]:
    """The nonzero l-coefficients of a(-l, x+l+d) * b(l+d, x), by power."""
    return product_apply(((a,),), ((b,),), "l")[0][0].coefficients_in("l")


def closure(gens: Sequence[MPoly]) -> ClosureState:
    """The gcd of the closure of ``gens``, with a derivation that proves it.

    Start from the gcd of the generators.  When no generator uses x or that
    gcd splits, it is the answer.  Otherwise take g, the first nonzero
    generator, and keep each l-part of g * g, in increasing power, that
    strictly lowers the running gcd, until the gcd splits.  The l-parts of
    g * g have gcd p_g(x) * q_g(d+x) (README), so it always splits, and at
    most deg(gcd of the generators) parts are kept.  Generators in variables
    other than d, x raise ``ValueError`` in the gcd.
    """
    witness = _witness(gens)
    if not any(g.uses("x") for g in gens):
        return ClosureState((), witness, 0, "x_free")
    if split_witness(witness) is not None:
        return ClosureState((), witness, 0, "split")
    i = next(i for i, g in enumerate(gens) if not g.is_zero())
    steps: list[tuple[int, int, int]] = []
    for k, part in _l_parts(gens[i], gens[i]).items():
        lowered = bipoly_gcd(witness, part)
        if lowered == witness:
            continue
        steps.append((i, i, k))
        witness = lowered
        if split_witness(witness) is not None:
            return ClosureState(tuple(steps), witness, 1, "split")
    raise ValueError("the l-parts of g * g left the gcd unsplit, against the one-product lemma")


def replay(gens: Sequence[MPoly], derivation: Sequence[Sequence[int]]) -> tuple[MPoly, int]:
    """The running gcd after a derivation, and the derivation's depth.

    Raises ``ValueError`` unless every step [a, b, k] names two generators
    and its l^k part of gens[a] * gens[b] strictly lowers the gcd; so a
    replay makes at most deg(gcd of the generators) products.
    """
    witness = _witness(gens)
    for j, (a, b, k) in enumerate(derivation):
        if not (0 <= a < len(gens) and 0 <= b < len(gens)):
            raise ValueError(f"derivation step {j} names an element that is not a generator")
        lowered = bipoly_gcd(witness, _l_parts(gens[a], gens[b]).get(k, MPoly.zero()))
        if lowered == witness:
            raise ValueError(f"derivation step {j} does not lower the gcd")
        witness = lowered
    return witness, 1 if derivation else 0


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
    """Split the gcd witness as p(x) * q(d + x) and tag the type."""
    return classify_witness(state.status == "split", state.gcd_witness)


def irreducible_on_standard(desc: SubalgDescriptor) -> bool:
    """Whether the classified subalgebra acts irreducibly on Q[d]."""
    return desc.type_tag in (CPARTIAL, P_ONLY, FULL)
