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
from .poly import (
    MPoly,
    UPoly,
    _DxParts,
    _dx_content_and_primitive,
    _from_parts,
    _gcd_parts,
)
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
    status: str  # "split" | "x_free"; a replay may also end "unsplit"
    split: tuple[UPoly, UPoly] | None  # (p, q) of the witness when "split"


def _witness(polys: Sequence[MPoly]) -> _DxParts:
    acc = _dx_content_and_primitive(MPoly.zero())
    for p in polys:
        acc = _gcd_parts(acc, _dx_content_and_primitive(p))
    if not acc[1]:
        raise DegenerateError("all generators are zero")
    return acc


def _lowers(lowered: _DxParts, witness: _DxParts) -> bool:
    """Whether a gcd of the witness and something else is a proper divisor.

    It divides the witness, so it is an associate exactly when its content
    and its primitive part keep their degrees in x and in d.
    """
    return lowered[0].degree() < witness[0].degree() or max(lowered[1]) < max(witness[1])


def _state(
    gens: Sequence[MPoly], steps: Sequence[Sequence[int]], witness: _DxParts
) -> ClosureState:
    """The state a derivation reaches: its witness split once, unless no
    generator uses x."""
    derivation = tuple((a, b, k) for a, b, k in steps)
    gcd_witness, rounds = _from_parts(witness), 1 if steps else 0
    if not any(g.uses("x") for g in gens):
        return ClosureState(derivation, gcd_witness, rounds, "x_free", None)
    split = _split(witness)
    return ClosureState(derivation, gcd_witness, rounds, "split" if split else "unsplit", split)


def _l_parts(a: MPoly, b: MPoly) -> dict[int, MPoly]:
    """The nonzero l-coefficients of a(-l, x+l+d) * b(l+d, x), by power."""
    return product_apply(((a,),), ((b,),))[0][0].coefficients_in("l")


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
    state = _state(gens, (), witness)
    if state.status != "unsplit":
        return state
    i = next(i for i, g in enumerate(gens) if not g.is_zero())
    steps: list[tuple[int, int, int]] = []
    for k, part in _l_parts(gens[i], gens[i]).items():
        lowered = _gcd_parts(witness, _dx_content_and_primitive(part))
        if not _lowers(lowered, witness):
            continue
        steps.append((i, i, k))
        witness = lowered
        state = _state(gens, steps, witness)
        if state.status == "split":
            return state
    raise ValueError("the l-parts of g * g left the gcd unsplit, against the one-product lemma")


def replay(gens: Sequence[MPoly], derivation: Sequence[Sequence[int]]) -> ClosureState:
    """The state a derivation reaches, with its witness split as in ``closure``.

    Raises ``ValueError`` unless every step [a, b, k] names two generators
    and its l^k part of gens[a] * gens[b] strictly lowers the gcd; so a
    replay makes at most deg(gcd of the generators) products.  A witness
    that does not split gives the status "unsplit".
    """
    witness = _witness(gens)
    for j, (a, b, k) in enumerate(derivation):
        if not (0 <= a < len(gens) and 0 <= b < len(gens)):
            raise ValueError(f"derivation step {j} names an element that is not a generator")
        part = _l_parts(gens[a], gens[b]).get(k, MPoly.zero())
        lowered = _gcd_parts(witness, _dx_content_and_primitive(part))
        if not _lowers(lowered, witness):
            raise ValueError(f"derivation step {j} does not lower the gcd")
        witness = lowered
    return _state(gens, derivation, witness)


def _split(witness: _DxParts) -> tuple[UPoly, UPoly] | None:
    """Split c * p(x) * pp(d, x), pp primitive over Q[x], as p(x) * q(d + x).

    pp = sum_k c_k(x) d^k is a multiple of some q(d + x) exactly when
    d pp/dx = d pp/dd, that is c_k' = (k + 1) c_{k+1} for every k: then
    pp(d, x) = pp(d + x, 0), so q(z) = sum_k c_k(0) z^k.  Conversely q(d + x)
    is primitive, its d-leading coefficient being lc q, so it is pp up to a
    constant.  p is the monic content; q comes back monic.
    """
    content, primitive = witness
    if not primitive:
        return None
    top = max(primitive)
    zero = UPoly.zero()
    for k in range(top + 1):
        if primitive.get(k, zero).derivative() != primitive.get(k + 1, zero) * (k + 1):
            return None
    return content, UPoly([primitive[k].coefficient(0) if k in primitive else 0
                           for k in range(top + 1)], "z").monic()


def _descriptor(split: tuple[UPoly, UPoly] | None) -> SubalgDescriptor:
    if split is None:
        raise ValueError("gcd witness does not split as p(x) * q(d+x)")
    p, q = split
    if q.is_constant():
        return SubalgDescriptor(FULL if p.is_constant() else P_ONLY, p=p)
    if p.is_constant():
        return SubalgDescriptor(Q_ONLY, q=q)
    return SubalgDescriptor(PQ, p=p, q=q)


def classify(state: ClosureState) -> SubalgDescriptor:
    """The type of a closure from the split its state carries."""
    if state.status == "x_free":
        return SubalgDescriptor(CPARTIAL)
    return _descriptor(state.split)


def irreducible_on_standard(desc: SubalgDescriptor) -> bool:
    """Whether the classified subalgebra acts irreducibly on Q[d]."""
    return desc.type_tag in (CPARTIAL, P_ONLY, FULL)
