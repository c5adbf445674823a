"""Test-side readers, samplers and references that no verb needs.

``upoly_from_mpoly`` reads a polynomial through the public ``MPoly.terms``
view, coefficient by coefficient, so it is a reference for the library's
packed-key readers; ``random_upoly`` draws univariate test inputs;
``prs_gcd`` is the reference for ``poly.bipoly_gcd``: a subresultant
pseudo-remainder sequence, where the library interpolates from images.
"""

from __future__ import annotations

import random
from fractions import Fraction

from confalg.poly import VARS, MPoly, UPoly, upoly_coefficients, upoly_gcd


def upoly_from_mpoly(p: MPoly, var: str) -> UPoly:
    """Read an MPoly that only uses one variable as a UPoly."""
    extra = p.variables() - {var}
    if extra:
        raise ValueError(f"polynomial uses {sorted(extra)}, expected only {var!r}")
    i = VARS.index(var)
    coeffs = [Fraction(0)] * (max((exp[i] for exp in p.terms), default=-1) + 1)
    for exp, c in p.terms.items():
        coeffs[exp[i]] = c
    return UPoly(coeffs, var)


def random_upoly(rng: random.Random, degree: int, var: str = "x") -> UPoly:
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([1, 2, -1, -2, 3])))
    return UPoly(coeffs, var)


def _content_and_primitive(coeffs: dict[int, UPoly]) -> tuple[UPoly, dict[int, UPoly]]:
    """The monic gcd of the coefficients (d-power -> UPoly in x), and the
    coefficients divided by it."""
    content = UPoly.zero()
    for c in coeffs.values():
        content = upoly_gcd(content, c)
    return content, {k: c.exact_div(content) for k, c in coeffs.items()}


def _pseudo_rem(a: dict[int, UPoly], b: dict[int, UPoly]) -> dict[int, UPoly]:
    """lc(b)^(deg a - deg b + 1) * a mod b, main variable d, deg a >= deg b."""
    db = max(b)
    rem = dict(a)
    for i in range(max(a), db - 1, -1):
        top = rem.pop(i, UPoly.zero())
        rem = {k: c * b[db] for k, c in rem.items()}
        for j, c in b.items():
            if j != db:
                rem[i - db + j] = rem.get(i - db + j, UPoly.zero()) - top * c
        rem = {k: c for k, c in rem.items() if not c.is_zero()}
    return rem


def _prs_primitive_gcd(a: dict[int, UPoly], b: dict[int, UPoly]) -> dict[int, UPoly]:
    """The primitive gcd of two primitive parts by the subresultant PRS in d."""
    if max(a) < max(b):
        a, b = b, a
    c0, c1, g, h = a, b, UPoly.const(1), UPoly.const(1)
    rem = _pseudo_rem(c0, c1)
    while rem:
        if not max(rem):
            return {0: UPoly.const(1)}
        delta = max(c0) - max(c1)
        divisor = g * h**delta
        c0, c1 = c1, {k: c.exact_div(divisor) for k, c in rem.items()}
        g = c0[max(c0)]
        if delta:
            h = (g**delta).exact_div(h ** (delta - 1))
        rem = _pseudo_rem(c0, c1)
    return _content_and_primitive(c1)[1]


def prs_gcd(a: MPoly, b: MPoly) -> MPoly:
    """The gcd in Q[d, x], scaled to leading coefficient 1 under graded lex
    d > x > l > m: the gcd of the contents over Q[x] times the subresultant
    PRS gcd of the primitive parts."""
    (ca, pa), (cb, pb) = (_content_and_primitive(upoly_coefficients(p, "d", "x"))
                          for p in (a, b))
    if not pa or not pb:
        content, primitive = (cb, pb) if not pa else (ca, pa)
    else:
        content, primitive = upoly_gcd(ca, cb), _prs_primitive_gcd(pa, pb)
    if not primitive:
        return MPoly.zero()
    d = MPoly.var("d")
    g = content.to_mpoly() * sum((c.to_mpoly() * d**k for k, c in primitive.items()), MPoly.zero())
    lead = max(g.terms, key=lambda e: (sum(e), e))
    return g.scale(1 / g.terms[lead])
