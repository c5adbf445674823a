"""Test-side readers and samplers that no verb needs.

``upoly_from_mpoly`` reads a polynomial through the public ``MPoly.terms``
view, coefficient by coefficient, so it is a reference for the library's
packed-key readers; ``random_upoly`` draws univariate test inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from confalg.poly import VARS, MPoly, UPoly


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
