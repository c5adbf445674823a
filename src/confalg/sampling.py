"""Deterministic sample generators for checks and property runs."""

from __future__ import annotations

import random
from fractions import Fraction

from .cend import CendElem
from .poly import _SHIFTS, MPoly, UPoly, _make
from .polymat import PolyMat

# the samplers write integer numerators under packed exponent keys directly
_D_SHIFT, _X_SHIFT = _SHIFTS[:2]


def random_mpoly_dx(rng: random.Random, degree: int) -> MPoly:
    """Random polynomial in d, x with total degree <= degree, coefficients in -2..2."""
    num = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = rng.randint(-2, 2)
            if c:
                num[i << _D_SHIFT | j << _X_SHIFT] = c
    return _make(num, 1)


def random_cend(rng: random.Random, n: int, degree: int) -> CendElem:
    return CendElem(
        [[random_mpoly_dx(rng, degree) for _ in range(n)] for _ in range(n)]
    )


def random_polymat(rng: random.Random, n: int, degree: int) -> PolyMat:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(degree + 1)]
            row.append(UPoly(coeffs, "x"))
        rows.append(row)
    return PolyMat(rows)


def random_unimodular(rng: random.Random, n: int) -> PolyMat:
    """Product of four random transvections, sign flips and swaps."""
    mat = PolyMat.identity(n)
    if n == 1:
        return mat.scale(rng.choice([1, -1, 2, Fraction(1, 2)]))
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            p = UPoly(
                [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))], "x"
            )
            rows = [list(r) for r in PolyMat.identity(n).rows]
            rows[i][j] = p
            mat = mat @ PolyMat(rows)
        elif kind == 1:
            i = rng.randrange(n)
            entries: list[UPoly | Fraction] = [Fraction(1)] * n
            entries[i] = Fraction(rng.choice([-1, 2, -2]))
            mat = mat @ PolyMat.diagonal(entries)
        else:
            i, j = rng.sample(range(n), 2)
            rows = [list(r) for r in PolyMat.identity(n).rows]
            rows[i][i] = UPoly.zero()
            rows[j][j] = UPoly.zero()
            rows[i][j] = UPoly.const(1)
            rows[j][i] = UPoly.const(1)
            mat = mat @ PolyMat(rows)
    return mat


def random_modvec_raw(rng: random.Random, n: int, degree: int) -> tuple[MPoly, ...]:
    out = []
    for _ in range(n):
        num = {}
        for k in range(degree + 1):
            c = rng.randint(-2, 2)
            if c:
                num[k << _D_SHIFT] = c
        out.append(_make(num, 1))
    return tuple(out)
