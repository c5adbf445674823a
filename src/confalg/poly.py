"""Exact sparse polynomial arithmetic over Q in the fixed alphabet {d, x, l, m}.

The four variables are written ``d`` (the derivation symbol usually printed as
a partial-derivative sign), ``x`` (the position symbol), and the two series
parameters ``l`` and ``m``.  Everything is exact; equality is representation
equality of canonical forms.

Two layers live here:

* :class:`MPoly` — sparse multivariate polynomials over all four variables,
  the universal carrier for symbols and product results.  Coefficients are
  integer numerators over one shared denominator; exponents are packed into
  one int per term.
* :class:`UPoly` — dense univariate polynomials with a variable tag, used for
  matrix entries over Q[x], Q[d]-module coordinates and reported generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

VARS: tuple[str, ...] = ("d", "x", "l", "m")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Exponent = tuple[int, int, int, int]
RatLike = int | Fraction

# Packed exponents: one 16-bit field per variable, d in the highest field, so
# integer order of keys is lex order with d > x > l > m.  The top bit of each
# field is a guard bit: stored exponents never exceed MAX_EXP, so the sum of
# two keys cannot carry into the next field, and a set guard bit in a sum
# marks an exponent that does not fit.
_BITS = 16
_SHIFTS = (48, 32, 16, 0)
_FIELD = (1 << _BITS) - 1
_ALL = (1 << (4 * _BITS)) - 1
_LM_MASK = (1 << (2 * _BITS)) - 1  # the l and m fields
_GUARD = sum(1 << (s + _BITS - 1) for s in _SHIFTS)
MAX_EXP = (1 << (_BITS - 1)) - 1
_ABOVE_63 = sum((_FIELD ^ 63) << s for s in _SHIFTS)


class ExponentOverflowError(ValueError):
    """An exponent outside 0..MAX_EXP, which a packed key cannot hold."""


def _rat(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _pack(exp: Exponent) -> int:
    key = 0
    for e, s in zip(exp, _SHIFTS):
        if not 0 <= e <= MAX_EXP:
            raise ExponentOverflowError(f"exponent {e} is outside 0..{MAX_EXP}")
        key |= e << s
    return key


def _unpack(key: int) -> Exponent:
    return (key >> 48, (key >> 32) & _FIELD, (key >> 16) & _FIELD, key & _FIELD)


def _total(key: int) -> int:
    """Total degree of a packed key: the sum of its four fields."""
    return (key >> 48) + (key >> 32 & _FIELD) + (key >> 16 & _FIELD) + (key & _FIELD)


def _grlex(key: int) -> int:
    # Graded lexicographic with d > x > l > m: the total degree above the
    # key, which is below 2^64.
    return _total(key) << 64 | key


def _degrees(keys: Iterable[int]) -> list[int]:
    """Largest exponent of each variable over the keys (0 for none)."""
    out = [0, 0, 0, 0]
    for key in keys:
        for i, e in enumerate(_unpack(key)):
            if e > out[i]:
                out[i] = e
    return out


def _overflow(degrees: Sequence[int], names: Sequence[str] = VARS) -> None:
    for var, e in zip(names, degrees):
        if e > MAX_EXP:
            raise ExponentOverflowError(
                f"exponent {e} of {var} is above the limit {MAX_EXP}"
            )


def _check_product(a: dict[int, int], b: dict[int, int]) -> None:
    """Raise unless every exponent of a product of a and b fits its field."""
    # The OR of a key set bounds each of its fields from above; only when
    # that cheap bound fails are the exact degrees (which add) compared.
    if (reduce(or_, a) + reduce(or_, b)) & _GUARD:
        _overflow([i + j for i, j in zip(_degrees(a), _degrees(b))])


def _dict_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two numerator dicts without the exponent guard; zero
    terms are dropped.  Fastest with the shorter dict as ``a``."""
    if len(a) == 1:
        [(k1, c1)] = a.items()
        return {k1 + k: c1 * c for k, c in b.items()}
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if len(out) < len(a) * len(b):  # terms merged, some may cancel
        out = {k: c for k, c in out.items() if c}
    return out


class MPoly:
    """Sparse polynomial in {d, x, l, m} with rational coefficients.

    The value is ``sum(num[key] * monomial(key)) / den``: integer numerators
    keyed by packed exponents over one denominator.  The form is canonical —
    den > 0, gcd(den, all numerators) = 1 and no zero numerators — so ``==``
    and ``hash`` on it are mathematical equality.  Instances are never
    modified after construction; ``terms`` is a read-only view.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Exponent, RatLike] | None = None):
        p = _from_rationals({_pack(e): c for e, c in terms.items()} if terms else {})
        self._num = p._num
        self._den = p._den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> MPoly:
        return _MP_ZERO

    @staticmethod
    def const(value: RatLike) -> MPoly:
        if not value:
            return _MP_ZERO
        return _wrap({0: value.numerator}, value.denominator)

    @staticmethod
    def var(name: str) -> MPoly:
        return _MP_VARS[name]

    @staticmethod
    def monomial(exp: Exponent, coef: RatLike = 1) -> MPoly:
        if not coef:
            return _MP_ZERO
        return _wrap({_pack(exp): coef.numerator}, coef.denominator)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only view {exponent tuple: coefficient}."""
        den = self._den
        return MappingProxyType(
            {_unpack(k): Fraction(c, den) for k, c in self._num.items()}
        )

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(self._num)

    def constant_value(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._num[0], self._den)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        s = _SHIFTS[_VAR_INDEX[var]]
        if not self._num:
            return -1
        return max((k >> s) & _FIELD for k in self._num)

    def total_degree(self) -> int:
        """Largest exponent sum of a term; -1 for the zero polynomial."""
        return max(map(_total, self._num), default=-1)

    def uses(self, var: str) -> bool:
        mask = _FIELD << _SHIFTS[_VAR_INDEX[var]]
        return any(k & mask for k in self._num)

    def variables(self) -> set[str]:
        bits = reduce(or_, self._num, 0)
        return {v for v, s in zip(VARS, _SHIFTS) if bits >> s & _FIELD}

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) under graded lex d > x > l > m."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._num, key=_grlex)
        return _unpack(key), Fraction(self._num[key], self._den)

    def coefficient(self, exp: Exponent) -> Fraction:
        return Fraction(self._num.get(_pack(exp), 0), self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: MPoly | RatLike) -> MPoly:
        if not isinstance(other, MPoly):
            other = _as_mpoly(other)
        a, b = self._num, other._num
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        if len(a) < len(b):
            a, b, da, db = b, a, db, da
        out = a.copy() if da == den else {k: c * (den // da) for k, c in a.items()}
        items = b.items() if db == den else [(k, c * (den // db)) for k, c in b.items()]
        for k, c in items:
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s += c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _make(out, den)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return _wrap({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: MPoly | RatLike) -> MPoly:
        return self + (-_as_mpoly(other))

    def __rsub__(self, other: MPoly | RatLike) -> MPoly:
        return _as_mpoly(other) + (-self)

    def __mul__(self, other: MPoly | RatLike) -> MPoly:
        if not isinstance(other, MPoly):
            other = _as_mpoly(other)
        a, b = self._num, other._num
        if not a or not b:
            return _MP_ZERO
        _check_product(a, b)
        if len(a) > len(b):
            a, b = b, a
        return _make(_dict_mul(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative power")
        result = _MP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: RatLike) -> MPoly:
        if not c:
            return _MP_ZERO
        p = c.numerator
        return _make({k: v * p for k, v in self._num.items()}, self._den * c.denominator)

    # -- structural operations ----------------------------------------------

    def substitute(self, bindings: Mapping[str, MPoly | RatLike]) -> MPoly:
        """Simultaneous substitution; unbound variables are unchanged."""
        return substituter(bindings)(self)

    def derivative(self, var: str) -> MPoly:
        s = _SHIFTS[_VAR_INDEX[var]]
        one = 1 << s
        out: dict[int, int] = {}
        for key, c in self._num.items():
            k = (key >> s) & _FIELD
            if k:
                out[key - one] = c * k
        return _make(out, self._den)

    def coefficients_in(self, var: str) -> dict[int, MPoly]:
        """Split as a polynomial in one variable, ascending powers; values
        are var-free."""
        s = _SHIFTS[_VAR_INDEX[var]]
        clear = _ALL & ~(_FIELD << s)
        buckets: dict[int, dict[int, int]] = {}
        for key, c in self._num.items():
            buckets.setdefault((key >> s) & _FIELD, {})[key & clear] = c
        return {k: _make(buckets[k], self._den) for k in sorted(buckets)}

    # -- comparisons & misc --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        from .grammar import format_poly

        return f"MPoly({format_poly(self)!r})"


def substituter(bindings: Mapping[str, MPoly | RatLike]) -> Callable[[MPoly], MPoly]:
    """Simultaneous substitution of ``bindings``, as a function of the polynomial.

    The powers of each bound value are built once, as numerator dicts, and
    shared by every polynomial the function is applied to; each term's image
    is added straight into one output dict over the common denominator.
    """
    shifts: list[int] = []
    values: list[MPoly] = []
    keep = _ALL  # fields of the variables left in place
    for name, val in bindings.items():
        if name not in _VAR_INDEX:
            raise KeyError(f"unknown variable {name!r}")
        s = _SHIFTS[_VAR_INDEX[name]]
        shifts.append(s)
        values.append(_as_mpoly(val))
        keep &= ~(_FIELD << s)
    powers: list[list[dict[int, int]]] = [[{0: 1}] for _ in values]
    den_powers: list[list[int]] = [[1] for _ in values]
    tables = list(zip(shifts, values, powers, den_powers))

    def subst(p: MPoly) -> MPoly:
        terms = p._num
        if not terms:
            return p
        den = p._den
        bound = []  # (shift, powers, denominator lift by exponent or None)
        for s, val, cache, dcache in tables:
            top = max((k >> s) & _FIELD for k in terms)
            if not top:
                continue
            while len(cache) <= top:
                cache.append(_dict_mul(val._num, cache[-1]))
            vd = val._den
            if vd == 1:
                bound.append((s, cache, None))
            else:
                while len(dcache) <= top:
                    dcache.append(dcache[-1] * vd)
                # a term with exponent k is brought to den * vd**top by vd**(top-k)
                den *= dcache[top]
                bound.append((s, cache, dcache[top::-1]))
        if not bound:
            return p
        _check_substitution(terms, keep, shifts, values)

        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            base = key & keep
            factors = []
            for s, cache, dpw in bound:
                k = (key >> s) & _FIELD
                if dpw is not None:
                    c *= dpw[k]
                if k:
                    f = cache[k]
                    if len(f) == 1:  # a power of a monomial folds into the term
                        [(fk, fc)] = f.items()
                        base += fk
                        c *= fc
                    else:
                        factors.append(f)
            if not factors:
                out[base] = get(base, 0) + c
                continue
            piece = {base: c}
            for f in factors[:-1]:
                piece = _dict_mul(piece, f)
            for k1, c1 in piece.items():
                for k2, c2 in factors[-1].items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return _make({k: c for k, c in out.items() if c}, den)

    return subst


def mpoly_dot(pairs: Iterable[tuple[MPoly, MPoly]]) -> MPoly:
    """The sum of a * b over the pairs, accumulated in one numerator dict.

    The numerators are brought over the lcm of the pair denominators and the
    sum is reduced to canonical form once, at the end.  Pairs with a zero
    factor are skipped; every other pair passes the exponent guard of a
    product.
    """
    live = []
    den = 1
    for a, b in pairs:
        na, nb = a._num, b._num
        if na and nb:
            _check_product(na, nb)
            d = a._den * b._den
            if den % d:
                den = lcm(den, d)
            live.append((na, nb, d) if len(na) <= len(nb) else (nb, na, d))
    if not live:
        return _MP_ZERO
    out: dict[int, int] = {}
    get = out.get
    for na, nb, d in live:
        f = den // d
        for k1, c1 in na.items():
            if f != 1:
                c1 *= f
            for k2, c2 in nb.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return _make({k: c for k, c in out.items() if c}, den)


# The work of a matrix product a * b: the sum over k of the terms in column k
# of a times the terms in row k of b, which is the number of term products the
# per-entry dots make.  Below it, packing and read-back cost about what they
# save or more, and ``mpoly_matmul`` runs one ``mpoly_dot`` per entry.
# Measured on the 2,240 matrix products of ten blocks of the benchmark's
# ``axioms`` requests (Python 3.11.7, x86-64, one core), packed time over
# per-entry time by work: 1.31 at 16-63, 1.14 at 128-255, 0.98 at 256-511,
# 0.77 at 512-1023 and 0.53 from 4096.  Over all of them the products ran
# x1.51 faster than the dots at a threshold of 128, 256 or 512 alike (the
# spread between runs was wider than the differences) and x1.32 at 1024.  Of
# the thresholds that tie, 512 keeps the products of ``ideal``, ``product``
# and ``bracket`` on the benchmark's ``decide`` input (all below 200) furthest
# from it.
MATMUL_PACK_WORK = 512


def mpoly_matmul(
    a: Sequence[Sequence[MPoly]], b: Sequence[Sequence[MPoly]]
) -> tuple[tuple[MPoly, ...], ...]:
    """The exact product of an nr x k matrix ``a`` and a k x nc matrix ``b``.

    The caller checks the shapes.  Every entry comes from one accumulation:
    the numerators of ``a`` are brought over the lcm ``da`` of its
    denominators, and column k of ``a`` is packed into one integer per
    exponent key, entry (i, k) in digit i of width w; row k of ``b`` is packed
    the same way over ``db``, entry (k, j) in digit nr * j.  One dict sums the
    products of the packed column and row over k, so digit i + nr * j of a
    key's sum is the numerator of entry (i, j) over da * db at that key.

    With every scaled numerator of ``a`` below 2^abits and of ``b`` below
    2^bbits in size, an entry's numerator at one key is a sum of at most
    k * t products, t the smaller of the largest term counts of ``a`` and
    ``b``, so w = abits + bbits + bitlen(k * t) + 1 gives |c| < 2^(w-1).
    Adding 2^(w-1) to every digit below the top one makes them nonnegative;
    each is read with a shift and a mask, the top digit is what the shifts
    leave, and each entry is reduced to canonical form.

    Below ``MATMUL_PACK_WORK`` term products, or when the OR of the packed
    keys could set a guard bit, each entry is one ``mpoly_dot`` instead (which
    raises ``ExponentOverflowError`` when a product's exponent does not fit).
    So is a product with one entry: its one digit is that dot, and packing it
    only adds copies.
    """
    nr, nk = len(a), len(b)
    nc = len(b[0]) if b else 0
    if nr * nc == 1 or _small(a, b):
        return _matmul_by_dots(a, b)
    da = lcm(*(e._den for row in a for e in row))
    db = lcm(*(e._den for row in b for e in row))
    abits, aterms = _scaled_size(a, da)
    bbits, bterms = _scaled_size(b, db)
    w = abits + bbits + (nk * min(aterms, bterms)).bit_length() + 1
    cols = [_pack_digits([row[k] for row in a], da, w) for k in range(nk)]
    rows = [_pack_digits(brow, db, w * nr) for brow in b]
    keys_a = reduce(or_, chain.from_iterable(cols), 0)
    if (keys_a + reduce(or_, chain.from_iterable(rows), 0)) & _GUARD:
        return _matmul_by_dots(a, b)
    out: dict[int, int] = {}
    get = out.get
    for col, row in zip(cols, rows):
        if len(col) > len(row):
            col, row = row, col
        for k1, c1 in col.items():
            for k2, c2 in row.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    nums: list[dict[int, int]] = [{} for _ in range(nr * nc)]
    *lower, top = nums
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    bias = half * (((1 << (w * len(lower))) - 1) // mask)  # half in each lower digit
    for key, v in out.items():
        if v:
            v += bias
            for num in lower:
                c = (v & mask) - half
                if c:
                    num[key] = c
                v >>= w
            if v:  # the top digit, signed, is what the shifts leave
                top[key] = v
    den = da * db
    return tuple(tuple(_make(nums[i + nr * j], den) for j in range(nc)) for i in range(nr))


def mpoly_matvec(a: Sequence[Sequence[MPoly]], v: Sequence[MPoly]) -> tuple[MPoly, ...]:
    """The product of the matrix ``a`` and the column ``v``: ``mpoly_matmul``
    of ``a`` and v as a one-column matrix, or, for one row or below
    ``MATMUL_PACK_WORK``, one ``mpoly_dot`` per row without building that
    matrix."""
    if len(a) == 1:
        return (mpoly_dot(zip(a[0], v)),)
    terms_a = sum(map(len, map(_NUM, chain.from_iterable(a))))
    if terms_a * sum(map(len, map(_NUM, v))) < MATMUL_PACK_WORK:  # a bound on the work
        return tuple(mpoly_dot(zip(row, v)) for row in a)
    return tuple([row[0] for row in mpoly_matmul(a, [(e,) for e in v])])


def _small(a: Sequence[Sequence[MPoly]], b: Sequence[Sequence[MPoly]]) -> bool:
    """Whether the per-entry dots of a * b make fewer than MATMUL_PACK_WORK
    term products.  The product of the two total term counts bounds that
    number from above and is cheaper to count, so most small products stop
    at it."""
    terms_a = sum(map(len, map(_NUM, chain.from_iterable(a))))
    if terms_a * sum(map(len, map(_NUM, chain.from_iterable(b)))) < MATMUL_PACK_WORK:
        return True
    work = 0
    for k, brow in enumerate(b):
        work += sum([len(row[k]._num) for row in a]) * sum([len(e._num) for e in brow])
    return work < MATMUL_PACK_WORK


def _matmul_by_dots(
    a: Sequence[Sequence[MPoly]], b: Sequence[Sequence[MPoly]]
) -> tuple[tuple[MPoly, ...], ...]:
    cols = list(zip(*b))
    return tuple([tuple([mpoly_dot(zip(row, col)) for col in cols]) for row in a])


def _scaled_size(m: Sequence[Sequence[MPoly]], den: int) -> tuple[int, int]:
    """Bit length of the largest numerator of ``m`` over ``den``, and the
    largest term count of an entry."""
    bits = terms = 0
    for row in m:
        for e in row:
            num = e._num
            if num:
                bits = max(bits, (max(map(abs, num.values())) * (den // e._den)).bit_length())
                terms = max(terms, len(num))
    return bits, terms


def _pack_digits(entries: Iterable[MPoly], den: int, stride: int) -> dict[int, int]:
    """Entry t's numerators over ``den``, shifted left by t * stride bits and
    summed into one integer per key."""
    out: dict[int, int] = {}
    get = out.get
    shift = 0
    for e in entries:
        num = e._num
        if num:
            f = den // e._den
            for key, c in num.items():
                out[key] = get(key, 0) + (c * f << shift)
        shift += stride
    return out


def _check_substitution(
    terms: dict[int, int], keep: int, shifts: Sequence[int], values: Sequence[MPoly]
) -> None:
    """Raise unless every term's image has all exponents within MAX_EXP."""
    bits = reduce(or_, terms)
    for v in values:
        bits = reduce(or_, v._num, bits)
    if not bits & _ABOVE_63:
        return  # each image exponent is at most 63 + 4 * 63 * 63 <= MAX_EXP
    degs = [_degrees(v._num) for v in values]
    for key in terms:
        out = list(_unpack(key & keep))
        for s, d in zip(shifts, degs):
            k = (key >> s) & _FIELD
            for i in range(4):
                out[i] += k * d[i]
        _overflow(out)


def _wrap(num: dict[int, int], den: int) -> MPoly:
    """MPoly around numerators already in canonical form."""
    p = _new(MPoly)
    p._num = num
    p._den = den
    return p


def _make(num: dict[int, int], den: int) -> MPoly:
    """MPoly from nonzero numerators over den > 0, reduced to canonical form."""
    if not num:
        return _MP_ZERO
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return _wrap(num, den)


def _from_rationals(terms: Mapping[int, RatLike]) -> MPoly:
    """MPoly from {packed key: rational}; zero values are dropped."""
    terms = {k: c for k, c in terms.items() if c}
    den = lcm(*(c.denominator for c in terms.values()))
    return _make({k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den)


def _as_mpoly(value: MPoly | RatLike) -> MPoly:
    if isinstance(value, MPoly):
        return value
    return MPoly.const(value)


_new = object.__new__
_NUM = attrgetter("_num")
_MP_ZERO = _wrap({}, 1)
_MP_ONE = _wrap({0: 1}, 1)
_MP_VARS = {v: _wrap({1 << s: 1}, 1) for v, s in zip(VARS, _SHIFTS)}
_D, _X, _L, _M = (_MP_VARS[v] for v in VARS)


# ---------------------------------------------------------------------------
# Univariate layer
# ---------------------------------------------------------------------------


class UPoly:
    """Dense univariate polynomial over Q, lowest-degree coefficient first.

    The value is ``sum(num[i] * var**i) / den``: a tuple of integer
    numerators over one denominator.  The form is canonical — den > 0,
    gcd(den, all numerators) = 1 and a nonzero last numerator; zero is the
    empty tuple over 1 — so ``==`` and ``hash`` on it (with the variable tag)
    are mathematical equality.  Instances are never modified after
    construction.

    The variable tag is a single letter; matrix entries use ``x``, module
    coordinates use ``d``, and reported shift-variable generators use ``z``
    (standing for d+x).
    """

    __slots__ = ("_num", "_den", "var")

    def __init__(self, coeffs: Iterable[RatLike], var: str = "x"):
        cs = [_rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _make_up([c.numerator * (den // c.denominator) for c in cs], den, var)
        self._num = p._num
        self._den = p._den
        self.var = var

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(var: str = "x") -> UPoly:
        return _up((), 1, var)

    @staticmethod
    def const(value: RatLike, var: str = "x") -> UPoly:
        return UPoly((value,), var)

    @staticmethod
    def variable(var: str = "x") -> UPoly:
        return _up((0, 1), 1, var)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as fractions, lowest degree first."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        return len(self._num) - 1

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    def constant_value(self) -> Fraction:
        if len(self._num) > 1:
            raise ValueError("polynomial is not constant")
        return self.coefficient(0)

    def lead(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: UPoly) -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: UPoly | RatLike) -> UPoly:
        if not isinstance(other, UPoly):
            return self._add_scalar(_rat(other))
        self._check(other)
        return _up_add(self._num, self._den, other._num, other._den, self.var)

    __radd__ = __add__

    def __neg__(self) -> UPoly:
        return _up(tuple(-c for c in self._num), self._den, self.var)

    def __sub__(self, other: UPoly | RatLike) -> UPoly:
        if not isinstance(other, UPoly):
            return self._add_scalar(-_rat(other))
        self._check(other)
        return _up_add(self._num, self._den, [-c for c in other._num], other._den, self.var)

    def __rsub__(self, other: UPoly | RatLike) -> UPoly:
        return (-self)._add_scalar(_rat(other))

    def _add_scalar(self, c: Fraction) -> UPoly:
        n, d = c.numerator, c.denominator
        if not n:
            return self
        a, da = self._num, self._den
        den = da if da % d == 0 else lcm(da, d)
        out = list(a) if den == da else [x * (den // da) for x in a]
        n *= den // d
        if out:
            out[0] += n
        else:
            out.append(n)
        return _make_up(out, den, self.var)

    def __mul__(self, other: UPoly | RatLike) -> UPoly:
        if not isinstance(other, UPoly):
            return self._scale(_rat(other))
        self._check(other)
        a, b = self._num, other._num
        if not a or not b:
            return _up((), 1, self.var)
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _make_up(out, self._den * other._den, self.var)

    __rmul__ = __mul__

    def _scale(self, c: Fraction) -> UPoly:
        n = c.numerator
        if not n or not self._num:
            return _up((), 1, self.var)
        out = self._num if n == 1 else [x * n for x in self._num]
        return _make_up(out, self._den * c.denominator, self.var)

    def __pow__(self, n: int) -> UPoly:
        if n < 0:
            raise ValueError("negative power")
        result = _up((1,), 1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: UPoly) -> tuple[UPoly, UPoly]:
        """Polynomial division with remainder over Q.

        Integer pseudo-division of the numerators: while the divisor's
        leading numerator divides the current top numerator the step is
        exact; otherwise the remainder and quotient are first scaled by the
        smallest factor that makes it so, and the scale goes into the
        denominators at the end.
        """
        self._check(other)
        b = other._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a, var = self._num, self.var
        dq = len(a) - len(b)
        if dq < 0:
            return _up((), 1, var), self
        if len(b) == 1:  # a constant divisor divides exactly
            n, d = (other._den, b[0]) if b[0] > 0 else (-other._den, -b[0])
            quo = self if n == d == 1 else _make_up([x * n for x in a], self._den * d, var)
            return quo, _up((), 1, var)
        lc = b[-1]
        top = len(b) - 1
        rem = list(a)
        quo = [0] * (dq + 1)
        scale = 1  # rem and quo are scale times the true remainder and quotient
        for k in range(dq, -1, -1):
            t = rem[k + top]
            if not t:
                continue
            if t % lc:
                f = abs(lc) // gcd(t, lc)
                rem = [x * f for x in rem]
                quo = [x * f for x in quo]
                scale *= f
                t *= f
            c = t // lc
            quo[k] = c
            for j, y in enumerate(b, k):
                rem[j] -= c * y
        # self = (quo * B + rem) / (scale * den_a) with B = other * den_b
        den = scale * self._den
        if other._den != 1:
            quo = [x * other._den for x in quo]
        return _make_up(quo, den, var), _make_up(rem[:top], den, var)

    def __floordiv__(self, other: UPoly) -> UPoly:
        return self.divmod(other)[0]

    def __mod__(self, other: UPoly) -> UPoly:
        return self.divmod(other)[1]

    def divides(self, other: UPoly) -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def exact_div(self, other: UPoly) -> UPoly:
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quo

    def monic(self) -> UPoly:
        a = self._num
        if not a or a[-1] == self._den:
            return self
        g = gcd(*a)
        if a[-1] < 0:
            g = -g
        return _up(tuple(x // g for x in a), a[-1] // g, self.var)

    def derivative(self) -> UPoly:
        return _make_up([c * k for k, c in enumerate(self._num) if k], self._den, self.var)

    def eval(self, point: RatLike) -> Fraction:
        a = self._num
        if not a:
            return Fraction(0)
        p = _rat(point)
        pn, pd = p.numerator, p.denominator
        acc, w = a[-1], 1  # homogeneous Horner: acc / w is the value so far
        for c in reversed(a[:-1]):
            w *= pd
            acc = acc * pn + c * w
        return Fraction(acc, self._den * w)

    def compose(self, inner: UPoly) -> UPoly:
        """Horner composition self(inner); result in inner's variable."""
        acc = _up((), 1, inner.var)
        for c in reversed(self._num):
            acc = acc * inner + c
        return _make_up(list(acc._num), acc._den * self._den, inner.var)

    def shift(self, alpha: RatLike) -> UPoly:
        """Return self(var + alpha), exact."""
        return self.compose(UPoly((alpha, 1), self.var))

    def retag(self, var: str) -> UPoly:
        return _up(self._num, self._den, var)

    # -- conversions ----------------------------------------------------------

    def to_mpoly(self, var: str | None = None) -> MPoly:
        s = _SHIFTS[_VAR_INDEX[var or self.var]]
        _overflow([self.degree()], [self.var])
        num = {k << s: c for k, c in enumerate(self._num) if c}
        return _wrap(num, self._den) if num else _MP_ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UPoly.const(other, self.var)
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.var == other.var and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.var, self._den, self._num))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        from .grammar import format_upoly

        return f"UPoly({format_upoly(self)!r})"


def _up(num: tuple[int, ...], den: int, var: str) -> UPoly:
    """UPoly around numerators already in canonical form."""
    p = _new(UPoly)
    p._num = num
    p._den = den
    p.var = var
    return p


def _make_up(num: list[int] | tuple[int, ...], den: int, var: str) -> UPoly:
    """UPoly from numerators over den > 0, reduced to canonical form."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if not n:
        return _up((), 1, var)
    if n < len(num):
        num = num[:n]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    return _up(tuple(num), den, var)


def _up_add(a: Sequence[int], da: int, b: Sequence[int], db: int, var: str) -> UPoly:
    """Sum of numerators a over da and b over db."""
    if da != db:
        den = lcm(da, db)
        if da != den:
            a = [c * (den // da) for c in a]
        if db != den:
            b = [c * (den // db) for c in b]
    else:
        den = da
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _make_up(out, den, var)


_UP_ZERO = _up((), 1, "x")
_UP_ONE = _up((1,), 1, "x")


def upoly_from_mpoly(p: MPoly, var: str, out_var: str | None = None) -> UPoly:
    """Read an MPoly that only uses one variable as a UPoly."""
    s = _SHIFTS[_VAR_INDEX[var]]
    if any(k & ~(_FIELD << s) for k in p._num):
        extra = p.variables() - {var}
        raise ValueError(f"polynomial uses {sorted(extra)}, expected only {var!r}")
    return _upoly_from_keys(p, var, out_var)


def _upoly_from_keys(p: MPoly, var: str, out_var: str | None = None) -> UPoly:
    """``upoly_from_mpoly`` for an MPoly already known to use only ``var``."""
    s = _SHIFTS[_VAR_INDEX[var]]
    num = [0] * ((max(p._num, default=-1) >> s) + 1)  # [] for zero
    for k, c in p._num.items():
        num[k >> s] = c
    return _up(tuple(num), p._den, out_var or var)


# ---------------------------------------------------------------------------
# GCDs
# ---------------------------------------------------------------------------


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm; gcd(a, 0) = monic(a)."""
    a._check(b)
    r0, r1 = a, b
    while not r1.is_zero():
        r0, r1 = r1, r0 % r1
    return r0.monic()


def upoly_xgcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """Extended Euclid: (g, u, v) with u*a + v*b = g, g monic."""
    a._check(b)
    r0, r1 = a, b
    u0, u1 = UPoly.const(1, a.var), UPoly.zero(a.var)
    v0, v1 = UPoly.zero(a.var), UPoly.const(1, a.var)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = 1 / r0.lead()
    return r0.monic(), u0 * inv, v0 * inv


# A polynomial in Q[d, x] as (content, primitive part) over Q[x], d the main
# variable: the content is monic (zero for the zero polynomial) and the
# primitive part maps each d-power to its coefficient in Q[x].
_DxParts = tuple[UPoly, dict[int, UPoly]]


def _dx_content_and_primitive(p: MPoly) -> _DxParts:
    """Split p(d, x) as content(x) * primitive part, read off its packed keys.

    Raises ``ValueError`` when p uses a variable other than d and x.
    """
    rows: dict[int, dict[int, int]] = {}
    for key, c in p._num.items():
        if key & _LM_MASK:
            extra = sorted(p.variables() - {"d", "x"})
            raise ValueError(f"bipoly_gcd limited to d, x; found {extra}")
        rows.setdefault(key >> 48, {})[key >> 32 & _FIELD] = c
    den = p._den
    coeffs = {}
    for k in sorted(rows):
        row = rows[k]
        num = [0] * (max(row) + 1)
        for e, c in row.items():
            num[e] = c
        coeffs[k] = _make_up(num, den, "x")
    return _content_and_primitive(coeffs)


def _content_and_primitive(coeffs: dict[int, UPoly]) -> _DxParts:
    """The monic gcd of the coefficients, and the coefficients divided by it."""
    if any(len(c._num) == 1 for c in coeffs.values()):
        return _UP_ONE, coeffs
    content = _UP_ZERO
    for c in coeffs.values():
        content = upoly_gcd(content, c)
        if content.is_constant():
            return content, coeffs
    return content, {k: c.exact_div(content) for k, c in coeffs.items()}


def _pseudo_rem(a: dict[int, UPoly], b: dict[int, UPoly]) -> dict[int, UPoly]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, main variable d.

    Coefficient arithmetic stays in Q[x]; no coefficient divisions occur.
    """
    da = max(a)
    db = max(b)
    lb = b[db]
    rem = dict(a)
    steps = da - db + 1
    while rem and max(rem) >= db:
        dr = max(rem)
        top = rem[dr]
        steps -= 1
        new = {i: c * lb for i, c in rem.items() if i != dr}
        for j, c in b.items():
            if j == db:
                continue
            t = new.get(j + dr - db, _UP_ZERO) - top * c
            if t.is_zero():
                new.pop(j + dr - db, None)
            else:
                new[j + dr - db] = t
        rem = new
    if steps > 0 and rem:
        scale = lb**steps
        rem = {i: c * scale for i, c in rem.items()}
    return rem


def _coprime_at_a_point(a: dict[int, UPoly], b: dict[int, UPoly]) -> bool:
    """Whether a(x0, d) and b(x0, d) are coprime in Q[d], at the least x0 >= 0
    where neither d-leading coefficient vanishes.

    If they are, the gcd of a and b has d-degree 0: its leading coefficient
    divides theirs, so at x0 its image keeps its d-degree and divides both
    images.  A gcd of primitive parts of d-degree 0 is a constant.
    """
    la, lb = a[max(a)], b[max(b)]
    x0 = 0
    while not la.eval(x0) or not lb.eval(x0):
        x0 += 1
    images = [UPoly([p[k].eval(x0) if k in p else 0 for k in range(max(p) + 1)], "d")
              for p in (a, b)]
    return upoly_gcd(*images).is_constant()


def _primitive_gcd(a: dict[int, UPoly], b: dict[int, UPoly]) -> dict[int, UPoly]:
    """The gcd of two primitive parts, itself primitive, by a subresultant PRS.

    A nonzero remainder of d-degree 0 ends it at 1.  When the first
    remainder has positive d-degree, one evaluation (``_coprime_at_a_point``)
    proves most coprime pairs before the sequence grows its coefficients.
    """
    if max(a) < max(b):
        a, b = b, a
    if max(b) == 0:
        return {0: _UP_ONE}
    rem = _pseudo_rem(a, b)
    if not rem:
        return b
    if max(rem) and _coprime_at_a_point(a, b):
        return {0: _UP_ONE}
    c0, c1, g, h = a, b, _UP_ONE, _UP_ONE
    while rem:
        if not max(rem):
            return {0: _UP_ONE}
        delta = max(c0) - max(c1)
        divisor = g * h**delta
        c0, c1 = c1, {k: c.exact_div(divisor) for k, c in rem.items()}
        g = c0[max(c0)]
        if delta:
            h = (g**delta).exact_div(h ** (delta - 1))
        rem = _pseudo_rem(c0, c1)
    return _content_and_primitive(c1)[1]


def _gcd_parts(a: _DxParts, b: _DxParts) -> _DxParts:
    """The gcd of two polynomials in (content, primitive part) form, in that form."""
    if not a[1]:
        return b
    if not b[1]:
        return a
    return upoly_gcd(a[0], b[0]), _primitive_gcd(a[1], b[1])


def _from_parts(parts: _DxParts) -> MPoly:
    """content * primitive part as an MPoly with leading coefficient 1 under
    graded lex (zero for the zero pair)."""
    content, primitive = parts
    if not primitive:
        return _MP_ZERO
    coeffs = {k: content * c for k, c in primitive.items()}
    den = lcm(*(c._den for c in coeffs.values()))
    num = {}
    for k, c in coeffs.items():
        f = den // c._den
        for e, n in enumerate(c._num):
            if n:
                num[k << 48 | e << 32] = n * f
    lead = num[max(num, key=_grlex)]  # the value is num / den; divide it by lead / den
    if lead < 0:
        num = {k: -c for k, c in num.items()}
    return _make(num, abs(lead))


def bipoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """GCD in Q[d, x] via content/primitive split and a subresultant PRS,
    with a one-point coprimality test after the first pseudo-remainder.

    The result is normalized so its leading coefficient under the graded-lex
    term order is 1.
    """
    return _from_parts(_gcd_parts(_dx_content_and_primitive(a), _dx_content_and_primitive(b)))
