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
from functools import lru_cache, reduce
from itertools import chain, count
from math import gcd, lcm
from operator import attrgetter, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
_X_SHIFT = _SHIFTS[1]
_X_FIELD = _FIELD << _X_SHIFT
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

    def total_degree(self) -> int:
        """Largest exponent sum of a term; -1 for the zero polynomial."""
        return max(map(_total, self._num), default=-1)

    def uses(self, var: str) -> bool:
        mask = _FIELD << _SHIFTS[_VAR_INDEX[var]]
        return any(k & mask for k in self._num)

    def variables(self) -> set[str]:
        bits = reduce(or_, self._num, 0)
        return {v for v, s in zip(VARS, _SHIFTS) if bits >> s & _FIELD}

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
        return _power(self, n, _MP_ONE)

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


# The number of substitutions ``substituter`` keeps for the whole process,
# least recently used dropped first.  A dropped one is only built again, so
# the size bounds memory, never a result.  Over ten blocks of the benchmark's
# requests (two seeds), ``axioms`` substitutes with 30-32 distinct sets of
# bindings (up to 14 of them from the module twists -3..3), ``closure`` with 6-8
# and ``decide`` with 5.
SUBSTITUTER_CACHE = 64

# The number of image terms one substitution keeps in its memo.  Past it,
# new images are built and used but not kept, so the bound limits memory,
# never a result.  Over ten blocks of the benchmark's requests (seed 3), one
# substitution keeps at most 210 terms on ``axioms``, 15 on ``closure`` and 10
# on ``decide``; one ``verify`` of a certificate with high exponents kept
# 316,591 without the bound.
SUBSTITUTION_TERMS = 1 << 16


def substituter(bindings: Mapping[str, MPoly | RatLike]) -> _Substitution:
    """Simultaneous substitution of ``bindings``, as a function of the polynomial.

    One substitution is kept per set of bindings, for the last
    ``SUBSTITUTER_CACHE`` distinct sets: its images serve
    every later call with equal bindings, whatever the polynomials.
    """
    return _substitution(tuple(sorted((name, _as_mpoly(val)) for name, val in bindings.items())))


class _Substitution:
    """A simultaneous substitution with its memo of images.

    One rule builds every image: the image of a bound exponent pattern is
    the value of the first bound variable in the pattern times the image of
    the pattern with one power of that variable fewer.  Each image is built
    once, on first use, and kept while the memo holds at most
    ``SUBSTITUTION_TERMS`` terms, so a term costs one lookup and one loop
    over its image.  Variables bound to monomials (d -> -l) come last, so
    their powers build single terms below the other values' powers rather
    than copies of those above them.  A value with a denominator brings the
    polynomials over its denominator to the largest exponent of its variable.
    """

    __slots__ = ("_keep", "_bound", "_bindings", "_lifts", "_images", "_terms", "_value_bits")

    def __init__(self, bindings: tuple[tuple[str, MPoly], ...]):
        self._keep = _ALL  # fields of the variables left in place
        self._bindings: list[tuple[int, dict[int, int]]] = []  # (shift, numerators)
        self._lifts: list[tuple[int, int]] = []  # (shift, denominator)
        for name, val in sorted(bindings, key=lambda b: len(b[1]._num) == 1):
            if name not in _VAR_INDEX:
                raise KeyError(f"unknown variable {name!r}")
            s = _SHIFTS[_VAR_INDEX[name]]
            self._keep &= ~(_FIELD << s)
            self._bindings.append((s, val._num))
            if val._den != 1:
                self._lifts.append((s, val._den))
        self._bound = _ALL ^ self._keep
        self._value_bits = reduce(or_, chain.from_iterable(num for _, num in self._bindings), 0)
        self._images: dict[int, dict[int, int]] = {0: {0: 1}}
        self._terms = 1  # the terms of every kept image

    def __call__(self, p: MPoly) -> MPoly:
        return self.apply((p,))[0]

    def apply(self, polys: Sequence[MPoly]) -> list[MPoly]:
        """Each polynomial substituted, in one pass over all of them.

        The exponent guard and the denominator lift are computed once for all
        of them.  Only when an exponent or a value's exponent may be above 63
        is each polynomial checked exactly, in order, before any is
        substituted; the first whose image does not fit raises.
        """
        ors = [reduce(or_, p._num, 0) for p in polys]
        bits = reduce(or_, ors, 0)
        keep, bound = self._keep, self._bound
        if not bits & bound:
            return list(polys)
        if (bits | self._value_bits) & _ABOVE_63:
            for p in polys:
                if p._num:
                    _check_substitution(p._num, keep, self._bindings)
        lift = 1
        scales = []  # (shift, lift by exponent): vd**(top - k) at k
        for s, vd in self._lifts:
            if bits >> s & _FIELD:
                top = max(k >> s & _FIELD for p in polys for k in p._num)
                lift *= vd**top
                scales.append((s, [vd**e for e in range(top, -1, -1)]))
        images = self._images
        out_polys = []
        for p, b in zip(polys, ors):
            if not b & bound:
                out_polys.append(p)
                continue
            out: dict[int, int] = {}
            get = out.get
            for key, c in p._num.items():
                base = key & keep
                for s, dpw in scales:
                    c *= dpw[key >> s & _FIELD]
                image = images.get(key & bound)
                if image is None:
                    image = self._image(key & bound)
                for k, c2 in image.items():
                    k += base
                    out[k] = get(k, 0) + c * c2
            out_polys.append(_make({k: c for k, c in out.items() if c}, p._den * lift))
        return out_polys

    def _image(self, pattern: int) -> dict[int, int]:
        """The numerators of the image of ``pattern``, with every missing
        image below it on the way down built, and kept within the bound."""
        images = self._images
        missing = []  # (pattern, value of its first bound variable)
        while pattern not in images:
            s, num = next(b for b in self._bindings if pattern >> b[0] & _FIELD)
            missing.append((pattern, num))
            pattern -= 1 << s
        image = images[pattern]
        for pattern, num in reversed(missing):
            image = _dict_mul(num, image) if len(num) < len(image) else _dict_mul(image, num)
            if self._terms + len(image) <= SUBSTITUTION_TERMS:
                images[pattern] = image
                self._terms += len(image)
        return image


_substitution = lru_cache(maxsize=SUBSTITUTER_CACHE)(_Substitution)


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


# The fold of x into the digits: each matrix entry then takes one digit per x
# power of the product, ne * (ea + eb + 1) digits in all for an nr x nc
# product (ne = nr * nc) whose factors reach x^ea and x^eb.  Folding trades
# dict entries for longer integers, which pays only while the packed integers
# stay short: ``mpoly_matmul`` folds while those digits take fewer bits than
# this.  Measured (Python 3.11.7, x86-64, a shared 2-core machine) on the
# dense 4 x 4, degree-16 gate cases, whose products need 16 * 33 digits of 60
# bits or more (wall time of one request, median of 3 runs alternating the
# limits), and on the benchmark's ``axioms`` workload (latency_p90_ms, median
# of 10 runs of 30 s; the first row is the layout with x in every key):
#
#     limit         product  bracket  oc-gens  axioms p90
#     0 (no fold)   1.69 s   2.63 s   0.82 s   9.47 ms
#     4096          1.68 s   2.34 s   0.72 s   8.31 ms
#     unlimited     2.42 s   2.79 s   1.03 s
#
# The packed products of sampled axiom checks at n = 2 fold: they take at
# most 936 bits at degree 2 and 2,788 at degree 4.  The dense products stay
# above the limit and keep x in their keys.
MATMUL_FOLD_BITS = 4096


def mpoly_matmul(
    a: Sequence[Sequence[MPoly]], b: Sequence[Sequence[MPoly]]
) -> tuple[tuple[MPoly, ...], ...]:
    """The exact product of an nr x k matrix ``a`` and a k x nc matrix ``b``.

    The caller checks the shapes.  Every entry comes from one accumulation:
    the numerators of ``a`` are brought over the lcm ``da`` of its
    denominators, and column k of ``a`` is packed into one integer per
    x-free exponent key, the x^e part of entry (i, k) in digit i + ne * e of
    width w, with ne = nr * nc; row k of ``b`` is packed the same way over
    ``db``, the x^e part of entry (k, j) in digit nr * j + ne * e.  One dict
    sums the products of the packed column and row over k, so digit
    i + nr * j + ne * e of a key's sum is the numerator of entry (i, j) over
    da * db at that key times x^e.  This is a Kronecker substitution in x,
    the one variable every symbol carries, beside the entry index.

    With every scaled numerator of ``a`` below 2^abits and of ``b`` below
    2^bbits in size, an entry's numerator at one key and x power is a sum of
    at most k * t products (each term of a_ik meets at most one term of b_kj
    there), t the smaller of the largest term counts of ``a`` and ``b``, so
    w = abits + bbits + bitlen(k * t) + 1 gives |c| < 2^(w-1).  Adding
    2^(w-1) to every digit below the top one makes them nonnegative; each is
    read with a shift and a mask, the top digit is what the shifts leave, and
    each entry is reduced to canonical form.

    x stays in the keys, with one digit per entry, when the largest x
    exponents of ``a`` and ``b`` sum above MAX_EXP (the guard bits do not see
    folded exponents) or when the digits would take ``MATMUL_FOLD_BITS`` or
    more.  Below ``MATMUL_PACK_WORK`` term products, or when the OR of the
    packed keys could set a guard bit, each entry is one ``mpoly_dot``
    instead (which raises ``ExponentOverflowError`` when a product's exponent
    does not fit).  So is a product with one entry: its one digit is that
    dot, and packing it only adds copies.
    """
    nr, nk = len(a), len(b)
    nc = len(b[0]) if b else 0
    ne = nr * nc
    if ne == 1 or _small(a, b):
        return _matmul_by_dots(a, b)
    da = lcm(*(e._den for row in a for e in row))
    db = lcm(*(e._den for row in b for e in row))
    abits, aterms, ax = _scaled_size(a, da)
    bbits, bterms, bx = _scaled_size(b, db)
    w = abits + bbits + (nk * min(aterms, bterms)).bit_length() + 1
    nx = ax + bx + 1  # x powers of the product, one digit per entry each
    if nx > MAX_EXP + 1 or ne * nx * w >= MATMUL_FOLD_BITS:
        ax = bx = 0
        nx = 1
    xw = ne * w  # the x stride of the folded digits
    cols = [_pack_digits([row[k] for row in a], da, w, xw if ax else 0) for k in range(nk)]
    rows = [_pack_digits(brow, db, w * nr, xw if bx else 0) for brow in b]
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
    nums: list[dict[int, int]] = [{} for _ in range(ne)]
    # digit t is entry t mod ne at x^(t div ne)
    *lower, (top, top_x) = [(num, e << _X_SHIFT) for e in range(nx) for num in nums]
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    bias = half * (((1 << (w * len(lower))) - 1) // mask)  # half in each lower digit
    for key, v in out.items():
        if v:
            v += bias
            for num, x in lower:
                c = (v & mask) - half
                if c:
                    num[key | x] = c
                v >>= w
            if v:  # the top digit, signed, is what the shifts leave
                top[key | top_x] = v
    den = da * db
    return tuple(tuple(_make(nums[i + nr * j], den) for j in range(nc)) for i in range(nr))


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


def _scaled_size(m: Sequence[Sequence[MPoly]], den: int) -> tuple[int, int, int]:
    """Bit length of the largest numerator of ``m`` over ``den``, the
    largest term count of an entry, and the largest exponent of x."""
    bits = terms = xs = 0
    for row in m:
        for e in row:
            num = e._num
            if num:
                bits = max(bits, (max(map(abs, num.values())) * (den // e._den)).bit_length())
                terms = max(terms, len(num))
                xs = max(xs, max(map(_X_FIELD.__and__, num)))
    return bits, terms, xs >> _X_SHIFT


def _pack_digits(
    entries: Iterable[MPoly], den: int, stride: int, xstride: int
) -> dict[int, int]:
    """Entry t's numerators over ``den``, shifted left by t * stride bits and
    summed into one integer per key.  With ``xstride``, each term's x^e
    leaves its key and shifts it a further e * xstride bits."""
    out: dict[int, int] = {}
    get = out.get
    shift = 0
    for e in entries:
        num = e._num
        if num:
            f = den // e._den
            if xstride:
                for key, c in num.items():
                    x = key & _X_FIELD
                    key ^= x
                    out[key] = get(key, 0) + (c * f << shift + (x >> _X_SHIFT) * xstride)
            else:
                for key, c in num.items():
                    out[key] = get(key, 0) + (c * f << shift)
        shift += stride
    return out


def _check_substitution(
    terms: dict[int, int], keep: int, bindings: Sequence[tuple[int, dict[int, int]]]
) -> None:
    """Raise unless every term's image has all exponents within MAX_EXP."""
    bits = reduce(or_, terms)
    for _, num in bindings:
        bits = reduce(or_, num, bits)
    if not bits & _ABOVE_63:
        return  # each image exponent is at most 63 + 4 * 63 * 63 <= MAX_EXP
    degs = [(s, _degrees(num)) for s, num in bindings]
    for key in terms:
        out = list(_unpack(key & keep))
        for s, d in degs:
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


def _power(base, n: int, one):
    """base ** n by squaring and multiplying, from ``one``."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


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
        return _power(self, n, _up((1,), 1, self.var))

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


def _upoly_from_keys(p: MPoly, var: str) -> UPoly:
    """An MPoly already known to use only ``var``, read as a UPoly."""
    s = _SHIFTS[_VAR_INDEX[var]]
    num = [0] * ((max(p._num, default=-1) >> s) + 1)  # [] for zero
    for k, c in p._num.items():
        num[k >> s] = c
    return _up(tuple(num), p._den, var)


def upoly_coefficients(p: MPoly, outer: str, inner: str) -> dict[int, UPoly]:
    """Split p(outer, inner) as {power of outer: coefficient, a UPoly in
    inner}, ascending powers, in one pass over the packed keys; {} for zero.

    Raises ``ValueError`` when p uses a variable other than the two.
    """
    so, si = _SHIFTS[_VAR_INDEX[outer]], _SHIFTS[_VAR_INDEX[inner]]
    other = _ALL ^ (_FIELD << so | _FIELD << si)
    rows: dict[int, dict[int, int]] = {}
    for key, c in p._num.items():
        if key & other:
            extra = sorted(p.variables() - {outer, inner})
            raise ValueError(f"polynomial uses {extra}, expected only {outer!r} and {inner!r}")
        rows.setdefault(key >> so & _FIELD, {})[key >> si & _FIELD] = c
    den = p._den
    out = {}
    for k in sorted(rows):
        row = rows[k]
        num = [0] * (max(row) + 1)
        for e, c in row.items():
            num[e] = c
        out[k] = _make_up(num, den, inner)
    return out


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
    """Split p(d, x) as content(x) * primitive part.

    Raises ``ValueError`` when p uses a variable other than d and x.
    """
    return _content_and_primitive(upoly_coefficients(p, "d", "x"))


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
    """A pseudo-remainder lc(b)^k * a mod b, k >= 0, main variable d, with no
    coefficient divisions.  It is zero exactly when b divides lc(b)^k * a: for
    b primitive, when b divides a (Gauss's lemma)."""
    db = max(b)
    lb = b[db]
    rem = dict(a)
    while rem and max(rem) >= db:
        dr = max(rem)
        top = rem[dr]
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
    return rem


def _primitive_gcd(a: dict[int, UPoly], b: dict[int, UPoly]) -> dict[int, UPoly]:
    """The gcd g of two primitive parts, itself primitive.

    After two exact exits (b when it divides a, 1 when the first
    pseudo-remainder is nonzero of d-degree 0), g is interpolated in x from
    its images at x0 = 0, 1, ... and proved by trial division (Brown, J. ACM
    18, 1971; README).  An image is the monic gcd in Q[d] where neither
    d-leading coefficient vanishes, times gamma(x0), gamma the gcd of those
    coefficients.  Its degree is at least deg_d g: a constant proves the
    parts coprime, one above the kept images' marks an unlucky point, and
    one below discards them.
    """
    if max(a) < max(b):
        a, b = b, a
    if max(b) == 0:
        return {0: _UP_ONE}
    rem = _pseudo_rem(a, b)
    if not rem:
        return b
    if not max(rem):
        return {0: _UP_ONE}
    la, lb = a[max(a)], b[max(b)]
    gamma = upoly_gcd(la, lb)
    # gamma / lc(g) * g has x-degree below this
    needed = gamma.degree() + min(max(c.degree() for c in p.values()) for p in (a, b)) + 1
    degree, kept = max(b), 0
    for x0 in count():
        if not la.eval(x0) or not lb.eval(x0):
            continue
        image = upoly_gcd(*(UPoly([p.get(k, _UP_ZERO).eval(x0) for k in range(max(p) + 1)], "d")
                            for p in (a, b)))
        if image.is_constant():
            return {0: _UP_ONE}
        if image.degree() > degree:
            continue
        if image.degree() < degree or not kept:
            degree, kept, interpolant, modulus = image.degree(), 0, {}, _UP_ONE
        # Newton's step: add modulus times the residue at x0, over modulus(x0)
        scale, inverse = gamma.eval(x0), 1 / modulus.eval(x0)
        for k in range(degree + 1):
            c = interpolant.get(k, _UP_ZERO)
            if residue := image.coefficient(k) * scale - c.eval(x0):
                interpolant[k] = c + modulus * (residue * inverse)
        modulus, kept = modulus * _up((-x0, 1), 1, "x"), kept + 1
        if kept == needed:
            g = _content_and_primitive(interpolant)[1]
            if not _pseudo_rem(a, g) and not _pseudo_rem(b, g):
                return g
            degree, kept = degree - 1, 0  # so the kept points were unlucky


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
    """GCD in Q[d, x]: the gcd of the contents over Q[x], times the gcd of the
    primitive parts by evaluation and interpolation in x, checked by trial
    division.

    The result is normalized so its leading coefficient under the graded-lex
    term order is 1.
    """
    return _from_parts(_gcd_parts(_dx_content_and_primitive(a), _dx_content_and_primitive(b)))
