"""Conformal endomorphism kernel: symbols, products, brackets, actions.

Elements are represented by their symbols, N x N matrices of polynomials in
{d, x}.  All products are simultaneous substitutions followed by matrix
multiplication, so every identity check in this module is exact.

The low-level "raw" layer works on plain tuples of MPoly entries, which may
contain the series parameters l and m during nested computations; the public
types (CendElem, LambdaSeries) enforce the parameter-free invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Mapping, Sequence

from .poly import (
    _D,
    _L,
    _LM_MASK,
    _M,
    _X,
    MPoly,
    RatLike,
    UPoly,
    mpoly_matmul,
    substituter,
    upoly_coefficients,
)
from .polymat import PolyMat, inverse_unimodular, is_unimodular, star

RawMat = tuple[tuple[MPoly, ...], ...]
RawVec = tuple[MPoly, ...]


# ---------------------------------------------------------------------------
# Raw matrix helpers
# ---------------------------------------------------------------------------


def raw_zero(n: int) -> RawMat:
    z = MPoly.zero()
    return tuple(tuple(z for _ in range(n)) for _ in range(n))


def raw_identity(n: int) -> RawMat:
    one = MPoly.const(1)
    z = MPoly.zero()
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def raw_add(a: RawMat, b: RawMat) -> RawMat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def raw_sub(a: RawMat, b: RawMat) -> RawMat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def raw_scale(a: RawMat, c: MPoly | RatLike) -> RawMat:
    return tuple(tuple(x * c for x in ra) for ra in a)


def raw_neg(a: RawMat) -> RawMat:
    return tuple(tuple(-x for x in ra) for ra in a)


def _width(a: RawMat, b: RawMat) -> int:
    """The number of columns of b, once every row of a has one entry per row
    of b and the rows of b have one length."""
    width = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != width for row in b):
        raise ValueError("size mismatch")
    return width


def raw_mul(a: RawMat, b: RawMat) -> RawMat:
    """Matrix product by ``mpoly_matmul``, once the shapes fit."""
    _width(a, b)
    return mpoly_matmul(a, b)


def raw_subst(a: RawMat, bindings: Mapping[str, MPoly | RatLike]) -> RawMat:
    """Substitute into every entry, in one pass over the matrix."""
    entries = iter(substituter(bindings).apply(list(chain.from_iterable(a))))
    return tuple(tuple(islice(entries, len(row))) for row in a)


def raw_transpose(a: RawMat) -> RawMat:
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def raw_is_zero(a: RawMat) -> bool:
    return all(e.is_zero() for row in a for e in row)


def raw_vec_subst(v: RawVec, bindings: Mapping[str, MPoly | RatLike]) -> RawVec:
    return tuple(substituter(bindings).apply(v))


def raw_mat_vec(a: RawMat, v: RawVec) -> RawVec:
    """Matrix-vector product: ``raw_mul`` with v as one column."""
    return tuple([row[0] for row in raw_mul(a, [(e,) for e in v])])


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class CendElem:
    """Symbol of a conformal operator: N x N matrix of polynomials in d, x."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[MPoly]]):
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("symbol matrix must be square")
        for row in entries:
            for e in row:
                if any(k & _LM_MASK for k in e._num):
                    raise ValueError("symbol entries must not contain l or m")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CendElem is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> CendElem:
        return CendElem(raw_identity(n))

    @staticmethod
    def scalar(p: MPoly) -> CendElem:
        return CendElem(((p,),))

    @staticmethod
    def matrix_unit(n: int, i: int, j: int, p: MPoly | RatLike = 1) -> CendElem:
        rows = [[MPoly.zero()] * n for _ in range(n)]
        rows[i][j] = MPoly.const(p) if not isinstance(p, MPoly) else p
        return CendElem(rows)

    # -- algebra ------------------------------------------------------------

    def __sub__(self, other: CendElem) -> CendElem:
        self._same_size(other)
        return CendElem(raw_sub(self.entries, other.entries))

    def __neg__(self) -> CendElem:
        return CendElem(raw_neg(self.entries))

    def scale(self, c: MPoly | RatLike) -> CendElem:
        return CendElem(raw_scale(self.entries, c))

    def times_polymat(self, p: PolyMat) -> CendElem:
        """Right multiplication by a matrix over Q[x]."""
        if p.n != self.n:
            raise ValueError("size mismatch")
        return CendElem(raw_mul(self.entries, p.to_mpoly_rows()))

    def substitute(self, bindings: Mapping[str, MPoly | RatLike]) -> CendElem:
        return CendElem(raw_subst(self.entries, bindings))

    def is_zero(self) -> bool:
        return raw_is_zero(self.entries)

    def uses_x(self) -> bool:
        return any(e.uses("x") for row in self.entries for e in row)

    def _same_size(self, other: CendElem) -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CendElem):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        from .grammar import format_poly

        body = ", ".join(
            "[" + ", ".join(format_poly(e) for e in row) + "]" for row in self.entries
        )
        return f"CendElem([{body}])"


ModVec = tuple[UPoly, ...]


def modvec(entries: Iterable[UPoly | RatLike]) -> ModVec:
    out = []
    for e in entries:
        if isinstance(e, UPoly):
            if e.var != "d":
                raise ValueError("module vectors live over Q[d]")
            out.append(e)
        else:
            out.append(UPoly.const(e, "d"))
    return tuple(out)


def _coefficient_grids(rows: Sequence[Sequence], split: Callable, zero) -> dict[int, list[list]]:
    """The grid ``rows`` split by the powers of one variable: {power: grid of
    coefficients}, ascending.  ``split`` maps an entry to {power: coefficient};
    a coefficient it leaves out is ``zero``."""
    grids: dict[int, list[list]] = {}
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for k, part in split(entry).items():
                grid = grids.get(k)
                if grid is None:
                    grid = grids[k] = [[zero] * len(r) for r in rows]
                grid[i][j] = part
    return {k: grids[k] for k in sorted(grids)}


# ---------------------------------------------------------------------------
# Lambda series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSeries:
    """Finite series sum_k l^k * coefficient, coefficients CendElem."""

    n: int
    coefficients: tuple[tuple[int, CendElem], ...]

    @staticmethod
    def from_raw(raw: RawMat) -> LambdaSeries:
        grids = _coefficient_grids(raw, lambda e: e.coefficients_in("l"), MPoly.zero())
        return LambdaSeries(len(raw), tuple((k, CendElem(g)) for k, g in grids.items()))

    def map_coefficients(self, fn: Callable[[CendElem], CendElem]) -> LambdaSeries:
        return LambdaSeries(
            self.n, tuple((k, fn(val)) for k, val in self.coefficients)
        )

    def to_raw(self) -> RawMat:
        acc = raw_zero(self.n)
        for k, val in self.coefficients:
            acc = raw_add(acc, raw_scale(val.entries, _L**k))
        return acc


# ---------------------------------------------------------------------------
# Products and brackets
# ---------------------------------------------------------------------------


# The product and the bracket are sums of two-factor matrix products.  Each
# operand's substituted factors are built once by ``left_factors`` (the acting
# element g) and ``right_factors`` (the element x acted on) and can be reused
# across calls; ``bracket_of`` combines them in one stacked product.

Factors = tuple[RawMat, RawMat]


def _twist(p: MPoly, shift: MPoly | RatLike) -> dict[str, MPoly]:
    """The bindings of E(-p, p + d + shift): d -> -p, x -> p + d + shift."""
    return {"d": -p, "x": p + _D + shift}


def product_head(g: RawMat, p: MPoly, p_mat: PolyMat | None = None) -> RawMat:
    """The left factor of the product: g(-p, x + p + d), times P(x + p + d)."""
    twist = _twist(p, _X)
    head = raw_subst(g, twist)
    if p_mat is not None:
        head = raw_mul(head, raw_subst(p_mat.to_mpoly_rows(), {"x": twist["x"]}))
    return head


def product_tail(x_raw: RawMat, p: MPoly) -> RawMat:
    """The right factor of the product: x(p + d, x)."""
    return raw_subst(x_raw, {"d": p + _D})


def left_factors(g: RawMat, p: MPoly, p_mat: PolyMat | None = None) -> Factors:
    """g's factors in the bracket: (g(-p, x+p+d) [P(x+p+d)], -g(-p, x))."""
    back = raw_subst(g, {"d": -p})
    return product_head(g, p, p_mat), raw_neg(back)


def right_factors(x_raw: RawMat, p: MPoly, p_mat: PolyMat | None = None) -> Factors:
    """x's factors in the bracket: (x(p+d, x), x(p+d, x-p) [P(x-p)])."""
    back = raw_subst(x_raw, {"d": p + _D, "x": _X - p})
    if p_mat is not None:
        back = raw_mul(back, raw_subst(p_mat.to_mpoly_rows(), {"x": _X - p}))
    return product_tail(x_raw, p), back


def _beside(mats: Sequence[RawMat]) -> RawMat:
    """The matrices side by side: [m_1 | m_2 | ...]."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def _above(mats: Sequence[RawMat]) -> RawMat:
    """The matrices stacked: [m_1 ; m_2 ; ...]."""
    return tuple(chain.from_iterable(mats))


def stacked_product(pairs: Sequence[tuple[RawMat, RawMat]]) -> RawMat:
    """The sum of a * b over the pairs, as one product [a_1 | a_2 | ...] [b_1 ; b_2 ; ...].

    Every a has the rows of a_1 and every b the columns of b_1.  An identity
    whose two sides are such sums is checked by one stacked product of left
    minus right: the terms cancel inside one accumulation.
    """
    lefts, rights = zip(*pairs)
    rows, width = len(lefts[0]), _width(lefts[0], rights[0])
    for a, b in pairs[1:]:
        if len(a) != rows or _width(a, b) != width:
            raise ValueError("size mismatch")
    return mpoly_matmul(_beside(lefts), _above(rights))


def bracket_of(left: Factors, right: Factors) -> RawMat:
    """head * tail + back_x * back_g, as one stacked product."""
    (head, back_g), (tail, back_x) = left, right
    return stacked_product(((head, tail), (back_x, back_g)))


def product_apply(g: RawMat, x_raw: RawMat, p: MPoly = _L, p_mat: PolyMat | None = None) -> RawMat:
    """g acting on the left of x by the associative product, parameter p.

    With ``p_mat`` the operands are the a-parts of g*P and x*P, and so is the
    result c: (gP) prod (xP) = c * P.  No division is performed; the defining
    matrix appears once, mid-product.
    """
    return raw_mul(product_head(g, p, p_mat), product_tail(x_raw, p))


def bracket_apply(g: RawMat, x_raw: RawMat, p: MPoly = _L, p_mat: PolyMat | None = None) -> RawMat:
    """g acting on x by the commutator bracket, parameter p; a-parts with ``p_mat``."""
    return bracket_of(left_factors(g, p, p_mat), right_factors(x_raw, p, p_mat))


def lambda_product(a: CendElem, b: CendElem) -> LambdaSeries:
    """The associative product of two symbols, collected by l-powers."""
    a._same_size(b)
    return LambdaSeries.from_raw(product_apply(a.entries, b.entries))


def lie_bracket(a: CendElem, b: CendElem) -> LambdaSeries:
    """Commutator bracket of two symbols, collected by l-powers."""
    a._same_size(b)
    return LambdaSeries.from_raw(bracket_apply(a.entries, b.entries))


# ---------------------------------------------------------------------------
# Module actions
# ---------------------------------------------------------------------------

# An action is staged: (a-part, parameter p) -> (vector -> vector), p a
# polynomial such as l, m or l + m.  The first stage builds the element's
# matrix once; the second applies it to vectors of polynomials in d (and the
# parameters).  A composite acts at m, and m -> l + m is substituted into the
# resulting vector: that costs less than acting at l + m, whose substitution
# expands powers of a trinomial in every entry of the element's matrix.
VecMap = Callable[[RawVec], RawVec]
ActionClosure = Callable[[RawMat, MPoly], VecMap]


def head_action(head: RawMat, p: MPoly) -> VecMap:
    """v -> head * v(p + d)."""
    shift = substituter({"d": p + _D}).apply
    return lambda vec: raw_mat_vec(head, shift(vec))


def standard_action(p_mat: PolyMat, alpha: RatLike = 0) -> ActionClosure:
    """Action of elements a*P on column vectors over Q[d], twisted by alpha.

    The full symbol E = a*P acts by E(-p, p+d+alpha) v(p+d).
    """
    p_raw = p_mat.to_mpoly_rows()

    def act(a_part: RawMat, p: MPoly) -> VecMap:
        # substitution is a ring map, so each factor is substituted on its own
        twist = _twist(p, alpha)
        return head_action(raw_mul(raw_subst(a_part, twist), raw_subst(p_raw, twist)), p)

    return act


def _vec_series(raw: RawVec) -> dict[int, ModVec]:
    """The l-power coefficients of a vector over Q[d, l], ascending; none is zero."""
    grids = _coefficient_grids((raw,), lambda e: upoly_coefficients(e, "l", "d"), UPoly.zero("d"))
    return {k: tuple(grid[0]) for k, grid in grids.items()}


# ---------------------------------------------------------------------------
# Anti-involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AntiInvSpec:
    """Anti-involution data (P, Y, epsilon, alpha); validated at construction.

    The defining identity is Y^t(-x+alpha) P^t(-x+alpha) == epsilon P(x) Y(x).
    """

    p_mat: PolyMat
    y_mat: PolyMat
    epsilon: int
    alpha: Fraction

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not is_unimodular(self.y_mat):
            raise ValueError("anti-involution matrix must be unimodular")
        lhs = star(self.y_mat, self.alpha) @ star(self.p_mat, self.alpha)
        rhs = (self.p_mat @ self.y_mat).scale(self.epsilon)
        if lhs != rhs:
            raise ValueError("anti-involution identity fails for these data")


def apply_antiinv(a: CendElem, spec: AntiInvSpec) -> CendElem:
    """a-part of the image of a*P: eps Y(d+x) a^t(d, -d-x+alpha) Y^t(-x+alpha)^{-1}."""
    if spec.p_mat.n != a.n:
        raise ValueError("size mismatch")
    y_outer = raw_subst(spec.y_mat.to_mpoly_rows(), {"x": _D + _X})
    middle = raw_subst(
        raw_transpose(a.entries), {"x": -_D - _X + MPoly.const(spec.alpha)}
    )
    y_inner = inverse_unimodular(star(spec.y_mat, spec.alpha)).to_mpoly_rows()
    return CendElem(
        raw_scale(raw_mul(raw_mul(y_outer, middle), y_inner), spec.epsilon)
    )


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    checked: int
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# Each identity is checked as one cancelling product: its left side minus its
# right side is summed in one matrix product and tested for zero.  Every side
# is bilinear in the factors, so a sesquilinearity check is one product of a
# factor difference, and a sum of products or brackets is one stacked product.


def _plus_scaled(f: Factors, g: Factors, c: MPoly) -> Factors:
    """Factor by factor, f + c * g."""
    return raw_add(f[0], raw_scale(g[0], c)), raw_add(f[1], raw_scale(g[1], c))


def _bracket_sum(*terms: tuple[Factors, Factors]) -> RawMat:
    """The sum of the brackets of (left, right) factor pairs, as one bracket.

    The bracket is bilinear, so it is one ``bracket_of`` with the heads and
    the back_x factors side by side and the tails and back_g factors stacked.
    """
    lefts, rights = zip(*terms)
    heads, back_gs = zip(*lefts)
    tails, back_xs = zip(*rights)
    return bracket_of((_beside(heads), _above(back_gs)), (_above(tails), _beside(back_xs)))


def verify_assoc_axioms(
    samples: Iterable[tuple[CendElem, CendElem, CendElem]],
) -> AxiomReport:
    """Exact check of sesquilinearity and associativity on sample triples."""
    failures: list[str] = []
    count = 0
    for idx, (a, b, c) in enumerate(samples):
        count += 1
        ar, br, cr = a.entries, b.entries, c.entries
        head_a = product_head(ar, _L)
        tail_b = product_tail(br, _L)
        # (da)_l b + l a_l b
        head_diff = raw_add(product_head(raw_scale(ar, _D), _L), raw_scale(head_a, _L))
        if not raw_is_zero(raw_mul(head_diff, tail_b)):
            failures.append(f"sample {idx}: sesquilinearity fails in the left slot")
        # a_l (db) - (l + d) a_l b
        tail_diff = raw_sub(product_tail(raw_scale(br, _D), _L), raw_scale(tail_b, _L + _D))
        if not raw_is_zero(raw_mul(head_a, tail_diff)):
            failures.append(f"sample {idx}: sesquilinearity fails in the right slot")
        # a_l (b_m c) - (a_l b)_{l+m} c, the second product taken with -c
        cancel = stacked_product((
            (head_a, product_tail(product_apply(br, cr, _M), _L)),
            (product_head(raw_mul(head_a, tail_b), _L + _M), product_tail(raw_neg(cr), _L + _M)),
        ))
        if not raw_is_zero(cancel):
            failures.append(f"sample {idx}: associativity fails")
    return AxiomReport(not failures, count, tuple(failures))


def verify_lie_axioms(
    samples: Iterable[tuple[CendElem, CendElem, CendElem]],
) -> AxiomReport:
    """Exact check of the bracket axioms on sample triples."""
    failures: list[str] = []
    count = 0
    for idx, (a, b, c) in enumerate(samples):
        count += 1
        ar, br, cr = a.entries, b.entries, c.entries
        neg_c = raw_neg(cr)
        left_a = left_factors(ar, _L)  # a_l acting, in four of the brackets
        left_b = left_factors(br, _M)  # b_m acting, in three
        right_b = right_factors(br, _L)
        br_ab = bracket_of(left_a, right_b)
        # [(da)_l b] + l [a_l b]
        left_diff = _plus_scaled(left_factors(raw_scale(ar, _D), _L), left_a, _L)
        if not raw_is_zero(bracket_of(left_diff, right_b)):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (left)")
        # [a_l (db)] - (l + d) [a_l b]
        right_diff = _plus_scaled(right_factors(raw_scale(br, _D), _L), right_b, -_L - _D)
        if not raw_is_zero(bracket_of(left_a, right_diff)):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (right)")
        flipped = bracket_of(left_b, right_factors(ar, _M))
        if br_ab != raw_neg(raw_subst(flipped, {"m": -_D - _L})):
            failures.append(f"sample {idx}: skew-symmetry fails")
        # [a_l [b_m c]] - [[a_l b]_{l+m} c] - [b_m [a_l c]], the last two
        # brackets taken with -c
        cancel = _bracket_sum(
            (left_a, right_factors(bracket_of(left_b, right_factors(cr, _M)), _L)),
            (left_factors(br_ab, _L + _M), right_factors(neg_c, _L + _M)),
            (left_b, right_factors(bracket_of(left_a, right_factors(neg_c, _L)), _M)),
        )
        if not raw_is_zero(cancel):
            failures.append(f"sample {idx}: Jacobi identity fails")
    return AxiomReport(not failures, count, tuple(failures))


def verify_module_axioms(
    action: ActionClosure,
    samples: Iterable[tuple[CendElem, CendElem, RawVec]],
    p_mat: PolyMat,
) -> AxiomReport:
    """Exact check of the module axioms for an abstract action closure.

    Samples are (a, b, v): a and b are a-parts, whose full symbols are a*P
    and b*P for the defining matrix ``p_mat``, and v is a vector of
    parameter-free polynomials in d.  The composition axiom acts with the
    product of a and b taken as a-parts, P once mid-product
    (``product_apply``).
    """
    failures: list[str] = []
    count = 0
    for idx, (a, b, vec) in enumerate(samples):
        count += 1
        ar, br = a.entries, b.entries
        act_a = action(ar, _L)
        av = act_a(vec)
        minus_l_av = tuple(e * (-_L) for e in av)
        shifted = act_a(tuple(e * _D for e in vec))
        if minus_l_av != tuple(e * _D - t for e, t in zip(av, shifted)):
            failures.append(f"sample {idx}: derivation compatibility fails")
        if action(raw_scale(ar, _D), _L)(vec) != minus_l_av:
            failures.append(f"sample {idx}: sesquilinearity of the action fails")
        composite = product_apply(ar, br, _L, p_mat)
        rhs = raw_vec_subst(action(composite, _M)(vec), {"m": _L + _M})
        if act_a(action(br, _M)(vec)) != rhs:
            failures.append(f"sample {idx}: composition axiom fails")
    return AxiomReport(not failures, count, tuple(failures))
