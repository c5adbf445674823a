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
    _make,
    _unpack,
    mpoly_matmul,
    mpoly_matvec,
    substituter,
    upoly_from_mpoly,
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
    """Substitute into every entry; the power tables are built once."""
    sub = substituter(bindings)
    return tuple(tuple(map(sub, row)) for row in a)


def raw_transpose(a: RawMat) -> RawMat:
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def raw_is_zero(a: RawMat) -> bool:
    return all(e.is_zero() for row in a for e in row)


def raw_vec_subst(v: RawVec, bindings: Mapping[str, MPoly | RatLike]) -> RawVec:
    return tuple(map(substituter(bindings), v))


def raw_mat_vec(a: RawMat, v: RawVec) -> RawVec:
    if any(len(row) != len(v) for row in a):
        raise ValueError("size mismatch")
    return mpoly_matvec(a, v)


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
    def zero(n: int) -> CendElem:
        return CendElem(raw_zero(n))

    @staticmethod
    def scalar(p: MPoly) -> CendElem:
        return CendElem(((p,),))

    @staticmethod
    def matrix_unit(n: int, i: int, j: int, p: MPoly | RatLike = 1) -> CendElem:
        rows = [[MPoly.zero()] * n for _ in range(n)]
        rows[i][j] = MPoly.const(p) if not isinstance(p, MPoly) else p
        return CendElem(rows)

    @staticmethod
    def from_constant_matrix(rows: Sequence[Sequence[RatLike]]) -> CendElem:
        return CendElem([[MPoly.const(e) for e in row] for row in rows])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: CendElem) -> CendElem:
        self._same_size(other)
        return CendElem(raw_add(self.entries, other.entries))

    def __sub__(self, other: CendElem) -> CendElem:
        self._same_size(other)
        return CendElem(raw_sub(self.entries, other.entries))

    def __neg__(self) -> CendElem:
        return CendElem(raw_neg(self.entries))

    def scale(self, c: MPoly | RatLike) -> CendElem:
        return CendElem(raw_scale(self.entries, c))

    def __matmul__(self, other: CendElem) -> CendElem:
        self._same_size(other)
        return CendElem(raw_mul(self.entries, other.entries))

    def times_polymat(self, p: PolyMat) -> CendElem:
        """Right multiplication by a matrix over Q[x]."""
        if p.n != self.n:
            raise ValueError("size mismatch")
        return CendElem(raw_mul(self.entries, p.to_mpoly_rows()))

    def d_mult(self) -> CendElem:
        """Multiplication by the derivation symbol d."""
        return CendElem(raw_scale(self.entries, _D))

    def transpose(self) -> CendElem:
        return CendElem(raw_transpose(self.entries))

    def substitute(self, bindings: Mapping[str, MPoly | RatLike]) -> CendElem:
        return CendElem(raw_subst(self.entries, bindings))

    def is_zero(self) -> bool:
        return raw_is_zero(self.entries)

    def x_degree(self) -> int:
        return max((e.degree("x") for row in self.entries for e in row), default=-1)

    def d_degree(self) -> int:
        return max((e.degree("d") for row in self.entries for e in row), default=-1)

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


# ---------------------------------------------------------------------------
# Lambda series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSeries:
    """Finite series sum_{n,k} l^n m^k * coefficient, coefficients CendElem."""

    n: int
    coefficients: tuple[tuple[tuple[int, int], CendElem], ...]

    @staticmethod
    def from_raw(raw: RawMat) -> LambdaSeries:
        n = len(raw)
        buckets: dict[tuple[int, int], list[list[MPoly]]] = {}
        for i, row in enumerate(raw):
            for j, entry in enumerate(row):
                for (kl, km), part in _split_lm(entry).items():
                    grid = buckets.get((kl, km))
                    if grid is None:
                        grid = [[MPoly.zero()] * n for _ in range(n)]
                        buckets[(kl, km)] = grid
                    grid[i][j] = grid[i][j] + part
        coeffs = tuple(
            (key, CendElem(grid)) for key, grid in sorted(buckets.items())
        )
        return LambdaSeries(n, coeffs)

    def coeff(self, l_power: int, m_power: int = 0) -> CendElem:
        for key, val in self.coefficients:
            if key == (l_power, m_power):
                return val
        return CendElem.zero(self.n)

    def as_list(self) -> list[CendElem]:
        """Plain l-power coefficient list [c_0, c_1, ...]; [] for zero."""
        if any(key[1] for key, _ in self.coefficients):
            raise ValueError("series involves the second parameter")
        if not self.coefficients:
            return []
        top = max(key[0] for key, _ in self.coefficients)
        return [self.coeff(k) for k in range(top + 1)]

    def map_coefficients(self, fn: Callable[[CendElem], CendElem]) -> LambdaSeries:
        return LambdaSeries(
            self.n, tuple((key, fn(val)) for key, val in self.coefficients)
        )

    def is_zero(self) -> bool:
        return all(val.is_zero() for _, val in self.coefficients)

    def to_raw(self) -> RawMat:
        acc = raw_zero(self.n)
        for (kl, km), val in self.coefficients:
            mono = MPoly.monomial((0, 0, kl, km))
            acc = raw_add(acc, raw_scale(val.entries, mono))
        return acc


def _split_lm(p: MPoly) -> dict[tuple[int, int], MPoly]:
    out: dict[int, dict[int, int]] = {}
    for key, c in p._num.items():
        out.setdefault(key & _LM_MASK, {})[key & ~_LM_MASK] = c
    return {_unpack(lm)[2:]: _make(t, p._den) for lm, t in out.items()}


# ---------------------------------------------------------------------------
# Products and brackets
# ---------------------------------------------------------------------------


def _param(var: str | MPoly) -> MPoly:
    if isinstance(var, MPoly):
        return var
    if var not in ("l", "m"):
        raise ValueError("series parameter must be l or m")
    return MPoly.var(var)


# The product and the bracket are sums of two-factor matrix products.  Each
# operand's substituted factors are built once by ``left_factors`` (the acting
# element g) and ``right_factors`` (the element x acted on) and can be reused
# across calls; ``bracket_of`` combines them in one matrix product.

Factors = tuple[RawMat, RawMat]


def product_head(g: RawMat, nu: str | MPoly, p_mat: PolyMat | None = None) -> RawMat:
    """The left factor of the product: g(-p, x + p + d), times P(x + p + d)."""
    p = _param(nu)
    head = raw_subst(g, {"d": -p, "x": _X + p + _D})
    if p_mat is not None:
        head = raw_mul(head, raw_subst(p_mat.to_mpoly_rows(), {"x": _X + p + _D}))
    return head


def product_tail(x_raw: RawMat, nu: str | MPoly) -> RawMat:
    """The right factor of the product: x(p + d, x)."""
    return raw_subst(x_raw, {"d": _param(nu) + _D})


def left_factors(g: RawMat, nu: str | MPoly, p_mat: PolyMat | None = None) -> Factors:
    """g's factors in the bracket: (g(-p, x+p+d) [P(x+p+d)], -g(-p, x))."""
    p = _param(nu)
    back = raw_subst(g, {"d": -p})
    return product_head(g, p, p_mat), raw_neg(back)


def right_factors(x_raw: RawMat, nu: str | MPoly, p_mat: PolyMat | None = None) -> Factors:
    """x's factors in the bracket: (x(p+d, x), x(p+d, x-p) [P(x-p)])."""
    p = _param(nu)
    back = raw_subst(x_raw, {"d": p + _D, "x": _X - p})
    if p_mat is not None:
        back = raw_mul(back, raw_subst(p_mat.to_mpoly_rows(), {"x": _X - p}))
    return product_tail(x_raw, p), back


def bracket_of(left: Factors, right: Factors) -> RawMat:
    """head * tail + back_x * back_g, as one product [head | back_x] [tail ; back_g]."""
    (head, back_g), (tail, back_x) = left, right
    if len(head) != len(back_x) or _width(head, tail) != _width(back_x, back_g):
        raise ValueError("size mismatch")
    return mpoly_matmul([(*h, *x) for h, x in zip(head, back_x)], (*tail, *back_g))


def product_apply(
    g: RawMat, x_raw: RawMat, nu: str | MPoly = "l", p_mat: PolyMat | None = None
) -> RawMat:
    """g acting on the left of x by the associative product, parameter nu.

    With ``p_mat`` the operands are the a-parts of g*P and x*P, and so is the
    result c: (gP) prod (xP) = c * P.  No division is performed; the defining
    matrix appears once, mid-product.
    """
    return raw_mul(product_head(g, nu, p_mat), product_tail(x_raw, nu))


def bracket_apply(
    g: RawMat, x_raw: RawMat, nu: str | MPoly = "l", p_mat: PolyMat | None = None
) -> RawMat:
    """g acting on x by the commutator bracket, parameter nu; a-parts with ``p_mat``."""
    return bracket_of(left_factors(g, nu, p_mat), right_factors(x_raw, nu, p_mat))


def lambda_product(a: CendElem, b: CendElem, nu: str = "l") -> LambdaSeries:
    """The associative product of two symbols, collected by l-powers."""
    a._same_size(b)
    return LambdaSeries.from_raw(product_apply(a.entries, b.entries, nu))


def nth_products(a: CendElem, b: CendElem) -> list[CendElem]:
    """Plain l-power coefficients [c_0, c_1, ...] of the product series."""
    return lambda_product(a, b).as_list()


def nth_products_divided(a: CendElem, b: CendElem) -> list[CendElem]:
    """Coefficients in the divided-power convention (l^n / n!)."""
    fact = 1
    out = []
    for k, c in enumerate(nth_products(a, b)):
        if k:
            fact *= k
        out.append(c.scale(fact))
    return out


def lie_bracket(a: CendElem, b: CendElem, nu: str = "l") -> LambdaSeries:
    """Commutator bracket of two symbols, collected by l-powers."""
    a._same_size(b)
    return LambdaSeries.from_raw(bracket_apply(a.entries, b.entries, nu))


# ---------------------------------------------------------------------------
# Module actions
# ---------------------------------------------------------------------------

# An action is staged: (a-part, parameter name) -> (vector -> vector).  The
# first stage builds the element's matrix once; the second applies it to
# vectors of polynomials in d (and the parameters).
VecMap = Callable[[RawVec], RawVec]
ActionClosure = Callable[[RawMat, str], VecMap]


def head_action(head: RawMat, p: MPoly) -> VecMap:
    """v -> head * v(p + d)."""
    shift = substituter({"d": p + _D})
    return lambda vec: raw_mat_vec(head, tuple(map(shift, vec)))


def standard_action(p_mat: PolyMat, alpha: RatLike = 0) -> ActionClosure:
    """Action of elements a*P on column vectors over Q[d], twisted by alpha.

    The full symbol E = a*P acts by E(-nu, nu+d+alpha) v(nu+d).
    """
    p_raw = p_mat.to_mpoly_rows()
    a_const = MPoly.const(alpha)

    def act(a_part: RawMat, param: str) -> VecMap:
        p = _param(param)
        # substitution is a ring map, so each factor is substituted on its own
        bindings = {"d": -p, "x": p + _D + a_const}
        return head_action(raw_mul(raw_subst(a_part, bindings), raw_subst(p_raw, bindings)), p)

    return act


def module_action(
    a: CendElem, p_mat: PolyMat, alpha: RatLike, vec: ModVec
) -> dict[int, ModVec]:
    """Standard action of the element a*P on a vector, split by l-powers."""
    if p_mat.n != a.n or len(vec) != a.n:
        raise ValueError("size mismatch")
    act = standard_action(p_mat, alpha)(a.entries, "l")
    return _vec_series(act(tuple(v.to_mpoly("d") for v in vec)))


def dual_action(a: CendElem, vec: ModVec) -> dict[int, ModVec]:
    """Contragredient action: -a^t(-l, -d) v(l+d), split by l-powers."""
    if len(vec) != a.n:
        raise ValueError("size mismatch")
    act = dual_action_raw(a.entries, "l")
    return _vec_series(act(tuple(v.to_mpoly("d") for v in vec)))


def dual_action_raw(a_part: RawMat, param: str) -> VecMap:
    """The contragredient action as a staged action closure."""
    p = _param(param)
    head = raw_subst(raw_transpose(a_part), {"d": -p, "x": -_D})
    return head_action(raw_neg(head), p)


def _vec_series(raw: RawVec) -> dict[int, ModVec]:
    out: dict[int, list[UPoly]] = {}
    n = len(raw)
    for i, entry in enumerate(raw):
        for k, part in entry.coefficients_in("l").items():
            row = out.setdefault(k, [UPoly.zero("d")] * n)
            row[i] = row[i] + upoly_from_mpoly(part, "d")
    return {k: tuple(v) for k, v in sorted(out.items()) if any(e for e in v)}


# ---------------------------------------------------------------------------
# Conjugation and anti-involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutoSpec:
    """Automorphism data: unimodular C and a rational shift alpha."""

    c_mat: PolyMat
    alpha: Fraction

    def __post_init__(self):
        if not is_unimodular(self.c_mat):
            raise ValueError("automorphism matrix must be unimodular")


def conjugate(a: CendElem, spec: AutoSpec) -> CendElem:
    """C(d+x) a(d, x+alpha) C(x)^{-1}."""
    if spec.c_mat.n != a.n:
        raise ValueError("size mismatch")
    c_outer = raw_subst(spec.c_mat.to_mpoly_rows(), {"x": _D + _X})
    middle = raw_subst(a.entries, {"x": _X + MPoly.const(spec.alpha)})
    c_inner = inverse_unimodular(spec.c_mat).to_mpoly_rows()
    return CendElem(raw_mul(raw_mul(c_outer, middle), c_inner))


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
# Generators and homomorphisms
# ---------------------------------------------------------------------------


def cur_n(n: int) -> list[CendElem]:
    """Matrix-unit generators of the current subalgebra (x-free symbols)."""
    return [CendElem.matrix_unit(n, i, j) for i in range(n) for j in range(n)]


def homomorphism_image(
    a: CendElem,
    r_mat: PolyMat,
    s_mat: PolyMat,
    alpha: RatLike = 0,
    p_mat: PolyMat | None = None,
) -> CendElem:
    """Image S(d+x) a(d, x+alpha) R(x) of the element a*P, P(x+alpha) = R S."""
    if r_mat.n != a.n or s_mat.n != a.n:
        raise ValueError("size mismatch")
    if p_mat is not None and p_mat.shift(alpha) != r_mat @ s_mat:
        raise ValueError("factorization does not match: P(x+alpha) != R(x) S(x)")
    s_outer = raw_subst(s_mat.to_mpoly_rows(), {"x": _D + _X})
    middle = raw_subst(a.entries, {"x": _X + MPoly.const(alpha)})
    r_inner = r_mat.to_mpoly_rows()
    return CendElem(raw_mul(raw_mul(s_outer, middle), r_inner))


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
        prod_ab = raw_mul(head_a, tail_b)
        if raw_mul(product_head(raw_scale(ar, _D), _L), tail_b) != raw_scale(prod_ab, -_L):
            failures.append(f"sample {idx}: sesquilinearity fails in the left slot")
        if raw_mul(head_a, product_tail(raw_scale(br, _D), _L)) != raw_scale(prod_ab, _L + _D):
            failures.append(f"sample {idx}: sesquilinearity fails in the right slot")
        lhs = raw_mul(head_a, product_tail(product_apply(br, cr, _M), _L))
        if lhs != product_apply(prod_ab, cr, _L + _M):
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
        left_a = left_factors(ar, _L)  # a_l acting, in four of the brackets
        left_b = left_factors(br, _M)  # b_m acting, in three
        right_b = right_factors(br, _L)
        br_ab = bracket_of(left_a, right_b)
        if bracket_of(left_factors(raw_scale(ar, _D), _L), right_b) != raw_scale(br_ab, -_L):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (left)")
        if bracket_of(left_a, right_factors(raw_scale(br, _D), _L)) != raw_scale(br_ab, _L + _D):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (right)")
        flipped = bracket_of(left_b, right_factors(ar, _M))
        if br_ab != raw_neg(raw_subst(flipped, {"m": -_D - _L})):
            failures.append(f"sample {idx}: skew-symmetry fails")
        lhs = bracket_of(left_a, right_factors(bracket_of(left_b, right_factors(cr, _M)), _L))
        term1 = bracket_apply(br_ab, cr, _L + _M)
        term2 = bracket_of(left_b, right_factors(bracket_of(left_a, right_factors(cr, _L)), _M))
        if lhs != raw_add(term1, term2):
            failures.append(f"sample {idx}: Jacobi identity fails")
    return AxiomReport(not failures, count, tuple(failures))


def verify_module_axioms(
    action: ActionClosure,
    samples: Iterable[tuple[CendElem, CendElem, RawVec]],
    p_mat: PolyMat | None = None,
    lie: bool = False,
) -> AxiomReport:
    """Exact check of the module axioms for an abstract action closure.

    Samples are (a, b, v) with a, b given by their a-parts relative to p_mat
    and v a vector of parameter-free polynomials in d.
    """
    failures: list[str] = []
    count = 0
    for idx, (a, b, vec) in enumerate(samples):
        count += 1
        ar, br = a.entries, b.entries
        act_a = action(ar, "l")
        act_b = action(br, "m")
        av = act_a(vec)
        scaled = tuple(e * _D for e in av)
        shifted = act_a(tuple(e * _D for e in vec))
        if tuple(e * (-_L) for e in av) != tuple(
            s - t for s, t in zip(scaled, shifted)
        ):
            failures.append(f"sample {idx}: derivation compatibility fails")
        if action(raw_scale(ar, _D), "l")(vec) != tuple(e * (-_L) for e in av):
            failures.append(f"sample {idx}: sesquilinearity of the action fails")
        lhs = act_a(act_b(vec))
        if lie:
            lhs = tuple(p - q for p, q in zip(lhs, act_b(av)))
            composite = bracket_apply(ar, br, "l", p_mat)
        else:
            composite = product_apply(ar, br, "l", p_mat)
        rhs = raw_vec_subst(action(composite, "m")(vec), {"m": _L + _M})
        if lhs != rhs:
            failures.append(f"sample {idx}: composition axiom fails")
    return AxiomReport(not failures, count, tuple(failures))
