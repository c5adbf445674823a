"""Square matrices over Q[x]: determinants, Smith/Hermite forms, star.

Everything is exact and certificate-producing.  One Hermite routine,
``PidRowBasis``, serves both normal forms: Hermite generators take the
stacked rows of an ideal's generators and carry their multipliers in tail
columns, and Smith forms alternate Hermite passes over the matrix augmented
by its transforms, so they carry the unimodular transforms too.
One minor expansion, level by level, serves ``det``, ``adjugate`` and the
Smith divisors: the first two read one level, the divisors the gcd of each
level; ``adjugate_and_det`` reads det off the adjugate.
``DegenerateError`` lives here, the lowest module every decision imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Iterator, Sequence

from .poly import MPoly, RatLike, UPoly, upoly_gcd, upoly_xgcd

Row = tuple[UPoly, ...]


class DegenerateError(ValueError):
    """A nondegeneracy precondition (det != 0, a nonzero generator) failed."""


class PolyMat:
    """Immutable N x N matrix with UPoly entries in x."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[UPoly]]):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for r in rows:
            for e in r:
                if e.var != "x":
                    raise ValueError("PolyMat entries must be polynomials in x")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMat is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> PolyMat:
        one = UPoly.const(1)
        zero = UPoly.zero()
        return PolyMat([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> PolyMat:
        z = UPoly.zero()
        return PolyMat([[z] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries: Sequence[UPoly | RatLike]) -> PolyMat:
        n = len(entries)
        zero = UPoly.zero()
        ups = [e if isinstance(e, UPoly) else UPoly.const(e) for e in entries]
        return PolyMat([[ups[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- algebra ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> UPoly:
        return self.rows[ij[0]][ij[1]]

    def __sub__(self, other: PolyMat) -> PolyMat:
        self._same_size(other)
        return PolyMat(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __matmul__(self, other: PolyMat) -> PolyMat:
        self._same_size(other)
        n = self.n
        zero = UPoly.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a = self.rows[i][k]
                    b = other.rows[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMat(out)

    def scale(self, c: RatLike) -> PolyMat:
        return PolyMat([[e * c for e in r] for r in self.rows])

    def transpose(self) -> PolyMat:
        return PolyMat(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    def map_entries(self, fn: Callable[[UPoly], UPoly]) -> PolyMat:
        return PolyMat([[fn(e) for e in r] for r in self.rows])

    def shift(self, alpha: RatLike) -> PolyMat:
        """Entrywise x -> x + alpha."""
        return self.map_entries(lambda e: e.shift(alpha))

    def compose(self, inner: UPoly) -> PolyMat:
        return self.map_entries(lambda e: e.compose(inner))

    def _same_size(self, other: PolyMat) -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMat):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        from .grammar import format_upoly

        body = ", ".join(
            "[" + ", ".join(format_upoly(e) for e in r) + "]" for r in self.rows
        )
        return f"PolyMat([{body}])"

    # -- conversions ----------------------------------------------------------

    def to_mpoly_rows(self) -> tuple[tuple[MPoly, ...], ...]:
        return tuple(tuple(e.to_mpoly("x") for e in row) for row in self.rows)


def _minors(mat: PolyMat, leading_rows: bool = False) -> Iterator[dict[tuple, UPoly]]:
    """Level k = 1..n of the nonzero k x k minors, keyed by (rows, columns).

    Level 1 is the entries; each later level is one Laplace step along its
    last row over the previous level.  ``leading_rows`` keeps only the rows
    0..k-1, all that ``det`` needs.  The levels stop after the first empty one.
    """
    n = mat.n
    level = {((i,), (j,)): e for i, r in enumerate(mat.rows[: 1 if leading_rows else n])
             for j, e in enumerate(r) if e}
    for k in range(2, n + 1):
        yield level
        if not level:
            return
        prev, level = level, {}
        for rows in [tuple(range(k))] if leading_rows else combinations(range(n), k):
            last, upper = mat.rows[rows[-1]], rows[:-1]
            for cols in combinations(range(n), k):
                acc = UPoly.zero()
                for pos, c in enumerate(cols):
                    sub = prev.get((upper, cols[:pos] + cols[pos + 1 :]))
                    if sub is not None and last[c]:
                        term = last[c] * sub
                        acc = acc - term if (k - 1 + pos) % 2 else acc + term
                if acc:
                    level[rows, cols] = acc
    yield level


def det(mat: PolyMat) -> UPoly:
    """Exact determinant, the one minor of the last leading-row level.

    A last-row step for the rows 0..k-1 needs only minors on the rows
    0..k-2, so each level holds at most C(n, k) minors, not C(n, k)^2.
    """
    *_, last = _minors(mat, leading_rows=True)
    return next(iter(last.values()), UPoly.zero())


def is_unimodular(mat: PolyMat) -> bool:
    """True iff det is a nonzero rational constant."""
    d = det(mat)
    return d.is_constant() and not d.is_zero()


def adjugate(mat: PolyMat) -> PolyMat:
    """The signed (n-1) x (n-1) minors, transposed: adj[j][i] = (-1)^(i+j) M_ij."""
    n = mat.n
    if n == 1:
        return PolyMat([[UPoly.const(1)]])
    minors = next(islice(_minors(mat), n - 2, None), {})  # {} if an earlier level is empty
    rest = [tuple(k for k in range(n) if k != i) for i in range(n)]
    zero = UPoly.zero()
    return PolyMat([[minors.get((rest[i], rest[j]), zero) * (-1) ** (i + j) for i in range(n)]
                    for j in range(n)])


def adjugate_and_det(mat: PolyMat) -> tuple[PolyMat, UPoly]:
    """The adjugate and the determinant from one minor expansion: det is row
    0 of ``mat`` against column 0 of the adjugate (Laplace)."""
    adj = adjugate(mat)
    return adj, sum((e * adj.rows[j][0] for j, e in enumerate(mat.rows[0])), UPoly.zero())


def inverse_unimodular(mat: PolyMat) -> PolyMat:
    """Inverse over Q[x]; requires a nonzero constant determinant."""
    adj, d = adjugate_and_det(mat)
    if not d.is_constant() or d.is_zero():
        raise ValueError("matrix is not unimodular")
    return adj.scale(1 / d.constant_value())


def star(mat: PolyMat, alpha: RatLike = 0) -> PolyMat:
    """Entrywise x -> -x + alpha, then transpose."""
    reflected = mat.compose(UPoly((alpha, -1)))
    return reflected.transpose()


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithCert:
    """Diagonal divisors with the unimodular transforms that realize them."""

    divisors: tuple[UPoly, ...]
    left: PolyMat
    right: PolyMat

    def verify(self, mat: PolyMat) -> bool:
        if not (is_unimodular(self.left) and is_unimodular(self.right)):
            return False
        if self.left @ mat @ self.right != PolyMat.diagonal(self.divisors):
            return False
        prev: UPoly | None = None
        seen_zero = False
        for dv in self.divisors:
            if dv.is_zero():
                seen_zero = True
                continue
            if seen_zero:
                return False
            if not dv.monic() == dv:
                return False
            if prev is not None and not prev.divides(dv):
                return False
            prev = dv
        return True


def smith_form(mat: PolyMat) -> SmithCert:
    """Smith normal form over Q[x] by alternating Hermite passes.

    Returns monic divisors with the divisibility chain, trailing zeros for
    singular input, and unimodular left/right transforms with
    left @ mat @ right == diag(divisors).  Each pass is one ``PidRowBasis``
    over [work | left], then over [work^T | right^T], until work is
    diagonal; 2x2 xgcd steps then build the chain (README, "How smith
    computes").
    """
    n = mat.n
    work = [list(r) for r in mat.rows]
    trans = [[list(r) for r in PolyMat.identity(n).rows] for _ in range(2)]  # left, right^T
    side = 0
    while True:
        # trans is unimodular, so [work | trans] has rank n and n rows come
        # back: a row whose work half is zero keeps its pivot in trans
        basis = PidRowBasis(2 * n)
        for w, t in zip(work, trans[side]):
            basis.add(w + t)
        work, trans[side] = [r[:n] for r in basis.rows], [r[n:] for r in basis.rows]
        if all(e.is_zero() for i, r in enumerate(work) for j, e in enumerate(r) if i != j):
            break
        work, side = [list(c) for c in zip(*work)], 1 - side
    left, right_t = trans
    d = [work[i][i] for i in range(n)]  # monic Hermite pivots, then the zeros
    one = UPoly.const(1)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = d[i], d[j]
            if b.is_zero() or a.divides(b):
                continue
            g, s, t = upoly_xgcd(a, b)  # diag(a, b) -> diag(g, ab/g)
            a_g, b_g = a.exact_div(g), b.exact_div(g)
            d[i], d[j] = g, a_g * b
            _mix_rows(left, i, j, ((s, t), (-b_g, a_g)))
            _mix_rows(right_t, i, j, ((one, one), (-t * b_g, s * a_g)))
    return SmithCert(tuple(d), PolyMat(left), PolyMat(right_t).transpose())


def _mix_rows(rows: list[list[UPoly]], i: int, j: int, m) -> None:
    """Replace rows i and j by the 2x2 matrix ``m`` times them."""
    (a, b), (c, e) = m
    ri, rj = rows[i], rows[j]
    rows[i] = [a * p + b * q for p, q in zip(ri, rj)]
    rows[j] = [c * p + e * q for p, q in zip(ri, rj)]


def smith_divisors(mat: PolyMat) -> tuple[UPoly, ...]:
    """The Smith divisors d_k / d_(k-1), d_k the monic gcd of the k x k minors."""
    one = UPoly.const(1)
    out, prev = [], one
    for level in _minors(mat):
        if not level:  # d_k = 0, and so are all later ones
            break
        g = UPoly.zero()
        for minor in level.values():
            g = upoly_gcd(g, minor)
            if g == one:
                break
        out.append(g.exact_div(prev))
        prev = g
    return tuple(out) + (UPoly.zero(),) * (mat.n - len(out))


# ---------------------------------------------------------------------------
# Hermite row form over a PID (Q[v])
# ---------------------------------------------------------------------------


class PidRowBasis:
    """Incremental Hermite/echelon basis for rows over Q[v].

    Rows are vectors of UPoly in a fixed variable; the basis is kept with
    strictly increasing pivot columns, monic pivots and reduced entries above
    each pivot, so equal row modules produce identical canonical forms.
    A row may be longer than ``ncols``: its tail columns take no pivot, but
    every row operation updates them, so a tail seeded with a unit vector
    records how each basis row combines the inserted rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[UPoly]] = []
        self.pivots: list[int] = []

    def _lead_col(self, row: Sequence[UPoly]) -> int | None:
        for j in range(self.ncols):
            if not row[j].is_zero():
                return j
        return None

    def add(self, row: Sequence[UPoly]) -> bool:
        """Insert a row; returns True if the module grew or a pivot changed."""
        if len(row) < self.ncols:
            raise ValueError("row width mismatch")
        r = list(row)
        changed = False
        idx = 0
        while idx < len(self.rows):
            col = self.pivots[idx]
            lead = self._lead_col(r)
            if lead is None:
                break
            if lead < col:
                break
            if lead > col:
                idx += 1
                continue
            pivot = self.rows[idx][col]
            q, rem = r[col].divmod(pivot)
            if not rem:
                r = _sub_multiple(r, q, self.rows[idx])
            else:
                g, u, v = upoly_xgcd(pivot, r[col])
                combined = [u * a + v * b for a, b in zip(self.rows[idx], r)]
                qp = pivot.exact_div(g)
                qr = r[col].exact_div(g)
                r = [qp * b - qr * a for a, b in zip(self.rows[idx], r)]
                self.rows[idx] = combined
                changed = True
        lead = self._lead_col(r)
        if lead is not None:
            pos = 0
            while pos < len(self.pivots) and self.pivots[pos] < lead:
                pos += 1
            self.rows.insert(pos, r)
            self.pivots.insert(pos, lead)
            changed = True
        if changed:
            self._normalize()
        return changed

    def _normalize(self) -> None:
        # monic pivots, then reduce the entries above each pivot, leftmost
        # pivot first: row i is zero left of its pivot, so a later step
        # touches only columns right of its own pivot, and the result is the
        # Hermite form whatever order the rows came in
        for i, col in enumerate(self.pivots):
            lead = self.rows[i][col].lead()
            if lead != 1:
                inv = Fraction(1, 1) / lead
                self.rows[i] = [e * inv for e in self.rows[i]]
        for i, col in enumerate(self.pivots):
            pivot = self.rows[i][col]
            for k in range(i):
                entry = self.rows[k][col]
                if entry.is_zero() or entry.degree() < pivot.degree():
                    continue
                self.rows[k] = _sub_multiple(self.rows[k], entry // pivot, self.rows[i])

    def reduce(self, row: Sequence[UPoly]) -> list[UPoly]:
        """Remainder of a row modulo the current module."""
        r = list(row)
        for idx, col in enumerate(self.pivots):
            if r[col].is_zero():
                continue
            q, rem = r[col].divmod(self.rows[idx][col])
            if not rem:
                r = _sub_multiple(r, q, self.rows[idx])
        return r

    def contains(self, row: Sequence[UPoly]) -> bool:
        return all(e.is_zero() for e in self.reduce(row))

    def canonical(self) -> tuple[Row, ...]:
        return tuple(tuple(r) for r in self.rows)

    def rank(self) -> int:
        return len(self.rows)


def _sub_multiple(row: Sequence[UPoly], q: UPoly, pivot_row: Sequence[UPoly]) -> list[UPoly]:
    """row - q * pivot_row, leaving entries opposite a zero of pivot_row as they are."""
    return [a - q * b if b else a for a, b in zip(row, pivot_row)]


def hermite_left_generator(rows: Sequence[Sequence[UPoly]]) -> tuple[PolyMat, list[list[UPoly]]]:
    """Canonical generator of the left Mat_N Q[x]-ideal of the matrices whose
    rows lie in the span of ``rows`` (the stacked rows of its generators).

    Returns R with ideal == Mat_N Q[x] * R, rows in Hermite form (monic
    pivots, reduced off-pivot entries, zero rows at the bottom), and, per
    nonzero row of R, its expression in the input rows.
    """
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("all rows must have the same width")
    zero, one = UPoly.zero(), UPoly.const(1)
    basis = PidRowBasis(n)
    for k, row in enumerate(rows):
        # input row k followed by the unit vector e_k: the tail of each
        # basis row is its multipliers
        basis.add([*row, *(one if j == k else zero for j in range(len(rows)))])
    hermite = [r[:n] for r in basis.rows]
    hermite += [[zero] * n] * (n - len(hermite))
    return PolyMat(hermite), [r[n:] for r in basis.rows]
