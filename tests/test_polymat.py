"""Polynomial matrices: determinants, Smith/Hermite certificates, star."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.poly import UPoly, upoly_gcd
from confalg.polymat import (
    PolyMat,
    adjugate,
    adjugate_and_det,
    det,
    hermite_left_generator,
    inverse_unimodular,
    is_unimodular,
    smith_divisors,
    smith_form,
    star,
)
from confalg.sampling import random_polymat, random_unimodular
from ideal_oracle import cofactor_adjugate, hermite_form, leibniz_det

ZERO = UPoly.zero()
ONE = UPoly.const(1)
XX = UPoly.variable()


def minor_gcd_divisors(mat: PolyMat) -> tuple[UPoly, ...]:
    """Elementary divisors via gcds of k x k minors (oracle)."""
    n = mat.n
    prev = UPoly.const(1)
    out: list[UPoly] = []
    for k in range(1, n + 1):
        g = UPoly.zero()
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = PolyMat(
                    [[mat.rows[r][c] for c in cols] for r in rows]
                )
                g = upoly_gcd(g, leibniz_det(sub))
        if g.is_zero():
            out.extend([UPoly.zero()] * (n - len(out)))
            return tuple(out)
        out.append(g.exact_div(prev).monic())
        prev = g
    return tuple(out)


class TestDet:
    def test_diagonal(self):
        assert det(PolyMat.diagonal([ONE, XX])) == XX

    def test_two_by_two(self):
        m = PolyMat([[ZERO, ONE], [XX, ZERO]])
        assert det(m) == -XX

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(8):
            a = random_polymat(rng, 3, 2)
            b = random_polymat(rng, 3, 2)
            assert det(a @ b) == det(a) * det(b)
            assert det(a) == leibniz_det(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_leibniz_on_singular_input(self, n):
        rng = random.Random(20 + n)
        for m in variants(random_polymat(rng, n, 2)):
            assert det(m) == leibniz_det(m)


def variants(m: PolyMat) -> list[PolyMat]:
    """m, m with a zero last row, zero, and (n > 1) m with its last row x times its first."""
    rows = [list(r) for r in m.rows]
    out = [m, PolyMat(rows[:-1] + [[ZERO] * m.n]), PolyMat.zero(m.n)]
    if m.n > 1:
        out.append(PolyMat(rows[:-1] + [[XX * e for e in rows[0]]]))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_times_matrix_is_det(n):
    rng = random.Random(40 + n)
    for _ in range(3):
        for m in variants(random_polymat(rng, n, 2)):
            adj = adjugate(m)
            scalar = PolyMat.diagonal([leibniz_det(m)] * n)
            assert m @ adj == adj @ m == scalar
            assert adj == cofactor_adjugate(m)
            assert adjugate_and_det(m) == (adj, leibniz_det(m))


class TestUnimodular:
    def test_triangular_unit_diagonal(self):
        assert is_unimodular(PolyMat([[ONE, XX], [ZERO, ONE]]))

    def test_nonconstant_det(self):
        assert not is_unimodular(PolyMat.diagonal([ONE, XX]))

    def test_identity(self):
        assert is_unimodular(PolyMat.identity(3))

    def test_inverse(self):
        rng = random.Random(9)
        for _ in range(6):
            u = random_unimodular(rng, 2)
            assert u @ inverse_unimodular(u) == PolyMat.identity(2)

    def test_inverse_rejects_nonconstant_det(self):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            inverse_unimodular(PolyMat([[XX]]))


class TestSmith:
    def test_diag_x_xminus1(self):
        cert = smith_form(PolyMat.diagonal([XX, XX - 1]))
        assert cert.divisors == (ONE, XX * XX - XX)

    def test_upper_jordan_like(self):
        cert = smith_form(PolyMat([[XX, ONE], [ZERO, XX]]))
        assert cert.divisors == (ONE, XX * XX)

    def test_identity(self):
        assert smith_form(PolyMat.identity(2)).divisors == (ONE, ONE)

    def test_singular_tail(self):
        cert = smith_form(PolyMat([[XX, XX], [XX, XX]]))
        assert cert.divisors == (XX, ZERO)
        assert cert.verify(PolyMat([[XX, XX], [XX, XX]]))

    def test_certificates_and_minor_oracle(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_polymat(rng, 3, 2)
            cert = smith_form(m)
            assert cert.verify(m)
            assert cert.divisors == minor_gcd_divisors(m)

    def test_divisors_invariant_under_unimodular_factors(self):
        rng = random.Random(32)
        for _ in range(6):
            m = random_polymat(rng, 2, 2)
            u = random_unimodular(rng, 2)
            v = random_unimodular(rng, 2)
            assert smith_divisors(u @ m @ v) == smith_divisors(m)


SMALL_POLYS = st.lists(st.integers(-3, 3), max_size=4).map(lambda c: UPoly(tuple(c)))


@st.composite
def random_mats(draw):
    n = draw(st.integers(1, 3))
    return PolyMat([[draw(SMALL_POLYS) for _ in range(n)] for _ in range(n)]), None


@st.composite
def scrambled_chains(draw):
    """U @ diag(chain) @ V for a monic divisor chain, U and V products of
    elementary row and column operations; returns the chain too."""
    n = draw(st.integers(1, 3))
    chain, d = [], ONE
    for _ in range(draw(st.integers(0, n))):
        for root in draw(st.lists(st.integers(-2, 2), max_size=2)):
            d = d * (XX - root)
        chain.append(d)
    chain += [ZERO] * (n - len(chain))
    rows = [list(r) for r in PolyMat.diagonal(chain).rows]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), SMALL_POLYS, st.booleans())
    for i, j, q, on_rows in draw(st.lists(ops, max_size=6)):
        if i == j:
            continue
        if on_rows:  # row i += q * row j
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        else:  # column i += q * column j
            for r in rows:
                r[i] = r[i] + q * r[j]
    return PolyMat(rows), tuple(chain)


@st.composite
def rank_deficient(draw):
    m, _ = draw(random_mats())
    rows = [list(r) for r in m.rows]
    kind = draw(st.sampled_from(["zero_row", "repeated_row", "zero"]))
    i = draw(st.integers(0, m.n - 1))
    if kind == "zero":
        rows = [[ZERO] * m.n for _ in range(m.n)]
    elif kind == "repeated_row" and m.n > 1:
        rows[i] = rows[(i + 1) % m.n]
    else:
        rows[i] = [ZERO] * m.n
    return PolyMat(rows), None


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(random_mats(), scrambled_chains(), rank_deficient()))
def test_smith_form_matches_minor_gcds(case):
    m, chain = case
    cert = smith_form(m)
    assert cert.verify(m)
    assert cert.divisors == smith_divisors(m) == minor_gcd_divisors(m)
    if chain is not None:
        assert cert.divisors == chain


class TestHermiteLeftGenerator:
    def test_scalar_gcd(self):
        a = PolyMat([[UPoly((0, 1, 1))]])  # x^2 + x
        b = PolyMat([[UPoly((-1, 0, 1))]])  # x^2 - 1
        gen, _ = hermite_left_generator([*a.rows, *b.rows])
        assert gen == PolyMat([[UPoly((1, 1))]])

    def test_unimodular_gives_identity(self):
        rng = random.Random(4)
        u = random_unimodular(rng, 2)
        gen, _ = hermite_left_generator(u.rows)
        assert gen == PolyMat.identity(2)

    def test_zero_ideal(self):
        gen, _ = hermite_left_generator(PolyMat.zero(2).rows)
        assert gen == PolyMat.zero(2)

    def test_refuses_no_rows_and_ragged_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            hermite_left_generator([])
        with pytest.raises(ValueError, match="same width"):
            hermite_left_generator([(ONE, ZERO), (ONE,)])

    def test_membership_and_multipliers(self):
        rng = random.Random(41)
        mats = [random_polymat(rng, 2, 2) for _ in range(3)]
        stacked = [row for m in mats for row in m.rows]
        gen, history = hermite_left_generator(stacked)
        nonzero_rows = [r for r in gen.rows if any(not e.is_zero() for e in r)]
        assert len(history) == len(nonzero_rows)
        assert all(len(h) == len(stacked) for h in history)
        # each generator row is the tracked combination of the input rows
        for hist_row, target in zip(history, nonzero_rows):
            combo = [ZERO, ZERO]
            for coef, source in zip(hist_row, stacked):
                combo = [c + coef * s for c, s in zip(combo, source)]
            assert tuple(combo) == tuple(target)
        # each input matrix is a left Q[x]-matrix multiple of the generator
        from confalg.polymat import PidRowBasis

        basis = PidRowBasis(2)
        for r in nonzero_rows:
            basis.add(r)
        for m in mats:
            for row in m.rows:
                assert basis.contains(row)


class TestStar:
    def test_diagonal(self):
        assert star(PolyMat.diagonal([XX, ONE]), 0) == PolyMat.diagonal([-XX, ONE])

    def test_involutive_at_zero(self):
        rng = random.Random(6)
        m = random_polymat(rng, 2, 3)
        assert star(star(m, 0), 0) == m

    def test_shifted_reflection(self):
        m = PolyMat([[ZERO, XX], [ONE, ZERO]])
        expected = PolyMat([[ZERO, ONE], [UPoly((2, -1)), ZERO]])
        assert star(m, 2) == expected

    def test_reverses_products(self):
        rng = random.Random(61)
        a = random_polymat(rng, 2, 2)
        b = random_polymat(rng, 2, 2)
        alpha = Fraction(1, 2)
        assert star(a @ b, alpha) == star(b, alpha) @ star(a, alpha)
        assert star(a, alpha) - star(b, alpha) == star(a - b, alpha)


class TestSmithDivisibilityFix:
    def test_coprime_diagonal_merges(self):
        m = PolyMat.diagonal([XX, UPoly((1, 1))])  # x and x+1
        cert = smith_form(m)
        assert cert.divisors == (ONE, UPoly((0, 1, 1)))
        assert cert.verify(m)

    def test_pairwise_coprime_three_by_three(self):
        m = PolyMat.diagonal([XX, UPoly((1, 1)), UPoly((-1, 1))])
        cert = smith_form(m)
        assert cert.divisors == (ONE, ONE, XX * (XX + 1) * (XX - 1))
        assert cert.verify(m)

    def test_repeated_blocks(self):
        m = PolyMat.diagonal([XX * XX, XX])
        cert = smith_form(m)
        assert cert.divisors == (XX, XX * XX)
        assert cert.verify(m)


def scrambled_hermite(rng: random.Random, var: str):
    """A Hermite form H built entry by entry, and rows spanning its module.

    H has n = 3 or 4 columns and any rank: strictly increasing pivot
    columns, zeros left of each pivot, monic pivots, entries above a pivot
    of lower degree than it, anything elsewhere.  The rows are U H for a
    product U of elementary row operations, some of them duplicated, in a
    random order.  Returns (n, H rows, rows).
    """
    n = rng.choice([3, 4])
    zero = UPoly.zero(var)
    poly = lambda: UPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))], var)  # noqa: E731
    pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
    heads = []
    for _ in pivots:
        head = UPoly.const(1, var)
        for _ in range(rng.randint(0, 2)):
            head = head * UPoly((rng.randint(-2, 2), 1), var)
        heads.append(head)
    hermite = []
    for i, col in enumerate(pivots):
        row = [zero] * col + [heads[i]] + [poly() for _ in range(col + 1, n)]
        for j in range(i + 1, len(pivots)):
            row[pivots[j]] = poly().divmod(heads[j])[1]
        hermite.append(tuple(row))
    rows = [list(r) for r in hermite] or [[zero] * n]  # a zero row spans the zero module
    for _ in range(rng.randint(0, 10)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:  # row i *= c
            c = rng.choice([-2, -1, 3])
            rows[i] = [c * a for a in rows[i]]
        else:  # row i += q * row j
            q = poly()
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    rows += [rows[rng.randrange(len(rows))] for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return n, tuple(hermite), rows


class TestPidRowBasisCanonicity:
    @pytest.mark.parametrize("var", ["x", "d"])
    def test_canonical_form_is_the_known_hermite_form(self, var):
        from confalg.polymat import PidRowBasis

        rng = random.Random(var)
        for _ in range(150):
            n, hermite, rows = scrambled_hermite(rng, var)
            basis = PidRowBasis(n)
            for r in rows:
                basis.add(r)
            assert basis.canonical() == hermite, rows
            assert hermite_form(rows, n) == hermite, rows  # the ideal oracle's own routine
            if var != "x":
                continue
            gen, multipliers = hermite_left_generator(rows)
            assert gen.rows == hermite + ((ZERO,) * n,) * (n - len(hermite))
            assert len(multipliers) == len(hermite)
            for mult_row, target in zip(multipliers, hermite):
                combo = [ZERO] * n
                for coef, source in zip(mult_row, rows):
                    combo = [a + coef * b for a, b in zip(combo, source)]
                assert tuple(combo) == target

    def test_order_independent_canonical_form(self):
        from confalg.polymat import PidRowBasis

        rng = random.Random(101)
        rows = [
            [random_polymat(rng, 1, 2).rows[0][0] for _ in range(3)]
            for _ in range(5)
        ]
        first = PidRowBasis(3)
        for r in rows:
            first.add(r)
        second = PidRowBasis(3)
        for r in reversed(rows):
            second.add(r)
        assert first.canonical() == second.canonical()
