"""Polynomial core: ring axioms, substitution, gcds, shifts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confalg import poly
from confalg.cend import raw_mat_vec, raw_subst, raw_vec_subst
from confalg.poly import (
    MPoly,
    UPoly,
    bipoly_gcd,
    mpoly_dot,
    mpoly_matmul,
    substituter,
    upoly_coefficients,
    upoly_gcd,
    upoly_xgcd,
)
from poly_helpers import prs_gcd, upoly_from_mpoly

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")
M = MPoly.var("m")


def naive_substitute(p: MPoly, bindings: dict[str, MPoly]) -> MPoly:
    """Independent term-by-term substitution used as the oracle."""
    from confalg.poly import VARS

    total = MPoly.zero()
    for exp, coef in p.terms.items():
        piece = MPoly.const(coef)
        for idx, k in enumerate(exp):
            name = VARS[idx]
            base = bindings.get(name, MPoly.var(name))
            for _ in range(k):
                piece = piece * base
        total = total + piece
    return total


mpoly_strategy = st.builds(
    lambda pairs: MPoly(
        {exp: Fraction(c) for exp, c in pairs if c}
    ),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(0, 1),
                st.integers(0, 1),
            ),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


class TestMPolyRing:
    def test_difference_of_squares(self):
        assert (X + L) * (X - L) == X**2 - L**2

    def test_annihilator(self):
        a = D * X + MPoly.const(3)
        assert a * MPoly.zero() == MPoly.zero()

    def test_binomial_expansion(self):
        assert (D + X) ** 2 == D**2 + D * X * 2 + X**2

    @settings(max_examples=60, deadline=None)
    @given(mpoly_strategy, mpoly_strategy, mpoly_strategy)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(mpoly_strategy, mpoly_strategy)
    def test_substitute_is_ring_homomorphism(self, a, b):
        bindings = {"d": -L, "x": X + L + D}
        lhs = (a * b).substitute(bindings)
        rhs = a.substitute(bindings) * b.substitute(bindings)
        assert lhs == rhs
        assert (a + b).substitute(bindings) == a.substitute(bindings) + b.substitute(
            bindings
        )

    def test_substitute_single_variable(self):
        assert X.substitute({"x": X + L + D}) == X + L + D

    def test_substitute_cross_checked_against_naive(self):
        bindings = {"d": -L, "x": X + L + D}
        expected = -(L * X) - L**2 - L * D
        assert (D * X).substitute(bindings) == expected
        assert naive_substitute(D * X, bindings) == expected
        rng = random.Random(7)
        for _ in range(25):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2), 0, 0): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(4)
            }
            p = MPoly(terms)
            assert p.substitute(bindings) == naive_substitute(p, bindings)

    def test_substitute_fixes_constants(self):
        c = MPoly.const(Fraction(-7, 3))
        assert c.substitute({"x": D, "d": X * L}) == c

    def test_coefficients_in_round_trip(self):
        p = D**2 * X + D * 3 + X**2
        parts = p.coefficients_in("d")
        rebuilt = MPoly.zero()
        for k, q in parts.items():
            rebuilt = rebuilt + q * D**k
        assert rebuilt == p

    def test_derivative(self):
        assert (X**3).derivative("x") == X**2 * 3
        assert (D * X).derivative("x") == D
        assert MPoly.const(5).derivative("x") == MPoly.zero()


def _all_monic_divisor_candidates(max_deg: int):
    """All monic polynomials of degree <= max_deg over a small coefficient set."""
    for deg in range(max_deg + 1):
        for coefs in itertools.product((-2, -1, 0, 1, 2), repeat=deg):
            yield UPoly(list(coefs) + [1], "x")


class TestUPolyGcd:
    def test_euclid_example(self):
        a = UPoly((0, 1, 1))  # x^2 + x
        b = UPoly((-1, 0, 1))  # x^2 - 1
        assert upoly_gcd(a, b) == UPoly((1, 1))

    def test_gcd_with_zero_is_monic(self):
        p = UPoly((2, 4))
        assert upoly_gcd(p, UPoly.zero()) == UPoly((Fraction(1, 2), 1))

    def test_nested_divisibility(self):
        assert upoly_gcd(UPoly((0, 0, 1)), UPoly((0, 0, 0, 1))) == UPoly((0, 0, 1))

    def test_gcd_divides_both_and_dominates_common_divisors(self):
        rng = random.Random(11)
        for _ in range(12):
            a = UPoly([rng.randint(-2, 2) for _ in range(4)] + [1], "x")
            b = UPoly([rng.randint(-2, 2) for _ in range(3)] + [1], "x")
            g = upoly_gcd(a, b)
            assert g.divides(a) and g.divides(b)
            for cand in _all_monic_divisor_candidates(2):
                if cand.degree() < 1:
                    continue
                if cand.divides(a) and cand.divides(b):
                    assert cand.divides(g)

    def test_xgcd_bezout(self):
        rng = random.Random(12)
        for _ in range(20):
            a = UPoly([rng.randint(-3, 3) for _ in range(4)], "x")
            b = UPoly([rng.randint(-3, 3) for _ in range(3)], "x")
            if a.is_zero() and b.is_zero():
                continue
            g, u, v = upoly_xgcd(a, b)
            assert u * a + v * b == g
            assert g == upoly_gcd(a, b)


class TestShift:
    def test_linear(self):
        assert UPoly((0, 1)).shift(5) == UPoly((5, 1))

    def test_binomial(self):
        assert UPoly((0, 0, 1)).shift(1) == UPoly((1, 2, 1))

    def test_inverse_shifts(self):
        rng = random.Random(3)
        for _ in range(10):
            p = UPoly([rng.randint(-5, 5) for _ in range(5)], "x")
            alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert p.shift(alpha).shift(-alpha) == p


def _brute_common_divisor_dx(a: MPoly, b: MPoly, divisor: MPoly) -> bool:
    """Trial division oracle in Q[d, x] via the two univariate layers."""
    try:
        qa = _exact_div_dx(a, divisor)
        qb = _exact_div_dx(b, divisor)
    except ValueError:
        return False
    return qa * divisor == a and qb * divisor == b


def lead_term(p: MPoly) -> tuple[tuple[int, ...], Fraction]:
    """The leading (exponent, coefficient) under graded lex d > x > l > m."""
    lead = max(p.terms, key=lambda e: (sum(e), e))
    return lead, p.terms[lead]


def _exact_div_dx(num: MPoly, den: MPoly) -> MPoly:
    # long division in the graded-lex order; raises when not exact
    if den.is_zero():
        raise ValueError("zero divisor")
    rem = num
    out = MPoly.zero()
    lead_exp, lead_coef = lead_term(den)
    while not rem.is_zero():
        rexp, rcoef = lead_term(rem)
        diff = tuple(r - l for r, l in zip(rexp, lead_exp))
        if any(e < 0 for e in diff):
            raise ValueError("not divisible")
        mono = MPoly.monomial(diff, rcoef / lead_coef)
        out = out + mono
        rem = rem - mono * den
    return out


class TestBipolyGcd:
    def test_divisor_chain(self):
        g = bipoly_gcd(X * (D + X), X**2 * (D + X))
        assert g == X * (D + X)

    def test_coprime_cofactors(self):
        p = (D + X) * (X + 1)
        q = (D + X) * (X - 1)
        g = bipoly_gcd(p, q)
        assert g == D + X
        assert _brute_common_divisor_dx(p, q, g)
        # no strictly larger common divisor: multiply by each small factor
        for extra in (X, X + 1, X - 1, D + X):
            assert not _brute_common_divisor_dx(p, q, g * extra)

    def test_idempotence(self):
        a = (D * X + X**2) * 3
        g = bipoly_gcd(a, a)
        assert g == bipoly_gcd(a, MPoly.zero())
        _, lead = lead_term(g)
        assert lead == 1

    def test_output_divides_inputs(self):
        rng = random.Random(21)
        for _ in range(15):
            common = MPoly(
                {
                    (rng.randint(0, 1), rng.randint(0, 1), 0, 0): Fraction(
                        rng.choice([1, 2, -1])
                    )
                    for _ in range(2)
                }
            ) + MPoly.const(rng.randint(0, 1))
            if common.is_zero():
                common = X + 1
            a = common * MPoly({(rng.randint(0, 2), rng.randint(0, 2), 0, 0): Fraction(1)})
            b = common * (D + MPoly.const(rng.randint(1, 3)))
            g = bipoly_gcd(a, b)
            if a.is_zero() or b.is_zero():
                continue
            assert _brute_common_divisor_dx(a, b, g)


def _dx_polys(max_deg):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda terms: MPoly({(i, j, 0, 0): c for (i, j), c in terms.items() if c})
    )


_T = X * (X - 1) * (X - 2)


class TestCoprimeShortcut:
    """The gcd matches the subresultant PRS of ``poly_helpers``.  After its
    two exact exits it evaluates at x0 = 0, 1, ..., skipping points where a
    d-leading coefficient vanishes: a constant image gcd proves the parts
    coprime, and an image of higher degree than the gcd (an unlucky point)
    is skipped or discarded.  ``answers`` lists the d-degree of the image gcd
    at each point the loop reaches."""

    @pytest.mark.parametrize(
        "a,b,want,answers",
        [
            (D**3 + X, D**2 + X * D + 1, MPoly.const(1), [0]),
            # both images d^2 at x0 = 0
            (D**2 + X * D + X, D**2 - X * D + X, MPoly.const(1), [2, 0]),
            # both images (d + 1)(d^2 + 1) at x0 = 1
            ((D + X) * (D**2 + 1), (D + X) * (D**2 + X), D + X, [1, 3, 1]),
            # x0 = 0 zeroes the leading coefficient x of a: x0 = 1
            (X * D**3 + 1, D**2 + X, MPoly.const(1), [0]),
            # a zero first remainder, and one of d-degree 0, end without it
            ((D + X) * (D + 1), D + X, D + X, []),
            (D**2 + X, D + 1, MPoly.const(1), []),
            # images d^3 and d^2 at x0 = 0, 1, 2, where t vanishes
            (D**3 + _T * D + _T, D**2 + _T * D + _T, MPoly.const(1), [2, 2, 2, 0]),
            # the same times d + x: five points of degree 1 follow three unlucky ones
            ((D**3 + _T * D + _T) * (D + X), (D**2 + _T * D + _T) * (D + X), D + X,
             [3, 3, 3, 1, 1, 1, 1, 1]),
            # one point is all the bound asks for, and x0 = 0 is unlucky: its
            # image fails the trial division, so degree 2 is skipped after it
            ((D - 1) * (D - X * 2 - 1), (D - 1) ** 2, D - 1, [2, 1]),
        ],
    )
    def test_cases(self, monkeypatch, a, b, want, answers):
        degrees = []

        def recorded(p, q):
            g = upoly_gcd(p, q)
            if g.var == "d":
                degrees.append(g.degree())
            return g

        monkeypatch.setattr(poly, "upoly_gcd", recorded)
        assert bipoly_gcd(a, b) == want == prs_gcd(a, b)
        assert degrees == answers

    @settings(max_examples=150, deadline=None)
    @given(_dx_polys(3), _dx_polys(3), _dx_polys(1))
    def test_matches_the_plain_prs(self, a, b, common):
        a, b = a * common, b * common
        assert bipoly_gcd(a, b) == prs_gcd(a, b)


class TestUPolyFromMPoly:
    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            upoly_from_mpoly(D + X, "x")

    def test_retags(self):
        p = upoly_from_mpoly(X**2 + X * 2, "x").retag("z")
        assert p.var == "z"
        assert p.coeffs == (Fraction(0), Fraction(2), Fraction(1))


# ---------------------------------------------------------------------------
# MPoly against a Fraction/tuple reference model
# ---------------------------------------------------------------------------

Ref = dict[tuple[int, int, int, int], Fraction]


def ref_clean(terms: Ref) -> Ref:
    return {e: c for e, c in terms.items() if c}


def ref_add(a: Ref, b: Ref) -> Ref:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a: Ref, b: Ref) -> Ref:
    out: Ref = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a: Ref, n: int) -> Ref:
    out: Ref = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_subst(a: Ref, bindings: dict[str, Ref]) -> Ref:
    from confalg.poly import VARS

    out: Ref = {}
    for exp, coef in a.items():
        residual = tuple(0 if VARS[i] in bindings else k for i, k in enumerate(exp))
        piece: Ref = {residual: coef}
        for i, k in enumerate(exp):
            if VARS[i] in bindings:
                piece = ref_mul(piece, ref_pow(bindings[VARS[i]], k))
        out = ref_add(out, piece)
    return out


def ref_derivative(a: Ref, i: int) -> Ref:
    out: Ref = {}
    for exp, coef in a.items():
        if exp[i]:
            e = list(exp)
            e[i] -= 1
            out[tuple(e)] = coef * exp[i]
    return out


def ref_coefficients_in(a: Ref, i: int) -> dict[int, Ref]:
    out: dict[int, Ref] = {}
    for exp, coef in a.items():
        e = list(exp)
        e[i] = 0
        out.setdefault(exp[i], {})[tuple(e)] = coef
    return out


def assert_canonical(p: MPoly) -> None:
    import math

    assert p._den > 0
    assert all(p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
ref_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    rationals,
    max_size=5,
).map(ref_clean)
var_names = st.sampled_from(("d", "x", "l", "m"))


class TestMPolyModel:
    @settings(max_examples=80, deadline=None)
    @given(ref_strategy, ref_strategy)
    def test_add_sub_mul(self, a, b):
        pa, pb = MPoly(a), MPoly(b)
        assert dict(pa.terms) == a
        neg_b = {e: -c for e, c in b.items()}
        for got, want in (
            (pa + pb, ref_add(a, b)),
            (pa - pb, ref_add(a, neg_b)),
            (-pb, neg_b),
            (pa * pb, ref_mul(a, b)),
        ):
            assert dict(got.terms) == want
            assert got == MPoly(want) and hash(got) == hash(MPoly(want))
            assert_canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(ref_strategy, st.integers(0, 3), rationals)
    def test_pow_and_scale(self, a, n, c):
        p = MPoly(a)
        assert dict((p**n).terms) == ref_pow(a, n)
        assert dict(p.scale(c).terms) == ref_clean({e: v * c for e, v in a.items()})
        assert dict((p * c).terms) == dict(p.scale(c).terms)
        assert_canonical(p**n)
        assert_canonical(p.scale(c))

    @settings(max_examples=80, deadline=None)
    @given(ref_strategy, st.dictionaries(var_names, ref_strategy, max_size=3))
    def test_substitute(self, a, bindings):
        # first with no substitution cached, then with this one warm
        poly._substitution.cache_clear()
        for _ in range(2):
            got = MPoly(a).substitute({v: MPoly(t) for v, t in bindings.items()})
            assert dict(got.terms) == ref_subst(a, bindings)
            assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(ref_strategy, st.dictionaries(var_names, rationals, min_size=1, max_size=4))
    def test_substitute_rational_constants(self, a, bindings):
        got = MPoly(a).substitute(bindings)
        want = ref_subst(a, {v: ref_clean({(0, 0, 0, 0): c}) for v, c in bindings.items()})
        assert dict(got.terms) == want
        assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(ref_strategy, min_size=1, max_size=4),
        st.dictionaries(var_names, ref_strategy, max_size=3),
    )
    def test_substituter_shares_tables_across_polys(self, polys, bindings):
        # the images built for the first polynomial serve the rest
        sub = substituter({v: MPoly(t) for v, t in bindings.items()})
        for a in polys:
            got = sub(MPoly(a))
            assert dict(got.terms) == ref_subst(a, bindings)
            assert_canonical(got)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(ref_strategy, ref_strategy), max_size=5))
    def test_dot_is_sum_of_products(self, pairs):
        got = mpoly_dot((MPoly(a), MPoly(b)) for a, b in pairs)
        want: Ref = {}
        for a, b in pairs:
            want = ref_add(want, ref_mul(a, b))
        assert dict(got.terms) == want
        assert got == sum((MPoly(a) * MPoly(b) for a, b in pairs), MPoly.zero())
        assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(ref_strategy, ref_strategy, ref_strategy)
    def test_dot_cancels_to_canonical_zero(self, a, b, c):
        pa, pb, pc = MPoly(a), MPoly(b), MPoly(c)
        got = mpoly_dot([(pa, pb), (MPoly.zero(), pc), (-pa, pb), (pc, MPoly.zero())])
        assert got == MPoly.zero() and got._den == 1 and not got._num

    @settings(max_examples=60, deadline=None)
    @given(ref_strategy, st.integers(0, 3))
    def test_derivative_and_coefficients_in(self, a, i):
        from confalg.poly import VARS

        p = MPoly(a)
        deriv = p.derivative(VARS[i])
        assert dict(deriv.terms) == ref_derivative(a, i)
        assert_canonical(deriv)
        parts = p.coefficients_in(VARS[i])
        assert list(parts) == sorted(parts)
        assert {k: dict(q.terms) for k, q in parts.items()} == ref_coefficients_in(a, i)
        for q in parts.values():
            assert_canonical(q)


class TestUpolyCoefficients:
    """The two-variable reader against ``coefficients_in`` then
    ``upoly_from_mpoly`` on each part, the split it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(ref_strategy, st.permutations(("d", "x", "l", "m")), st.booleans())
    def test_matches_split_then_read(self, a, names, project):
        from confalg.poly import VARS

        outer, inner = names[:2]
        if project:  # keep only the exponents of outer and inner
            keep = [v in (outer, inner) for v in VARS]
            a = {tuple(e if k else 0 for e, k in zip(exp, keep)): c for exp, c in a.items()}
        p = MPoly(a)
        try:
            want = {k: upoly_from_mpoly(q, inner) for k, q in p.coefficients_in(outer).items()}
        except ValueError:  # a third variable
            with pytest.raises(ValueError, match="expected only"):
                upoly_coefficients(p, outer, inner)
            return
        got = upoly_coefficients(p, outer, inner)
        assert list(got) == list(want)  # ascending powers
        assert got == want  # with the variable tags
        for q in got.values():
            assert q and q.var == inner
            assert_canonical_up(q)

    def test_zero_gives_no_coefficients(self):
        assert upoly_coefficients(MPoly.zero(), "d", "x") == {}

    def test_third_variable_raises(self):
        with pytest.raises(ValueError, match=r"uses \['l'\], expected only 'd' and 'x'"):
            upoly_coefficients(D * X + L, "d", "x")


class TestCanonicalForm:
    def test_equal_fractions_build_equal_polys(self):
        e = (1, 0, 2, 0)
        a, b = MPoly({e: Fraction(2, 4)}), MPoly({e: Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert a._den == 2 and a._num == b._num

    def test_cancelling_denominators_return_to_one(self):
        third = X.scale(Fraction(1, 3)) + D.scale(Fraction(1, 6))
        total = third + X.scale(Fraction(2, 3)) - D.scale(Fraction(1, 6))
        assert total == X
        assert total._den == 1
        half = MPoly.const(Fraction(1, 2))
        assert (half + half)._den == 1
        assert (X.scale(Fraction(3, 2)) * MPoly.const(Fraction(2, 3)))._den == 1

    def test_zero_has_unit_denominator(self):
        p = X.scale(Fraction(1, 3)) + L
        for z in (MPoly.zero(), p - p, p * 0, p.scale(0), MPoly({(1, 0, 0, 0): Fraction(0)})):
            assert z.is_zero()
            assert z._den == 1 and not z._num
            assert z == MPoly.zero() and hash(z) == hash(MPoly.zero())

    def test_terms_view_is_read_only(self):
        view = (X + 1).terms
        with pytest.raises(TypeError):
            view[(0, 0, 0, 0)] = Fraction(2)


class TestExponentLimit:
    def test_limit_reached_exactly(self):
        from confalg.poly import MAX_EXP

        top = MPoly.monomial((MAX_EXP, MAX_EXP, MAX_EXP, MAX_EXP))
        assert max(top.coefficients_in("d")) == MAX_EXP and max(top.coefficients_in("m")) == MAX_EXP
        assert (X ** (MAX_EXP - 1)) * X == X**MAX_EXP
        assert dict((top * 2).terms) == {(MAX_EXP,) * 4: Fraction(2)}

    def test_overflow_raises_named_value_error(self):
        from confalg.poly import MAX_EXP, ExponentOverflowError

        assert issubclass(ExponentOverflowError, ValueError)
        big = X**MAX_EXP
        with pytest.raises(ExponentOverflowError):
            big * X
        with pytest.raises(ExponentOverflowError):
            big * (D + X)
        with pytest.raises(ExponentOverflowError):
            X ** (MAX_EXP + 1)
        with pytest.raises(ExponentOverflowError):
            MPoly({(0, MAX_EXP + 1, 0, 0): Fraction(1)})
        with pytest.raises(ExponentOverflowError):
            MPoly.monomial((0, 0, -1, 0))

    def test_upoly_overflow_names_its_own_variable(self):
        from confalg.poly import MAX_EXP, ExponentOverflowError

        p = UPoly((0,) * (MAX_EXP + 1) + (1,), "x")
        with pytest.raises(ExponentOverflowError) as err:
            p.to_mpoly()
        assert str(err.value) == f"exponent {MAX_EXP + 1} of x is above the limit {MAX_EXP}"
        assert UPoly((0,) * MAX_EXP + (1,), "x").to_mpoly() == X**MAX_EXP
        with pytest.raises(ExponentOverflowError):
            (X ** 20000).substitute({"x": X**2})
        with pytest.raises(ExponentOverflowError):
            (D ** 20000 * X).substitute({"x": D ** 20000})

    def test_dot_guards_every_pair(self):
        from confalg.poly import MAX_EXP, ExponentOverflowError

        big = X**MAX_EXP
        assert mpoly_dot([(big, MPoly.const(3)), (X, X)]) == big * 3 + X * X
        for pairs in ([(big, X)], [(D, D), (big, X)], [(MPoly.zero(), X), (X, big)]):
            with pytest.raises(ExponentOverflowError):
                mpoly_dot(pairs)
        # a zero factor is skipped, so its partner is never multiplied
        assert mpoly_dot([(big, MPoly.zero()), (D, X)]) == D * X

    def test_guard_does_not_misfire_across_fields(self):
        from confalg.poly import MAX_EXP

        # large exponents in different variables never interfere
        p = D**MAX_EXP + X
        q = X ** (MAX_EXP - 1) + L**MAX_EXP
        assert dict((p * q).terms) == ref_mul(dict(p.terms), dict(q.terms))
        # the exact per-term check accepts a substitution the coarse bound rejects
        r = X**20000 + D**20000
        assert r.substitute({"x": D, "d": D}) == (D**20000).scale(2)


def ref_matmul(a: list[list[Ref]], b: list[list[Ref]]) -> list[list[Ref]]:
    """Schoolbook matrix product: entry (i, j) is the sum over k of
    a[i][k] * b[k][j], all in Fraction dicts."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc: Ref = {}
            for k, brow in enumerate(b):
                acc = ref_add(acc, ref_mul(row[k], brow[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def ref_work(a: list[list[Ref]], b: list[list[Ref]]) -> int:
    """The term products of the per-entry dots, which the threshold counts."""
    return sum(
        sum(len(row[k]) for row in a) * sum(len(e) for e in brow) for k, brow in enumerate(b)
    )


def _rows(m: list[list[Ref]]) -> list[list[MPoly]]:
    return [[MPoly(e) for e in row] for row in m]


def _terms(m) -> list[list[Ref]]:
    return [[dict(e.terms) for e in row] for row in m]


def _extreme(bits: int, signs: tuple[int, ...], nr: int, nk: int, terms: int):
    """Every coefficient +-(2^bits - 1): a is nr x nk, all positive; column j
    of b has sign signs[j].  All entries share the support 1, x, ..., x^(terms-1),
    so at x^(terms-1) an entry sums nk * terms products of the largest size."""
    c = 2**bits - 1
    entry = lambda s: {(0, t, 0, 0): Fraction(s * c) for t in range(terms)}  # noqa: E731
    return [[entry(1)] * nk for _ in range(nr)], [[entry(s) for s in signs] for _ in range(nk)]


# numerators up to 200 bits over denominators up to 2^40, one per term, so
# each entry has a denominator of its own
_wide_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-(2**200), 2**200)),
    st.one_of(st.integers(1, 4), st.integers(1, 2**40)),
)
_entries = st.one_of(
    st.just({}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)),
        _wide_rationals,
        max_size=6,
    ).map(ref_clean),
)


@st.composite
def matrix_pairs(draw):
    nr, nk, nc = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(_entries) for _ in range(nk)] for _ in range(nr)]
    b = [[draw(_entries) for _ in range(nc)] for _ in range(nk)]
    return a, b


# fold limits: never fold, the shipped limit, and above every case here
_FOLD_LIMITS = (0, poly.MATMUL_FOLD_BITS, 1 << 62)


def _folds(pack) -> list[bool]:
    """Whether each call of a wrapped ``_pack_digits`` folded x into the digits."""
    return [bool(call.args[3]) for call in pack.call_args_list]


# x exponents up to 12, rational throughout, x in both factors
_X12_A = [
    [{(0, 12, 0, 0): Fraction(1, 3), (1, 5, 0, 0): Fraction(-2, 7), (0, 0, 0, 0): Fraction(5)},
     {(0, 7, 1, 0): Fraction(3, 4), (2, 0, 0, 0): Fraction(-1, 6)}],
    [{}, {(0, i, 0, 0): Fraction(i + 1, 5) for i in range(13)}],
]
_X12_B = [
    [{(0, i, 0, 1): Fraction(-1, i + 2) for i in range(0, 13, 2)},
     {(1, 11, 0, 0): Fraction(9, 2)}],
    [{(0, 12, 0, 0): Fraction(2, 9), (3, 0, 0, 0): Fraction(1)},
     {(0, i, 1, 0): Fraction(2 * i - 13, 7) for i in range(13)}],
]
# an x-free factor on either side of a factor with x up to 12
_X_FREE = [
    [{(2, 0, 0, 0): Fraction(3, 2), (0, 0, 1, 0): Fraction(-1)}, {(0, 0, 0, 0): Fraction(1, 11)}],
    [{(1, 0, 0, 1): Fraction(-4, 3)}, {(3, 0, 0, 0): Fraction(2), (0, 0, 0, 0): Fraction(-1, 2)}],
]


class TestMatmul:
    @settings(max_examples=150, deadline=None)
    @given(matrix_pairs())
    @example(([[{(1, 0, 0, 0): Fraction(1, 2)}]], [[{(0, 1, 0, 0): Fraction(2, 3)}]]))
    @example(([[{(0, 0, 0, 0): Fraction(1)}], [{}], [{(1, 1, 0, 0): Fraction(-3, 5)}]],
              [[{(0, 2, 0, 0): Fraction(7, 2), (1, 0, 0, 0): Fraction(1, 9)}]]))
    @example(_extreme(1, (1, 1, 1), 3, 3, 5))
    @example(_extreme(64, (1, -1, 1), 3, 3, 5))
    @example(_extreme(200, (-1, -1, -1, -1), 4, 4, 4))
    @example(_extreme(200, (-1, 1), 2, 3, 5))
    @example((_X12_A, _X12_B))
    @example((_X12_A, _X_FREE))
    @example((_X_FREE, _X12_B))
    def test_matches_schoolbook(self, pair):
        # both paths: packed whatever the size (one entry aside), and at the
        # shipped threshold; the packed path with x never folded, folded
        # below the shipped limit, and always folded
        a, b = pair
        want = ref_matmul(a, b)
        for threshold, limit in itertools.product((0, poly.MATMUL_PACK_WORK), _FOLD_LIMITS):
            with mock.patch.object(poly, "MATMUL_PACK_WORK", threshold), \
                    mock.patch.object(poly, "MATMUL_FOLD_BITS", limit):
                got = mpoly_matmul(_rows(a), _rows(b))
            assert _terms(got) == want
            for row in got:
                for e in row:
                    assert_canonical(e)

    @pytest.mark.parametrize("bits", [2, 7, 64, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_entry_reaches_the_width_bound(self, bits, sign):
        # w = abits + bbits + bitlen(k * t) + 1 with k = 3, t = 5; the entry
        # at x^4 is 15 (2^bits - 1)^2 in size, above 2^(w-2); folded, it is
        # the digit of x^4, one of 9 x powers of each of the 9 entries
        a, b = _extreme(bits, (sign,) * 3, 3, 3, 5)
        w = 2 * bits + (3 * 5).bit_length() + 1
        for limit in _FOLD_LIMITS:
            with mock.patch.object(poly, "MATMUL_PACK_WORK", 0), \
                    mock.patch.object(poly, "MATMUL_FOLD_BITS", limit), \
                    mock.patch.object(poly, "_pack_digits", wraps=poly._pack_digits) as pack, \
                    mock.patch.object(poly, "mpoly_dot", side_effect=AssertionError):
                got = mpoly_matmul(_rows(a), _rows(b))
            assert set(_folds(pack)) == {9 * 9 * w < limit}
            top = max(abs(c) for row in got for e in row for c in e._num.values())
            assert 2 ** (w - 2) <= top < 2 ** (w - 1)
            assert _terms(got) == ref_matmul(a, b)

    @pytest.mark.parametrize("over", [0, 1])
    def test_fold_only_below_the_size_limit(self, over):
        # 3 x 3 times 3 x 3, x^0..x^4 in both: 9 entries of 9 x powers each,
        # w = 7 + 7 + bitlen(3 * 5) + 1 = 19; at the limit x stays in the keys
        a, b = _extreme(7, (1, -1, 1), 3, 3, 5)
        size = 9 * 9 * 19
        with mock.patch.object(poly, "MATMUL_FOLD_BITS", size + 1 - over), \
                mock.patch.object(poly, "_pack_digits", wraps=poly._pack_digits) as pack, \
                mock.patch.object(poly, "_matmul_by_dots", side_effect=AssertionError), \
                mock.patch.object(poly, "mpoly_dot", side_effect=AssertionError):
            got = mpoly_matmul(_rows(a), _rows(b))
            assert ref_work(a, b) >= poly.MATMUL_PACK_WORK
        assert _folds(pack) == [not over] * 6
        assert _terms(got) == ref_matmul(a, b)

    @pytest.mark.parametrize("below", [True, False])
    def test_per_entry_dots_only_below_the_threshold(self, below):
        # a 2 x 1 column times a 1 x 1 constant: the work is the column's term count
        work = poly.MATMUL_PACK_WORK - below
        keys = [(i // 32, i % 32, 0, 0) for i in range(work)]
        half = work // 2
        a = [[{e: Fraction(i + 1, 3) for i, e in enumerate(keys[:half])}],
             [{e: Fraction(-i - 1, 7) for i, e in enumerate(keys[half:])}]]
        b = [[{(0, 0, 1, 0): Fraction(5, 2)}]]
        assert ref_work(a, b) == work
        with mock.patch.object(poly, "mpoly_dot", wraps=mpoly_dot) as dot:
            got = mpoly_matmul(_rows(a), _rows(b))
        assert dot.call_count == (2 if below else 0)
        assert _terms(got) == ref_matmul(a, b)

    @settings(max_examples=60, deadline=None)
    @given(matrix_pairs())
    def test_matvec_is_the_one_column_product(self, pair):
        # cend.raw_mat_vec is mpoly_matmul with the vector as one column,
        # on the packed path and on the per-entry dots alike
        a, b = pair
        v = [row[0] for row in b]
        want = [row[0] for row in ref_matmul(a, [[e] for e in v])]
        for threshold in (0, poly.MATMUL_PACK_WORK):
            with mock.patch.object(poly, "MATMUL_PACK_WORK", threshold):
                got = raw_mat_vec(_rows(a), [MPoly(e) for e in v])
                assert got == tuple(row[0] for row in mpoly_matmul(_rows(a), _rows(b)))
            assert [dict(e.terms) for e in got] == want

    def test_one_entry_is_one_dot(self):
        # a 1 x 3 row times a 3 x 1 column far above the threshold
        keys = [(i // 32, i % 32, 0, 0) for i in range(poly.MATMUL_PACK_WORK)]
        p = {e: Fraction(i + 1, 5) for i, e in enumerate(keys)}
        a, b = [[p, p, p]], [[{(0, 0, 1, 0): Fraction(1, 2)}], [{}], [p]]
        assert ref_work(a, b) >= poly.MATMUL_PACK_WORK
        with mock.patch.object(poly, "mpoly_dot", wraps=mpoly_dot) as dot:
            got = mpoly_matmul(_rows(a), _rows(b))
            assert _terms(got) == ref_matmul(a, b)
            # a one-row matrix times a vector is one dot as well
            assert raw_mat_vec(_rows(a), [MPoly(row[0]) for row in b]) == got[0]
        assert dot.call_count == 2

    def test_cancelling_entries_are_canonical_zero(self):
        p = X.scale(Fraction(1, 3)) + D**2 - L
        q = (X + Fraction(2, 5)) * D
        with mock.patch.object(poly, "MATMUL_PACK_WORK", 0):
            got = mpoly_matmul([[p, p], [p, -p]], [[q, q], [-q, q]])
        for zero in (got[0][0], got[1][1]):
            assert zero == MPoly.zero() and zero._den == 1 and not zero._num
        assert got[0][1] == got[1][0] == (p * q).scale(2)

    def test_overflow_raises_the_per_entry_message(self):
        # x^MAX_EXP times x: x exponents that sum to MAX_EXP + 1 are never
        # folded, whatever the size limit, so the guard sees them
        from confalg.poly import MAX_EXP, ExponentOverflowError

        pad = {(i, 0, 0, 0): Fraction(1) for i in range(1, 40)}  # above the threshold
        big = MPoly({(0, MAX_EXP, 0, 0): Fraction(1), **pad})
        x = MPoly({(0, 1, 0, 0): Fraction(1), **pad})
        a, b = [[big, x], [x, x]], [[x, x], [x, x]]
        assert ref_work(_terms(a), _terms(b)) >= poly.MATMUL_PACK_WORK
        with pytest.raises(ExponentOverflowError) as want:
            mpoly_dot(zip(a[0], [x, x]))
        assert str(want.value) == f"exponent {MAX_EXP + 1} of x is above the limit {MAX_EXP}"
        for limit in _FOLD_LIMITS:
            with mock.patch.object(poly, "MATMUL_FOLD_BITS", limit), \
                    mock.patch.object(poly, "_pack_digits", wraps=poly._pack_digits) as pack, \
                    pytest.raises(ExponentOverflowError) as got:
                mpoly_matmul(a, b)
            assert not any(_folds(pack))
            assert str(got.value) == str(want.value)

    def test_overflow_in_d_raises_while_x_folds(self):
        # every entry x^0..x^15, one term d^MAX_EXP in a and d in b: small
        # enough to fold at the shipped limit, and the guard still sees d
        from confalg.poly import MAX_EXP, ExponentOverflowError

        xs = {(0, j, 0, 0): Fraction(j + 1, 2) for j in range(16)}
        a = [[MPoly({(MAX_EXP, 0, 0, 0): Fraction(1), **xs}), MPoly(xs)], [MPoly(xs)] * 2]
        b = [[MPoly({(1, 3, 0, 0): Fraction(-1, 3), **xs}), MPoly(xs)], [MPoly(xs)] * 2]
        assert ref_work(_terms(a), _terms(b)) >= poly.MATMUL_PACK_WORK
        with mock.patch.object(poly, "_pack_digits", wraps=poly._pack_digits) as pack, \
                pytest.raises(ExponentOverflowError) as got:
            mpoly_matmul(a, b)
        assert _folds(pack) and all(_folds(pack))
        assert str(got.value) == f"exponent {MAX_EXP + 1} of d is above the limit {MAX_EXP}"

    def test_guard_that_trips_without_overflow_gives_the_product(self):
        # the OR of a's keys and of b's keys reaches the guard bit of x, but
        # x^MAX_EXP only ever meets a polynomial in d
        from confalg.poly import MAX_EXP

        pad = {(i, 0, 0, 0): Fraction(i, 3) for i in range(1, 40)}
        a = [[{(0, MAX_EXP, 0, 0): Fraction(1), **pad}, {}], [{}, {(0, 1, 0, 0): Fraction(2)}]]
        b = [[pad, {}], [{}, {(0, 1, 0, 0): Fraction(-1), **pad}]]
        assert ref_work(a, b) >= poly.MATMUL_PACK_WORK
        with mock.patch.object(poly, "mpoly_dot", wraps=mpoly_dot) as dot:
            got = mpoly_matmul(_rows(a), _rows(b))
        assert dot.call_count == 4
        assert _terms(got) == ref_matmul(a, b)


# exponents up to the limit in all four variables, small ones drawn often
# ---------------------------------------------------------------------------
# Cached substitutions: whole matrices and vectors against the reference
# ---------------------------------------------------------------------------

# values with terms in several variables (rational coefficients among them),
# rational constants, which bring the result over their denominators, and zero
_binding_values = st.one_of(
    ref_strategy,
    rationals.map(lambda c: ref_clean({(0, 0, 0, 0): c})),
    st.just({}),
)
_bindings = st.dictionaries(var_names, _binding_values, min_size=1, max_size=3)
_ref_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(ref_strategy, min_size=n, max_size=n), min_size=1, max_size=3)
)

# the kernel's own bindings, each value using the variable it replaces or not,
# and rational, zero and constant ones
_L_D = {(1, 0, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(1)}
_KERNEL_BINDINGS = [
    {"d": {(0, 0, 1, 0): Fraction(-1)}, "x": {(0, 1, 0, 0): Fraction(1), **_L_D}},
    {"d": _L_D, "x": {(0, 1, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(-1)}},
    {"m": {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(1)}},
    {"d": {(0, 0, 1, 0): Fraction(-1, 2)}, "x": {**_L_D, (0, 0, 0, 0): Fraction(1, 2)}},
    {"x": {(0, 1, 0, 0): Fraction(1, 3), (1, 0, 0, 0): Fraction(2, 5)}},
    {"x": {}, "l": {(0, 0, 0, 0): Fraction(-3, 2)}},
]


def _values(bindings: dict[str, Ref]) -> dict[str, MPoly]:
    return {v: MPoly(t) for v, t in bindings.items()}


# a monomial value with a coefficient other than +-1 beside a multi-term value
# and a rational constant, at high exponents; bound to no other example, so
# its first run builds every image and its second reads them back
_HIGH_ROWS = [
    [{(300, 50, 0, 0): Fraction(5, 7), (299, 3, 0, 0): Fraction(1), (0, 1, 1, 2): Fraction(-1)},
     {(2, 1, 0, 0): Fraction(1), (0, 0, 0, 1): Fraction(2)}],
    [{(0, 50, 0, 0): Fraction(-3)}, {(300, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0): Fraction(4)}],
]
_HIGH_BINDINGS = {
    "d": {(0, 0, 1, 0): Fraction(-2, 3)},
    "x": {(0, 1, 0, 0): Fraction(1, 3), (0, 0, 1, 0): Fraction(1)},
    "m": {(0, 0, 0, 0): Fraction(3, 2)},
}


class TestCachedSubstitution:
    @settings(max_examples=80, deadline=None)
    @given(_ref_matrices, _bindings)
    @example(_HIGH_ROWS, _HIGH_BINDINGS)  # cold
    @example(_HIGH_ROWS, _HIGH_BINDINGS)  # warm
    @example([[{(2, 1, 0, 0): Fraction(3)}, {(0, 2, 1, 0): Fraction(-1, 2)}]],
             {"x": {(0, 0, 0, 0): Fraction(1, 2)}, "d": {(0, 1, 0, 0): Fraction(2, 3)}})
    @example([[{(1, 1, 0, 0): Fraction(1)}]], {"x": {}})
    def test_matrix_entries_match_reference(self, rows, bindings):
        got = raw_subst(_rows(rows), _values(bindings))
        assert _terms(got) == [[ref_subst(e, bindings) for e in row] for row in rows]
        for e in itertools.chain.from_iterable(got):
            assert_canonical(e)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ref_strategy, max_size=4), _bindings)
    def test_vector_entries_match_reference(self, vec, bindings):
        got = raw_vec_subst(tuple(map(MPoly, vec)), _values(bindings))
        assert [dict(e.terms) for e in got] == [ref_subst(e, bindings) for e in vec]

    @settings(max_examples=30, deadline=None)
    @given(_ref_matrices)
    def test_kernel_bindings_match_reference(self, rows):
        # the same substitutions serve every matrix, so their images are warm
        for bindings in _KERNEL_BINDINGS:
            got = raw_subst(_rows(rows), _values(bindings))
            assert _terms(got) == [[ref_subst(e, bindings) for e in row] for row in rows]

    def test_binding_reused_after_eviction(self):
        bindings = _values(_KERNEL_BINDINGS[3])
        rows = [[D**3 * X**2 - L, X * 3], [MPoly.zero(), D * X + Fraction(1, 7)]]
        want = [[ref_subst(dict(e.terms), _KERNEL_BINDINGS[3]) for e in row] for row in rows]
        assert _terms(raw_subst(rows, bindings)) == want
        first = substituter(bindings)
        for k in range(poly.SUBSTITUTER_CACHE + 1):  # distinct bindings push it out
            raw_subst(rows, {"x": X + k + 1})
        assert substituter(bindings) is not first
        assert _terms(raw_subst(rows, bindings)) == want
        assert substituter(bindings) is substituter(dict(reversed(bindings.items())))

    def test_memo_past_its_bound_keeps_results(self, monkeypatch):
        key = tuple(sorted(_values(_KERNEL_BINDINGS[0]).items()))
        polys = [D**9 * X**7 - L**5, X**6 * 3, D**4 * X**8 + D * X + Fraction(1, 7)]
        unbounded = poly._Substitution(key)
        want = unbounded.apply(polys)
        assert sum(map(len, unbounded._images.values())) > 40
        monkeypatch.setattr(poly, "SUBSTITUTION_TERMS", 40)
        bounded = poly._Substitution(key)
        for _ in range(2):  # cold, then warm with what was kept
            assert bounded.apply(polys) == want
            assert sum(map(len, bounded._images.values())) <= 40


class TestSubstitutionOverflow:
    """An image that does not fit raises the message of its entry, the first
    such entry in entry order, on every call, and leaves no image behind."""

    # x^100 has an exponent above 63, and its image fits; the images of
    # x^20000 d and of x^17000 do not
    FITS = X**100 + D
    OVER = X**20000 * D + X
    ALSO_OVER = X**17000

    @pytest.mark.parametrize(
        "value,message,also",
        [
            # memoised images: x^40000 in both
            (X**2 + L, "exponent 40000 of x is above the limit 32767",
             "exponent 34000 of x is above the limit 32767"),
            # a monomial value: d^40001 from the image of x^20000 times d
            (D**2, "exponent 40001 of d is above the limit 32767",
             "exponent 34000 of d is above the limit 32767"),
        ],
    )
    def test_overflow_message_is_stable(self, value, message, also):
        from confalg.poly import ExponentOverflowError

        bindings = {"x": value}
        for _ in range(2):
            for rows, want in (
                ([[self.FITS, self.OVER]], message),
                ([[self.FITS], [self.OVER], [self.ALSO_OVER]], message),
                ([[self.ALSO_OVER, self.OVER]], also),
            ):
                with pytest.raises(ExponentOverflowError) as err:
                    raw_subst(rows, bindings)
                assert str(err.value) == want
            with pytest.raises(ExponentOverflowError) as err:
                self.OVER.substitute(bindings)
            assert str(err.value) == message
        # what fits still substitutes, by the same cached function
        assert raw_subst([[self.FITS]], bindings) == ((naive_substitute(self.FITS, bindings),),)


_WIDE_EXP = st.one_of(st.integers(0, 3), st.integers(0, poly.MAX_EXP))
_WIDE_KEYS = st.tuples(*[_WIDE_EXP] * 4).map(poly._pack)


def ref_grlex(key: int) -> tuple[int, int]:
    """Graded lex as a tuple: the total degree from the unpacked fields, then the key."""
    return (sum(poly._unpack(key)), key)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WIDE_KEYS, max_size=8))
def test_grlex_key_sorts_like_reference(keys):
    assert sorted(keys, key=poly._grlex) == sorted(keys, key=ref_grlex)
    for a, b in zip(keys, keys[1:]):
        assert (poly._grlex(a) < poly._grlex(b)) == (ref_grlex(a) < ref_grlex(b))
    p = MPoly({poly._unpack(k): Fraction(i + 1) for i, k in enumerate(keys)})
    assert p.total_degree() == max((sum(e) for e in p.terms), default=-1)
    if keys:
        assert poly._unpack(max(keys, key=poly._grlex)) == lead_term(p)[0]


# ---------------------------------------------------------------------------
# UPoly against a Fraction-list reference model
# ---------------------------------------------------------------------------

URef = list[Fraction]  # lowest degree first, no trailing zero


def uref_clean(cs) -> URef:
    out = [Fraction(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def uref_add(a: URef, b: URef) -> URef:
    n = max(len(a), len(b))
    return uref_clean(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def uref_scale(a: URef, c: Fraction) -> URef:
    return uref_clean(x * c for x in a)


def uref_mul(a: URef, b: URef) -> URef:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return uref_clean(out)


def uref_divmod(a: URef, b: URef) -> tuple[URef, URef]:
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return uref_clean(quo), uref_clean(rem)


def uref_eval(a: URef, t: Fraction) -> Fraction:
    return sum((c * t**k for k, c in enumerate(a)), Fraction(0))


def uref_compose(a: URef, inner: URef) -> URef:
    acc: URef = []
    for c in reversed(a):
        acc = uref_add(uref_mul(acc, inner), uref_clean([c]))
    return acc


def assert_canonical_up(p: UPoly) -> None:
    import math

    assert type(p._num) is tuple and all(type(c) is int for c in p._num)
    assert type(p._den) is int and p._den > 0
    assert not p._num or p._num[-1] != 0
    assert math.gcd(p._den, *p._num) == 1


def assert_model(p: UPoly, want: URef, var: str = "x") -> None:
    assert list(p.coeffs) == want
    assert p.var == var
    assert_canonical_up(p)
    q = UPoly(want, var)
    assert p == q and hash(p) == hash(q)


uref_strategy = st.lists(rationals, max_size=6).map(uref_clean)
nonzero_uref = uref_strategy.filter(bool)
scalars = st.one_of(rationals, st.integers(-5, 5))


class TestUPolyModel:
    @settings(max_examples=80, deadline=None)
    @given(uref_strategy, uref_strategy)
    def test_add_sub_mul_neg(self, a, b):
        pa, pb = UPoly(a), UPoly(b)
        assert_model(pa, a)
        neg_b = uref_scale(b, Fraction(-1))
        assert_model(pa + pb, uref_add(a, b))
        assert_model(pa - pb, uref_add(a, neg_b))
        assert_model(-pb, neg_b)
        assert_model(pa * pb, uref_mul(a, b))

    @settings(max_examples=80, deadline=None)
    @given(uref_strategy, scalars)
    def test_scalar_ops(self, a, c):
        p, cr = UPoly(a), uref_clean([c])
        assert_model(p + c, uref_add(a, cr))
        assert_model(c + p, uref_add(a, cr))
        assert_model(p - c, uref_add(a, uref_scale(cr, Fraction(-1))))
        assert_model(p * c, uref_scale(a, Fraction(c)))
        assert_model(c * p, uref_scale(a, Fraction(c)))
        assert (p == c) == (a == cr)

    @settings(max_examples=40, deadline=None)
    @given(uref_strategy, st.integers(0, 4))
    def test_pow(self, a, n):
        want = [Fraction(1)]
        for _ in range(n):
            want = uref_mul(want, a)
        assert_model(UPoly(a) ** n, want)

    @settings(max_examples=100, deadline=None)
    @given(uref_strategy, nonzero_uref)
    def test_divmod(self, a, b):
        pa, pb = UPoly(a), UPoly(b)
        q, r = pa.divmod(pb)
        want_q, want_r = uref_divmod(a, b)
        assert_model(q, want_q)
        assert_model(r, want_r)
        assert q * pb + r == pa and r.degree() < pb.degree()
        assert pa // pb == q and pa % pb == r
        assert pb.divides(pa) == (not want_r)
        if want_r:
            with pytest.raises(ValueError):
                pa.exact_div(pb)
        else:
            assert pa.exact_div(pb) == q

    @settings(max_examples=60, deadline=None)
    @given(uref_strategy, nonzero_uref)
    def test_exact_div_of_product(self, a, b):
        prod = UPoly(a) * UPoly(b)
        assert_model(prod.exact_div(UPoly(b)), a)
        assert UPoly(b).divides(prod)
        assert UPoly([]).divides(UPoly([])) and not UPoly([]).divides(UPoly(b))
        with pytest.raises(ZeroDivisionError):
            prod.divmod(UPoly.zero())

    @settings(max_examples=60, deadline=None)
    @given(uref_strategy, rationals)
    def test_monic_derivative_eval(self, a, t):
        p = UPoly(a)
        assert_model(p.monic(), uref_scale(a, 1 / a[-1]) if a else [])
        assert_model(p.derivative(), uref_clean(c * k for k, c in enumerate(a) if k))
        assert p.eval(t) == uref_eval(a, t)
        assert p.lead() == a[-1] if a else p.is_zero()
        assert all(p.coefficient(k) == (a[k] if 0 <= k < len(a) else 0) for k in range(-1, 8))
        assert p.degree() == len(a) - 1

    @settings(max_examples=60, deadline=None)
    @given(uref_strategy, uref_strategy, rationals)
    def test_compose_shift_retag(self, a, inner, alpha):
        p = UPoly(a)
        assert_model(p.compose(UPoly(inner, "d")), uref_compose(a, inner), "d")
        assert_model(p.shift(alpha), uref_compose(a, [alpha, Fraction(1)]))
        assert_model(p.retag("z"), a, "z")
        assert p.retag("z") != p

    @settings(max_examples=80, deadline=None)
    @given(uref_strategy, uref_strategy)
    def test_gcd_and_xgcd(self, a, b):
        pa, pb = UPoly(a), UPoly(b)
        g = upoly_gcd(pa, pb)
        xg, u, v = upoly_xgcd(pa, pb)
        for p in (g, xg, u, v):
            assert_canonical_up(p)
        assert xg == g
        assert u * pa + v * pb == g
        if not a and not b:
            assert g.is_zero()
            return
        assert g.lead() == 1
        assert not uref_divmod(a, list(g.coeffs))[1]
        assert not uref_divmod(b, list(g.coeffs))[1]

    @settings(max_examples=40, deadline=None)
    @given(uref_strategy)
    def test_mpoly_bridges(self, a):
        p = UPoly(a, "d")
        m = p.to_mpoly()
        assert dict(m.terms) == {(k, 0, 0, 0): c for k, c in enumerate(a) if c}
        assert_model(upoly_from_mpoly(m, "d").retag("z"), a, "z")
        assert p.to_mpoly("x") == m.substitute({"d": X})


class TestUPolyCanonicalForm:
    def test_equal_fractions_build_equal_polys(self):
        a = UPoly((Fraction(2, 4), Fraction(3, 6)))
        b = UPoly((Fraction(1, 2), Fraction(1, 2), 0, 0))
        assert a == b and hash(a) == hash(b)
        assert a._num == (1, 1) and a._den == 2

    def test_zero_has_unit_denominator(self):
        p = UPoly((Fraction(1, 3), 1))
        for z in (UPoly.zero(), p - p, p * 0, UPoly((0, Fraction(0, 5)))):
            assert z._num == () and z._den == 1
            assert z == UPoly.zero() and hash(z) == hash(UPoly.zero())
            assert z == 0 and not z

    def test_variable_tags_are_checked(self):
        with pytest.raises(ValueError):
            UPoly((1, 1), "x") + UPoly((1,), "d")
        with pytest.raises(ValueError):
            UPoly((1, 1), "x").divmod(UPoly((1, 1), "d"))

    def test_repr_of_foreign_tag(self):
        assert repr(UPoly((Fraction(-1, 3), 1), "z")) == "UPoly('z - 1/3')"
