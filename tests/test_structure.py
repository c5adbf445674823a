"""Structure decisions: ideals, isomorphism, anti-involutions, extensions."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import polymat, structure
from confalg.cend import (
    AntiInvSpec,
    CendElem,
    apply_antiinv,
    raw_add,
    raw_mul,
    raw_transpose,
    raw_zero,
    standard_action,
    verify_module_axioms,
)
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat, is_unimodular, smith_divisors, star
from confalg.sampling import random_cend, random_modvec_raw, random_unimodular
from confalg.structure import (
    DegenerateError,
    MismatchError,
    anti_automorphism_exists,
    anti_involution_search,
    build_extension,
    decide_isomorphism,
    embedded_standard_witness,
    left_ideal_generator,
    right_ideal_generator,
    unital_closure_probe,
)
from ideal_oracle import brute_left_generator, brute_right_generator
from poly_helpers import random_upoly

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")
M = MPoly.var("m")

ZERO = UPoly.zero()
ONE = UPoly.const(1)
XX = UPoly.variable()
P_X = PolyMat([[XX]])
P_1 = PolyMat.identity(1)


def scalar(p: MPoly) -> CendElem:
    return CendElem.scalar(p)


class TestLeftIdeal:
    def test_scalar_gcd(self):
        report = left_ideal_generator(
            P_1, [scalar(X**2 - 1), scalar(X**2 + X)]
        )
        assert report.generator == PolyMat([[UPoly((1, 1))]])

    def test_whole_algebra_over_itself(self):
        report = left_ideal_generator(P_X, [scalar(MPoly.const(1))])
        assert report.generator == P_1

    def test_d_stripping(self):
        report = left_ideal_generator(P_1, [scalar(D * X + X**2)])
        assert report.generator == P_X

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            left_ideal_generator(PolyMat([[UPoly.zero()]]), [scalar(X)])

    def test_expands_the_minors_of_p_once(self, monkeypatch):
        expansions = []

        def counted(*args, **kwargs):
            expansions.append(args[0])
            return minors(*args, **kwargs)

        minors = polymat._minors
        monkeypatch.setattr(polymat, "_minors", counted)
        p_mat = PolyMat([[XX, ONE, ZERO], [ZERO, XX, ONE], [ONE, ZERO, XX * XX]])
        gens = [CendElem([[X * D if i == j else MPoly.const(i) for j in range(3)]
                          for i in range(3)])]
        report = left_ideal_generator(p_mat, gens)
        assert expansions == [p_mat]
        assert report.generator @ p_mat == report.hermite

    def test_oracle_agreement_scalar(self):
        rng = random.Random(51)
        for _ in range(4):
            gens = [
                scalar(
                    D * rng.randint(0, 2) * X
                    + X**2 * rng.randint(0, 1)
                    + X * rng.randint(-2, 2)
                    + rng.randint(0, 2)
                )
                for _ in range(2)
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            fast = left_ideal_generator(P_1, gens).generator
            brute = brute_left_generator(P_1, gens)
            assert fast == brute

    def test_oracle_agreement_matrix(self):
        rng = random.Random(52)
        p_mat = PolyMat.diagonal([ONE, XX])
        for _ in range(2):
            gens = [random_cend(rng, 2, 1)]
            fast = left_ideal_generator(p_mat, gens).generator
            brute = brute_left_generator(p_mat, gens, probe_cap=2, x_cap=7, rounds=5)
            assert fast == brute


class TestRightIdeal:
    def test_already_principal(self):
        report = right_ideal_generator(P_1, [scalar((D + X) ** 2)])
        assert report.generator == PolyMat([[UPoly((0, 0, 1))]])

    def test_unit(self):
        report = right_ideal_generator(P_1, [scalar(MPoly.const(1))])
        assert report.generator == P_1

    def test_tilde_gcd(self):
        report = right_ideal_generator(
            P_1, [scalar((D + X) * X), scalar(D + X)]
        )
        assert report.generator == PolyMat([[UPoly((0, 1))]])

    def test_oracle_agreement(self):
        rng = random.Random(53)
        for _ in range(3):
            gens = [
                scalar((D + X) ** rng.randint(1, 2) * X ** rng.randint(0, 1)),
            ]
            fast = right_ideal_generator(P_1, gens).generator
            brute = brute_right_generator(P_1, gens)
            assert fast == brute


class TestIdealMetamorphic:
    """The canonical answer of one ideal under changes that keep the ideal."""

    @staticmethod
    def _reorder(side: str, g: CendElem) -> CendElem:
        # a permutation on the left keeps a left ideal, on the right a right one
        rows = [list(r) for r in g.entries]
        return CendElem(rows[::-1] if side == "left" else [r[::-1] for r in rows])

    @staticmethod
    def _member(side: str, report) -> CendElem:
        # the generator itself, as an a-part: the ideal is (algebra) Q P on
        # the left, Q(d + x) (algebra) on the right
        q = CendElem(report.generator.to_mpoly_rows())
        return q if side == "left" else q.substitute({"x": D + X})

    def test_three_pivots_in_both_row_orders(self):
        g = CendElem([[MPoly.zero(), MPoly.zero(), X**2], [MPoly.zero(), MPoly.const(1), X],
                      [MPoly.const(1), X, MPoly.zero()]])
        hermite = PolyMat([[ONE, ZERO, ZERO], [ZERO, ONE, XX], [ZERO, ZERO, XX * XX]])
        p_mat = PolyMat.identity(3)
        for gens in ([g], [self._reorder("left", g)]):
            report = left_ideal_generator(p_mat, gens)
            assert report.generator == report.hermite == hermite
            assert report.verify(p_mat, gens) is None

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("seed", range(4))
    def test_reordered_and_redundant_generators(self, side, seed):
        # generators a h (left) or h(d + x) a (right) for an upper triangular
        # h with non-unit pivots, so the ideal is proper with three pivots
        rng = random.Random(70 + seed)
        p_mat = PolyMat([[XX, ONE, ZERO], [ZERO, ONE, ZERO], [ONE, ZERO, XX]])
        h = CendElem([[random_upoly(rng, 1 + (i == j and rng.random() < 0.5)).to_mpoly("x")
                       if i <= j else MPoly.zero() for j in range(3)] for i in range(3)])
        if side == "right":
            h = h.substitute({"x": D + X})
        factors = [random_cend(rng, 3, 1) for _ in range(2)]
        gens = [CendElem(raw_mul(a.entries, h.entries) if side == "left"
                         else raw_mul(h.entries, a.entries)) for a in factors]
        build = left_ideal_generator if side == "left" else right_ideal_generator
        report = build(p_mat, gens)
        assert any(report.hermite.rows[-1]) and not is_unimodular(report.hermite)
        assert report.verify(p_mat, gens) is None
        variants = [
            [self._reorder(side, g) for g in gens],
            gens[::-1],
            gens + [CendElem(raw_add(gens[0].entries, gens[1].entries))],
            gens + [self._member(side, report)],
        ]
        for other in variants:
            again = build(p_mat, other)
            assert (again.generator, again.hermite) == (report.generator, report.hermite)
            assert again.verify(p_mat, other) is None


class TestIsomorphism:
    def test_shift_by_five(self):
        decision = decide_isomorphism(P_X, PolyMat([[UPoly((5, 1))]]))
        assert decision.isomorphic and decision.alpha == 5

    def test_degree_mismatch(self):
        decision = decide_isomorphism(P_X, PolyMat([[UPoly((0, 0, 1))]]))
        assert not decision.isomorphic

    def test_permuted_diagonal(self):
        p = PolyMat.diagonal([ONE, XX])
        q = PolyMat([[UPoly.zero(), ONE], [XX, UPoly.zero()]])
        decision = decide_isomorphism(p, q)
        assert decision.isomorphic and decision.alpha == 0
        assert decision.divisors_left == (ONE, XX)

    def test_symmetry_and_reflexivity(self):
        rng = random.Random(54)
        for _ in range(4):
            p = PolyMat.diagonal([random_upoly(rng, 1), random_upoly(rng, 2)])
            assert decide_isomorphism(p, p).alpha == 0
            q = p.shift(Fraction(3, 2))
            lhs = decide_isomorphism(p, q)
            rhs = decide_isomorphism(q, p)
            assert lhs.isomorphic and rhs.isomorphic
            assert lhs.alpha == -rhs.alpha

    def test_unimodular_invariance(self):
        rng = random.Random(55)
        p = PolyMat.diagonal([ONE, XX * XX])
        for _ in range(3):
            u = random_unimodular(rng, 2)
            v = random_unimodular(rng, 2)
            assert decide_isomorphism(u @ p @ v, p).isomorphic

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            decide_isomorphism(PolyMat([[UPoly.zero()]]), P_X)


class TestAntiAutomorphism:
    def test_x(self):
        decision = anti_automorphism_exists(P_X)
        assert decision.isomorphic and decision.alpha == 0

    def test_x_minus_one(self):
        decision = anti_automorphism_exists(PolyMat([[UPoly((-1, 1))]]))
        assert decision.isomorphic and decision.alpha == 2

    def test_mirrored_pair(self):
        decision = anti_automorphism_exists(PolyMat.diagonal([XX, UPoly((-1, 1))]))
        assert decision.isomorphic and decision.alpha == 1

    def test_agrees_with_isomorphism_to_reflection(self):
        rng = random.Random(56)
        for _ in range(5):
            p = PolyMat.diagonal([random_upoly(rng, 1), random_upoly(rng, 2)])
            direct = anti_automorphism_exists(p)
            via_iso = decide_isomorphism(p, star(p, 0))
            assert direct.isomorphic == via_iso.isomorphic
            if direct.isomorphic:
                assert direct.alpha == via_iso.alpha


ENTRIES = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: UPoly(tuple(c)))


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 3))
    return PolyMat([[draw(ENTRIES) for _ in range(n)] for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(
    p=small_matrices(),
    alpha=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    seed=st.integers(0, 1000),
)
def test_divisors_move_with_the_automorphism(p, alpha, seed):
    # x -> x + alpha and x -> alpha - x are ring automorphisms of Q[x]
    divs = smith_divisors(p)
    assert smith_divisors(p.shift(alpha)) == tuple(d.shift(alpha) for d in divs)
    mirrored = tuple(d.compose(UPoly((alpha, -1))).monic() for d in divs)
    assert smith_divisors(star(p, alpha)) == mirrored
    if divs[-1].is_zero():
        return
    rng = random.Random(seed)
    q = random_unimodular(rng, p.n) @ p.shift(alpha) @ random_unimodular(rng, p.n)
    decision = decide_isomorphism(p, q)
    constant_det = all(d.degree() == 0 for d in divs)  # then every shift is an answer
    assert decision.isomorphic and decision.alpha == (0 if constant_det else alpha)


def test_each_matrix_has_its_divisors_computed_once(monkeypatch):
    calls = {"smith_divisors": 0, "det": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(structure, "smith_divisors", counted("smith_divisors", smith_divisors))
    for module in (structure, polymat):
        monkeypatch.setattr(module, "det", counted("det", polymat.det))
    mirrored = PolyMat.diagonal([XX, UPoly((-1, 1))])
    pairs = [
        (P_X, PolyMat([[UPoly((5, 1))]])),  # isomorphic
        (P_X, PolyMat([[UPoly((0, 0, 1))]])),  # degrees differ
        (P_1, P_X),  # constant det on one side
        (P_1, PolyMat.identity(2)),  # sizes differ
        (PolyMat.diagonal([ONE, XX * XX]), PolyMat.diagonal([XX, XX])),  # same det, not isomorphic
    ]
    for p, q in pairs:
        calls.update(smith_divisors=0, det=0)
        decide_isomorphism(p, q)
        assert calls == {"smith_divisors": 2, "det": 0}
    for p in (P_1, P_X, mirrored, PolyMat.diagonal([ONE, UPoly((0, -3, 1)) * XX])):
        calls.update(smith_divisors=0, det=0)
        anti_automorphism_exists(p)
        assert calls == {"smith_divisors": 1, "det": 0}
    calls.update(smith_divisors=0)
    anti_involution_search(mirrored, degree_cap=1)
    assert calls["smith_divisors"] == 1


class TestAntiInvolutionSearch:
    def test_scalar_x(self):
        _, spec = anti_involution_search(P_X, degree_cap=0)
        assert spec is not None
        assert spec.epsilon == -1 and spec.alpha == 0
        assert spec.y_mat == P_1

    def test_identity_matrix(self):
        _, spec = anti_involution_search(PolyMat.identity(2), degree_cap=0)
        assert spec is not None
        assert spec.epsilon == 1 and spec.alpha == 0
        assert spec.y_mat == PolyMat.identity(2)
        # recovers transpose-reflection: images match a^t(d, -x-d)
        rng = random.Random(57)
        a = random_cend(rng, 2, 2)
        want = CendElem(raw_transpose(a.entries)).substitute({"x": -D - X})
        assert apply_antiinv(a, spec) == want

    def test_mirrored_diagonal_with_cap_one(self):
        p = PolyMat.diagonal([XX, UPoly((-1, 1))])
        _, spec = anti_involution_search(p, degree_cap=1)
        assert spec is not None
        # re-verify the defining identity and involutivity on monomials
        lhs = star(spec.y_mat, spec.alpha) @ star(p, spec.alpha)
        assert lhs == (p @ spec.y_mat).scale(spec.epsilon)
        for i in range(2):
            for j in range(2):
                a = CendElem.matrix_unit(2, i, j, X)
                assert apply_antiinv(apply_antiinv(a, spec), spec) == a

    def test_absent_when_no_anti_automorphism(self):
        # det roots {0, 0, 1} cannot be mirrored onto themselves
        p = PolyMat.diagonal([XX, XX * UPoly((-1, 1))])
        decision, spec = anti_involution_search(p, degree_cap=1)
        # a decided absence: the divisors and their reflection differ
        assert decision == anti_automorphism_exists(p)
        assert decision.isomorphic is False and spec is None
        assert decision.divisors_left != decision.divisors_right


def grid_search(p_mat: PolyMat, degree_cap: int) -> AntiInvSpec | None:
    """Reference model: every unimodular Y with entry degrees <= degree_cap and
    coefficients in {0, 1, -1}, Y = 1 first, at most 200,000 candidates."""
    decision = anti_automorphism_exists(p_mat)
    if not decision.isomorphic:
        return None
    alpha, n = decision.alpha, p_mat.n
    polys = [
        UPoly(coefs)
        for deg in range(degree_cap + 1)
        for coefs in itertools.product((0, 1, -1), repeat=deg + 1)
        if coefs[deg]
    ]
    diag = [ONE, UPoly.zero()] + [q for q in polys if q != ONE]
    off = [UPoly.zero()] + polys
    slots = [diag if i == j else off for i in range(n) for j in range(n)]
    p_star = star(p_mat, alpha)
    for flat in itertools.islice(itertools.product(*slots), 200_000):
        y = PolyMat([flat[i * n : (i + 1) * n] for i in range(n)])
        if not is_unimodular(y):
            continue
        lhs = star(y, alpha) @ p_star
        for eps in (1, -1):
            if lhs == (p_mat @ y).scale(eps):
                return AntiInvSpec(p_mat, y, eps, Fraction(alpha))
    return None


def _transvection(rng: random.Random) -> PolyMat:
    i, j = rng.sample(range(2), 2)
    rows = [[ONE, UPoly.zero()], [UPoly.zero(), ONE]]
    rows[i][j] = UPoly((rng.randint(-2, 2), rng.randint(-1, 1)))
    return PolyMat(rows)


def mirrored_scramble(rng: random.Random) -> PolyMat:
    """A * D * B: D diagonal with entries even or odd about alpha/2, A and B transvections."""
    alpha, r = rng.randint(-2, 2), rng.randint(-2, 2)
    even = (XX - r) * (XX - (alpha - r))
    odd = UPoly((-alpha, 2))
    d = PolyMat.diagonal([rng.choice([ONE, even, odd]), rng.choice([even, odd, odd * even])])
    return _transvection(rng) @ d @ _transvection(rng)


P_OUTSIDE_GRID = PolyMat([[UPoly((1, 3)), ONE], [UPoly((-1, -2, 1)), UPoly.const(-2)]])


class TestAgainstGrid:
    @pytest.mark.parametrize("seed", range(4))
    def test_finds_whatever_the_grid_finds(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(6):
            p = mirrored_scramble(rng)
            for cap in (0, 1):
                reference = grid_search(p, cap)
                _, spec = anti_involution_search(p, degree_cap=cap)
                if spec is not None:
                    assert AntiInvSpec(p, spec.y_mat, spec.epsilon, spec.alpha) == spec
                if reference is None:
                    continue
                assert spec is not None, (p, cap)
                if reference.y_mat == PolyMat.identity(2):
                    assert spec == reference

    def test_coefficient_outside_the_grid(self):
        assert grid_search(P_OUTSIDE_GRID, 1) is None
        _, spec = anti_involution_search(P_OUTSIDE_GRID, degree_cap=1)
        assert spec is not None
        assert Fraction(-1, 3) in {c for row in spec.y_mat.rows for e in row for c in e.coeffs}

    def test_top_degree_cap_ends(self):
        _, spec = anti_involution_search(P_OUTSIDE_GRID, degree_cap=16)
        assert spec is not None and spec.alpha == -4

    @pytest.mark.parametrize("seed", range(3))
    def test_low_degree_vectors_span_the_low_degree_solutions(self, seed):
        # reduced echelon forms are unique, so the degree <= c part of the
        # basis at cap 3 must be the basis at cap c, vector for vector
        rng = random.Random(800 + seed)
        for _ in range(3):
            p = mirrored_scramble(rng)
            alpha = anti_automorphism_exists(p).alpha
            for eps in (1, -1):
                top = solution_basis(p, alpha, eps, 3)
                assert top
                assert [degree(y) for y in top] == sorted(degree(y) for y in top)
                for cap in range(3):
                    assert [y for y in top if degree(y) <= cap] == solution_basis(p, alpha, eps, cap)
                for y in top:
                    assert star(y, alpha) @ star(p, alpha) == (p @ y).scale(eps)


def solution_basis(p: PolyMat, alpha: Fraction, eps: int, cap: int) -> list[PolyMat]:
    """``structure._solution_basis`` as matrices with rational entries."""
    den, basis = structure._solution_basis(p, star(p, alpha), alpha, eps, cap)
    n = p.n
    return [
        PolyMat([[UPoly(Fraction(c, den) for c in vec[i * n + j :: n * n])
                  for j in range(n)] for i in range(n)])
        for vec in basis
    ]


def degree(y: PolyMat) -> int:
    return max(e.degree() for row in y.rows for e in row)


class TestExtensions:
    def test_factorization_module_axioms(self):
        p2 = PolyMat([[UPoly((0, 0, 1))]])
        module = build_extension(p2, "factorization", r_mat=P_X, s_mat=P_X)
        rng = random.Random(58)
        samples = [
            (random_cend(rng, 1, 2), random_cend(rng, 1, 2), random_modvec_raw(rng, 1, 2))
            for _ in range(5)
        ]
        report = verify_module_axioms(module.action, samples, p_mat=p2)
        assert report.ok, report.failures

    def test_invariant_submodule_is_standard(self):
        p2 = PolyMat([[UPoly((0, 0, 1))]])
        module = build_extension(p2, "factorization", r_mat=P_X, s_mat=P_X)
        rng = random.Random(59)
        for _ in range(6):
            a = random_cend(rng, 1, 2)
            vec = random_modvec_raw(rng, 1, 2)
            lhs, rhs = embedded_standard_witness(module, a, vec)
            assert lhs == rhs

    def test_trivial_factorization_is_standard_module(self):
        module = build_extension(P_X, "factorization", r_mat=P_X, s_mat=P_1)
        act = standard_action(P_X, 0)
        rng = random.Random(60)
        for _ in range(4):
            a = random_cend(rng, 1, 2)
            vec = random_modvec_raw(rng, 1, 2)
            assert module.action(a.entries, L)(vec) == act(a.entries, L)(vec)

    def test_factorization_mismatch(self):
        with pytest.raises(MismatchError):
            build_extension(P_X, "factorization", r_mat=P_X, s_mat=P_X)

    def test_jordan_module_axioms(self):
        rng = random.Random(61)
        for p_mat in (P_1, P_X):
            module = build_extension(p_mat, "jordan")
            samples = [
                (
                    random_cend(rng, 1, 2),
                    random_cend(rng, 1, 2),
                    random_modvec_raw(rng, 2, 2),
                )
                for _ in range(4)
            ]
            report = verify_module_axioms(module.action, samples, p_mat=p_mat)
            assert report.ok, report.failures

    def test_jordan_mixes_blocks(self):
        module = build_extension(P_1, "jordan")
        out = module.action(scalar(X).entries, L)((MPoly.zero(), MPoly.const(1)))
        # x evaluated at l + d + nilpotent: the second block leaks into the first
        assert out[0] == MPoly.const(1)
        assert out[1] == MPoly.var("l") + D


class TestUnitalProbe:
    def test_current_subalgebra(self):
        gens = [CendElem.identity(2)] + [
            CendElem.matrix_unit(2, i, j) for i in range(2) for j in range(2)
        ]
        outcome = unital_closure_probe(gens)
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 4)

    def test_x_dependent_generator(self):
        gens = [CendElem.identity(2), CendElem.matrix_unit(2, 0, 0, X)]
        outcome = unital_closure_probe(gens)
        assert (outcome.outcome, outcome.basis_rank) == ("cend_n", 0)

    def test_identity_only(self):
        outcome = unital_closure_probe([CendElem.identity(1)])
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 1)

    def test_upper_triangular(self):
        # coefficient matrices E_11 (at d^1) and E_12: the upper triangular algebra
        gens = [CendElem.identity(2), CendElem([[D, MPoly.const(1)], [MPoly.zero(), MPoly.zero()]])]
        outcome = unital_closure_probe(gens)
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 3)

    def test_products_of_coefficients_reach_all_of_mat_3(self):
        # E_11 and the cyclic shift C: the products C^i E_11 C^j are all the matrix units
        zero, one = MPoly.zero(), MPoly.const(1)
        shift = CendElem([[D, one, zero], [zero, zero, one], [one, zero, zero]])
        outcome = unital_closure_probe([CendElem.identity(3), shift])
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 9)

    def test_rotation_generates_a_field(self):
        # J = [[0, 1], [-1, 0]] has J^2 = -1, so A = Q[J] has dimension 2
        one = MPoly.const(1)
        j = CendElem([[MPoly.zero(), one], [-one, MPoly.zero()]])
        outcome = unital_closure_probe([CendElem.identity(2), j])
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 2)

    def test_coefficients_with_different_denominators(self):
        # E_11 / 2 at d^1, E_12 / 3 and E_22 * 5/6 at d^0: rescaled, they span
        # the upper triangular algebra as E_11 and E_12 alone would
        c = MPoly.const
        g = CendElem([[D * Fraction(1, 2), c(Fraction(1, 3))], [MPoly.zero(), c(Fraction(5, 6))]])
        outcome = unital_closure_probe([CendElem.identity(2), g])
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 3)

    def test_stops_at_all_of_mat_n(self, monkeypatch):
        # I, the cyclic shift C and E_11 need products to reach rank 9; the
        # product that reaches it is the last row tried
        add, kept = structure._echelon_add, []

        def recording(echelon, row):
            kept.append(add(echelon, row))
            return kept[-1]

        monkeypatch.setattr(structure, "_echelon_add", recording)
        zero, one = MPoly.zero(), MPoly.const(1)
        shift = CendElem([[D, one, zero], [zero, zero, one], [one, zero, zero]])
        outcome = unital_closure_probe([CendElem.identity(3), shift])
        assert (outcome.outcome, outcome.basis_rank) == ("cur_n", 9)
        assert sum(kept) == 9 and kept[-1]

    def test_requires_identity(self):
        with pytest.raises(ValueError):
            unital_closure_probe([CendElem.matrix_unit(2, 0, 0)])


class TestSearchBudgets:
    def test_candidate_budget_returns_none(self, monkeypatch):
        p = PolyMat.diagonal([XX, UPoly((-1, 1))])
        assert anti_involution_search(p, degree_cap=1)[1] is not None
        monkeypatch.setattr(structure, "_MAX_CANDIDATES", 0)
        decision, spec = anti_involution_search(p, degree_cap=1)
        assert decision.isomorphic and spec is None

    def test_searched_spec_is_involutive_to_degree_three(self):
        p = PolyMat.diagonal([XX, UPoly((-1, 1))])
        _, spec = anti_involution_search(p, degree_cap=1)
        assert spec is not None
        for i in range(4):
            for j in range(4 - i):
                mono = D**i * X**j
                for r in range(2):
                    for c in range(2):
                        a = CendElem.matrix_unit(2, r, c, mono)
                        assert apply_antiinv(apply_antiinv(a, spec), spec) == a


class TestRightIdealWithDefiningMatrix:
    def test_unit_generator_over_x(self):
        report = right_ideal_generator(P_X, [scalar(MPoly.const(1))])
        assert report.generator == P_1
        assert right_ideal_generator(P_X, [scalar(MPoly.const(1))]).generator == \
            brute_right_generator(P_X, [scalar(MPoly.const(1))])

    def test_shifted_factor_over_x(self):
        gens = [scalar(D + X)]
        fast = right_ideal_generator(P_X, gens).generator
        assert fast == brute_right_generator(P_X, gens)

    def test_matrix_case_against_oracle(self):
        rng = random.Random(62)
        p_mat = PolyMat.diagonal([ONE, XX])
        gens = [random_cend(rng, 2, 1)]
        fast = right_ideal_generator(p_mat, gens).generator
        brute = brute_right_generator(p_mat, gens, probe_cap=2, x_cap=7, rounds=5)
        assert fast == brute

    def test_zero_generators_give_zero_ideal(self):
        for build in (left_ideal_generator, right_ideal_generator):
            report = build(P_1, [CendElem(raw_zero(1))])
            assert report.generator == PolyMat.zero(1)
            assert report.verify(P_1, [CendElem(raw_zero(1))]) is None


class TestIdealReportVerify:
    # Q(d+x) with Q = [[z, 0], [1, z - 1]] not symmetric: the right Hermite
    # rows are the columns of the generator
    GENS = [CendElem([[D + X, MPoly.zero()], [MPoly.const(1), D + X - 1]])]
    P_2 = PolyMat.identity(2)

    def test_emitted_reports_verify(self):
        for build in (left_ideal_generator, right_ideal_generator):
            assert build(self.P_2, self.GENS).verify(self.P_2, self.GENS) is None
        report = right_ideal_generator(self.P_2, self.GENS)
        assert report.generator == PolyMat(
            [[UPoly((0, 1)), UPoly.zero()], [ONE, UPoly((-1, 1))]]
        )

    def test_non_symmetric_right_generator_against_oracle(self):
        fast = right_ideal_generator(self.P_2, self.GENS).generator
        brute = brute_right_generator(self.P_2, self.GENS, probe_cap=1, x_cap=4, rounds=3)
        assert fast == brute

    def test_forged_reports_fail(self):
        report = right_ideal_generator(self.P_2, self.GENS)
        too_small = PolyMat.diagonal([XX, XX])
        padded = tuple(row + (UPoly((7,)),) for row in report.multipliers)
        forged = [
            replace(report, hermite=too_small, generator=too_small),
            replace(report, multipliers=report.multipliers[:1]),
            replace(report, multipliers=padded),
            replace(report, multipliers=tuple(row[:-1] for row in report.multipliers)),
            replace(report, multipliers=report.multipliers[::-1]),
        ]
        messages = [f.verify(self.P_2, self.GENS) for f in forged]
        assert messages == [
            "input row escapes the reported generator module",
            "multiplier row count mismatch",
            "multiplier row length mismatch",
            "multiplier row length mismatch",
            "multipliers do not reproduce the hermite rows",
        ]


class TestShiftedAntiInvolutionLaw:
    def test_product_reversal_at_nonzero_shift(self):
        from confalg.cend import LambdaSeries, product_apply, raw_subst

        p = PolyMat.diagonal([XX, UPoly((-1, 1))])
        _, spec = anti_involution_search(p, degree_cap=1)
        assert spec is not None and spec.alpha == 1
        rng = random.Random(63)
        for _ in range(3):
            a = random_cend(rng, 2, 1)
            b = random_cend(rng, 2, 1)
            lhs = LambdaSeries.from_raw(
                product_apply(a.entries, b.entries, L, p)
            ).map_coefficients(lambda c: apply_antiinv(c, spec))
            sa = apply_antiinv(a, spec)
            sb = apply_antiinv(b, spec)
            rhs = raw_subst(
                product_apply(sb.entries, sa.entries, M, p), {"m": -D - L}
            )
            assert lhs.to_raw() == rhs
