"""Orthogonal/symplectic generators, invariance, probes, equivariance."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confalg.cend import (
    AntiInvSpec,
    CendElem,
    lie_bracket,
    modvec,
    raw_mat_vec,
    raw_subst,
    raw_vec_subst,
)
from confalg.gclie import (
    ConfBilinearForm,
    anti_fixed_part,
    bracket_closure_check,
    check_anti_fixed,
    fixed_part,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
    phi_equivariance_spotcheck,
    sigma_star,
)
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat, det, star
from confalg.sampling import random_cend

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")
M = MPoly.var("m")

ONE = UPoly.const(1)
XX = UPoly.variable()
P_1 = PolyMat.identity(1)
P_X = PolyMat([[XX]])
J2 = PolyMat([[UPoly.zero(), ONE], [-ONE, UPoly.zero()]])


def scalar(p: MPoly) -> CendElem:
    return CendElem.scalar(p)


def spec_for(p_mat: PolyMat, epsilon: int) -> AntiInvSpec:
    return AntiInvSpec(p_mat, PolyMat.identity(p_mat.n), epsilon, Fraction(0))


class TestGenerators:
    def test_scalar_degree_one(self):
        gens = make_oc_spc_generators(1, P_1, 1, 1)
        assert [g.n for g in gens] == [1]
        assert gens[0].a_part == scalar(X * 2 + D)

    def test_degree_zero_cancels_in_oc(self):
        gens = make_oc_spc_generators(1, P_1, 1, 0)
        assert gens == []

    def test_degree_zero_survives_in_spc(self):
        gens = make_oc_spc_generators(1, P_X, -1, 0)
        assert len(gens) == 1
        assert gens[0].a_part == scalar(MPoly.const(2))
        assert gens[0].element == scalar(X * 2)

    def test_symplectic_generators_are_anti_fixed(self):
        gens = make_oc_spc_generators(2, J2, -1, 2)
        spec = spec_for(J2, -1)
        assert gens
        for g in gens:
            assert check_anti_fixed(g.a_part, spec)

    def test_orthogonal_generators_are_anti_fixed(self):
        gens = make_oc_spc_generators(2, PolyMat.identity(2), 1, 2)
        spec = spec_for(PolyMat.identity(2), 1)
        for g in gens:
            assert check_anti_fixed(g.a_part, spec)

    def test_symmetry_claim_enforced(self):
        with pytest.raises(ValueError):
            make_oc_spc_generators(1, P_X, 1, 1)  # x is skew, not hermitian


class TestAntiFixed:
    def test_positive(self):
        assert check_anti_fixed(scalar(X * 2 + D), spec_for(P_1, 1))

    def test_sigma_fixed_rejected(self):
        assert not check_anti_fixed(scalar(-D), spec_for(P_1, 1))

    def test_zero(self):
        assert check_anti_fixed(CendElem.zero(1), spec_for(P_1, 1))

    def test_splitting_identity(self):
        rng = random.Random(71)
        for _ in range(6):
            a = random_cend(rng, 2, 2)
            minus = anti_fixed_part(a)
            plus = fixed_part(a)
            assert minus + plus == a
            assert sigma_star(minus) == -minus
            assert sigma_star(plus) == plus


def naive_invariance_defects(form, a, degree_cap):
    """The degree-window loop: the pairs (d^k e_i, d^j e_j), k, j <= degree_cap,
    at which the invariance identity fails."""
    n = form.p_mat.n
    head = raw_subst(a.entries, {"d": -M, "x": M + D})

    def act(vec):
        return raw_mat_vec(head, raw_vec_subst(vec, {"d": M + D}))

    window = []
    for k in range(degree_cap + 1):
        for i in range(n):
            vec = [MPoly.zero()] * n
            vec[i] = D**k
            window.append((k, i, tuple(vec)))
    return {
        (k1, i1, k2, i2)
        for k1, i1, v in window
        for k2, i2, w in window
        if not (form.pair(act(v), w, at=L) + form.pair(v, act(w), at=L - M)).is_zero()
    }


small_ints = st.integers(-2, 2)
x_polys = st.lists(small_ints, max_size=3).map(lambda cs: UPoly(tuple(cs)))
dx_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_ints, max_size=3
).map(lambda terms: MPoly({(i, j, 0, 0): c for (i, j), c in terms.items() if c}))


@st.composite
def invariance_cases(draw):
    """(form, element): P = Q + eps Q*, and an element that is a sum of
    orthogonal/symplectic generators, a random symbol, or both."""
    n = draw(st.integers(1, 2))
    eps = draw(st.sampled_from((1, -1)))
    q = PolyMat([[draw(x_polys) for _ in range(n)] for _ in range(n)])
    p_mat = q + star(q, 0).scale(eps)
    assume(not det(p_mat).is_zero())
    form = ConfBilinearForm(p_mat, eps)
    gens = make_oc_spc_generators(n, p_mat, eps, 1)
    elem = CendElem.zero(n)
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else ():
        elem = elem + g.element
    if draw(st.booleans()):
        elem = elem + CendElem([[draw(dx_polys) for _ in range(n)] for _ in range(n)])
    return form, elem


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(invariance_cases(), st.integers(0, 2))
    def test_unit_pairs_decide_every_degree(self, case, cap):
        # defect(d^k v, d^j w) = (m - l)^k l^j defect(v, w): a unit pair fails
        # exactly when every pair above it fails
        form, elem = case
        report = invariance_check(form, elem)
        failing = {(i, j) for i in range(elem.n) for j in range(elem.n)
                   if f"defect at v=e{i + 1}, w=e{j + 1}" in report.failures}
        assert len(failing) == len(report.failures)
        assert report.checked == elem.n**2
        assert report.ok == (not failing)
        want = {(k1, i, k2, j) for i, j in failing
                for k1 in range(cap + 1) for k2 in range(cap + 1)}
        assert naive_invariance_defects(form, elem, cap) == want

    def test_failures_name_unit_pairs(self):
        report = invariance_check(ConfBilinearForm(J2, -1), CendElem.matrix_unit(2, 0, 0, X))
        assert report.checked == 4
        assert report.failures == ("defect at v=e1, w=e2", "defect at v=e2, w=e1")

    def test_oc_scalar_generators_pass(self):
        form = ConfBilinearForm(P_1, 1)
        for g in make_oc_spc_generators(1, P_1, 1, 3):
            report = invariance_check(form, g.element)
            assert report.ok, (g.n, report.failures)

    def test_x_fails(self):
        form = ConfBilinearForm(P_1, 1)
        report = invariance_check(form, scalar(X))
        assert not report.ok

    def test_zero_passes(self):
        form = ConfBilinearForm(P_1, 1)
        assert invariance_check(form, CendElem.zero(1)).ok

    def test_degenerate_rejected(self):
        form = ConfBilinearForm(PolyMat([[UPoly.zero()]]), 1)
        with pytest.raises(ValueError):
            invariance_check(form, scalar(X))

    def test_pair_refuses_vectors_of_the_wrong_length(self):
        form = ConfBilinearForm(PolyMat.identity(2), 1)
        assert form.pair((D, X), (D, D)) == -L * L + X * L
        for v, w in (((D,), (D, D)), ((D, D, D), (D, D)), ((D,), (D,))):
            with pytest.raises(ValueError, match="size mismatch"):
                form.pair(v, w)


class TestBracketClosure:
    def test_oc1_closed(self):
        spec = spec_for(P_1, 1)
        gens = [g.a_part for g in make_oc_spc_generators(1, P_1, 1, 2)]
        report = bracket_closure_check(
            gens, P_1, lambda c: check_anti_fixed(c, spec)
        )
        assert report.ok, report.failures

    def test_degree_one_self_bracket_value(self):
        y1 = scalar(X * 2 + D)
        series = lie_bracket(y1, y1)
        expected = (L * 2 + D) * (X * 2 + D) * 2
        assert series.to_raw() == ((expected,),)
        assert check_anti_fixed(series.coeff(0), spec_for(P_1, 1))
        assert check_anti_fixed(series.coeff(1), spec_for(P_1, 1))

    def test_mixing_fixed_part_is_flagged(self):
        spec = spec_for(P_1, 1)
        y1 = scalar(X * 2 + D)  # anti-fixed
        w0 = scalar(MPoly.const(2))  # fixed
        report = bracket_closure_check(
            [y1, w0], P_1, lambda c: check_anti_fixed(c, spec)
        )
        assert not report.ok


class TestIrreducibilityProbe:
    def test_defining_matrix_x(self):
        gens = [scalar(MPoly.const(1)), scalar(X), scalar(D)]
        outcome = irreducibility_probe(gens, P_X, 0, modvec([1]))
        assert outcome.outcome == "irreducible"

    def test_proper_invariant_line(self):
        gens = [CendElem.matrix_unit(2, 0, 0)]
        outcome = irreducibility_probe(gens, PolyMat.identity(2), 0, modvec([1, 0]))
        assert outcome.outcome == "proper_invariant_detected"
        assert outcome.rank == 1

    def test_oc_over_x(self):
        gens = [g.a_part for g in make_oc_spc_generators(1, P_X, -1, 2)]
        outcome = irreducibility_probe(gens, P_X, 0, modvec([1]))
        assert outcome.outcome == "irreducible"

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            irreducibility_probe([scalar(X)], P_X, 0, modvec([0]))


class TestPhiEquivariance:
    def test_constant_generator_reduces_to_commutator(self):
        gen = CendElem.matrix_unit(2, 0, 1) - CendElem.matrix_unit(2, 1, 0)
        report = phi_equivariance_spotcheck(
            2, [(UPoly.const(1, "d"), UPoly.const(1, "d"), 0, 1, gen)]
        )
        assert report.ok, report.failures

    def test_scalar_degree_one_generator(self):
        gen = scalar(X * 2 + D)
        samples = [
            (UPoly((0, 1), "d"), UPoly.const(1, "d"), 0, 0, gen),
            (UPoly.const(1, "d"), UPoly((0, 1), "d"), 0, 0, gen),
            (UPoly((0, 0, 1), "d"), UPoly((1, 1), "d"), 0, 0, gen),
        ]
        report = phi_equivariance_spotcheck(1, samples)
        assert report.ok, report.failures

    def test_zero_tensor(self):
        gen = scalar(X * 2 + D)
        report = phi_equivariance_spotcheck(
            1, [(UPoly.zero("d"), UPoly.zero("d"), 0, 0, gen)]
        )
        assert report.ok

    def test_matrix_generators(self):
        rng = random.Random(72)
        gens = make_oc_spc_generators(2, PolyMat.identity(2), 1, 2)
        samples = []
        for _ in range(4):
            g = rng.choice(gens)
            samples.append(
                (
                    UPoly([rng.randint(-2, 2) for _ in range(2)], "d"),
                    UPoly([rng.randint(-2, 2) for _ in range(2)], "d"),
                    rng.randrange(2),
                    rng.randrange(2),
                    g.a_part,
                )
            )
        report = phi_equivariance_spotcheck(2, samples)
        assert report.ok, report.failures


class TestVirasoro:
    def test_half_shifted_element_is_orthogonal(self):
        vira = scalar(X + D.scale(Fraction(1, 2)))
        assert check_anti_fixed(vira, spec_for(P_1, 1))

    def test_bracket_relation(self):
        vira = scalar(X + D.scale(Fraction(1, 2)))
        series = lie_bracket(vira, vira)
        expected = (D + L * 2) * (X + D.scale(Fraction(1, 2)))
        assert series.to_raw() == ((expected,),)


class TestFamilyConjugacy:
    def test_congruent_forms_accepted(self):
        from confalg.gclie import family_conjugacy_verify
        from confalg.polymat import congruence_verify

        witness = PolyMat([[ONE, XX], [UPoly.zero(), ONE]])
        p = PolyMat.identity(2)
        q = congruence_verify(p, witness, 0)
        assert family_conjugacy_verify(p, q, witness, 1)

    def test_scaled_form(self):
        from confalg.gclie import family_conjugacy_verify

        assert family_conjugacy_verify(
            J2, J2.scale(3), PolyMat.identity(2), -1, Fraction(1, 3)
        )

    def test_sign_mismatch_rejected(self):
        from confalg.gclie import family_conjugacy_verify

        assert not family_conjugacy_verify(
            PolyMat.identity(2), J2, PolyMat.identity(2), 1
        )

    def test_wrong_witness_rejected(self):
        from confalg.gclie import family_conjugacy_verify

        p = PolyMat.identity(2)
        q = PolyMat.diagonal([ONE, UPoly.const(4)])
        bad = PolyMat([[ONE, XX], [UPoly.zero(), ONE]])
        assert not family_conjugacy_verify(p, q, bad, 1)
