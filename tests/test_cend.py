"""Kernel: products, brackets, actions, anti-involutions, axiom verifiers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confalg.cend as cend
from confalg.cend import (
    AntiInvSpec,
    AxiomReport,
    CendElem,
    LambdaSeries,
    apply_antiinv,
    bracket_apply,
    bracket_of,
    head_action,
    lambda_product,
    lie_bracket,
    modvec,
    left_factors,
    product_apply,
    raw_add,
    raw_mat_vec,
    raw_mul,
    raw_neg,
    raw_scale,
    raw_sub,
    raw_subst,
    raw_transpose,
    raw_vec_subst,
    raw_zero,
    right_factors,
    standard_action,
    verify_assoc_axioms,
    verify_lie_axioms,
    verify_module_axioms,
)
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat
from confalg.sampling import random_cend, random_modvec_raw, random_polymat
from confalg.structure import build_extension

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")
M = MPoly.var("m")

ONE1 = CendElem.identity(1)
P_X = PolyMat([[UPoly.variable()]])


def scalar(p: MPoly) -> CendElem:
    return CendElem.scalar(p)


def split_action(act, a: CendElem, vec) -> dict:
    """The l-power coefficients of the staged action ``act`` of ``a`` on ``vec``."""
    return cend._vec_series(act(a.entries, L)(tuple(v.to_mpoly("d") for v in vec)))


def coeff(series: LambdaSeries, l_power: int) -> CendElem:
    """The coefficient of l^l_power in ``series``, zero when absent."""
    return dict(series.coefficients).get(l_power, CendElem(raw_zero(series.n)))


def dual_action_raw(a_part, p):
    """The contragredient action as a staged action closure, parameter p:
    v -> -a^t(-p, -d) v(p + d)."""
    head = raw_subst(raw_transpose(a_part), {"d": -p, "x": -D})
    return head_action(raw_neg(head), p)


class TestLambdaProduct:
    def test_constant_times_x(self):
        series = lambda_product(ONE1, scalar(X))
        assert coeff(series, 0) == scalar(X)
        assert coeff(series, 1).is_zero()

    def test_x_times_constant(self):
        series = lambda_product(scalar(X), ONE1)
        assert coeff(series, 0) == scalar(X + D)
        assert coeff(series, 1) == ONE1

    def test_p_times_p_equals_shifted_product(self):
        p = X**2
        series = lambda_product(scalar(p), scalar(p))
        expected = (X + L + D) ** 2 * X**2
        assert series.to_raw() == ((expected,),)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            lambda_product(ONE1, CendElem.identity(2))


class TestNthProducts:
    """The n-th products are the l-power coefficients of the product series."""

    def test_simple(self):
        assert lambda_product(ONE1, scalar(X)).coefficients == ((0, scalar(X)),)

    def test_x_times_one(self):
        series = lambda_product(scalar(X), ONE1)
        assert series.coefficients == ((0, scalar(X + D)), (1, ONE1))

    def test_zero(self):
        assert lambda_product(CendElem(raw_zero(1)), scalar(X)).coefficients == ()


class TestLieBracket:
    def test_virasoro_relation(self):
        series = lie_bracket(scalar(X), scalar(X))
        assert series.to_raw() == (((D + L * 2) * X,),)

    def test_current_commutator_matches_matrix_commutator(self):
        rng = random.Random(14)
        n = 2
        for _ in range(6):
            a = CendElem([[MPoly.const(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
            b = CendElem([[MPoly.const(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
            series = lie_bracket(a, b)
            assert coeff(series, 0).entries == raw_sub(
                raw_mul(a.entries, b.entries), raw_mul(b.entries, a.entries)
            )
            assert coeff(series, 1).is_zero()

    def test_degree_one_self_bracket(self):
        a = scalar(X * 2 + D)
        series = lie_bracket(a, a)
        expected = (L * 2 + D) * (X * 2 + D) * 2
        assert series.to_raw() == ((expected,),)


class TestModuleAction:
    def test_identity_on_one(self):
        out = split_action(standard_action(PolyMat.identity(1), 0), ONE1, modvec([1]))
        assert out == {0: modvec([1])}

    def test_defining_matrix_shift(self):
        out = split_action(standard_action(P_X, 0), ONE1, modvec([1]))
        assert out == {0: modvec([UPoly((0, 1), "d")]), 1: modvec([1])}

    def test_x_on_d(self):
        act = standard_action(PolyMat.identity(1), 0)
        out = split_action(act, scalar(X), modvec([UPoly((0, 1), "d")]))
        # (l+d)^2 = d^2 + 2 l d + l^2
        assert out == {
            0: modvec([UPoly((0, 0, 1), "d")]),
            1: modvec([UPoly((0, 2), "d")]),
            2: modvec([1]),
        }

    def test_alpha_twist(self):
        out = split_action(standard_action(P_X, Fraction(1, 2)), ONE1, modvec([1]))
        # P evaluated at l + d + 1/2
        assert out == {
            0: modvec([UPoly((Fraction(1, 2), 1), "d")]),
            1: modvec([1]),
        }


class TestAntiInvolution:
    def scalar_x_spec(self) -> AntiInvSpec:
        return AntiInvSpec(P_X, PolyMat.identity(1), -1, Fraction(0))

    def test_defining_identity_validated(self):
        spec = self.scalar_x_spec()
        assert spec.epsilon == -1
        with pytest.raises(ValueError):
            AntiInvSpec(P_X, PolyMat.identity(1), 1, Fraction(0))

    def test_sends_element_to_its_negative(self):
        assert apply_antiinv(ONE1, self.scalar_x_spec()) == -ONE1

    def test_on_x_part(self):
        assert apply_antiinv(scalar(X), self.scalar_x_spec()) == scalar(D + X)

    def test_involutive_on_monomials(self):
        spec = self.scalar_x_spec()
        for i in range(5):
            for j in range(5 - i):
                a = scalar(D**i * X**j)
                assert apply_antiinv(apply_antiinv(a, spec), spec) == a

    def test_reverses_products(self):
        spec = self.scalar_x_spec()
        rng = random.Random(17)
        for _ in range(5):
            a = random_cend(rng, 1, 2)
            b = random_cend(rng, 1, 2)
            lhs = LambdaSeries.from_raw(
                product_apply(a.entries, b.entries, L, P_X)
            ).map_coefficients(lambda c: apply_antiinv(c, spec))
            sa = apply_antiinv(a, spec)
            sb = apply_antiinv(b, spec)
            rhs_raw = raw_subst(
                product_apply(sb.entries, sa.entries, M, P_X), {"m": -D - L}
            )
            assert lhs.to_raw() == rhs_raw


# ---------------------------------------------------------------------------
# Faults injected into the kernel, each of which some verifier must catch
# ---------------------------------------------------------------------------


def wrong_head(g, p, p_mat=None):
    """A head built with d -> p instead of d -> -p, and without P."""
    return raw_subst(g, {"d": p, "x": X + p + D})


def product_term_only(left, right):
    """The bracket reduced to its product term."""
    return raw_mul(left[0], right[0])


def carries_lm(raw) -> bool:
    return any(e.uses("l") or e.uses("m") for row in raw for e in row)


_right_factors = cend.right_factors
_product_tail = cend.product_tail


def right_factors_doubled_on_lm(x_raw, p, p_mat=None):
    """Right factors whose tail is doubled when the operand carries l or m."""
    tail, back = _right_factors(x_raw, p, p_mat)
    return (raw_scale(tail, 2) if carries_lm(x_raw) else tail), back


def product_tail_doubled_on_lm(x_raw, p):
    """A product tail doubled when the operand carries l or m."""
    tail = _product_tail(x_raw, p)
    return raw_scale(tail, 2) if carries_lm(x_raw) else tail


# each entry: the kernel functions that the fault replaces
KERNEL_FAULTS = {
    "none": {},
    "wrong_head": {"product_head": wrong_head},
    "product_term_only": {"bracket_of": product_term_only},
    "right_factors_doubled_on_lm": {"right_factors": right_factors_doubled_on_lm},
    "product_tail_doubled_on_lm": {"product_tail": product_tail_doubled_on_lm},
}


def tail_without_d(x_raw, p):
    """A product tail x(p, x): the shift by d left out."""
    return raw_subst(x_raw, {"d": p})


def right_factors_without_d(x_raw, p, p_mat=None):
    """Right factors whose tail leaves out the shift by d."""
    return tail_without_d(x_raw, p), _right_factors(x_raw, p, p_mat)[1]


P_DIAG = PolyMat.diagonal([UPoly.const(1), UPoly.variable()])


def action_without_shift(a_part, p):
    """The standard action of a-parts over ``P_DIAG`` with v(p + d) left as v(d)."""
    twist = {"d": -p, "x": p + D}
    head = raw_mul(raw_subst(a_part, twist), raw_subst(P_DIAG.to_mpoly_rows(), twist))
    return lambda vec: raw_mat_vec(head, vec)


def action_without_d_substitution(a_part, p):
    """The standard action of a-parts over ``P_DIAG`` with d -> -p left out."""
    twist = {"x": p + D}
    head = raw_mul(raw_subst(a_part, twist), raw_subst(P_DIAG.to_mpoly_rows(), twist))
    return head_action(head, p)


class TestAxiomVerifiers:
    def test_assoc_axioms_hold(self):
        rng = random.Random(18)
        samples = [
            (random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_cend(rng, 2, 2))
            for _ in range(8)
        ]
        report = verify_assoc_axioms(samples)
        assert report.ok, report.failures

    def test_assoc_explicit_triple(self):
        report = verify_assoc_axioms([(ONE1, scalar(X), scalar(D * X))])
        assert report.ok

    def test_sesquilinearity_restatement(self):
        rng = random.Random(19)
        for _ in range(5):
            a = random_cend(rng, 1, 2)
            b = random_cend(rng, 1, 2)
            lhs = product_apply(a.scale(D).entries, b.entries, L)
            rhs = product_apply(a.entries, b.entries, L)
            assert tuple(
                tuple(p + q * L for p, q in zip(r1, r2)) for r1, r2 in zip(lhs, rhs)
            ) == ((MPoly.zero(),),)

    def test_lie_axioms_hold(self):
        rng = random.Random(20)
        samples = [
            (random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_cend(rng, 2, 2))
            for _ in range(6)
        ]
        report = verify_lie_axioms(samples)
        assert report.ok, report.failures

    def test_module_axioms_standard_action(self):
        rng = random.Random(21)
        for alpha in (Fraction(0), Fraction(1), Fraction(-1, 2)):
            p_mat = PolyMat.diagonal([UPoly.const(1), UPoly.variable()])
            act = standard_action(p_mat, alpha)
            samples = [
                (
                    random_cend(rng, 2, 2),
                    random_cend(rng, 2, 2),
                    random_modvec_raw(rng, 2, 2),
                )
                for _ in range(4)
            ]
            report = verify_module_axioms(act, samples, p_mat=p_mat)
            assert report.ok, (alpha, report.failures)

    def test_verifier_catches_broken_action(self):
        # drop the defining matrix from the action: composition must fail
        p_mat = P_X

        def broken(a_part, param):
            return standard_action(PolyMat.identity(1), 0)(a_part, param)

        rng = random.Random(22)
        samples = [
            (random_cend(rng, 1, 1), random_cend(rng, 1, 1), random_modvec_raw(rng, 1, 1))
        ]
        report = verify_module_axioms(broken, samples, p_mat=p_mat)
        assert not report.ok

    def test_assoc_verifier_catches_wrong_head(self, monkeypatch):
        monkeypatch.setattr(cend, "product_head", wrong_head)
        rng = random.Random(18)
        samples = [(random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_cend(rng, 2, 2))]
        report = verify_assoc_axioms(samples)
        assert not report.ok and report.checked == 1
        assert "sample 0: sesquilinearity fails in the left slot" in report.failures

    def test_lie_verifier_catches_bracket_without_back_term(self, monkeypatch):
        monkeypatch.setattr(cend, "bracket_of", product_term_only)
        rng = random.Random(19)
        samples = [(random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_cend(rng, 2, 2))]
        report = verify_lie_axioms(samples)
        assert not report.ok and report.checked == 1
        assert "sample 0: skew-symmetry fails" in report.failures

    # Each fault below changes only operands that carry l or m.  Only the
    # nested operands of one fused identity do, so that identity alone fails.

    def test_lie_verifier_catches_right_factors_wrong_on_parameters(self, monkeypatch):
        monkeypatch.setattr(cend, "right_factors", right_factors_doubled_on_lm)
        rng = random.Random(20)
        samples = [tuple(random_cend(rng, 2, 2) for _ in range(3)) for _ in range(2)]
        assert verify_lie_axioms(samples) == AxiomReport(
            False, 2, ("sample 0: Jacobi identity fails", "sample 1: Jacobi identity fails")
        )

    # Each fault below leaves the shift by d out of the acted-on factor or
    # vector; the check that reads that shift fails, with what it breaks.

    def test_assoc_verifier_catches_tail_without_shift(self, monkeypatch):
        monkeypatch.setattr(cend, "product_tail", tail_without_d)
        rng = random.Random(18)
        samples = [tuple(random_cend(rng, 2, 2) for _ in range(3))]
        assert verify_assoc_axioms(samples) == AxiomReport(
            False, 1,
            ("sample 0: sesquilinearity fails in the right slot", "sample 0: associativity fails"),
        )

    def test_lie_verifier_catches_right_tail_without_shift(self, monkeypatch):
        monkeypatch.setattr(cend, "right_factors", right_factors_without_d)
        rng = random.Random(20)
        samples = [tuple(random_cend(rng, 2, 2) for _ in range(3))]
        assert verify_lie_axioms(samples) == AxiomReport(False, 1, (
            "sample 0: bracket sesquilinearity fails (right)",
            "sample 0: skew-symmetry fails",
            "sample 0: Jacobi identity fails",
        ))

    @pytest.mark.parametrize("action,failure", [
        (action_without_shift, "derivation compatibility fails"),
        (action_without_d_substitution, "sesquilinearity of the action fails"),
    ])
    def test_module_verifier_catches_action_without_twist_part(self, action, failure):
        rng = random.Random(21)
        samples = [(random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_modvec_raw(rng, 2, 2))]
        assert verify_module_axioms(standard_action(P_DIAG), samples, p_mat=P_DIAG).ok
        assert verify_module_axioms(action, samples, p_mat=P_DIAG) == AxiomReport(
            False, 1, (f"sample 0: {failure}", "sample 0: composition axiom fails")
        )

    def test_assoc_verifier_catches_product_tail_wrong_on_parameters(self, monkeypatch):
        monkeypatch.setattr(cend, "product_tail", product_tail_doubled_on_lm)
        rng = random.Random(18)
        samples = [tuple(random_cend(rng, 2, 2) for _ in range(3)) for _ in range(2)]
        assert verify_assoc_axioms(samples) == AxiomReport(
            False, 2, ("sample 0: associativity fails", "sample 1: associativity fails")
        )


class TestDualAction:
    def test_identity(self):
        out = split_action(dual_action_raw, CendElem.identity(2), modvec([UPoly((0, 1), "d"), 0]))
        # -v(l+d) with v = d e1
        assert out == {
            0: modvec([UPoly((0, -1), "d"), 0]),
            1: modvec([-1, 0]),
        }

    def test_x_matrix_unit(self):
        a = CendElem.matrix_unit(2, 0, 1, X)
        out = split_action(dual_action_raw, a, modvec([1, 0]))
        assert out == {0: modvec([0, UPoly((0, 1), "d")])}


# ---------------------------------------------------------------------------
# The cancelling verifiers against compare-both-sides references
# ---------------------------------------------------------------------------

# Each reference builds both sides of an identity and compares them.  It
# reaches the kernel through the module, so an injected fault reaches it too.


def ref_verify_assoc(samples) -> AxiomReport:
    failures = []
    for idx, (a, b, c) in enumerate(samples):
        ar, br, cr = a.entries, b.entries, c.entries
        head_a = cend.product_head(ar, L)
        tail_b = cend.product_tail(br, L)
        prod_ab = raw_mul(head_a, tail_b)
        if raw_mul(cend.product_head(raw_scale(ar, D), L), tail_b) != raw_scale(prod_ab, -L):
            failures.append(f"sample {idx}: sesquilinearity fails in the left slot")
        if raw_mul(head_a, cend.product_tail(raw_scale(br, D), L)) != raw_scale(prod_ab, L + D):
            failures.append(f"sample {idx}: sesquilinearity fails in the right slot")
        lhs = raw_mul(head_a, cend.product_tail(cend.product_apply(br, cr, M), L))
        if lhs != cend.product_apply(prod_ab, cr, L + M):
            failures.append(f"sample {idx}: associativity fails")
    return AxiomReport(not failures, len(samples), tuple(failures))


def ref_verify_lie(samples) -> AxiomReport:
    bracket, left, right = cend.bracket_of, cend.left_factors, cend.right_factors
    failures = []
    for idx, (a, b, c) in enumerate(samples):
        ar, br, cr = a.entries, b.entries, c.entries
        left_a = left(ar, L)
        left_b = left(br, M)
        right_b = right(br, L)
        br_ab = bracket(left_a, right_b)
        if bracket(left(raw_scale(ar, D), L), right_b) != raw_scale(br_ab, -L):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (left)")
        if bracket(left_a, right(raw_scale(br, D), L)) != raw_scale(br_ab, L + D):
            failures.append(f"sample {idx}: bracket sesquilinearity fails (right)")
        flipped = bracket(left_b, right(ar, M))
        if br_ab != raw_neg(raw_subst(flipped, {"m": -D - L})):
            failures.append(f"sample {idx}: skew-symmetry fails")
        lhs = bracket(left_a, right(bracket(left_b, right(cr, M)), L))
        term1 = cend.bracket_apply(br_ab, cr, L + M)
        term2 = bracket(left_b, right(bracket(left_a, right(cr, L)), M))
        if lhs != raw_add(term1, term2):
            failures.append(f"sample {idx}: Jacobi identity fails")
    return AxiomReport(not failures, len(samples), tuple(failures))


class TestCancellingVerifiers:
    @pytest.mark.parametrize("seed", range(10))
    def test_reports_match_the_reference(self, seed, monkeypatch):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            for degree in (0, 1, 2):
                triples = [tuple(random_cend(rng, n, degree) for _ in range(3)) for _ in range(2)]
                for fault in KERNEL_FAULTS.values():
                    with monkeypatch.context() as patch:
                        for name, fn in fault.items():
                            patch.setattr(cend, name, fn)
                        assert verify_assoc_axioms(triples) == ref_verify_assoc(triples)
                        assert verify_lie_axioms(triples) == ref_verify_lie(triples)


# ---------------------------------------------------------------------------
# The fused kernel against an unfused reference
# ---------------------------------------------------------------------------


def ref_subst(a, bindings):
    return tuple(tuple(e.substitute(bindings) for e in row) for row in a)


def ref_mul(a, b):
    """Matrix product built from pairwise products and sums."""
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), MPoly.zero())
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def ref_mat_vec(a, v):
    return tuple(sum((e * x for e, x in zip(row, v)), MPoly.zero()) for row in a)


def ref_product(g, x_raw, p, p_mat=None):
    head = ref_subst(g, {"d": -p, "x": X + p + D})
    if p_mat is not None:
        head = ref_mul(head, ref_subst(p_mat.to_mpoly_rows(), {"x": X + p + D}))
    return ref_mul(head, ref_subst(x_raw, {"d": p + D}))


def ref_bracket(g, x_raw, p, p_mat=None):
    back = ref_subst(x_raw, {"d": p + D, "x": X - p})
    if p_mat is not None:
        back = ref_mul(back, ref_subst(p_mat.to_mpoly_rows(), {"x": X - p}))
    second = ref_mul(back, ref_subst(g, {"d": -p}))
    first = ref_product(g, x_raw, p, p_mat)
    return tuple(tuple(s - t for s, t in zip(r, q)) for r, q in zip(first, second))


def rational_cend(rng, n, degree):
    """A random symbol with rational coefficients."""
    return random_cend(rng, n, degree).scale(Fraction(rng.randint(1, 5), rng.randint(1, 6)))


PARAMS = (L, M, L + M)


class TestFusedKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10**6), st.booleans(), st.sampled_from(PARAMS))
    def test_product_and_bracket_match_reference(self, n, seed, with_p, p):
        rng = random.Random(seed)
        g = rational_cend(rng, n, 2).entries
        x_raw = rational_cend(rng, n, 2).entries
        p_mat = random_polymat(rng, n, 1) if with_p else None
        assert product_apply(g, x_raw, p, p_mat) == ref_product(g, x_raw, p, p_mat)
        assert bracket_apply(g, x_raw, p, p_mat) == ref_bracket(g, x_raw, p, p_mat)
        assert bracket_of(left_factors(g, p, p_mat), right_factors(x_raw, p, p_mat)) == (
            ref_bracket(g, x_raw, p, p_mat)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10**6))
    def test_raw_subst_matches_each_entry(self, n, seed):
        rng = random.Random(seed)
        a = rational_cend(rng, n, 3).entries
        half = MPoly.const(Fraction(1, 2))
        for bindings in (
            {"d": L},  # monomial values
            {"d": -L, "x": X * M},
            {"d": D.scale(Fraction(2, 3)) + half, "x": X - L},  # rational denominators
            {"x": Fraction(-1, 3), "d": L + M + D},
        ):
            assert raw_subst(a, bindings) == ref_subst(a, bindings)
            vec = a[0]
            assert raw_vec_subst(vec, bindings) == tuple(e.substitute(bindings) for e in vec)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10**6), st.sampled_from([0, 1, Fraction(-1, 2)]))
    def test_staged_actions_match_one_step_formulas(self, n, seed, alpha):
        rng = random.Random(seed)
        a = rational_cend(rng, n, 2).entries
        p_mat = random_polymat(rng, n, 1)
        vecs = [random_modvec_raw(rng, n, 2) for _ in range(3)]
        for p in (L, M):
            std = standard_action(p_mat, alpha)(a, p)
            dual = dual_action_raw(a, p)
            full = ref_mul(a, p_mat.to_mpoly_rows())
            std_head = ref_subst(full, {"d": -p, "x": p + D + MPoly.const(alpha)})
            dual_head = ref_subst(tuple(zip(*a)), {"d": -p, "x": -D})
            for vec in vecs:  # one staged action serves every vector
                shifted = tuple(e.substitute({"d": p + D}) for e in vec)
                assert std(vec) == ref_mat_vec(std_head, shifted)
                assert dual(vec) == tuple(-e for e in ref_mat_vec(dual_head, shifted))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0, Fraction(1, 3)]))
    def test_staged_extension_actions_match_one_step_formulas(self, seed, shift):
        rng = random.Random(seed)
        a = rational_cend(rng, 1, 2).entries
        vec = random_modvec_raw(rng, 2, 2)
        s_mat = PolyMat([[UPoly((shift, 1))]])
        r_mat = PolyMat([[UPoly((1, 2))]])
        p_mat = (r_mat @ s_mat).shift(-shift)
        factor = build_extension(p_mat, "factorization", r_mat=r_mat, s_mat=s_mat, alpha=shift)
        jordan = build_extension(p_mat, "jordan", gamma=shift)
        head = ref_subst(a, {"d": -L, "x": L + D + MPoly.const(shift)})
        s_in_d = ref_subst(s_mat.to_mpoly_rows(), {"x": D})
        r_shift = ref_subst(r_mat.to_mpoly_rows(), {"x": L + D})
        shifted = tuple(e.substitute({"d": L + D}) for e in vec)
        want = ref_mat_vec(ref_mul(ref_mul(s_in_d, head), r_shift), shifted[:1])
        assert factor.action(a, L)(vec[:1]) == want
        full = ref_mul(a, p_mat.to_mpoly_rows())
        bind = {"d": -L, "x": L + D + MPoly.const(shift)}
        head0 = ref_subst(full, bind)
        head1 = ref_subst(tuple(tuple(e.derivative("x") for e in r) for r in full), bind)
        first = ref_mat_vec(head0, shifted[:1])[0] + ref_mat_vec(head1, shifted[1:])[0]
        assert jordan.action(a, L)(vec) == (first, ref_mat_vec(head0, shifted[1:])[0])

    def test_shapes_that_do_not_match_raise(self):
        one = ((MPoly.const(1),),)
        two = CendElem.identity(2).entries
        wide = ((X, D),)
        for a, b in ((two, one), (one, two), (wide, wide), (two, wide)):
            with pytest.raises(ValueError, match="size mismatch"):
                raw_mul(a, b)
        assert raw_mul(wide, two) == wide
        with pytest.raises(ValueError, match="size mismatch"):
            raw_mat_vec(two, (X,))
        with pytest.raises(ValueError, match="size mismatch"):
            bracket_of(left_factors(two, L), right_factors(one, L))
        with pytest.raises(ValueError, match="size mismatch"):
            standard_action(PolyMat.identity(1))(two, L)
