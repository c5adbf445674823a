"""Orthogonal/symplectic generators, invariance, bracket closure, probes."""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confalg.cend import (
    AntiInvSpec,
    CendElem,
    LambdaSeries,
    bracket_apply,
    lie_bracket,
    modvec,
    raw_add,
    raw_zero,
)
from confalg.cli import main
from confalg.gclie import (
    ConfBilinearForm,
    check_anti_fixed,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
)
from confalg.jsonio import polymat_to_json
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat, det, star

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


def run_verb(verb: str, payload: dict) -> dict:
    """One in-process CLI call with ``payload`` on stdin; its one envelope."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out):
            main([verb])
    finally:
        sys.stdin = stdin
    (line,) = out.getvalue().splitlines()
    return json.loads(line)


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
        assert check_anti_fixed(CendElem(raw_zero(1)), spec_for(P_1, 1))


def naive_invariance_defects(form, a, degree_cap):
    """The degree-window loop: the pairs (d^k e_i, d^j e_j), k, j <= degree_cap,
    at which the invariance identity fails.  The pairing and the action are
    summed here entry by entry, apart from the library's matrix routines."""
    n = form.p_mat.n
    p = [[e.to_mpoly("x") for e in row] for row in form.p_mat.rows]

    def pair(v, w, lam):
        """<v, w>_lam = v^t(-lam) P(lam) w(lam)."""
        return sum((v[i].substitute({"d": -lam}) * p[i][j].substitute({"x": lam})
                    * w[j].substitute({"d": lam}) for i in range(n) for j in range(n)),
                   MPoly.zero())

    def act(vec):
        """a_m vec = a(-m, m + d) vec(m + d)."""
        return tuple(sum((a.entries[i][k].substitute({"d": -M, "x": M + D})
                          * vec[k].substitute({"d": M + D}) for k in range(n)), MPoly.zero())
                     for i in range(n))

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
        if not (pair(act(v), w, L) + pair(v, act(w), L - M)).is_zero()
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
    p_mat = q - star(q, 0).scale(-eps)
    assume(not det(p_mat).is_zero())
    form = ConfBilinearForm(p_mat, eps)
    gens = make_oc_spc_generators(n, p_mat, eps, 1)
    entries = raw_zero(n)
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else ():
        entries = raw_add(entries, g.element.entries)
    if draw(st.booleans()):
        entries = raw_add(entries, [[draw(dx_polys) for _ in range(n)] for _ in range(n)])
    return form, CendElem(entries)


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
        assert invariance_check(form, CendElem(raw_zero(1))).ok

    def test_degenerate_rejected(self):
        form = ConfBilinearForm(PolyMat([[UPoly.zero()]]), 1)
        with pytest.raises(ValueError):
            invariance_check(form, scalar(X))


def bracket_escapes(gens, p_mat, spec):
    """(pair, l-power) of every nonzero bracket coefficient that is not anti-fixed."""
    return [
        (ia, ib, kl)
        for ia, a in enumerate(gens)
        for ib, b in enumerate(gens)
        for kl, c in LambdaSeries.from_raw(
            bracket_apply(a.entries, b.entries, L, p_mat)
        ).coefficients
        if not c.is_zero() and not check_anti_fixed(c, spec)
    ]


class TestBracketClosure:
    def test_oc1_closed(self):
        gens = [g.a_part for g in make_oc_spc_generators(1, P_1, 1, 2)]
        assert bracket_escapes(gens, P_1, spec_for(P_1, 1)) == []

    def test_degree_one_self_bracket_value(self):
        y1 = scalar(X * 2 + D)
        series = lie_bracket(y1, y1)
        expected = (L * 2 + D) * (X * 2 + D) * 2
        assert series.to_raw() == ((expected,),)
        coeffs = dict(series.coefficients)
        assert check_anti_fixed(coeffs[0], spec_for(P_1, 1))
        assert check_anti_fixed(coeffs[1], spec_for(P_1, 1))

    def test_mixing_fixed_part_is_flagged(self):
        y1 = scalar(X * 2 + D)  # anti-fixed
        w0 = scalar(MPoly.const(2))  # fixed
        assert bracket_escapes([y1, w0], P_1, spec_for(P_1, 1))


class TestOcGensPassInvariance:
    def test_every_generator_passes_invariance_check(self):
        # the cross-verb law: each oc-gens element keeps the pairing of the
        # same P and epsilon invariant
        rng = random.Random(11)
        cases = 0
        while cases < 16:
            n, eps, max_n = 1 + cases % 2, rng.choice((1, -1)), rng.choice((1, 2))
            q = PolyMat([[UPoly([rng.randint(-2, 2) for _ in range(3)]) for _ in range(n)]
                         for _ in range(n)])
            p_mat = q - star(q, 0).scale(-eps)
            if det(p_mat).is_zero():
                continue
            cases += 1
            p = polymat_to_json(p_mat)
            gens = run_verb("oc-gens", {"n": n, "p": p, "epsilon": eps, "max_n": max_n})
            assert gens["status"] == "decided", gens
            for g in gens["result"]["generators"]:
                report = run_verb(
                    "invariance-check", {"p": p, "epsilon": eps, "element": g["element"]}
                )
                assert report["status"] == "decided" and report["result"]["ok"], (p, g)


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_reducible_module_is_not_called_irreducible(self):
        # E11 and E22 preserve Q[d]e_1, but the start vector e_1 + e_2
        # generates all of Q[d]^2
        payload = {
            "p": [["1", "0"], ["0", "1"]],
            "gens": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "start": ["1", "1"],
            "alpha": 0,
        }
        report = run_verb("irreducibility-probe", payload)
        assert report["status"] == "decided"
        assert report["result"]["outcome"] != "irreducible"


class TestVirasoro:
    def test_half_shifted_element_is_orthogonal(self):
        vira = scalar(X + D.scale(Fraction(1, 2)))
        assert check_anti_fixed(vira, spec_for(P_1, 1))

    def test_bracket_relation(self):
        vira = scalar(X + D.scale(Fraction(1, 2)))
        series = lie_bracket(vira, vira)
        expected = (D + L * 2) * (X + D.scale(Fraction(1, 2)))
        assert series.to_raw() == ((expected,),)
