"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS line when its criterion holds; a failed
assertion marks the criterion FAILED in the pytest report.
"""

from __future__ import annotations

import random
from fractions import Fraction

from confalg.cend import (
    AntiInvSpec,
    CendElem,
    LambdaSeries,
    apply_antiinv,
    lie_bracket,
    modvec,
    product_apply,
    raw_subst,
    standard_action,
    verify_assoc_axioms,
    verify_lie_axioms,
    verify_module_axioms,
)
from confalg.cend1 import CPARTIAL, FULL, PQ, P_ONLY, Q_ONLY, classify, closure, irreducible_on_standard
from confalg.gclie import (
    ConfBilinearForm,
    check_anti_fixed,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
)
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat, det, is_unimodular, smith_divisors, smith_form
from confalg.sampling import random_cend, random_modvec_raw, random_polymat, random_unimodular
from confalg.structure import (
    anti_automorphism_exists,
    build_extension,
    decide_isomorphism,
    embedded_standard_witness,
    left_ideal_generator,
    right_ideal_generator,
)
from ideal_oracle import brute_left_generator, brute_right_generator

SEED = 20020529

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")
M = MPoly.var("m")

ONE = UPoly.const(1)
XX = UPoly.variable()
P_1 = PolyMat.identity(1)
P_X = PolyMat([[XX]])


def scalar(p: MPoly) -> CendElem:
    return CendElem.scalar(p)


def report(num: int, text: str) -> None:
    print(f"[acceptance] criterion {num}: PASS - {text}")


def test_criterion_01_axiom_suites():
    rng = random.Random(SEED)
    triples = [
        (random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_cend(rng, 2, 2))
        for _ in range(50)
    ]
    assoc = verify_assoc_axioms(triples)
    assert assoc.ok and assoc.checked == 50, assoc.failures
    lie = verify_lie_axioms(triples)
    assert lie.ok and lie.checked == 50, lie.failures
    checked = 0
    for alpha in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        act = standard_action(PolyMat.identity(2), alpha)
        samples = [
            (random_cend(rng, 2, 2), random_cend(rng, 2, 2), random_modvec_raw(rng, 2, 2))
            for _ in range(17)
        ]
        module = verify_module_axioms(act, samples, p_mat=PolyMat.identity(2))
        assert module.ok, (alpha, module.failures)
        checked += module.checked
    report(1, f"associativity, bracket and module axioms exact on {50 + 50 + checked} samples")


def test_criterion_02_virasoro_reproduction():
    series = lie_bracket(scalar(X), scalar(X))
    assert series.to_raw() == (((D + L * 2) * X,),)
    vira = scalar(X + D.scale(Fraction(1, 2)))
    spec = AntiInvSpec(P_1, P_1, 1, Fraction(0))
    assert check_anti_fixed(vira, spec)
    series = lie_bracket(vira, vira)
    assert series.to_raw() == (((D + L * 2) * (X + D.scale(Fraction(1, 2))),),)
    report(2, "both scalar Virasoro relations hold exactly")


def test_criterion_03_smith_certificates():
    rng = random.Random(SEED + 3)
    for k in range(25):
        mat = random_polymat(rng, 3, 3)
        cert = smith_form(mat)
        assert cert.left @ mat @ cert.right == PolyMat.diagonal(cert.divisors), k
        assert is_unimodular(cert.left) and is_unimodular(cert.right), k
        prev = None
        for dv in cert.divisors:
            if dv.is_zero():
                continue
            assert dv.monic() == dv
            if prev is not None:
                assert prev.divides(dv), k
            prev = dv
        prod = ONE
        for dv in cert.divisors:
            prod = prod * dv
        d = det(mat)
        if prod.is_zero():
            assert d.is_zero()
        else:
            quo, rem = d.divmod(prod)
            assert rem.is_zero() and quo.is_constant() and not quo.is_zero(), k
        u = random_unimodular(rng, 3)
        v = random_unimodular(rng, 3)
        assert smith_divisors(u @ mat @ v) == cert.divisors, k
    report(3, "25 seeded 3x3 certificates verified with invariant divisors")


def test_criterion_04_isomorphism_decisions():
    d1 = decide_isomorphism(P_X, PolyMat([[UPoly((5, 1))]]))
    assert d1.isomorphic and d1.alpha == 5
    d2 = decide_isomorphism(P_X, PolyMat([[UPoly((0, 0, 1))]]))
    assert not d2.isomorphic
    d3 = decide_isomorphism(
        PolyMat.diagonal([ONE, XX]),
        PolyMat([[UPoly.zero(), ONE], [XX, UPoly.zero()]]),
    )
    assert d3.isomorphic and d3.alpha == 0
    d4 = anti_automorphism_exists(PolyMat.diagonal([XX, UPoly((-1, 1))]))
    assert d4.isomorphic and d4.alpha == 1
    report(4, "shift, degree-obstruction, permutation and mirror decisions exact")


def test_criterion_05_scalar_x_anti_involution():
    spec = AntiInvSpec(P_X, P_1, -1, Fraction(0))  # construction validates the identity
    rng = random.Random(SEED + 5)
    for _ in range(6):
        a = random_cend(rng, 1, 2)
        b = random_cend(rng, 1, 2)
        lhs = LambdaSeries.from_raw(
            product_apply(a.entries, b.entries, L, P_X)
        ).map_coefficients(lambda c: apply_antiinv(c, spec))
        sa = apply_antiinv(a, spec)
        sb = apply_antiinv(b, spec)
        rhs = raw_subst(
            product_apply(sb.entries, sa.entries, M, P_X), {"m": -D - L}
        )
        assert lhs.to_raw() == rhs
    for i in range(5):
        for j in range(5 - i):
            mono = scalar(D**i * X**j)
            assert apply_antiinv(apply_antiinv(mono, spec), spec) == mono
    report(5, "defining identity, product reversal and involutivity exact")


def test_criterion_06_cend1_classification_table():
    table = [
        ([MPoly.const(1)], CPARTIAL, None, None, True),
        ([X**2], P_ONLY, UPoly((0, 0, 1), "x"), None, True),
        ([(D + X) ** 3], Q_ONLY, None, UPoly((0, 0, 0, 1), "z"), False),
        ([X * (D + X)], PQ, UPoly((0, 1), "x"), UPoly((0, 1), "z"), False),
        ([X, D], FULL, None, None, True),
    ]
    for gens, tag, p_expect, q_expect, irr in table:
        state = closure(gens)
        assert state.status == ("x_free" if tag == CPARTIAL else "split"), tag
        desc = classify(state)
        assert desc.type_tag == tag
        if p_expect is not None:
            assert desc.p == p_expect
        if q_expect is not None:
            assert desc.q == q_expect
        assert irreducible_on_standard(desc) == irr
    report(6, "all five closure fixtures classify as expected, decided")


def test_criterion_07_ideal_generators_vs_oracle():
    rng = random.Random(SEED + 7)
    checked = 0
    # scalar sets over the full algebra
    for _ in range(5):
        gens = []
        for _ in range(rng.randint(1, 2)):
            poly = MPoly.zero()
            for i in range(3):
                for j in range(3 - i):
                    c = rng.randint(-2, 2)
                    if c:
                        poly = poly + MPoly.monomial((i, j, 0, 0), c)
            if not poly.is_zero():
                gens.append(scalar(poly))
        if not gens:
            gens = [scalar(X)]
        fast = left_ideal_generator(P_1, gens).generator
        assert fast == brute_left_generator(P_1, gens), [g.entries for g in gens]
        checked += 1
    # right ideals, scalar case
    for _ in range(2):
        core = (D + X) ** rng.randint(1, 2)
        gens = [scalar(core * X ** rng.randint(0, 1))]
        fast = right_ideal_generator(P_1, gens).generator
        assert fast == brute_right_generator(P_1, gens)
        checked += 1
    # matrix sets
    for p_mat in (PolyMat.identity(2), PolyMat.diagonal([ONE, XX])):
        for _ in range(2 if p_mat.n == 2 else 1):
            gens = [random_cend(rng, 2, 1)]
            fast = left_ideal_generator(p_mat, gens).generator
            assert fast == brute_left_generator(
                p_mat, gens, probe_cap=2, x_cap=7, rounds=5
            )
            checked += 1
            if checked >= 10:
                break
        if checked >= 10:
            break
    assert checked >= 10
    report(7, f"{checked} seeded generator sets match the brute-force oracle exactly")


def test_criterion_08_irreducibility_probes():
    outcomes = []
    probe1 = irreducibility_probe(
        [scalar(MPoly.const(1)), scalar(X), scalar(D)], P_X, 0, modvec([1])
    )
    outcomes.append(probe1.outcome)
    assert probe1.outcome == "irreducible"
    y_gens = [
        scalar(X**n - (-D - X) ** n) for n in (1, 2)
    ]
    probe2 = irreducibility_probe(y_gens, P_X, 0, modvec([1]))
    outcomes.append(probe2.outcome)
    assert probe2.outcome == "irreducible"
    w_gens = [
        scalar(X**n + (-D - X) ** n) for n in (0, 1, 2)
    ]
    probe3 = irreducibility_probe(w_gens, P_X, 0, modvec([1]))
    outcomes.append(probe3.outcome)
    assert probe3.outcome == "irreducible"
    probe4 = irreducibility_probe(
        [CendElem.matrix_unit(2, 0, 0)],
        PolyMat.identity(2),
        0,
        modvec([1, 0]),
    )
    outcomes.append(probe4.outcome)
    assert probe4.outcome == "proper_invariant_detected"
    assert "undecided" not in outcomes
    report(8, "all four probe fixtures decided as required")


def test_criterion_09_extension_constructions():
    p2 = PolyMat([[UPoly((0, 0, 1))]])
    module = build_extension(p2, "factorization", r_mat=P_X, s_mat=P_X)
    rng = random.Random(SEED + 9)
    samples = [
        (random_cend(rng, 1, 2), random_cend(rng, 1, 2), random_modvec_raw(rng, 1, 2))
        for _ in range(8)
    ]
    rep = verify_module_axioms(module.action, samples, p_mat=p2)
    assert rep.ok, rep.failures
    for _ in range(8):
        a = random_cend(rng, 1, 2)
        vec = random_modvec_raw(rng, 1, 2)
        lhs, rhs = embedded_standard_witness(module, a, vec)
        assert lhs == rhs
    jordan = build_extension(p2, "jordan")
    samples2 = [
        (random_cend(rng, 1, 2), random_cend(rng, 1, 2), random_modvec_raw(rng, 2, 2))
        for _ in range(8)
    ]
    rep2 = verify_module_axioms(jordan.action, samples2, p_mat=p2)
    assert rep2.ok, rep2.failures
    report(9, "factorization module with embedded standard submodule and jordan module exact")


def test_criterion_10_invariance_identities():
    j2 = PolyMat([[UPoly.zero(), ONE], [-ONE, UPoly.zero()]])
    xj = PolyMat([[UPoly.zero(), XX], [-XX, UPoly.zero()]])
    xi = PolyMat.diagonal([XX, XX])
    families = [
        (PolyMat.identity(2), 1),
        (xj, 1),
        (j2, -1),
        (xi, -1),
    ]
    total = 0
    for p_mat, eps in families:
        form = ConfBilinearForm(p_mat, eps)
        gens = make_oc_spc_generators(2, p_mat, eps, 3)
        assert gens
        for g in gens:
            rep = invariance_check(form, g.element)
            assert rep.ok, (eps, g.n, rep.failures)
            total += 1
    report(10, f"{total} generators satisfy the invariance identity exactly")
