"""Command-line frontend: JSON in, JSON (or text summary) out, exit codes.

Exit codes: 0 decided/verified, 2 undecided (budget exhausted), 1 error.
Machine mode (--json, the default) demands explicit budgets for budgeted
verbs; --pretty applies the documented defaults.  Identical invocations
(inputs + budgets + seed) produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import cend1 as c1
from .cend import (
    AntiInvSpec,
    lambda_product,
    lie_bracket,
    standard_action,
    verify_assoc_axioms,
    verify_lie_axioms,
    verify_module_axioms,
)
from .grammar import ParseError, format_poly, format_upoly, parse_poly
from .gclie import (
    ConfBilinearForm,
    check_anti_fixed,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
)
from .jsonio import (
    PayloadError,
    cend_from_json,
    cend_list_from_json,
    cend_to_json,
    fraction_from_json,
    fraction_to_str,
    modvec_from_json,
    modvec_to_json,
    polymat_from_json,
    polymat_to_json,
    series_to_json,
    upolys_to_json,
)
from .poly import MPoly, UPoly
from .polymat import PidRowBasis, PolyMat, SmithCert, det, smith_form, star
from .sampling import random_cend, random_modvec_raw
from .structure import (
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

DEFAULT_SEED = 101

E_PARSE = "E_PARSE"
E_DEGENERATE = "E_DEGENERATE"
E_MISMATCH = "E_MISMATCH"
E_BUDGET = "E_BUDGET"

# verb -> required budget flags in machine mode, with pretty-mode defaults
BUDGETED: dict[str, dict[str, int]] = {
    "check-axioms": {"rounds": 12},
    "anti-inv-search": {"degree_cap": 1},
    "classify-cend1": {"rounds": 12},
    "extension-build": {"rounds": 8},
    "invariance-check": {"degree_cap": 3},
    "irreducibility-probe": {"degree_cap": 4, "rounds": 6},
    "unital-probe": {"degree_cap": 6, "rounds": 8},
}


class AppError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Budgets:
    degree_cap: int | None
    rounds: int | None
    seed: int

    def require(self, verb: str) -> None:
        for key in BUDGETED.get(verb, {}):
            if getattr(self, key) is None:
                raise AppError(
                    E_PARSE,
                    f"machine mode requires --{key.replace('_', '-')} for {verb}",
                )

    def apply_defaults(self, verb: str) -> None:
        for key, value in BUDGETED.get(verb, {}).items():
            if getattr(self, key) is None:
                setattr(self, key, value)


Outcome = tuple[str, dict[str, Any], dict[str, Any] | None]
# (status, result, certificate)


def _expect(payload: Any, *fields: str) -> None:
    if not isinstance(payload, dict):
        raise AppError(E_PARSE, "payload must be a JSON object")
    for f in fields:
        if f not in payload:
            raise AppError(E_PARSE, f"payload field {f!r} is required")


def _int_field(payload: dict[str, Any], name: str, default: int | None = None) -> int:
    value = payload.get(name, default)
    if type(value) is not int:  # bool is an int subclass, and int() truncates 1.7
        raise AppError(E_PARSE, f"{name}: expected an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def run_product(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "a", "b")
    a = cend_from_json(payload["a"], "a")
    b = cend_from_json(payload["b"], "b")
    if a.n != b.n:
        raise AppError(E_MISMATCH, "operand sizes differ")
    series = lambda_product(a, b)
    return "decided", {"series": series_to_json(series)}, None


def run_bracket(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "a", "b")
    a = cend_from_json(payload["a"], "a")
    b = cend_from_json(payload["b"], "b")
    if a.n != b.n:
        raise AppError(E_MISMATCH, "operand sizes differ")
    series = lie_bracket(a, b)
    return "decided", {"series": series_to_json(series)}, None


def _axiom_samples(rng: random.Random, n: int, degree: int, count: int):
    return [
        (
            random_cend(rng, n, degree),
            random_cend(rng, n, degree),
            random_cend(rng, n, degree),
        )
        for _ in range(count)
    ]


def run_check_axioms(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "kind", "n")
    kind = payload["kind"]
    n = _int_field(payload, "n")
    degree = _int_field(payload, "degree", 2)
    count = budgets.rounds if budgets.rounds is not None else 1
    # each of these would make every sample set empty and "ok" vacuous
    if n < 1:
        raise AppError(E_PARSE, f"n must be at least 1, got {n}")
    if degree < 0:
        raise AppError(E_PARSE, f"degree must be at least 0, got {degree}")
    if count < 1:
        raise AppError(E_PARSE, f"--rounds must be at least 1, got {count}")
    rng = random.Random(budgets.seed)
    if kind == "assoc":
        report = verify_assoc_axioms(_axiom_samples(rng, n, degree, count))
    elif kind == "lie":
        report = verify_lie_axioms(_axiom_samples(rng, n, degree, count))
    elif kind == "module":
        p_mat = (
            polymat_from_json(payload["p"], "p")
            if "p" in payload
            else PolyMat.identity(n)
        )
        raw_alphas = payload.get("alphas", ["0"])
        if not isinstance(raw_alphas, list) or not raw_alphas:
            raise AppError(E_PARSE, "alphas: expected a non-empty array of rationals")
        alphas = [fraction_from_json(a, "alphas") for a in raw_alphas]
        failures: list[str] = []
        checked = 0
        for alpha in alphas:
            act = standard_action(p_mat, alpha)
            samples = [
                (
                    random_cend(rng, n, degree),
                    random_cend(rng, n, degree),
                    random_modvec_raw(rng, n, degree),
                )
                for _ in range(count)
            ]
            report = verify_module_axioms(act, samples, p_mat=p_mat)
            checked += report.checked
            failures.extend(
                f"alpha={fraction_to_str(alpha)}: {f}" for f in report.failures
            )
        return (
            "decided",
            {"ok": not failures, "checked": checked, "failures": failures},
            None,
        )
    else:
        raise AppError(E_PARSE, f"unknown axiom kind {kind!r}")
    return (
        "decided",
        {"ok": report.ok, "checked": report.checked, "failures": list(report.failures)},
        None,
    )


def run_smith(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "matrix")
    mat = polymat_from_json(payload["matrix"], "matrix")
    cert = smith_form(mat)
    if not cert.verify(mat):
        raise AppError(E_MISMATCH, "internal: certificate failed self-check")
    result = {"divisors": upolys_to_json(cert.divisors)}
    certificate = {
        "left": polymat_to_json(cert.left),
        "right": polymat_to_json(cert.right),
    }
    return "decided", result, certificate


def run_iso(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "q")
    p = polymat_from_json(payload["p"], "p")
    q = polymat_from_json(payload["q"], "q")
    decision = decide_isomorphism(p, q)
    result = {
        "isomorphic": decision.isomorphic,
        "alpha": fraction_to_str(decision.alpha) if decision.alpha is not None else None,
    }
    certificate = {
        "divisors_left": upolys_to_json(decision.divisors_left),
        "divisors_right": upolys_to_json(decision.divisors_right),
    }
    return "decided", result, certificate


def run_anti_auto(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p")
    p = polymat_from_json(payload["p"], "p")
    decision = anti_automorphism_exists(p)
    result = {
        "exists": decision.isomorphic,
        "alpha": fraction_to_str(decision.alpha) if decision.alpha is not None else None,
    }
    certificate = {
        "divisors": upolys_to_json(decision.divisors_left),
        "divisors_reflected": upolys_to_json(decision.divisors_right),
    }
    return "decided", result, certificate


def run_anti_inv_search(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p")
    p = polymat_from_json(payload["p"], "p")
    spec = anti_involution_search(p, degree_cap=budgets.degree_cap if budgets.degree_cap is not None else 1)
    if spec is None:
        return "undecided", {"found": False}, None
    result = {
        "found": True,
        "epsilon": spec.epsilon,
        "alpha": fraction_to_str(spec.alpha),
    }
    certificate = {"y": polymat_to_json(spec.y_mat)}
    return "decided", result, certificate


def run_ideal(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "side", "p", "gens")
    side = payload["side"]
    p = polymat_from_json(payload["p"], "p")
    gens = cend_list_from_json(payload["gens"], "gens")
    if side == "left":
        report = left_ideal_generator(p, gens)
        variable = "x"
    elif side == "right":
        report = right_ideal_generator(p, gens)
        variable = "z"
    else:
        raise AppError(E_PARSE, f"unknown ideal side {side!r}")
    gen_out = report.generator
    if variable == "z":
        gen_json = [[format_upoly(e.retag("z")) for e in row] for row in gen_out.rows]
    else:
        gen_json = polymat_to_json(gen_out)
    result = {"side": side, "generator": gen_json, "variable": variable}
    certificate = {
        "hermite": polymat_to_json(report.hermite),
        "multipliers": [upolys_to_json(row) for row in report.multipliers],
    }
    return "decided", result, certificate


def run_classify_cend1(payload: Any, budgets: Budgets) -> Outcome:
    if isinstance(payload, list):
        raw_gens = payload
    else:
        _expect(payload, "generators")
        raw_gens = payload["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise AppError(E_PARSE, "generators: expected a non-empty array of strings")
    gens = []
    for i, g in enumerate(raw_gens):
        if not isinstance(g, str):
            raise AppError(E_PARSE, f"generators[{i}]: expected a string")
        poly = parse_poly(g)
        extra = poly.variables() - {"d", "x"}
        if extra:
            raise AppError(
                E_PARSE, f"generators[{i}]: variable(s) {sorted(extra)} not allowed"
            )
        gens.append(poly)
    state = c1.closure(
        gens, x_degree_cap=budgets.degree_cap, rounds=budgets.rounds if budgets.rounds is not None else 12
    )
    certificate = {
        "basis": [format_poly(b) for b in state.basis],
        "gcd_witness": format_poly(state.gcd_witness),
        "x_degree_cap": state.x_degree_cap,
    }
    if state.status != "stabilized":
        return (
            "undecided",
            {"status": state.status, "rounds": state.rounds},
            certificate,
        )
    desc = c1.classify(state)
    result = {
        "type": desc.type_tag,
        "p": format_upoly(desc.p) if desc.p is not None else None,
        "q": format_upoly(desc.q) if desc.q is not None else None,
        "status": state.status,
        "rounds": state.rounds,
        "irreducible_on_standard": c1.irreducible_on_standard(desc),
    }
    return "decided", result, certificate


def run_extension_build(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "kind")
    p = polymat_from_json(payload["p"], "p")
    kind = payload["kind"]
    alpha = fraction_from_json(payload.get("alpha", "0"), "alpha")
    gamma = fraction_from_json(payload.get("gamma", "0"), "gamma")
    r_mat = polymat_from_json(payload["r"], "r") if "r" in payload else None
    s_mat = polymat_from_json(payload["s"], "s") if "s" in payload else None
    module = build_extension(p, kind, r_mat=r_mat, s_mat=s_mat, alpha=alpha, gamma=gamma)
    rng = random.Random(budgets.seed)
    count = budgets.rounds if budgets.rounds is not None else 8
    if count < 1:  # no samples would make axioms_ok vacuous
        raise AppError(E_PARSE, f"--rounds must be at least 1, got {count}")
    n = p.n
    samples = [
        (
            random_cend(rng, n, 2),
            random_cend(rng, n, 2),
            random_modvec_raw(rng, module.vector_size, 2),
        )
        for _ in range(count)
    ]
    report = verify_module_axioms(module.action, samples, p_mat=p)
    submodule_ok = True
    if kind == "factorization":
        for _ in range(count):
            a = random_cend(rng, n, 2)
            vec = random_modvec_raw(rng, n, 2)
            lhs, rhs = embedded_standard_witness(module, a, vec)
            if lhs != rhs:
                submodule_ok = False
                break
    result = {
        "kind": kind,
        "axioms_ok": report.ok,
        "checked": report.checked,
        "submodule_ok": submodule_ok,
        "failures": list(report.failures),
    }
    certificate = {
        "alpha": fraction_to_str(alpha),
        "gamma": fraction_to_str(gamma),
        "r": polymat_to_json(r_mat) if r_mat is not None else None,
        "s": polymat_to_json(s_mat) if s_mat is not None else None,
    }
    return "decided", result, certificate


def run_oc_gens(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "n", "p", "epsilon", "max_n")
    n = _int_field(payload, "n")
    p = polymat_from_json(payload["p"], "p")
    epsilon = _int_field(payload, "epsilon")
    max_n = _int_field(payload, "max_n")
    try:
        gens = make_oc_spc_generators(n, p, epsilon, max_n)
    except ValueError as exc:
        raise AppError(E_MISMATCH, str(exc)) from exc
    spec = AntiInvSpec(p, PolyMat.identity(n), epsilon, Fraction(0))
    all_anti_fixed = all(check_anti_fixed(g.a_part, spec) for g in gens)
    result = {
        "generators": [
            {
                "n": g.n,
                "a_part": cend_to_json(g.a_part),
                "element": cend_to_json(g.element),
            }
            for g in gens
        ]
    }
    certificate = {"anti_fixed_verified": all_anti_fixed}
    return "decided", result, certificate


def run_invariance_check(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "epsilon", "element")
    p = polymat_from_json(payload["p"], "p")
    epsilon = _int_field(payload, "epsilon")
    elem = cend_from_json(payload["element"], "element")
    try:
        form = ConfBilinearForm(p, epsilon)
    except ValueError as exc:
        raise AppError(E_MISMATCH, str(exc)) from exc
    if not form.nondegenerate():
        raise AppError(E_DEGENERATE, "form matrix must be nondegenerate")
    report = invariance_check(form, elem, degree_cap=budgets.degree_cap if budgets.degree_cap is not None else 3)
    return (
        "decided",
        {"ok": report.ok, "checked": report.checked, "failures": list(report.failures)},
        None,
    )


def run_irreducibility_probe(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "gens", "start")
    p = polymat_from_json(payload["p"], "p")
    gens = cend_list_from_json(payload["gens"], "gens")
    start = modvec_from_json(payload["start"], "start")
    alpha = fraction_from_json(payload.get("alpha", "0"), "alpha")
    outcome = irreducibility_probe(
        gens,
        p,
        alpha,
        start,
        degree_cap=budgets.degree_cap if budgets.degree_cap is not None else 4,
        rounds=budgets.rounds if budgets.rounds is not None else 6,
    )
    result = {
        "outcome": outcome.outcome,
        "rank": outcome.rank,
        "rounds_used": outcome.rounds_used,
    }
    certificate = {"basis": [modvec_to_json(r) for r in outcome.basis]}
    status = "undecided" if outcome.outcome == "undecided" else "decided"
    return status, result, certificate


def run_unital_probe(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "gens")
    gens = cend_list_from_json(payload["gens"], "gens")
    try:
        outcome = unital_closure_probe(
            gens, degree_cap=budgets.degree_cap if budgets.degree_cap is not None else 6, rounds=budgets.rounds if budgets.rounds is not None else 8
        )
    except ValueError as exc:
        raise AppError(E_MISMATCH, str(exc)) from exc
    result = {
        "outcome": outcome.outcome,
        "rounds_used": outcome.rounds_used,
        "basis_rank": outcome.basis_rank,
    }
    status = "undecided" if outcome.outcome == "undecided" else "decided"
    return status, result, None


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


def run_verify(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "verb", "input", "status")
    verb = payload["verb"]
    checker = _VERIFIERS.get(verb)
    if checker is None:
        raise AppError(E_PARSE, f"no verifier for verb {verb!r}")
    ok, notes = checker(payload)
    if not ok:
        raise AppError(E_MISMATCH, f"certificate for {verb!r} failed: {notes}")
    return "decided", {"verified": True, "verb": verb, "notes": notes}, None


def _verify_smith(report: Any) -> tuple[bool, str]:
    mat = polymat_from_json(report["input"]["matrix"], "matrix")
    cert = SmithCert(
        tuple(
            UPoly(
                _coeffs_of(parse_poly(s), "x"),
                "x",
            )
            for s in report["result"]["divisors"]
        ),
        polymat_from_json(report["certificate"]["left"], "left"),
        polymat_from_json(report["certificate"]["right"], "right"),
    )
    if not cert.verify(mat):
        return False, "transform identity or divisor chain failed"
    prod = UPoly.const(1)
    for dv in cert.divisors:
        prod = prod * dv
    d = det(mat)
    if prod.is_zero():
        if not d.is_zero():
            return False, "zero divisors for a nonsingular matrix"
    else:
        quo, rem = d.divmod(prod)
        if not rem.is_zero() or not quo.is_constant() or quo.is_zero():
            return False, "divisor product does not match the determinant"
    return True, "smith certificate verified"


def _coeffs_of(p: MPoly, var: str) -> list[Fraction]:
    from .poly import upoly_from_mpoly

    return list(upoly_from_mpoly(p, var).coeffs)


def _verify_iso(report: Any) -> tuple[bool, str]:
    p = polymat_from_json(report["input"]["p"], "p")
    q = polymat_from_json(report["input"]["q"], "q")
    decision = decide_isomorphism(p, q)
    want = report["result"]["isomorphic"]
    if decision.isomorphic != want:
        return False, "decision mismatch"
    if decision.isomorphic:
        alpha = fraction_from_json(report["result"]["alpha"], "alpha")
        from .polymat import smith_divisors

        if smith_divisors(p.shift(alpha)) != smith_divisors(q):
            return False, "shifted divisors do not match"
    return True, "isomorphism decision verified"


def _verify_anti_auto(report: Any) -> tuple[bool, str]:
    p = polymat_from_json(report["input"]["p"], "p")
    decision = anti_automorphism_exists(p)
    if decision.isomorphic != report["result"]["exists"]:
        return False, "decision mismatch"
    if decision.isomorphic:
        alpha = fraction_from_json(report["result"]["alpha"], "alpha")
        from .polymat import smith_divisors

        if smith_divisors(star(p, alpha)) != smith_divisors(p):
            return False, "mirrored divisors do not match"
    return True, "anti-automorphism decision verified"


def _verify_anti_inv(report: Any) -> tuple[bool, str]:
    if not report["result"].get("found", False):
        return True, "no certificate for an undecided search"
    p = polymat_from_json(report["input"]["p"], "p")
    y = polymat_from_json(report["certificate"]["y"], "y")
    eps = int(report["result"]["epsilon"])
    alpha = fraction_from_json(report["result"]["alpha"], "alpha")
    try:
        AntiInvSpec(p, y, eps, alpha)
    except ValueError as exc:
        return False, str(exc)
    return True, "anti-involution identity verified"


def _verify_ideal(report: Any) -> tuple[bool, str]:
    from .structure import _d_coefficient_mats, _tilde_coefficient_mats

    p = polymat_from_json(report["input"]["p"], "p")
    gens = cend_list_from_json(report["input"]["gens"], "gens")
    side = report["result"]["side"]
    hermite = polymat_from_json(report["certificate"]["hermite"], "hermite")
    coeff_mats: list[PolyMat] = []
    for g in gens:
        full = g.times_polymat(p)
        if side == "left":
            coeff_mats.extend(_d_coefficient_mats(full))
        else:
            coeff_mats.extend(m.transpose() for m in _tilde_coefficient_mats(full))
    basis = PidRowBasis(p.n, "x")
    for row in hermite.rows:
        if any(not e.is_zero() for e in row):
            basis.add(row)
    for m in coeff_mats:
        for row in m.rows:
            if not basis.contains(row):
                return False, "input row escapes the reported generator module"
    if side == "left":
        gen = polymat_from_json(report["result"]["generator"], "generator")
        if gen @ p != hermite:
            return False, "generator times defining matrix is not the hermite form"
    multipliers = report["certificate"]["multipliers"]
    stacked = [row for m in coeff_mats for row in m.rows]
    hermite_rows = [row for row in hermite.rows if any(not e.is_zero() for e in row)]
    if len(multipliers) != len(hermite_rows):
        return False, "multiplier row count mismatch"
    for mult_row, target in zip(multipliers, hermite_rows):
        combo = [UPoly.zero()] * p.n
        for coef_str, source in zip(mult_row, stacked):
            coef = UPoly(_coeffs_of(parse_poly(coef_str), "x"), "x")
            combo = [c + coef * s for c, s in zip(combo, source)]
        if tuple(combo) != tuple(target):
            return False, "multipliers do not reproduce the hermite rows"
    return True, "ideal certificate verified"


def _verify_classify(report: Any) -> tuple[bool, str]:
    from .poly import bipoly_gcd

    cert = report["certificate"]
    witness = parse_poly(cert["gcd_witness"])
    basis = [parse_poly(b) for b in cert["basis"]]
    for b in basis:
        if bipoly_gcd(witness, b) != bipoly_gcd(witness, MPoly.zero()):
            return False, "witness does not divide a basis element"
    if report["status"] != "decided":
        return True, "budget-exhausted closure; nothing further to verify"
    result = report["result"]
    tag = result["type"]
    if tag == "CPARTIAL":
        if any(b.uses("x") for b in basis):
            return False, "CPARTIAL closure contains x-dependence"
        return True, "classification verified"
    p_poly = (
        UPoly(_coeffs_of(parse_poly(result["p"]), "x"), "x")
        if result["p"]
        else UPoly.const(1)
    )
    if result["q"]:
        q_m = parse_poly(result["q"].replace("z", "x")).substitute(
            {"x": MPoly.var("d") + MPoly.var("x")}
        )
    else:
        q_m = MPoly.const(1)
    rebuilt = p_poly.to_mpoly("x") * q_m
    if rebuilt != witness:
        return False, "reported split does not reconstruct the witness"
    return True, "classification verified"


def _verify_recompute(report: Any) -> tuple[bool, str]:
    verb = report["verb"]
    recorded = report.get("budgets")
    if not isinstance(recorded, dict):
        raise AppError(E_PARSE, "report field 'budgets' must be an object")
    budgets = Budgets(
        degree_cap=recorded.get("degree_cap"),
        rounds=recorded.get("rounds"),
        seed=recorded.get("seed", DEFAULT_SEED),
    )
    handler = _HANDLERS[verb]
    status, result, certificate = handler(report["input"], budgets)
    if status != report["status"]:
        return False, "status differs on recomputation"
    if result != report["result"]:
        return False, "result differs on recomputation"
    return True, "deterministic recomputation matches"


_VERIFIERS: dict[str, Callable[[Any], tuple[bool, str]]] = {
    "smith": _verify_smith,
    "iso": _verify_iso,
    "anti-auto": _verify_anti_auto,
    "anti-inv-search": _verify_anti_inv,
    "ideal": _verify_ideal,
    "classify-cend1": _verify_classify,
    "product": _verify_recompute,
    "bracket": _verify_recompute,
    "check-axioms": _verify_recompute,
    "extension-build": _verify_recompute,
    "oc-gens": _verify_recompute,
    "invariance-check": _verify_recompute,
    "irreducibility-probe": _verify_recompute,
    "unital-probe": _verify_recompute,
}

_HANDLERS: dict[str, Callable[[Any, Budgets], Outcome]] = {
    "product": run_product,
    "bracket": run_bracket,
    "check-axioms": run_check_axioms,
    "smith": run_smith,
    "iso": run_iso,
    "anti-auto": run_anti_auto,
    "anti-inv-search": run_anti_inv_search,
    "ideal": run_ideal,
    "classify-cend1": run_classify_cend1,
    "extension-build": run_extension_build,
    "oc-gens": run_oc_gens,
    "invariance-check": run_invariance_check,
    "irreducibility-probe": run_irreducibility_probe,
    "unital-probe": run_unital_probe,
    "verify": run_verify,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="Exact symbolic kernel for conformal endomorphism algebras.",
    )
    parser.add_argument("verb", choices=sorted(_HANDLERS))
    parser.add_argument("--in", dest="infile", default="-", help="input JSON file or -")
    parser.add_argument("--out", dest="outfile", default="-", help="output file or -")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--degree-cap", dest="degree_cap", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, dest="json_mode")
    fmt.add_argument(
        "--pretty", action="store_false", dest="json_mode", help="human summary"
    )
    return parser


def _read_payload(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise AppError(E_PARSE, f"invalid JSON input: {exc}") from exc
    except OSError as exc:
        raise AppError(E_PARSE, f"cannot read input: {exc}") from exc


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _pretty_lines(envelope: dict[str, Any]) -> str:
    lines = [f"{envelope['verb']}: {envelope['status']}"]
    if envelope.get("error"):
        lines.append(f"  error {envelope['error']['code']}: {envelope['error']['message']}")
    result = envelope.get("result") or {}
    for key in sorted(result):
        value = result[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    budgets = Budgets(degree_cap=args.degree_cap, rounds=args.rounds, seed=args.seed)
    envelope: dict[str, Any] = {
        "verb": args.verb,
        "budgets": {
            "degree_cap": budgets.degree_cap,
            "rounds": budgets.rounds,
            "seed": budgets.seed,
        },
        "input": None,
        "status": "error",
        "result": None,
        "certificate": None,
        "error": None,
    }
    try:
        payload = _read_payload(args.infile)
        envelope["input"] = payload
        if args.json_mode:
            budgets.require(args.verb)
        else:
            budgets.apply_defaults(args.verb)
        envelope["budgets"] = {
            "degree_cap": budgets.degree_cap,
            "rounds": budgets.rounds,
            "seed": budgets.seed,
        }
        status, result, certificate = _HANDLERS[args.verb](payload, budgets)
        envelope["status"] = status
        envelope["result"] = result
        envelope["certificate"] = certificate
        if status == "undecided":
            envelope["error"] = {
                "code": E_BUDGET,
                "message": "budget exhausted before a decision was reached",
            }
    except AppError as exc:
        envelope["error"] = {"code": exc.code, "message": exc.message}
    except (PayloadError, ParseError) as exc:
        envelope["error"] = {"code": E_PARSE, "message": str(exc)}
    except DegenerateError as exc:
        envelope["error"] = {"code": E_DEGENERATE, "message": str(exc)}
    except (MismatchError,) as exc:
        envelope["error"] = {"code": E_MISMATCH, "message": str(exc)}
    except ValueError as exc:
        envelope["error"] = {"code": E_MISMATCH, "message": str(exc)}

    if args.json_mode:
        text = json.dumps(envelope, sort_keys=True) + "\n"
    else:
        text = _pretty_lines(envelope)
    _write_output(args.outfile, text)
    if envelope["error"] is not None and envelope["status"] == "error":
        return 1
    if envelope["status"] == "undecided":
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
