"""Command-line frontend: JSON in, JSON (or text summary) out, exit codes.

Exit codes: 0 decided/verified, 2 undecided (budget exhausted), 1 error;
only anti-inv-search, the one verb with a degree cap, can answer undecided.
Machine mode (--json, the default) demands the budgets a verb requires
(anti-inv-search its --degree-cap, check-axioms and extension-build their
--rounds sample count); --pretty applies the documented defaults.  Any other
given budget is validated, echoed and ignored.  Identical invocations
(inputs + budgets + seed) produce byte-identical JSON.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from . import cend1 as c1
from .cend import (
    AntiInvSpec,
    AxiomReport,
    CendElem,
    LambdaSeries,
    lambda_product,
    lie_bracket,
    standard_action,
    verify_assoc_axioms,
    verify_lie_axioms,
    verify_module_axioms,
)
from .grammar import format_poly, format_upoly
from .gclie import (
    ConfBilinearForm,
    check_anti_fixed,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
)
from .jsonio import (
    MAX_MATRIX_N,
    PayloadError,
    cend_from_json,
    cend_list_from_json,
    cend_to_json,
    fraction_from_json,
    fraction_to_str,
    modvec_from_json,
    modvec_to_json,
    poly_from_json,
    polymat_from_json,
    polymat_to_json,
    polys_from_json,
    series_to_json,
    upolys_from_json,
    upolys_to_json,
)
from .poly import MPoly, bipoly_gcd
from .polymat import DegenerateError, PolyMat, SmithCert, det, smith_form
from .sampling import random_cend, random_modvec_raw
from .structure import (
    IdealReport,
    IsoDecision,
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

# check-axioms samples n x n symbols of this degree; one round at n = 4,
# degree 4 takes about 0.08 s for assoc and 0.17-0.19 s for lie (in-process
# CPU time, medians of 16 seeds, one core of a 2-core machine; the same with
# no substitution cached), and the cost grows fast in both
MAX_AXIOM_N = 4
MAX_AXIOM_DEGREE = 4
# oc-gens builds n*n generators for each power 0..max_n; n = 4 with
# max_n = 16 takes about half a second, n = 8 with max_n = 16 six seconds
MAX_OC_POWER = 16
# every --degree-cap flag or recorded degree_cap: only anti-inv-search reads
# one, as the entry degree of its n^2 (cap + 1) unknowns; every other verb
# validates and ignores it
MAX_DEGREE_CAP = 16

E_PARSE = "E_PARSE"
E_DEGENERATE = "E_DEGENERATE"
E_MISMATCH = "E_MISMATCH"
E_BUDGET = "E_BUDGET"
E_INTERNAL = "E_INTERNAL"


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


Outcome = tuple[str, dict[str, Any], dict[str, Any] | None]
# (status, result, certificate)


def _expect(payload: Any, *fields: str, name: str = "payload") -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise AppError(E_PARSE, f"{name} must be a JSON object")
    for f in fields:
        if f not in payload:
            raise AppError(E_PARSE, f"{name} field {f!r} is required")
    return payload


def _int_field(payload: dict[str, Any], name: str, default: int | None = None) -> int:
    value = payload.get(name, default)
    if type(value) is not int:  # bool is an int subclass, and int() truncates 1.7
        raise AppError(E_PARSE, f"{name}: expected an integer, got {value!r}")
    return value


def _epsilon_field(payload: dict[str, Any]) -> int:
    epsilon = _int_field(payload, "epsilon")
    if epsilon not in (1, -1):
        raise AppError(E_PARSE, f"epsilon must be 1 or -1, got {epsilon}")
    return epsilon


def _axiom_outcome(report: AxiomReport) -> Outcome:
    """The result every axiom check reports."""
    result = {"ok": report.ok, "checked": report.checked, "failures": list(report.failures)}
    return "decided", result, None


def _budgets(verb: str, given: dict[str, Any], defaults: bool = False) -> Budgets:
    """Budgets for ``verb`` from the command line or a report's ``budgets``.

    Each budget is an integer or null and the seed an integer; a budget the
    verb requires must be set, unless ``defaults`` (--pretty) fills it in.
    """
    required = VERBS[verb].budgets
    values: dict[str, int | None] = {}
    for key in ("degree_cap", "rounds"):
        if given.get(key) is not None:
            values[key] = _int_field(given, key)
        elif key not in required:
            values[key] = None
        elif defaults:
            values[key] = required[key]
        else:
            flag = key.replace("_", "-")
            raise AppError(E_PARSE, f"machine mode requires --{flag} for {verb}")
    cap, rounds = values["degree_cap"], values["rounds"]
    if cap is not None and not 0 <= cap <= MAX_DEGREE_CAP:
        raise AppError(E_PARSE, f"degree_cap must be from 0 to {MAX_DEGREE_CAP}, got {cap}")
    if rounds is not None and rounds < 0:
        raise AppError(E_PARSE, f"rounds must be at least 0, got {rounds}")
    return Budgets(seed=_int_field(given, "seed"), **values)


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def run_series(
    op: Callable[[CendElem, CendElem], LambdaSeries], payload: Any, budgets: Budgets
) -> Outcome:
    """``product`` and ``bracket``: the series of ``op`` on two symbols."""
    _expect(payload, "a", "b")
    a = cend_from_json(payload["a"], "a")
    b = cend_from_json(payload["b"], "b")
    if a.n != b.n:
        raise AppError(E_MISMATCH, "operand sizes differ")
    return "decided", {"series": series_to_json(op(a, b))}, None


def _samples(rng: random.Random, n: int, degree: int, count: int, vec_size: int | None = None):
    """``count`` triples of two random symbols and a third symbol, or a
    module vector of length ``vec_size``, drawn in that order."""
    return [
        (
            random_cend(rng, n, degree),
            random_cend(rng, n, degree),
            random_cend(rng, n, degree)
            if vec_size is None
            else random_modvec_raw(rng, vec_size, degree),
        )
        for _ in range(count)
    ]


def run_check_axioms(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "kind", "n")
    kind = payload["kind"]
    n = _int_field(payload, "n")
    degree = _int_field(payload, "degree", 2)
    count = budgets.rounds
    # each of these would make every sample set empty and "ok" vacuous
    if not 1 <= n <= MAX_AXIOM_N:
        raise AppError(E_PARSE, f"n must be from 1 to {MAX_AXIOM_N}, got {n}")
    if not 0 <= degree <= MAX_AXIOM_DEGREE:
        raise AppError(E_PARSE, f"degree must be from 0 to {MAX_AXIOM_DEGREE}, got {degree}")
    if count < 1:
        raise AppError(E_PARSE, f"--rounds must be at least 1, got {count}")
    rng = random.Random(budgets.seed)
    if kind == "assoc":
        report = verify_assoc_axioms(_samples(rng, n, degree, count))
    elif kind == "lie":
        report = verify_lie_axioms(_samples(rng, n, degree, count))
    elif kind == "module":
        p_mat = (
            polymat_from_json(payload["p"], "p")
            if "p" in payload
            else PolyMat.identity(n)
        )
        if p_mat.n != n:
            raise AppError(E_MISMATCH, "size mismatch")
        if det(p_mat).is_zero():  # every action would be zero and "ok" vacuous
            raise DegenerateError("defining matrix must be nondegenerate")
        raw_alphas = payload.get("alphas", ["0"])
        if not isinstance(raw_alphas, list) or not raw_alphas:
            raise AppError(E_PARSE, "alphas: expected a non-empty array of rationals")
        alphas = [fraction_from_json(a, "alphas") for a in raw_alphas]
        failures: list[str] = []
        checked = 0
        for alpha in alphas:
            act = standard_action(p_mat, alpha)
            report = verify_module_axioms(act, _samples(rng, n, degree, count, n), p_mat=p_mat)
            checked += report.checked
            failures.extend(
                f"alpha={fraction_to_str(alpha)}: {f}" for f in report.failures
            )
        report = AxiomReport(not failures, checked, tuple(failures))
    else:
        raise AppError(E_PARSE, f"unknown axiom kind {kind!r}")
    return _axiom_outcome(report)


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
    return "decided", result, _anti_auto_certificate(decision)


def _anti_auto_certificate(decision: IsoDecision) -> dict[str, Any]:
    return {
        "divisors": upolys_to_json(decision.divisors_left),
        "divisors_reflected": upolys_to_json(decision.divisors_right),
    }


def run_anti_inv_search(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p")
    p = polymat_from_json(payload["p"], "p")
    decision, spec = anti_involution_search(p, degree_cap=budgets.degree_cap)
    if not decision.isomorphic:  # no anti-automorphism, so no anti-involution
        return "decided", {"found": False}, _anti_auto_certificate(decision)
    if spec is None:
        return "undecided", {"found": False}, None
    result = {"found": True, "epsilon": spec.epsilon, "alpha": fraction_to_str(spec.alpha)}
    return "decided", result, {"y": polymat_to_json(spec.y_mat)}


def _generator_json(side: str, generator: PolyMat) -> list[list[str]]:
    """An ideal generator as ``ideal`` reports print it: in z on the right."""
    if side == "left":
        return polymat_to_json(generator)
    return [[format_upoly(e.retag("z")) for e in row] for row in generator.rows]


def run_ideal(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "side", "p", "gens")
    side = payload["side"]
    p = polymat_from_json(payload["p"], "p")
    gens = cend_list_from_json(payload["gens"], "gens")
    if side == "left":
        report = left_ideal_generator(p, gens)
    elif side == "right":
        report = right_ideal_generator(p, gens)
    else:
        raise AppError(E_PARSE, f"unknown ideal side {side!r}")
    result = {
        "side": side,
        "generator": _generator_json(side, report.generator),
        "variable": "x" if side == "left" else "z",
    }
    certificate = {
        "hermite": polymat_to_json(report.hermite),
        "multipliers": [upolys_to_json(row) for row in report.multipliers],
    }
    return "decided", result, certificate


def _cend1_generators(payload: Any) -> list[MPoly]:
    """The generators of a ``classify-cend1`` payload: a list or ``generators``."""
    if isinstance(payload, list):
        raw_gens = payload
    else:
        _expect(payload, "generators")
        raw_gens = payload["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise AppError(E_PARSE, "generators: expected a non-empty array of strings")
    return polys_from_json(raw_gens, "generators", {"d", "x"})


def run_classify_cend1(payload: Any, budgets: Budgets) -> Outcome:
    state = c1.closure(_cend1_generators(payload))
    certificate = {
        "derivation": [list(step) for step in state.derivation],
        "gcd_witness": format_poly(state.gcd_witness),
    }
    return "decided", _classify_result(c1.classify(state), state.status, state.rounds), certificate


def _classify_result(desc: c1.SubalgDescriptor, status: str, rounds: int) -> dict[str, Any]:
    """The result of a decided ``classify-cend1``."""
    return {
        "type": desc.type_tag,
        "p": format_upoly(desc.p) if desc.p is not None else None,
        "q": format_upoly(desc.q) if desc.q is not None else None,
        "status": status,
        "rounds": rounds,
        "irreducible_on_standard": c1.irreducible_on_standard(desc),
    }


def run_extension_build(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "kind")
    kind = payload["kind"]
    if kind not in ("factorization", "jordan"):
        raise AppError(E_PARSE, f"unknown extension kind {kind!r}")
    if kind == "factorization":
        _expect(payload, "r", "s")
    p = polymat_from_json(payload["p"], "p")
    alpha = fraction_from_json(payload.get("alpha", "0"), "alpha")
    gamma = fraction_from_json(payload.get("gamma", "0"), "gamma")
    r_mat = polymat_from_json(payload["r"], "r") if "r" in payload else None
    s_mat = polymat_from_json(payload["s"], "s") if "s" in payload else None
    module = build_extension(p, kind, r_mat=r_mat, s_mat=s_mat, alpha=alpha, gamma=gamma)
    rng = random.Random(budgets.seed)
    count = budgets.rounds
    if count < 1:  # no samples would make axioms_ok vacuous
        raise AppError(E_PARSE, f"--rounds must be at least 1, got {count}")
    n = p.n
    samples = _samples(rng, n, 2, count, module.vector_size)
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
    max_n = _int_field(payload, "max_n")
    if not 1 <= n <= MAX_MATRIX_N:
        raise AppError(E_PARSE, f"n must be from 1 to {MAX_MATRIX_N}, got {n}")
    if not 0 <= max_n <= MAX_OC_POWER:
        raise AppError(E_PARSE, f"max_n must be from 0 to {MAX_OC_POWER}, got {max_n}")
    p = polymat_from_json(payload["p"], "p")
    epsilon = _epsilon_field(payload)
    gens = make_oc_spc_generators(n, p, epsilon, max_n)
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
    epsilon = _epsilon_field(payload)
    elem = cend_from_json(payload["element"], "element")
    return _axiom_outcome(invariance_check(ConfBilinearForm(p, epsilon), elem))


def run_irreducibility_probe(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "p", "gens", "start")
    p = polymat_from_json(payload["p"], "p")
    gens = cend_list_from_json(payload["gens"], "gens")
    start = modvec_from_json(payload["start"], "start")
    alpha = fraction_from_json(payload.get("alpha", "0"), "alpha")
    outcome = irreducibility_probe(gens, p, alpha, start)
    result = {
        "outcome": outcome.outcome,
        "rank": outcome.rank,
        "rounds_used": outcome.rounds_used,
    }
    certificate = {"basis": [modvec_to_json(r) for r in outcome.basis]}
    return "decided", result, certificate


def run_unital_probe(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "gens")
    outcome = unital_closure_probe(cend_list_from_json(payload["gens"], "gens"))
    return "decided", {"outcome": outcome.outcome, "basis_rank": outcome.basis_rank}, None


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


def run_verify(payload: Any, budgets: Budgets) -> Outcome:
    _expect(payload, "verb", "input", "status")
    verb = payload["verb"]
    row = VERBS.get(verb) if isinstance(verb, str) else None
    if row is None or row.check is None:
        raise AppError(E_PARSE, f"no verifier for verb {verb!r}")
    if payload["status"] not in ("decided", "undecided"):
        raise AppError(E_PARSE, f"no verdict to verify: status {payload['status']!r}")
    ok, notes = row.check(payload, _budgets(verb, _part(payload, "budgets")))
    if not ok:
        raise AppError(E_MISMATCH, f"certificate for {verb!r} failed: {notes}")
    return "decided", {"verified": True, "verb": verb, "notes": notes}, None


def _part(report: dict[str, Any], name: str, *fields: str) -> dict[str, Any]:
    """``report[name]``, which must be an object holding ``fields``."""
    return _expect(report.get(name), *fields, name=name)


# a decision verifier's answer when the report's status contradicts its result
_STATUS_MISMATCH = (False, "status does not match the result")


def _same_json(a: Any, b: Any) -> bool:
    """Equal as JSON text, which tells true from 1 and 1 from 1.0."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _status_agrees(report: dict[str, Any], decided: bool) -> bool:
    return report["status"] == ("decided" if decided else "undecided")


def _verify_smith(report: dict[str, Any], budgets: Budgets) -> tuple[bool, str]:
    if not _status_agrees(report, True):
        return _STATUS_MISMATCH
    mat = polymat_from_json(_part(report, "input", "matrix")["matrix"], "matrix")
    result = _part(report, "result", "divisors")
    cert = _part(report, "certificate", "left", "right")
    smith = SmithCert(
        upolys_from_json(result["divisors"], "divisors", "x", None),
        polymat_from_json(cert["left"], "left", None),
        polymat_from_json(cert["right"], "right", None),
    )
    if not smith.verify(mat):
        return False, "transform identity or divisor chain failed"
    return True, "smith certificate verified"


def _verify_anti_inv(report: dict[str, Any], budgets: Budgets) -> tuple[bool, str]:
    result = _part(report, "result", "found")
    found = result["found"]
    if not isinstance(found, bool):
        raise AppError(E_PARSE, f"found: expected true or false, got {found!r}")
    if not found:  # a decided absence and a failed bounded search are both rerun
        return _verify_recompute(report, budgets)
    if not _status_agrees(report, True):
        return _STATUS_MISMATCH
    p = polymat_from_json(_part(report, "input", "p")["p"], "p")
    y = polymat_from_json(_part(report, "certificate", "y")["y"], "y", None)
    eps = _int_field(result, "epsilon")
    alpha = fraction_from_json(result.get("alpha"), "alpha")
    try:
        AntiInvSpec(p, y, eps, alpha)
    except ValueError as exc:
        return False, str(exc)
    return True, "anti-involution identity verified"


def _verify_ideal(report: dict[str, Any], budgets: Budgets) -> tuple[bool, str]:
    if not _status_agrees(report, True):
        return _STATUS_MISMATCH
    payload = _part(report, "input", "p", "gens")
    p = polymat_from_json(payload["p"], "p")
    gens = cend_list_from_json(payload["gens"], "gens")
    result = _part(report, "result", "side")
    cert = _part(report, "certificate", "hermite", "multipliers")
    side = result["side"]
    if side not in ("left", "right"):
        raise AppError(E_PARSE, f"unknown ideal side {side!r}")
    hermite = polymat_from_json(cert["hermite"], "hermite", None)
    if not isinstance(cert["multipliers"], list):
        raise AppError(E_PARSE, "multipliers: expected an array of arrays")
    multipliers = tuple(
        upolys_from_json(row, f"multipliers[{i}]", "x", None)
        for i, row in enumerate(cert["multipliers"])
    )
    if side == "left":
        generator = polymat_from_json(result.get("generator"), "generator", None)
    elif result.get("generator") == _generator_json(side, hermite):
        generator = hermite
    else:  # the grammar has no z: the printed forms are compared
        return False, "generator is not the hermite form"
    failure = IdealReport(side, generator, hermite, multipliers).verify(p, gens)
    if failure is not None:
        return False, failure
    return True, "ideal certificate verified"


def _verify_classify(report: dict[str, Any], budgets: Budgets) -> tuple[bool, str]:
    if not _status_agrees(report, True):
        return _STATUS_MISMATCH
    gens = _cend1_generators(report["input"])
    try:
        c1.SubalgDescriptor(_part(report, "result", "type")["type"])
    except ValueError as exc:
        raise AppError(E_PARSE, f"type: {exc}") from exc
    cert = _part(report, "certificate", "derivation", "gcd_witness")
    steps = cert["derivation"]
    if not isinstance(steps, list) or not all(
        isinstance(s, list) and len(s) == 3 and all(type(v) is int for v in s) for s in steps
    ):
        raise AppError(E_PARSE, "derivation: expected an array of [a, b, k] integer triples")
    witness = poly_from_json(cert["gcd_witness"], "gcd_witness", {"d", "x"}, None)
    try:
        state = c1.replay(gens, steps)
        desc = c1.classify(state)
    except DegenerateError:
        raise
    except ValueError as exc:
        return False, str(exc)
    if bipoly_gcd(witness, MPoly.zero()) != state.gcd_witness:
        return False, "witness is not the gcd of the generators and the derivation"
    expected = _classify_result(desc, state.status, state.rounds)
    result = _part(report, "result", *expected)
    if _same_json({key: result[key] for key in expected}, expected):
        return True, "classification verified"
    key = next(k for k, v in expected.items() if not _same_json(result[k], v))
    return False, f"{key} differs from the replayed derivation"


def _verify_recompute(report: dict[str, Any], budgets: Budgets) -> tuple[bool, str]:
    result = _part(report, "result")
    status, recomputed, certificate = _HANDLERS[report["verb"]](report["input"], budgets)
    if status != report["status"]:
        return _STATUS_MISMATCH
    if not _same_json(recomputed, result):
        return False, "result differs on recomputation"
    if not _same_json(certificate, report.get("certificate")):
        return False, "certificate differs on recomputation"
    return True, "deterministic recomputation matches"


class Verb(NamedTuple):
    run: Callable[[Any, Budgets], Outcome]
    budgets: dict[str, int] = {}  # required in machine mode -> --pretty default
    check: Callable[[dict[str, Any], Budgets], tuple[bool, str]] | None = _verify_recompute


# One row per verb.  ``check`` re-verifies an emitted report in one of two
# ways: a replay checks the certificate with the code that built it, and the
# default recomputes the report from its input, budgets and seed and compares
# result and certificate.  A verify report has no check.
VERBS: dict[str, Verb] = {
    "product": Verb(partial(run_series, lambda_product)),
    "bracket": Verb(partial(run_series, lie_bracket)),
    "check-axioms": Verb(run_check_axioms, {"rounds": 12}),
    "smith": Verb(run_smith, check=_verify_smith),
    "iso": Verb(run_iso),
    "anti-auto": Verb(run_anti_auto),
    "anti-inv-search": Verb(run_anti_inv_search, {"degree_cap": 1}, _verify_anti_inv),
    "ideal": Verb(run_ideal, check=_verify_ideal),
    "classify-cend1": Verb(run_classify_cend1, check=_verify_classify),
    "extension-build": Verb(run_extension_build, {"rounds": 8}),
    "oc-gens": Verb(run_oc_gens),
    "invariance-check": Verb(run_invariance_check),
    "irreducibility-probe": Verb(run_irreducibility_probe),
    "unital-probe": Verb(run_unital_probe),
    "verify": Verb(run_verify, check=None),
}

# main and the recomputing verifier look handlers up here at call time
_HANDLERS: dict[str, Callable[[Any, Budgets], Outcome]] = {
    verb: row.run for verb, row in VERBS.items()
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# --in, --out and the budgets: flag -> (field, type of its value)
_FLAGS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "--in": ("infile", str),
    "--out": ("outfile", str),
    "--seed": ("seed", int),
    "--degree-cap": ("degree_cap", int),
    "--rounds": ("rounds", int),
}
# the two mode switches: flag -> json_mode
_MODES = {"--json": True, "--pretty": False}
# every long flag, in the order an ambiguous prefix lists them
_LONG = ("--help", *_FLAGS, *_MODES)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

USAGE = (
    "usage: confalg [-h] VERB [--in FILE] [--out FILE] [--seed N] [--degree-cap N]\n"
    "               [--rounds N] [--json | --pretty]\n\n"
    "Exact symbolic kernel for conformal endomorphism algebras.\n\n"
    "verbs:\n" + "".join(f"  {verb}\n" for verb in sorted(VERBS)) + "\n"
    "options:\n"
    "  -h, --help       print this text and exit\n"
    "  --in FILE        input JSON file, or - for stdin (the default)\n"
    "  --out FILE       output file, or - for stdout (the default)\n"
    f"  --seed N         sampling seed (default {DEFAULT_SEED})\n"
    "  --degree-cap N   degree budget\n"
    "  --rounds N       rounds budget\n"
    "  --json           one JSON report, budgets required (the default)\n"
    "  --pretty         a text summary, budgets defaulted\n"
)


def _rejected(message: str) -> AppError:
    return AppError(E_PARSE, f"command line: {message}")


def _option(arg: str) -> tuple[str | None, str | None] | None:
    """How one argument before ``--`` reads: None for a verb or a value, else
    (the flag it names, None if unknown; its ``=`` text, None if none)."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] != "-":  # -h, -hh, ...; otherwise a negative number or unknown
        if arg[1] == "h":
            tail = arg[2:]
            return "--help", tail if tail.strip("h") else None
        return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)
    name, eq, text = arg.partition("=")
    matches = [name] if name in _LONG else [f for f in _LONG if f.startswith(name)]
    if len(matches) > 1:
        raise _rejected(f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], text if eq else None
    return None if " " in arg else (None, None)


def read_command_line(argv: Sequence[str]) -> dict[str, Any] | None:
    """The fields of a command line, or None when it asks for help.

    argv reads as argparse reads it: a flag's value follows it or its ``=``,
    a unique prefix names a long flag, a negative number or ``-`` is a value,
    ``--`` ends the flags, and the last repeat of a flag wins.  Help answers
    when it is reached, unless an error came first.  Whatever argparse
    rejects raises ``AppError`` with code E_PARSE.
    """
    # per argument: None a verb or value, "--" the end of flags, else _option's pair
    kinds: list[Any] = []
    for j, arg in enumerate(argv):
        if arg == "--":
            kinds += ["--"] + [None] * (len(argv) - j - 1)
            break
        kinds.append(_option(arg))
    fields: dict[str, Any] = {
        "verb": None, "infile": "-", "outfile": "-", "seed": DEFAULT_SEED,
        "degree_cap": None, "rounds": None, "json_mode": True,
    }
    mode = None
    extras: list[str] = []
    i = 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if fields["verb"] is None and kind == "--" and i < len(argv):
            arg, kind = argv[i], None  # a -- just before the verb goes with it
            i += 1
        if fields["verb"] is None and kind is None:
            if i < len(argv) and kinds[i] == "--":  # as does one just after it
                i += 1
            if arg not in VERBS:
                choices = ", ".join(map(repr, sorted(VERBS)))
                raise _rejected(f"argument verb: invalid choice: {arg!r} (choose from {choices})")
            fields["verb"] = arg
            continue
        if kind is None or kind == "--" or kind[0] is None:  # a stray value, --, unknown flag
            extras.append(arg)
            continue
        flag, value = kind
        if flag == "--help" or flag in _MODES:
            if value is not None:
                name = "-h/--help" if flag == "--help" else flag
                raise _rejected(f"argument {name}: ignored explicit argument {value!r}")
            if flag == "--help":
                return None
            if mode not in (None, flag):
                raise _rejected(f"argument {flag}: not allowed with argument {mode}")
            mode = flag
            fields["json_mode"] = _MODES[flag]
        else:
            if value is None:
                if i == len(argv) or kinds[i] is not None:
                    raise _rejected(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            field, convert = _FLAGS[flag]
            try:
                fields[field] = convert(value)
            except ValueError:
                raise _rejected(
                    f"argument {flag}: invalid {convert.__name__} value: {value!r}"
                ) from None
    if fields["verb"] is None:
        raise _rejected("the following arguments are required: verb")
    if extras:
        raise _rejected(f"unrecognized arguments: {' '.join(extras)}")
    return fields


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


def _json_line(envelope: dict[str, Any]) -> str:
    return json.dumps(envelope, sort_keys=True) + "\n"


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
    envelope: dict[str, Any] = {
        "verb": None,
        "budgets": None,
        "input": None,
        "status": "error",
        "result": None,
        "certificate": None,
        "error": None,
    }
    json_mode, outfile = True, "-"  # what a command line that fails to parse gets
    try:
        args = read_command_line(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h/--help: usage text, no envelope
            sys.stdout.write(USAGE)
            return 0
        json_mode, outfile, verb = args["json_mode"], args["outfile"], args["verb"]
        envelope["verb"] = verb
        envelope["budgets"] = {
            "degree_cap": args["degree_cap"], "rounds": args["rounds"], "seed": args["seed"]
        }
        payload = _read_payload(args["infile"])
        envelope["input"] = payload
        budgets = _budgets(verb, envelope["budgets"], defaults=not json_mode)
        status, result, certificate = _HANDLERS[verb](payload, budgets)
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
    except PayloadError as exc:
        envelope["error"] = {"code": E_PARSE, "message": str(exc)}
    except DegenerateError as exc:
        envelope["error"] = {"code": E_DEGENERATE, "message": str(exc)}
    except ValueError as exc:
        envelope["error"] = {"code": E_MISMATCH, "message": str(exc)}
    except Exception as exc:  # a fault no handler classified: one envelope, no traceback
        import traceback  # only a fault pays for the import

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{frame.name}, {os.path.basename(frame.filename)}:{frame.lineno}"
        envelope["error"] = {
            "code": E_INTERNAL, "message": f"{type(exc).__name__}: {exc} (in {where})"
        }

    render = _json_line if json_mode else _pretty_lines
    try:
        _write_output(outfile, render(envelope))
    except OSError as exc:  # the report is lost: say so on stdout instead
        message = f"cannot write output to {outfile}: {exc.strerror or exc}"
        envelope.update(status="error", result=None, certificate=None,
                        error={"code": E_PARSE, "message": message})
        _write_output("-", render(envelope))
    if envelope["error"] is not None and envelope["status"] == "error":
        return 1
    if envelope["status"] == "undecided":
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
