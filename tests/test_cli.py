"""CLI: payload parsing, reports, determinism, exit codes, verification."""

from __future__ import annotations

import ast
import copy
import io
import json
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from confalg import cli
from confalg.cend import CendElem
from confalg.cli import VERBS, main
from confalg.grammar import format_poly
from confalg.jsonio import cend_to_json, polymat_from_json, polymat_to_json
from confalg.poly import MPoly
from confalg.polymat import star

ROOT = Path(__file__).resolve().parent.parent
VERIFY_CASES = sorted((ROOT / "tests" / "golden" / "verify").glob("*.json"))


def run_cli(tmp_path, verb, payload, *flags):
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(json.dumps(payload), encoding="utf-8")
    code = main([verb, "--in", str(infile), "--out", str(outfile), *flags])
    return code, outfile.read_text(encoding="utf-8")


def test_product_report(tmp_path):
    code, out = run_cli(
        tmp_path, "product", {"a": [["x"]], "b": [["1"]]}
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "decided"
    assert report["result"]["series"] == {"l^0": [["d + x"]], "l^1": [["1"]]}


def test_bracket_virasoro(tmp_path):
    code, out = run_cli(tmp_path, "bracket", {"a": [["x"]], "b": [["x"]]})
    report = json.loads(out)
    assert code == 0
    assert report["result"]["series"] == {"l^0": [["d*x"]], "l^1": [["2*x"]]}


def test_iso_example(tmp_path):
    code, out = run_cli(tmp_path, "iso", {"p": [["x"]], "q": [["x + 5"]]})
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {"isomorphic": True, "alpha": "5"}


def test_smith_identity(tmp_path):
    code, out = run_cli(tmp_path, "smith", {"matrix": [["1", "0"], ["0", "1"]]})
    report = json.loads(out)
    assert code == 0
    assert report["result"]["divisors"] == ["1", "1"]
    assert report["certificate"]["left"] == [["1", "0"], ["0", "1"]]


def test_classify_cend1(tmp_path):
    code, out = run_cli(
        tmp_path, "classify-cend1", {"generators": ["x^2"]}, "--rounds", "12"
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["type"] == "P_ONLY"
    assert report["result"]["p"] == "x^2"
    assert report["result"]["status"] == "split"
    assert report["result"]["irreducible_on_standard"] is True


@pytest.mark.parametrize(
    "flags", [(), ("--rounds", "0"), ("--degree-cap", "1", "--rounds", "0")]
)
def test_classify_decides_whatever_budgets_are_given(tmp_path, flags):
    # the gcd d*x*(x + 1) does not split; one product lowers it to x*(x + 1)
    code, out = run_cli(tmp_path, "classify-cend1", {"generators": ["d*x^2 + d*x"]}, *flags)
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "decided"
    assert (report["result"]["type"], report["result"]["p"]) == ("P_ONLY", "x^2 + x")
    assert report["certificate"] == {"derivation": [[0, 0, 2]], "gcd_witness": "x^2 + x"}


def test_machine_mode_requires_budgets(tmp_path):
    code, out = run_cli(tmp_path, "check-axioms", {"kind": "lie", "n": 1, "degree": 1})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_PARSE"
    assert "--rounds" in report["error"]["message"]


def test_pretty_mode_applies_defaults(tmp_path):
    code, out = run_cli(
        tmp_path, "check-axioms", {"kind": "lie", "n": 1, "degree": 1}, "--pretty"
    )
    assert code == 0
    assert "checked: 12" in out


def test_parse_error_reported(tmp_path):
    code, out = run_cli(tmp_path, "product", {"a": [["x^"]], "b": [["1"]]})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_PARSE"
    assert "offset 2" in report["error"]["message"]


@pytest.mark.parametrize(
    "generators,message",
    [
        (["x", "x +"], "generators[1]: expected term at offset 3"),
        (["x", 7], "generators[1]: expected a polynomial string"),
        (["d*l"], "generators[0]: variable(s) ['l'] not allowed here"),
        ([], "generators: expected a non-empty array of strings"),
    ],
    ids=["syntax", "not_a_string", "variable", "empty"],
)
def test_classify_generator_errors_name_their_field(tmp_path, generators, message):
    code, out = run_cli(tmp_path, "classify-cend1", {"generators": generators}, "--rounds", "1")
    report = json.loads(out)
    assert code == 1
    assert report["error"] == {"code": "E_PARSE", "message": message}


def test_non_square_matrix_rejected(tmp_path):
    code, out = run_cli(tmp_path, "smith", {"matrix": [["x", "1"]]})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_PARSE"
    assert "non-square" in report["error"]["message"]


def test_degenerate_reported(tmp_path):
    code, out = run_cli(tmp_path, "iso", {"p": [["0"]], "q": [["x"]]})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_DEGENERATE"


@pytest.mark.parametrize(
    "verb,payload,flags,message",
    [
        ("oc-gens", {"n": 1, "p": [["0"]], "epsilon": 1, "max_n": 1}, [],
         "defining matrix must be nondegenerate"),
        ("classify-cend1", ["0"], [], "all generators are zero"),
        ("iso", {"p": [["x", "0"], ["0", "0"]], "q": [["x", "0"], ["0", "1"]]}, [],
         "both matrices must be nondegenerate"),
        ("anti-auto", {"p": [["x", "x"], ["1", "1"]]}, [], "matrix must be nondegenerate"),
    ],
)
def test_degenerate_input_is_degenerate_error(tmp_path, verb, payload, flags, message):
    code, out = run_cli(tmp_path, verb, payload, *flags)
    report = json.loads(out)
    assert code == 1
    assert report["error"] == {"code": "E_DEGENERATE", "message": message}


def test_unclassified_fault_is_internal_error(monkeypatch):
    def broken(payload, budgets):
        return {}["missing"]

    monkeypatch.setitem(cli._HANDLERS, "product", broken)
    code, report = _run_stdin("product", {"a": [["x"]], "b": [["1"]]})
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["code"] == "E_INTERNAL"
    assert report["error"]["message"].startswith("KeyError: 'missing' (in broken, test_cli.py:")


def test_determinism_byte_identical(tmp_path):
    payload = {"p": [["1", "0"], ["0", "x"]], "q": [["0", "1"], ["x", "0"]]}
    _, first = run_cli(tmp_path, "iso", payload)
    _, second = run_cli(tmp_path, "iso", payload)
    assert first == second


def test_anti_inv_search_undecided_exit(tmp_path):
    # an anti-automorphism exists, but no unimodular Y of degree 0
    payload = {"p": [["3*x + 1", "1"], ["x^2 - 2*x - 1", "-2"]]}
    code, out = run_cli(tmp_path, "anti-inv-search", payload, "--degree-cap", "0")
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "undecided"
    assert report["result"] == {"found": False}


def test_ideal_report(tmp_path):
    payload = {"side": "left", "p": [["1"]], "gens": [[["x^2 - 1"]], [["x^2 + x"]]]}
    code, out = run_cli(tmp_path, "ideal", payload)
    report = json.loads(out)
    assert code == 0
    assert report["result"]["generator"] == [["x + 1"]]


def test_unital_probe(tmp_path):
    payload = {
        "gens": [
            [["1", "0"], ["0", "1"]],
            [["x", "0"], ["0", "0"]],
        ]
    }
    code, out = run_cli(tmp_path, "unital-probe", payload)  # no budget to give
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {"outcome": "cend_n", "basis_rank": 0}


def test_oc_gens(tmp_path):
    payload = {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": 1}
    code, out = run_cli(tmp_path, "oc-gens", payload)
    report = json.loads(out)
    assert code == 0
    assert report["result"]["generators"] == [
        {"n": 1, "a_part": [["d + 2*x"]], "element": [["d + 2*x"]]}
    ]
    assert report["certificate"]["anti_fixed_verified"] is True


def test_irreducibility_probe(tmp_path):
    payload = {
        "p": [["x"]],
        "gens": [[["1"]], [["x"]], [["d"]]],
        "start": ["1"],
        "alpha": "0",
    }
    code, out = run_cli(
        tmp_path, "irreducibility-probe", payload, "--degree-cap", "4", "--rounds", "6"
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["outcome"] == "irreducible"


def test_extension_build(tmp_path):
    payload = {
        "p": [["x^2"]],
        "kind": "factorization",
        "r": [["x"]],
        "s": [["x"]],
        "alpha": "0",
    }
    code, out = run_cli(tmp_path, "extension-build", payload, "--rounds", "4")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["axioms_ok"] is True
    assert report["result"]["submodule_ok"] is True


def test_invariance_check_cli(tmp_path):
    payload = {"p": [["1"]], "epsilon": 1, "element": [["2*x + d"]]}
    code, out = run_cli(
        tmp_path, "invariance-check", payload, "--degree-cap", "2"
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["ok"] is True


@pytest.mark.parametrize(
    "verb,payload,flags",
    [
        ("smith", {"matrix": [["x", "1"], ["0", "x"]]}, ()),
        ("iso", {"p": [["x"]], "q": [["x + 5"]]}, ()),
        ("anti-auto", {"p": [["x - 1"]]}, ()),
        ("anti-inv-search", {"p": [["x"]]}, ("--degree-cap", "0")),
        (
            "ideal",
            {"side": "left", "p": [["1"]], "gens": [[["d*x + x^2"]]]},
            (),
        ),
        ("classify-cend1", {"generators": ["x*d + x^2"]}, ("--rounds", "12")),
        ("product", {"a": [["x"]], "b": [["d"]]}, ()),
        (
            "irreducibility-probe",
            {"p": [["x"]], "gens": [[["1"]]], "start": ["1"]},
            ("--degree-cap", "4", "--rounds", "6"),
        ),
        (
            "ideal",
            {"side": "right", "p": [["1", "0"], ["0", "1"]],
             "gens": [[["d + x", "0"], ["1", "d + x - 1"]]]},
            (),
        ),
    ],
)
def test_verify_accepts_emitted_reports(tmp_path, verb, payload, flags):
    code, out = run_cli(tmp_path, verb, payload, *flags)
    assert code == 0
    verify_in = tmp_path / "verify_in.json"
    verify_out = tmp_path / "verify_out.json"
    verify_in.write_text(out, encoding="utf-8")
    code = main(
        ["verify", "--in", str(verify_in), "--out", str(verify_out)]
    )
    report = json.loads(verify_out.read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["result"]["verified"] is True


def test_verify_rejects_tampered_certificate(tmp_path):
    code, out = run_cli(tmp_path, "smith", {"matrix": [["x", "1"], ["0", "x"]]})
    report = json.loads(out)
    report["result"]["divisors"] = ["1", "x^2 + 1"]
    verify_in = tmp_path / "verify_in.json"
    verify_in.write_text(json.dumps(report), encoding="utf-8")
    code = main(["verify", "--in", str(verify_in), "--out", "-"])
    assert code == 1


@pytest.mark.parametrize(
    "entry,offset",
    [("x^99999999", 2), ("d*x^20000 * x^20000", 12), ("x^32768", 2)],
)
def test_exponent_overflow_is_parse_error(tmp_path, entry, offset):
    import time

    start = time.perf_counter()
    code, out = run_cli(tmp_path, "product", {"a": [[entry]], "b": [["1"]]})
    assert time.perf_counter() - start < 5
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["code"] == "E_PARSE"
    assert f"offset {offset}" in report["error"]["message"]


@pytest.mark.parametrize(
    "payload,flags",
    [
        ({"kind": "lie", "n": 0, "degree": 2}, ("--rounds", "1")),
        ({"kind": "assoc", "n": -1, "degree": 2}, ("--rounds", "1")),
        ({"kind": "lie", "n": 1, "degree": -1}, ("--rounds", "1")),
        ({"kind": "module", "n": 1, "degree": 1, "alphas": []}, ("--rounds", "1")),
        ({"kind": "module", "n": 1, "degree": 1, "alphas": "0"}, ("--rounds", "1")),
        ({"kind": "lie", "n": 1, "degree": 1}, ("--rounds", "0")),
    ],
)
def test_check_axioms_rejects_vacuous_checks(tmp_path, payload, flags):
    code, out = run_cli(tmp_path, "check-axioms", payload, *flags)
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "error"
    assert report["result"] is None
    assert report["error"]["code"] == "E_PARSE"


@pytest.mark.parametrize(
    "verb,payload,flags,field",
    [
        ("product", {"a": [["x^32767"]], "b": [["1"]]}, (), "a[0][0]"),
        ("product", {"a": [["1"]], "b": [["d^9*x^8"]]}, (), "b[0][0]"),
        ("bracket", {"a": [["x^17 + 1"]], "b": [["1"]]}, (), "a[0][0]"),
        ("smith", {"matrix": [["x^17"]]}, (), "matrix[0][0]"),
        ("classify-cend1", {"generators": ["x", "d^17"]}, ("--rounds", "1"), "generators[1]"),
        ("unital-probe", {"gens": [[["1"]], [["d^40"]]]},
         ("--degree-cap", "4", "--rounds", "1"), "gens[1][0][0]"),
        ("irreducibility-probe", {"p": [["1"]], "gens": [[["1"]]], "start": ["d^17"]},
         ("--degree-cap", "4", "--rounds", "1"), "start[0]"),
        ("check-axioms", {"kind": "lie", "n": 5}, ("--rounds", "1"), "n must be"),
        ("check-axioms", {"kind": "lie", "n": 1, "degree": 5}, ("--rounds", "1"),
         "degree must be"),
        ("oc-gens", {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": 3000}, (), "max_n must be"),
        ("oc-gens", {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": -1}, (), "max_n must be"),
        ("oc-gens", {"n": 5, "p": [["1"]], "epsilon": 1, "max_n": 1}, (), "n must be"),
        ("smith", {"matrix": [["1"] * 5] * 5}, (), "matrix: 5 x 5"),
        ("product", {"a": [["x"] * 5] * 5, "b": [["1"] * 5] * 5}, (), "a: 5 x 5"),
        ("classify-cend1", ["d*x + 1"], ("--rounds", "12", "--degree-cap", "17"),
         "degree_cap must be"),
        ("classify-cend1", ["d*x + 1"], ("--rounds", "12", "--degree-cap", "-1"),
         "degree_cap must be"),
        ("classify-cend1", ["d*x + 1"], ("--rounds", "-3"), "rounds must be"),
        ("unital-probe", {"gens": [[["1"]]]}, ("--degree-cap", "40", "--rounds", "1"),
         "degree_cap must be"),
        ("verify", "classify_nonsplit_rounds0", {"degree_cap": 40}, "degree_cap must be"),
        ("verify", "classify_nonsplit_rounds0", {"rounds": -1}, "rounds must be"),
        ("verify", "classify_p_only_nonsplit_gcd", {"degree_cap": 40}, "degree_cap must be"),
        ("verify", "smith", {"degree_cap": 40, "rounds": -5}, "degree_cap must be"),
        ("verify", "ideal_right", {"rounds": -5}, "rounds must be"),
        ("verify", "anti_inv_search", {"degree_cap": 17}, "degree_cap must be"),
    ],
    ids=["product_x32767", "product_d9x8", "bracket", "smith", "classify", "unital_probe",
         "irreducibility_start", "axioms_n", "axioms_degree", "oc_gens_max_n",
         "oc_gens_negative_max_n", "oc_gens_n", "smith_size", "product_size",
         "classify_cap_17", "classify_negative_cap", "classify_negative_rounds",
         "unital_probe_cap_40", "verify_undecided_cap_40", "verify_negative_rounds",
         "verify_decided_cap_40", "verify_smith_cap_40", "verify_ideal_negative_rounds",
         "verify_anti_inv_found_cap_17"],
)
def test_oversized_input_is_parse_error(tmp_path, verb, payload, flags, field):
    if verb == "verify":  # a golden report with its recorded budgets edited
        payload = _golden_report(payload)
        payload["budgets"].update(flags)
        flags = ()
    start = time.perf_counter()
    code, out = run_cli(tmp_path, verb, payload, *flags)
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["code"] == "E_PARSE"
    assert field in report["error"]["message"]


def test_input_at_the_degree_limit_is_accepted(tmp_path):
    code, out = run_cli(tmp_path, "product", {"a": [["d^8*x^8"]], "b": [["x^16"]]})
    assert code == 0
    code, out = run_cli(tmp_path, "oc-gens", {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": 16})
    assert code == 0
    code, out = run_cli(tmp_path, "smith", {"matrix": [["x"] * 4] * 4})
    assert code == 0
    code, out = run_cli(tmp_path, "check-axioms", {"kind": "lie", "n": 4, "degree": 0},
                        "--rounds", "1")
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


def test_verify_does_not_bound_certificates(tmp_path):
    # divisors 1, x^32: the result is above the input degree limit
    code, out = run_cli(tmp_path, "smith", {"matrix": [["x^16", "1"], ["0", "x^16"]]})
    assert code == 0
    assert json.loads(out)["result"]["divisors"] == ["1", "x^32"]
    code, out = run_cli(tmp_path, "verify", json.loads(out))
    assert code == 0
    assert json.loads(out)["result"]["verified"] is True


AXIOMS_REPORT = {"verb": "check-axioms", "input": {"kind": "lie", "n": 1},
                 "result": {}, "status": "decided"}
# verify reads the recorded budgets before any other part of a report
NO_BUDGETS = {"budgets": {"seed": 101}}


@pytest.mark.parametrize(
    "report,message",
    [
        ({"verb": "product", "input": {"a": [["x"]], "b": [["1"]]},
          "result": {}, "status": "decided"}, "budgets"),
        ({"verb": "smith", "input": {"matrix": [["x"]]},
          "result": {"divisors": ["x"]}, "status": "decided", **NO_BUDGETS}, "certificate"),
        ({"verb": "iso", "input": {"p": [["x"]], "q": [["x"]]}, "status": "decided",
          **NO_BUDGETS}, "result"),
        ({"verb": ["smith"], "input": {}, "status": "decided"}, "verifier"),
        ({"verb": "smith", "input": {"matrix": [["x"]]}, "result": [],
          "certificate": {}, "status": "decided", **NO_BUDGETS}, "result"),
        ({"verb": "smith", "input": {"matrix": [["x"]]}, "result": {"divisors": "x"},
          "certificate": {"left": [["1"]], "right": [["1"]]}, "status": "decided",
          **NO_BUDGETS}, "divisors"),
        ({**AXIOMS_REPORT, "budgets": {"rounds": "3", "seed": 101}}, "rounds"),
        ({**AXIOMS_REPORT, "budgets": {"rounds": None, "seed": 101}}, "--rounds"),
        ({**AXIOMS_REPORT, "budgets": {"rounds": 1, "seed": "101"}}, "seed"),
        ({**AXIOMS_REPORT, "budgets": {"rounds": 1}}, "seed"),
        ({"verb": "unital-probe", "input": {"gens": [[["1"]]]}, "result": {},
          "status": "decided", "budgets": {"degree_cap": "a", "rounds": 1, "seed": 101}},
         "degree_cap"),
        ({**AXIOMS_REPORT, "status": "error", "budgets": {"rounds": 1, "seed": 101}},
         "status"),
        ({"verb": "ideal", "input": {"p": [["1"]], "gens": [[["x"]]]},
          "result": {"side": "up"}, "certificate": {"hermite": [["1"]], "multipliers": []},
          "status": "decided", **NO_BUDGETS}, "side"),
    ],
    ids=["no_budgets", "no_certificate", "no_result", "list_verb", "list_result",
         "string_divisors", "string_rounds", "null_rounds", "string_seed",
         "no_seed", "string_degree_cap", "error_status", "unknown_side"],
)
def test_verify_malformed_report_is_parse_error(tmp_path, report, message):
    code, out = run_cli(tmp_path, "verify", report)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "E_PARSE"
    assert message in envelope["error"]["message"]


def _golden_report(name):
    return json.loads((ROOT / "tests" / "golden" / "verify" / f"{name}.json")
                      .read_text(encoding="utf-8"))["payload"]


@pytest.mark.parametrize(
    "name,edit",
    [
        ("anti_inv_search", lambda r: r.__setitem__("status", "undecided")),
        ("iso", lambda r: r.__setitem__("status", "undecided")),
        ("anti_auto_rational", lambda r: r.__setitem__("status", "undecided")),
        ("classify_pq", lambda r: r.__setitem__("status", "undecided")),
        ("classify_nonsplit_rounds0", lambda r: r.__setitem__("status", "undecided")),
        ("smith", lambda r: r.__setitem__("status", "undecided")),
        ("ideal_right", lambda r: r.__setitem__("status", "undecided")),
    ],
    ids=["anti_inv_found_undecided", "iso_undecided",
         "anti_auto_undecided", "classify_undecided", "classify_derived_undecided",
         "smith_undecided", "ideal_undecided"],
)
def test_verify_rejects_status_contradicting_result(tmp_path, name, edit):
    report = _golden_report(name)
    code, out = run_cli(tmp_path, "verify", report)
    assert code == 0  # the report as emitted verifies
    edit(report)
    code, out = run_cli(tmp_path, "verify", report)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "E_MISMATCH"
    assert "status does not match the result" in envelope["error"]["message"]


def _forge_p_only(report):
    # a self-consistent certificate for a module the input does not generate
    report["certificate"]["gcd_witness"] = "x^5"
    report["result"].update(type="P_ONLY", p="x^5", q=None, irreducible_on_standard=True)


def _forge_non_split(report):
    # the generators' own gcd, claimed with no derivation
    report["certificate"].update(gcd_witness="d*x^2 + d*x", derivation=[])
    report["result"]["rounds"] = 0


@pytest.mark.parametrize(
    "name,edit,code,message",
    [
        ("classify_pq", _forge_p_only, "E_MISMATCH", "witness is not the gcd"),
        ("classify_pq", lambda r: r["input"].__setitem__("generators", ["x^2 + 1"]),
         "E_MISMATCH", "witness is not the gcd"),
        ("classify_pq", lambda r: r["result"].__setitem__("irreducible_on_standard", True),
         "E_MISMATCH", "irreducible_on_standard differs"),
        ("classify_full_cap1",
         lambda r: r["result"].__setitem__("irreducible_on_standard", False),
         "E_MISMATCH", "irreducible_on_standard differs"),
        ("classify_pq", lambda r: r["result"].__setitem__("type", "PQR"), "E_PARSE", "PQR"),
        ("classify_p_only_nonsplit_gcd", _forge_non_split, "E_MISMATCH", "does not split"),
        ("classify_pq", lambda r: r["input"].__setitem__("generators", ["0"]),
         "E_DEGENERATE", "all generators are zero"),
        ("classify_p_only_nonsplit_gcd",
         lambda r: r["certificate"].update(derivation=[[-1, 0, 2]]),
         "E_MISMATCH", "not a generator"),
        # step 0 derives element 1; a step may not multiply it
        ("classify_p_only_nonsplit_gcd",
         lambda r: r["certificate"].update(derivation=[[0, 0, 2], [1, 1, 0]]),
         "E_MISMATCH", "step 1 names an element that is not a generator"),
        ("classify_p_only_nonsplit_gcd",
         lambda r: r["certificate"].update(derivation=[[0, 0]]),
         "E_PARSE", "derivation"),
        ("classify_p_only_nonsplit_gcd",
         lambda r: r["certificate"].update(derivation=[[0, 0, True]]),
         "E_PARSE", "derivation"),
        ("classify_pq", lambda r: r["result"].__setitem__("status", "x_free"),
         "E_MISMATCH", "status differs from the replayed derivation"),
    ],
    ids=["forged_p_only", "other_generator", "pq_irreducible", "full_reducible",
         "unknown_type", "non_split_witness", "zero_generators", "negative_index",
         "derived_element", "short_step", "bool_step", "x_free_status"],
)
def test_verify_checks_classification_against_input(tmp_path, name, edit, code, message):
    report = _golden_report(name)
    edit(report)
    exit_code, out = run_cli(tmp_path, "verify", report)
    envelope = json.loads(out)
    assert exit_code == 1
    assert envelope["error"]["code"] == code
    assert message in envelope["error"]["message"]


@pytest.mark.parametrize(
    "verb,payload,flags,edit,message",
    [
        ("oc-gens", {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": 1}, [],
         lambda r: r["certificate"].__setitem__("anti_fixed_verified", False),
         "certificate differs on recomputation"),
        ("iso", {"p": [["1"]], "q": [["2"]]}, [],
         lambda r: r["result"].__setitem__("alpha", "3"), "result differs on recomputation"),
        ("check-axioms", {"kind": "lie", "n": 1, "degree": 1}, ["--rounds", "1"],
         lambda r: r["result"].__setitem__("ok", 1), "result differs on recomputation"),
        # a search that succeeds at its recorded cap, reported as undecided
        ("anti-inv-search", {"p": [["x"]]}, ["--degree-cap", "0"],
         lambda r: r.update(status="undecided", result={"found": False}, certificate=None),
         "status does not match the result"),
        # found: false is recomputed whatever the status, and the search succeeds
        ("anti-inv-search", {"p": [["x"]]}, ["--degree-cap", "0"],
         lambda r: r["result"].__setitem__("found", False), "result differs on recomputation"),
    ],
    ids=["oc_gens_certificate", "iso_alpha", "axioms_ok_as_one", "anti_inv_false_undecided",
         "anti_inv_not_found_decided"],
)
def test_verify_recompute_compares_whole_report(tmp_path, verb, payload, flags, edit, message):
    code, out = run_cli(tmp_path, verb, payload, *flags)
    assert code == 0
    report = json.loads(out)
    edit(report)
    code, out = run_cli(tmp_path, "verify", report)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["error"]["code"] == "E_MISMATCH"
    assert message in envelope["error"]["message"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["nosuchverb"], "invalid choice: 'nosuchverb'"),
        (["smith", "--rounds", "abc"], "invalid int value: 'abc'"),
        (["smith", "--json", "--pretty"], "not allowed with argument"),
        ([], "required: verb"),
    ],
    ids=["unknown_verb", "non_integer_rounds", "json_and_pretty", "no_verb"],
)
def test_rejected_command_line_is_one_envelope(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    assert out.count("\n") == 1
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert envelope["result"] is None
    assert envelope["error"]["code"] == "E_PARSE"
    assert message in envelope["error"]["message"]


@pytest.mark.parametrize("mode", ["--json", "--pretty"])
def test_unwritable_output_is_one_envelope(tmp_path, capsys, monkeypatch, mode):
    outfile = tmp_path / "missing-dir" / "out.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"a": [["x"]], "b": [["1"]]}'))
    code = main(["product", "--out", str(outfile), mode])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    assert not outfile.exists()
    if mode == "--json":
        envelope = json.loads(out)
        assert out.count("\n") == 1
        assert envelope["status"] == "error"
        assert envelope["result"] is None
        assert envelope["error"]["code"] == "E_PARSE"
        assert str(outfile) in envelope["error"]["message"]
    else:
        assert out.startswith("product: error\n  error E_PARSE: cannot write output to ")
        assert str(outfile) in out


FUZZ_VALUES = [None, "", [], {}, 0, -1, "x"]
FUZZ_FIELDS = ["verb", "status", "budgets", "result", "certificate"]


@st.composite
def mutated_reports(draw, report):
    """``report`` with one field outside ``input`` deleted or swapped for junk."""
    report = copy.deepcopy(report)
    target, key = report, draw(st.sampled_from(FUZZ_FIELDS))
    if isinstance(report[key], dict) and report[key] and draw(st.booleans()):
        target, key = report[key], draw(st.sampled_from(sorted(report[key])))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(st.sampled_from(FUZZ_VALUES))
    return report


@pytest.mark.parametrize("path", VERIFY_CASES, ids=lambda p: p.stem)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verify_mutated_report_answers_one_envelope(path, data):
    report = json.loads(path.read_text(encoding="utf-8"))["payload"]
    text = json.dumps(data.draw(mutated_reports(report)))
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    start = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = main(["verify"])
    finally:
        sys.stdin = stdin
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)


def _run_stdin(verb, payload, *flags):
    """One in-process CLI call with ``payload`` on stdin: (exit code, envelope).

    The call must print exactly one line to stdout and nothing to stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([verb, *flags])
    finally:
        sys.stdin = stdin
    assert err.getvalue() == ""
    assert len(out.getvalue().splitlines()) == 1
    return code, json.loads(out.getvalue())


IDEAL_P = [[["1", "0"], ["0", "1"]], [["x", "1"], ["0", "1"]], [["1", "0"], ["x", "x - 1"]]]


@st.composite
def ideal_payloads(draw):
    """Generators Q * B_i (left) or Q(d+x) * B_i (right), Q 2 x 2 and not symmetric."""
    side = draw(st.sampled_from(["left", "right"]))
    t = MPoly.var("x") if side == "left" else MPoly.var("d") + MPoly.var("x")
    small = st.integers(-2, 2)
    q = [[draw(small) * t + draw(small) for _ in range(2)] for _ in range(2)]
    assume(q[0][1] != q[1][0])
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        b = CendElem([[draw(small) * MPoly.var("d") + draw(small) * MPoly.var("x") + draw(small)
                       for _ in range(2)] for _ in range(2)])
        gens.append(cend_to_json(CendElem(q) @ b))
    return {"side": side, "p": draw(st.sampled_from(IDEAL_P)), "gens": gens}


@settings(max_examples=30, deadline=None)
@given(payload=ideal_payloads())
def test_ideal_reports_verify_on_both_sides(payload):
    code, report = _run_stdin("ideal", payload)
    assert code == 0, report
    code, envelope = _run_stdin("verify", report)
    assert code == 0, envelope
    assert envelope["result"]["verified"] is True


def test_anti_inv_search_top_degree_cap(tmp_path):
    # Y = [[0, -1/3], [1/6, x]]: solved for, not enumerated, at every cap
    payload = {"p": [["3*x + 1", "1"], ["x^2 - 2*x - 1", "-2"]]}
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "anti-inv-search", payload, "--degree-cap", "16")
    assert time.perf_counter() - start < 5
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {"found": True, "epsilon": 1, "alpha": "-4"}


POLY_COEFFS = st.lists(st.integers(-3, 3), min_size=1, max_size=5)  # degree <= 4


def _poly(coeffs, var):
    return sum((var**k * c for k, c in enumerate(coeffs)), MPoly.zero())


@st.composite
def anti_inv_payloads(draw):
    """P with n <= 3 and entry degrees <= 4: random, or S + eps S^*(alpha) times a transvection.

    The second kind has an anti-automorphism, and the inverse transvection
    is an anti-involution matrix for it.
    """
    n = draw(st.integers(1, 3))
    x = MPoly.var("x")
    entries = [[draw(POLY_COEFFS) for _ in range(n)] for _ in range(n)]
    if n == 1 or draw(st.booleans()):
        return {"p": [[format_poly(_poly(c, x)) for c in row] for row in entries]}
    alpha, eps = draw(st.integers(-2, 2)), draw(st.sampled_from([1, -1]))
    s = [[MPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s[i][j] += _poly(entries[i][j][:4], x)
            s[j][i] += _poly(entries[i][j][:4], MPoly.const(alpha) - x).scale(eps)
    t = draw(st.integers(-2, 2)) * x + draw(st.integers(-2, 2))
    i, j = draw(st.permutations(range(n)))[:2]
    for row in s:  # P = S U with U = 1 + t E_ij: column j gains t times column i
        row[j] += t * row[i]
    return {"p": [[format_poly(e) for e in row] for row in s]}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=anti_inv_payloads(), cap=st.integers(0, 3))
def test_anti_inv_search_envelope_fuzz(payload, cap):
    code, report = _run_stdin("anti-inv-search", payload, "--degree-cap", str(cap))
    assert code in (0, 1, 2)
    assert report["status"] in ("decided", "undecided", "error")
    if report["status"] == "decided":
        code, envelope = _run_stdin("verify", report)
        assert code == 0, envelope
        assert envelope["result"]["verified"] is True


sys.path.insert(0, str(ROOT / "tests" / "golden"))
from make_golden import dense_4x4, dense_generator  # noqa: E402

DENSE_4X4, DENSE_4X4_16 = dense_4x4(4), dense_4x4(16)
DENSE_P = polymat_from_json(DENSE_4X4_16)


def dense_symbol(degree: int, seed: int) -> list[list[str]]:
    """A dense 4x4 symbol: each entry holds every monomial d^i x^j with
    i + j <= ``degree``, in order of i, then j; one
    ``random.Random(seed).randint(-3, 3)`` draws the coefficients entry by
    entry, and a draw of 0 is read as 1."""
    rng = random.Random(seed)
    return [[format_poly(MPoly({(i, j, 0, 0): rng.randint(-3, 3) or 1
                                for i in range(degree + 1) for j in range(degree + 1 - i)}))
             for _ in range(4)] for _ in range(4)]


@pytest.mark.parametrize(
    "verb,payload,flags",
    [
        ("smith", {"matrix": DENSE_4X4}, []),
        ("iso", {"p": DENSE_4X4, "q": DENSE_4X4}, []),
        ("anti-auto", {"p": DENSE_4X4}, []),
        ("anti-inv-search", {"p": DENSE_4X4}, ["--degree-cap", "2"]),
        # degree 16, the input limit; smith (about 5 s) stays out
        ("iso", {"p": DENSE_4X4_16, "q": DENSE_4X4_16}, []),
        ("anti-auto", {"p": DENSE_4X4_16}, []),
        ("anti-inv-search", {"p": DENSE_4X4_16}, ["--degree-cap", "2"]),
        # all 153 monomials of degree <= 16: the gcd with the l^1 part of
        # g * g is 1, which a pseudo-remainder sequence takes seconds to show
        ("classify-cend1", {"generators": [dense_generator(16)]}, []),
        # two dense symbols of degree 4 (seeds 3 and 4) under a dense P;
        # their right ideal takes 2-3 s and stays out until a reduction ahead
        # of the Hermite basis keeps the degrees down
        ("ideal", {"side": "left", "p": DENSE_4X4,
                   "gens": [dense_symbol(4, 3), dense_symbol(4, 4)]}, []),
        # two dense symbols of degree 16 (seeds 1 and 2), a 1.9 MB report;
        # each matrix product is one packed accumulation (3-4 s here)
        ("product", {"a": dense_symbol(16, 1), "b": dense_symbol(16, 2)}, []),
        ("bracket", {"a": dense_symbol(16, 1), "b": dense_symbol(16, 2)}, []),
        # the matrix products of the sampled checks under the dense P
        ("extension-build", {"p": DENSE_4X4_16, "kind": "jordan"}, ["--rounds", "1"]),
        ("check-axioms", {"kind": "module", "n": 4, "degree": 4, "p": DENSE_4X4_16,
                          "alphas": ["1"]}, ["--rounds", "1"]),
        # P + P(-x)^T has the symmetry oc-gens requires
        ("oc-gens", {"n": 4, "p": polymat_to_json(DENSE_P + star(DENSE_P)), "epsilon": 1,
                     "max_n": 16}, []),
    ],
)
def test_dense_4x4_ends_in_one_verified_envelope(verb, payload, flags):
    # every entry dense: coefficient growth in the Smith elimination shows here
    start = time.perf_counter()
    code, report = _run_stdin(verb, payload, *flags)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert report["status"] == "decided"
    code, envelope = _run_stdin("verify", report)
    assert code == 0, envelope
    assert envelope["result"]["verified"] is True


def test_cli_imports_no_private_names():
    tree = ast.parse((ROOT / "src" / "confalg" / "cli.py").read_text(encoding="utf-8"))
    modules = set()  # names bound to confalg modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("confalg")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(alias.name)
                if node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_readme_lists_every_verb_and_budget():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    verbs_text = readme.split("Verbs: ", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`([a-z0-9-]+)`", verbs_text)) == set(VERBS)
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0] in VERBS and cells[1].startswith("--"):
            keys = [k.replace("-", "_") for k in re.findall(r"--([a-z-]+)", cells[1])]
            table[cells[0]] = dict(zip(keys, map(int, cells[2].split(","))))
    assert table == {verb: row.budgets for verb, row in VERBS.items() if row.budgets}


def test_overlong_integer_literal_is_parse_error(tmp_path):
    entry = "x + " + "7" * 5000
    code, out = run_cli(tmp_path, "product", {"a": [[entry]], "b": [["1"]]})
    envelope = json.loads(out)
    assert code == 1
    assert envelope["error"]["code"] == "E_PARSE"
    assert "offset 4" in envelope["error"]["message"]


@pytest.mark.parametrize(
    "verb,payload,flags",
    [
        ("check-axioms", {"kind": "lie", "n": "abc", "degree": 2}, ("--rounds", "1")),
        ("check-axioms", {"kind": "lie", "n": 1, "degree": [2]}, ("--rounds", "1")),
        ("check-axioms", {"kind": "lie", "n": 1.7, "degree": 1}, ("--rounds", "1")),
        ("check-axioms", {"kind": "assoc", "n": True, "degree": 1}, ("--rounds", "1")),
        ("oc-gens", {"n": None, "p": [["1"]], "epsilon": 1, "max_n": 1}, ()),
        ("invariance-check", {"p": [["1"]], "epsilon": "one", "element": [["x"]]},
         ("--degree-cap", "2")),
    ],
)
def test_non_integer_payload_field_is_parse_error(tmp_path, verb, payload, flags):
    code, out = run_cli(tmp_path, verb, payload, *flags)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["error"]["code"] == "E_PARSE"


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_extension_build_rejects_no_rounds(tmp_path, rounds):
    payload = {"p": [["x - 2"]], "kind": "jordan"}
    code, out = run_cli(tmp_path, "extension-build", payload, "--rounds", rounds)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["result"] is None
    assert envelope["error"]["code"] == "E_PARSE"
