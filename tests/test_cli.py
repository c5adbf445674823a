"""CLI: payload parsing, reports, determinism, exit codes, verification."""

from __future__ import annotations

import json

import pytest

from confalg.cli import main


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
    assert report["result"]["status"] == "stabilized"
    assert report["result"]["irreducible_on_standard"] is True


def test_classify_budget_exhaustion_exit_code(tmp_path):
    code, out = run_cli(
        tmp_path, "classify-cend1", {"generators": ["x", "d"]}, "--rounds", "0"
    )
    report = json.loads(out)
    assert code == 2
    assert report["status"] == "undecided"
    assert report["error"]["code"] == "E_BUDGET"


def test_machine_mode_requires_budgets(tmp_path):
    code, out = run_cli(tmp_path, "classify-cend1", {"generators": ["x^2"]})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_PARSE"


def test_pretty_mode_applies_defaults(tmp_path):
    code, out = run_cli(
        tmp_path, "classify-cend1", {"generators": ["x^2"]}, "--pretty"
    )
    assert code == 0
    assert "type: P_ONLY" in out


def test_parse_error_reported(tmp_path):
    code, out = run_cli(tmp_path, "product", {"a": [["x^"]], "b": [["1"]]})
    report = json.loads(out)
    assert code == 1
    assert report["error"]["code"] == "E_PARSE"
    assert "offset 2" in report["error"]["message"]


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


def test_determinism_byte_identical(tmp_path):
    payload = {"p": [["1", "0"], ["0", "x"]], "q": [["0", "1"], ["x", "0"]]}
    _, first = run_cli(tmp_path, "iso", payload)
    _, second = run_cli(tmp_path, "iso", payload)
    assert first == second


def test_anti_inv_search_undecided_exit(tmp_path):
    payload = {"p": [["x", "0"], ["0", "x^2 - x"]]}
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
    code, out = run_cli(
        tmp_path, "unital-probe", payload, "--degree-cap", "4", "--rounds", "4"
    )
    report = json.loads(out)
    assert code == 0
    assert report["result"]["outcome"] == "cend_n"


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


def test_verify_without_budgets_is_parse_error(tmp_path):
    report = {"verb": "product", "input": {"a": [["x"]], "b": [["1"]]},
              "result": {}, "status": "decided"}
    code, out = run_cli(tmp_path, "verify", report)
    envelope = json.loads(out)
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "E_PARSE"
    assert "budgets" in envelope["error"]["message"]


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
