"""Replay the golden CLI corpus: every envelope must come back byte for byte."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402
from make_golden import run_case  # noqa: E402

CASES = sorted(GOLDEN.glob("*/*.json"))


def test_corpus_covers_every_verb():
    from confalg.cli import _HANDLERS

    counts = {verb: 0 for verb in _HANDLERS}
    for path in CASES:
        counts[path.parent.name] += 1
    assert all(n >= 2 for n in counts.values()), counts


def test_corpus_verifies_every_verifiable_verb():
    from confalg.cli import _HANDLERS

    replayed = {
        json.loads(path.read_text(encoding="utf-8"))["payload"]["verb"]
        for path in CASES
        if path.parent.name == "verify"
    }
    verifiable = set(_HANDLERS) - {"verify"}
    assert verifiable <= replayed, sorted(verifiable - replayed)


def test_listed_cases_match_the_files():
    # a listed case whose file was never written would never be replayed
    listed = [f"{verb}/{name}" for verb, name, _, _ in make_golden.CASES]
    listed += [f"verify/{name}" for name, _, _ in make_golden.VERIFY_CASES]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(f"{p.parent.name}/{p.stem}" for p in CASES)


def test_forged_reports_are_rejected():
    # a regeneration must never record a forged report as verified
    forged = [p for p in CASES if p.parent.name == "verify"
              and p.stem.startswith(("forged_", "tampered_"))]
    assert forged
    for path in forged:
        case = json.loads(path.read_text(encoding="utf-8"))
        assert case["exit"] == 1, path.stem
        assert json.loads(case["envelope"])["error"]["code"] == "E_MISMATCH", path.stem


@pytest.mark.parametrize("path", CASES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_golden_case(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    code, text = run_case(case["verb"], case["payload"], case["flags"])
    assert text == case["envelope"]
    assert code == case["exit"]
