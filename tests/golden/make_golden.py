"""Write the golden CLI corpus: ``tests/golden/<verb>/<case>.json``.

Each case file holds the verb, the payload, the command-line flags (budgets
and seed included) and the exact envelope text and exit code that
``confalg.cli.main`` produced for them.  ``tests/test_golden.py`` replays
every case and demands the same bytes, so a refactor or kernel change that
alters any report shows up as a failing case.

Run from the repository root, only to add cases, never to paper over a
difference a code change introduced.  Cases whose file already exists are
left as they are, so a run writes only the cases added to the lists below:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from confalg.cli import main
from confalg.grammar import format_poly, format_upoly
from confalg.poly import MPoly, UPoly

GOLDEN = Path(__file__).resolve().parent

R1 = ("--rounds", "1")


def run_case(verb: str, payload, flags) -> tuple[int, str]:
    """Run one CLI call in-process with the payload on stdin."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out):
            code = main([verb, *flags])
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def dense_4x4(degree: int) -> list[list[str]]:
    """A dense 4x4 payload matrix: every entry has degree ``degree``, its
    coefficients drawn from ``random.Random(0).randint(-3, 3)`` row by row,
    entry by entry, constant term first."""
    rng = random.Random(0)
    return [[format_upoly(UPoly(tuple(rng.randint(-3, 3) for _ in range(degree + 1))))
             for _ in range(4)] for _ in range(4)]


def dense_generator(degree: int) -> str:
    """A dense classify-cend1 generator: every monomial d^i x^j with
    i + j <= ``degree``, its coefficient drawn from
    ``random.Random(0).randint(1, 3)`` in order of i, then j."""
    rng = random.Random(0)
    return format_poly(MPoly({(i, j, 0, 0): rng.randint(1, 3)
                              for i in range(degree + 1) for j in range(degree + 1 - i)}))


def rational_3x3(seed: int) -> list[list[str]]:
    """A 3x3 symbol whose entries hold every monomial d^i x^j with i + j <= 3
    over a denominator of their own, 2 to 10 in row-major order; the
    numerators are ``random.Random(seed).randint(-9, 9)`` (0 read as 1) in
    order of i, then j."""
    rng = random.Random(seed)
    return [[format_poly(MPoly({(i, j, 0, 0): Fraction(rng.randint(-9, 9) or 1, 3 * r + c + 2)
                                for i in range(4) for j in range(4 - i)}))
             for c in range(3)] for r in range(3)]


# (verb, case name, payload, flags)
CASES: list[tuple[str, str, object, tuple[str, ...]]] = [
    ("product", "scalar_x_one", {"a": [["x"]], "b": [["1"]]}, ()),
    ("product", "rational_1x1",
     {"a": [["1/2*x + 2/3*d"]], "b": [["3/4*x^2 - 1/5"]]}, ()),
    ("product", "rational_2x2",
     {"a": [["x", "1/3"], ["d - 2", "x^2"]], "b": [["1", "-1/2*x"], ["d*x", "7"]]}, ()),
    ("product", "parse_error", {"a": [["x^"]], "b": [["1"]]}, ()),
    # 3 x 3 x 3 products of ten-term entries: above the work at which a matrix
    # product is one packed accumulation instead of one dot per entry
    ("product", "packed_3x3_rational", {"a": rational_3x3(1), "b": rational_3x3(2)}, ()),
    ("bracket", "virasoro", {"a": [["x"]], "b": [["x"]]}, ()),
    ("bracket", "rational_2x2",
     {"a": [["1/2*x", "d"], ["0", "x - 1/3"]], "b": [["x^2", "1"], ["-2/5", "d + x"]]}, ()),
    ("bracket", "size_mismatch", {"a": [["x"]], "b": [["1", "0"], ["0", "1"]]}, ()),
    ("check-axioms", "lie", {"kind": "lie", "n": 2, "degree": 2}, R1),
    ("check-axioms", "assoc", {"kind": "assoc", "n": 2, "degree": 2}, R1),
    ("check-axioms", "module",
     {"kind": "module", "n": 2, "degree": 2, "p": [["x - 1", "0"], ["0", "x + 2"]],
      "alphas": ["1/2"]}, R1),
    ("check-axioms", "lie_seeded", {"kind": "lie", "n": 1, "degree": 3},
     ("--rounds", "2", "--seed", "7")),
    ("check-axioms", "missing_rounds", {"kind": "lie", "n": 1, "degree": 1}, ()),
    ("check-axioms", "unknown_kind", {"kind": "jordan", "n": 1}, R1),
    # P must be n x n: smaller and larger are both refused
    ("check-axioms", "module_p_too_small",
     {"kind": "module", "n": 2, "degree": 1, "p": [["x"]]}, R1),
    ("check-axioms", "module_p_too_large",
     {"kind": "module", "n": 1, "degree": 1, "p": [["x", "0"], ["0", "x"]]}, R1),
    ("smith", "identity", {"matrix": [["1", "0"], ["0", "1"]]}, ()),
    ("smith", "poly_3x3",
     {"matrix": [["x", "1", "0"], ["0", "x^2 - 1", "x"], ["1/2", "0", "x + 3"]]}, ()),
    ("smith", "non_square", {"matrix": [["x", "1"]]}, ()),
    ("iso", "shift", {"p": [["x"]], "q": [["x + 5"]]}, ()),
    ("iso", "not_isomorphic", {"p": [["x"]], "q": [["x^2"]]}, ()),
    ("iso", "degenerate", {"p": [["0"]], "q": [["x"]]}, ()),
    ("anti-auto", "exists", {"p": [["x - 1"]]}, ()),
    ("anti-auto", "absent", {"p": [["1", "0"], ["0", "x^3 - 4*x^2 + 3*x"]]}, ()),
    ("anti-inv-search", "found", {"p": [["x"]]}, ("--degree-cap", "0")),
    # det roots {0, 0, 1} cannot be mirrored: no anti-automorphism, a decided absence
    ("anti-inv-search", "absent", {"p": [["x", "0"], ["0", "x^2 - x"]]},
     ("--degree-cap", "0")),
    # an anti-automorphism exists (shift -4), but no unimodular Y of degree 0
    ("anti-inv-search", "undecided", {"p": [["3*x + 1", "1"], ["x^2 - 2*x - 1", "-2"]]},
     ("--degree-cap", "0")),
    # the same P at cap 1: Y needs coefficients outside {0, 1, -1}
    ("anti-inv-search", "outside_grid", {"p": [["3*x + 1", "1"], ["x^2 - 2*x - 1", "-2"]]},
     ("--degree-cap", "1")),
    ("ideal", "left", {"side": "left", "p": [["1"]], "gens": [[["x^2 - 1"]], [["x^2 + x"]]]}, ()),
    ("ideal", "right", {"side": "right", "p": [["x"]], "gens": [[["d*x + x^2"]]]}, ()),
    ("classify-cend1", "cpartial", {"generators": ["d + 1", "d^2 - 1"]}, ("--rounds", "12")),
    ("classify-cend1", "p_only", {"generators": ["x^2"]}, ("--rounds", "12")),
    ("classify-cend1", "q_only",
     {"generators": ["d + x - 1", "d^2 + d*x - d"]}, ("--rounds", "12")),
    ("classify-cend1", "pq", {"generators": ["d*x + x^2 + 2*x"]}, ("--rounds", "12")),
    ("classify-cend1", "full", {"generators": ["x - 1", "d + 2"]}, ("--rounds", "12")),
    ("classify-cend1", "budget", {"generators": ["x", "d"]}, ("--rounds", "0")),
    ("classify-cend1", "pretty", ["x^2"], ("--pretty",)),
    ("extension-build", "factorization",
     {"p": [["x^2"]], "kind": "factorization", "r": [["x"]], "s": [["x"]], "alpha": "0"}, R1),
    ("extension-build", "jordan", {"p": [["x - 2"]], "kind": "jordan", "gamma": "1/2"}, R1),
    ("oc-gens", "orthogonal", {"n": 1, "p": [["1"]], "epsilon": 1, "max_n": 1}, ()),
    ("oc-gens", "symplectic",
     {"n": 2, "p": [["0", "1"], ["-1", "0"]], "epsilon": -1, "max_n": 1}, ()),
    # a given --degree-cap is validated and echoed, and changes nothing
    ("invariance-check", "invariant", {"p": [["1"]], "epsilon": 1, "element": [["2*x + d"]]},
     ("--degree-cap", "2")),
    ("invariance-check", "not_invariant", {"p": [["1"]], "epsilon": 1, "element": [["x"]]}, ()),
    ("irreducibility-probe", "irreducible",
     {"p": [["x"]], "gens": [[["1"]], [["x"]], [["d"]]], "start": ["1"], "alpha": "0"},
     ("--degree-cap", "4", "--rounds", "6")),
    ("irreducibility-probe", "reducible",
     {"p": [["x"]], "gens": [[["1"]]], "start": ["1"]}, ("--degree-cap", "4", "--rounds", "6")),
    ("unital-probe", "cend_n",
     {"gens": [[["1", "0"], ["0", "1"]], [["x", "0"], ["0", "0"]]]}, ()),
    ("unital-probe", "scalar", {"gens": [[["1"]], [["x"]]]}, ()),
    # coefficient matrices E_11 and the cyclic shift generate all of Mat_3
    ("unital-probe", "mat_3",
     {"gens": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               [["d", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]]}, ()),
    # rational, non-monic entries: UPoly arithmetic with denominators
    ("classify-cend1", "q_rational_root", {"generators": ["d + x - 1/3"]},
     ("--degree-cap", "4", "--rounds", "12")),
    ("classify-cend1", "pq_rational",
     {"generators": ["2/3*d*x + 2/3*x^2 - 1/2*x"]}, ("--degree-cap", "4", "--rounds", "12")),
    ("classify-cend1", "full_rational", {"generators": ["3*x - 1", "2*d + 2*x - 1"]},
     ("--degree-cap", "4", "--rounds", "12")),
    ("iso", "rational_shift", {"p": [["1/2*x^2 - 1/3"]], "q": [["1/2*x^2 + x + 1/6"]]}, ()),
    ("iso", "rational_2x2",
     {"p": [["2/3*x - 1/5", "0"], ["0", "3/4*x^2"]],
      "q": [["3/4*x^2 + 3/2*x + 3/4", "0"], ["0", "2/3*x + 7/15"]]}, ()),
    ("iso", "rational_not_isomorphic", {"p": [["1/2*x^2 - 1/3"]], "q": [["1/3*x^2 - 1/2"]]}, ()),
    ("anti-auto", "rational_exists", {"p": [["2/3*x - 1/5"]]}, ()),
    ("anti-auto", "rational_absent", {"p": [["1/2*x^2 - 1/3*x", "1/5"], ["0", "3/7*x + 1"]]}, ()),
    ("ideal", "rational_left",
     {"side": "left", "p": [["1/3*x", "0"], ["1", "1/2*x - 1"]],
      "gens": [[["1/3*x^2 - 1", "2/3"], ["0", "x"]], [["1/2*d", "0"], ["1/5", "x^2 + 1/3"]]]}, ()),
    ("ideal", "rational_right",
     {"side": "right", "p": [["2/3*x - 1/3"]], "gens": [[["1/3*d*x + 1/2"]], [["3/2*x^2 - 1/3"]]]},
     ()),
    ("smith", "rational_2x2",
     {"matrix": [["2/3*x - 1/2", "1/3*x^2"], ["1/5", "3/4*x + 1/7"]]}, ()),
    ("unital-probe", "rational_cur_n",
     {"gens": [[["1", "0"], ["0", "1"]], [["1/2*d + 1/3", "2/5"], ["0", "2/3*d"]]]}, ()),
    ("unital-probe", "rational_scalar", {"gens": [[["1"]], [["2/3*d - 1/2"]]]}, ()),
    # given budget flags are validated and echoed, and change nothing
    ("classify-cend1", "budget_one_round", {"generators": ["x - 1", "d + 2"]},
     ("--rounds", "1")),
    ("classify-cend1", "budget_two_rounds", {"generators": ["x^2"]}, ("--rounds", "2")),
    ("classify-cend1", "full_cap1", {"generators": ["x - 1", "d + 2"]},
     ("--degree-cap", "1", "--rounds", "12")),
    ("classify-cend1", "full_cap2", {"generators": ["x - 1", "d + 2"]},
     ("--degree-cap", "2", "--rounds", "12")),
    ("classify-cend1", "pq_cap3", {"generators": ["d*x + x^2 + 2*x"]},
     ("--degree-cap", "3", "--rounds", "12")),
    # given budget flags are validated and echoed, and change nothing
    ("unital-probe", "budget", {"gens": [[["1", "0"], ["0", "1"]], [["d", "1"], ["0", "0"]]]},
     ("--degree-cap", "8", "--rounds", "1")),
    # given budget flags are validated and echoed, and change nothing: the rows
    # above the old cap of 1 are offered like any other
    ("irreducibility-probe", "cap_skipped_two_rounds",
     {"p": [["1", "0"], ["0", "1"]], "gens": [[["0", "x"], ["d", "x^3"]]],
      "start": ["d^2", "0"]}, ("--degree-cap", "1", "--rounds", "4")),
    ("irreducibility-probe", "cap_skipped_one_round",
     {"p": [["1", "0"], ["0", "1"]], "gens": [[["x^3", "0"], ["d", "x"]]],
      "start": ["1", "0"]}, ("--degree-cap", "1", "--rounds", "4")),
    # the generators' gcd d*x*(x + 1) does not split; the closure's is x*(x + 1)
    ("classify-cend1", "p_only_nonsplit_gcd", {"generators": ["d*x^2 + d*x"]},
     ("--rounds", "12")),
    # the same generator under budget flags that the derivation ignores
    ("classify-cend1", "nonsplit_rounds0", {"generators": ["d*x^2 + d*x"]},
     ("--degree-cap", "1", "--rounds", "0")),
    ("classify-cend1", "nonsplit_cap1", {"generators": ["d*x^2 + d*x"]},
     ("--degree-cap", "1", "--rounds", "12")),
    # Q(d+x) with Q not symmetric: the right Hermite rows are Q's columns
    ("ideal", "right_2x2",
     {"side": "right", "p": [["1", "0"], ["0", "1"]],
      "gens": [[["d + x", "0"], ["1", "d + x - 1"]]]}, ()),
    ("ideal", "right_zero", {"side": "right", "p": [["x"]], "gens": [[["0"]]]}, ()),
    # no budget flags; gcd (2d - x)(2d + x), which the l^1 part of g * g lowers to 1
    ("classify-cend1", "full_mixed_factors", {"generators": ["4*d^2 - x^2"]}, ()),
    # E12, E23, E34 carry e4 to e3, e2 and e1, one link per round
    ("irreducibility-probe", "chain",
     {"p": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "1"]],
      "gens": [[["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"]],
               [["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"],
                ["0", "0", "0", "0"]],
               [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"],
                ["0", "0", "0", "0"]]],
      "start": ["0", "0", "0", "1"]}, ()),
    ("irreducibility-probe", "proper_invariant",
     {"p": [["1", "0"], ["0", "1"]], "gens": [[["1", "0"], ["0", "0"]]], "start": ["1", "0"]},
     ()),
    # x E11 against the symplectic form J: only the mixed unit pairs fail
    ("invariance-check", "symplectic_2x2",
     {"p": [["0", "1"], ["-1", "0"]], "epsilon": -1, "element": [["x", "0"], ["0", "0"]]}, ()),
    # dense input, whose coefficients a plain Euclidean elimination blows up
    ("smith", "dense_4x4", {"matrix": dense_4x4(4)}, ()),
    ("anti-auto", "dense_4x4", {"p": dense_4x4(4)}, ()),
    # a dense generator of degree 16, the input limit: its gcd with the l^1
    # part of g * g is 1, which one evaluation at x = 0 proves
    ("classify-cend1", "dense_16", {"generators": [dense_generator(16)]}, ()),
    # three pivots: a Hermite reduction run from the rightmost pivot leaves
    # -x^2 above the last one
    ("ideal", "left_3x3_hermite",
     {"side": "left", "p": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      "gens": [[["0", "0", "x^2"], ["0", "1", "x"], ["1", "x", "0"]]]}, ()),
    # det P = 0: every action is zero, so an answer would be vacuous
    ("invariance-check", "degenerate", {"p": [["0"]], "epsilon": 1, "element": [["x"]]}, ()),
    ("check-axioms", "module_degenerate",
     {"kind": "module", "n": 1, "degree": 1, "p": [["0"]]}, R1),
    ("extension-build", "degenerate", {"p": [["0"]], "kind": "jordan"}, R1),
    ("irreducibility-probe", "degenerate",
     {"p": [["0"]], "gens": [[["1"]]], "start": ["1"]}, ()),
]


def _forge_witness_one(report):
    # witness 1 divides everything and splits as FULL: only the gcd of the
    # generators shows it is too small
    report["certificate"]["gcd_witness"] = "1"
    report["result"].update(type="FULL", p="1", q=None, irreducible_on_standard=True)


def _forge_cpartial(report):
    # an x-free result, for generators that use x
    report["result"].update(type="CPARTIAL", p=None, q=None, status="x_free")


def _forge_rounds(report):
    report["result"]["rounds"] += 1


def _forge_undecided(report):
    report.update(status="undecided", result={"rounds": 0, "status": "budget_exhausted"})
    report["certificate"].update(derivation=[], gcd_witness="d*x^2 + d*x")


# (case name, verb and case name of the report to verify, edit applied to it)
VERIFY_CASES = [
    ("smith", ("smith", "poly_3x3"), None),
    ("iso", ("iso", "shift"), None),
    ("ideal_right", ("ideal", "right"), None),
    ("classify_pq", ("classify-cend1", "pq"), None),
    ("check_axioms_module", ("check-axioms", "module"), None),
    # n = 1 under the 2 x 2 P: a recomputation must refuse the sizes
    ("forged_check_axioms_module_size", ("check-axioms", "module"),
     lambda r: r["input"].update(n=1)),
    ("product_rational", ("product", "rational_2x2"), None),
    ("product_packed_3x3_rational", ("product", "packed_3x3_rational"), None),
    ("tampered_smith", ("smith", "poly_3x3"),
     lambda r: r["result"].__setitem__("divisors", ["1", "1", "x^2 + 1"])),
    ("classify_q_rational_root", ("classify-cend1", "q_rational_root"), None),
    ("classify_pq_rational", ("classify-cend1", "pq_rational"), None),
    ("iso_rational_2x2", ("iso", "rational_2x2"), None),
    ("anti_auto_rational", ("anti-auto", "rational_exists"), None),
    ("ideal_rational_left", ("ideal", "rational_left"), None),
    ("ideal_rational_right", ("ideal", "rational_right"), None),
    ("smith_rational", ("smith", "rational_2x2"), None),
    ("unital_probe_rational", ("unital-probe", "rational_cur_n"), None),
    ("bracket", ("bracket", "virasoro"), None),
    ("anti_inv_search", ("anti-inv-search", "found"), None),
    ("extension_build", ("extension-build", "jordan"), None),
    ("oc_gens", ("oc-gens", "symplectic"), None),
    ("invariance_check", ("invariance-check", "invariant"), None),
    ("irreducibility_probe", ("irreducibility-probe", "irreducible"), None),
    ("classify_full_cap1", ("classify-cend1", "full_cap1"), None),
    ("classify_full_cap2", ("classify-cend1", "full_cap2"), None),
    ("classify_pq_cap3", ("classify-cend1", "pq_cap3"), None),
    ("unital_probe_budget", ("unital-probe", "budget"), None),
    ("anti_inv_search_absent", ("anti-inv-search", "absent"), None),
    ("anti_inv_search_outside_grid", ("anti-inv-search", "outside_grid"), None),
    ("classify_budget_one_round", ("classify-cend1", "budget_one_round"), None),
    # forged classifications, each consistent with the witness alone; and an
    # honest report whose derivation has one step
    ("forged_pq_as_full", ("classify-cend1", "pq"),
     lambda r: r["result"].update(type="FULL", irreducible_on_standard=True)),
    ("forged_pq_non_monic", ("classify-cend1", "pq"),
     lambda r: r["result"].update(p="2*x", q="1/2*z + 1")),
    ("forged_full_as_cpartial", ("classify-cend1", "full"), _forge_cpartial),
    ("forged_pq_witness_one", ("classify-cend1", "pq"), _forge_witness_one),
    ("classify_p_only_nonsplit_gcd", ("classify-cend1", "p_only_nonsplit_gcd"), None),
    # the derivation [[0, 0, 2]]: the l^2 part of the generator times itself
    # lowers the gcd to x^2 + x, which splits
    ("classify_nonsplit_rounds0", ("classify-cend1", "nonsplit_rounds0"), None),
    ("forged_rounds", ("classify-cend1", "p_only_nonsplit_gcd"), _forge_rounds),
    ("forged_derivation_index", ("classify-cend1", "p_only_nonsplit_gcd"),
     lambda r: r["certificate"].update(derivation=[[0, 1, 2]])),
    ("forged_witness_not_gcd", ("classify-cend1", "p_only_nonsplit_gcd"),
     lambda r: (r["certificate"].update(gcd_witness="x"), r["result"].update(p="x"))),
    # the l^1 part is divisible by the generators' gcd
    ("forged_step_not_lowering", ("classify-cend1", "p_only_nonsplit_gcd"),
     lambda r: r["certificate"].update(derivation=[[0, 0, 1], [0, 0, 2]])),
    # every classification is decided: the budget-exhausted shape of the old
    # capped search contradicts its status
    ("forged_classify_undecided_witness", ("classify-cend1", "nonsplit_rounds0"),
     _forge_undecided),
    # a two-round derivation, which multiplies the derived element 1: each
    # step lowers the gcd, to d - x/2 and then to 1, but steps name generators only
    ("forged_derivation_derived_element", ("classify-cend1", "full_mixed_factors"),
     lambda r: (r["certificate"].update(derivation=[[0, 0, 3], [1, 0, 1]]),
                r["result"].update(rounds=2))),
    ("ideal_right_2x2", ("ideal", "right_2x2"), None),
    ("forged_ideal_right_generator", ("ideal", "right"),
     lambda r: r["result"].__setitem__("generator", [["z + 7"]])),
    # 2*x + 2 spans the same module as x + 1 and the multipliers reach it,
    # but it is not monic, so not the Hermite form
    ("forged_ideal_noncanonical", ("ideal", "left"),
     lambda r: (r["result"].__setitem__("generator", [["2*x + 2"]]),
                r["certificate"].update(hermite=[["2*x + 2"]], multipliers=[["-2", "2"]]))),
    # recomputed verbs: a forged certificate under an honest result
    ("forged_irreducibility_basis", ("irreducibility-probe", "irreducible"),
     lambda r: r["certificate"].__setitem__("basis", [["7"]])),
    ("forged_extension_alpha", ("extension-build", "jordan"),
     lambda r: r["certificate"].__setitem__("alpha", "99")),
    ("forged_iso_certificate", ("iso", "shift"),
     lambda r: r["certificate"].__setitem__("divisors_left", ["x^7"])),
    ("forged_anti_auto_certificate", ("anti-auto", "rational_exists"),
     lambda r: r["certificate"].__setitem__("divisors_reflected", ["1"])),
    ("smith_dense_4x4", ("smith", "dense_4x4"), None),
    ("classify_dense_16", ("classify-cend1", "dense_16"), None),
    ("ideal_left_3x3_hermite", ("ideal", "left_3x3_hermite"), None),
]


def write_case(verb: str, name: str, payload, flags) -> str:
    """Write one case unless its file exists; return its envelope text.

    An existing case is never rewritten: its stored envelope is returned."""
    path = GOLDEN / verb / f"{name}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))["envelope"]
    code, text = run_case(verb, payload, flags)
    case = {"verb": verb, "flags": list(flags), "payload": payload,
            "exit": code, "envelope": text}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{verb}/{name}: exit {code}")
    return text


def write_corpus() -> None:
    envelopes = {}
    for verb, name, payload, flags in CASES:
        envelopes[(verb, name)] = write_case(verb, name, payload, flags)
    for name, source, edit in VERIFY_CASES:
        report = json.loads(envelopes[source])
        if edit is not None:
            edit(report)
        write_case("verify", name, report, ())


if __name__ == "__main__":
    write_corpus()
