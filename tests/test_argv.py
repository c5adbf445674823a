"""The CLI's argv reader against argparse, its reference model."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import reference_fields
from confalg import cli
from confalg.cli import VERBS, main, read_command_line

ROOT = Path(__file__).resolve().parent.parent

LONG_FLAGS = ["--in", "--out", "--seed", "--degree-cap", "--rounds", "--json", "--pretty"]


def _prefixes(flags):
    """Each flag or a prefix of it that still names it alone (allow_abbrev)."""
    return st.sampled_from(flags).flatmap(lambda f: st.sampled_from([f[:k] for k in range(3, len(f) + 1)]))


verbs = st.sampled_from(sorted(VERBS) + ["nosuchverb", "", "Smith", "smit"])
values = st.one_of(
    st.integers(-300, 300).map(str),
    st.sampled_from(["abc", "", "1.5", "-1.5", " 7 ", "+3", "1_000", "0x10", "x y", "--x y",
                     "-", "-5", "--json", "--", "smith"]),
)
unknown = st.sampled_from(["--x", "-x", "---in", "--inx", "--=1", "-5x", "-x y"])


def _flag_value(flags, vals):
    """A flag and its value, apart or after = (argparse before Python 3.13
    reads a value of exactly -- after = as an empty list;
    test_double_dash_after_equals covers that form)."""
    apart = st.tuples(_prefixes(flags), vals).map(list)
    joined = st.tuples(_prefixes(flags), vals.filter(lambda v: v != "--")).map(
        lambda fv: [f"{fv[0]}={fv[1]}"]
    )
    return st.one_of(apart, joined)


# flags that argparse accepts, and anything else it may meet
good_pieces = st.one_of(
    _flag_value(["--seed", "--degree-cap", "--rounds"], st.integers(-300, 300).map(str)),
    _flag_value(["--in", "--out"], values),
    _prefixes(["--json"]).map(lambda f: [f]),
    _prefixes(["--pretty"]).map(lambda f: [f]),
)
odd_pieces = st.one_of(
    _flag_value(LONG_FLAGS, values),
    values.map(lambda v: [v]),
    unknown.map(lambda u: [u]),
    verbs.map(lambda v: [v]),
    st.just(["--"]),
)


@st.composite
def command_lines(draw, extra=None):
    """argv as pieces in any order: a verb, flags with their values apart or
    after =, mode switches, and some pieces a stray value, an unknown
    option, another verb, -- or one of ``extra``."""
    odd = odd_pieces if extra is None else st.one_of(odd_pieces, extra.map(lambda e: [e]))
    pieces = st.integers(0, 3).flatmap(lambda k: odd if k == 0 else good_pieces)
    drawn = draw(st.lists(pieces, max_size=5))
    if draw(st.integers(0, 9)):  # usually a verb, at any place
        drawn.insert(draw(st.integers(0, len(drawn))), [draw(verbs)])
    return [arg for piece in drawn for arg in piece]


def read(argv):
    """The reader's answer in the reference's terms."""
    try:
        fields = read_command_line(argv)
    except cli.AppError as exc:
        assert exc.code == cli.E_PARSE
        assert exc.message.startswith("command line: ")
        return "rejected"
    return "help" if fields is None else fields


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_reader_agrees_with_argparse(argv):
    assert read(argv) == reference_fields(argv)


# Python 3.13's argparse answers help for -hx before it rejects the x, where
# 3.10 to 3.12 reject it first; the reader does as they do
HELP_FLAGS = ["-h", "--help", "--he", "--h", "-hh", "--help=x", "-h="]
if sys.version_info < (3, 13):
    HELP_FLAGS.append("-hx")


@settings(max_examples=300, deadline=None)
@given(command_lines(st.sampled_from(HELP_FLAGS)))
def test_help_is_read_where_argparse_reads_it(argv):
    assert read(argv) == reference_fields(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["smith", "--deg", "3", "--seed=-4", "--r", "-2", "--pretty"],
        ["--in", "-", "--", "smith"],
        ["smith", "--", "--json"],
        ["smith", "--json", "--json", "--seed", "1", "--seed", "2"],
        ["smith", "--in", "--x y"],
        ["--=1", "smith"],
        ["smith", "--seed", "--json"],
    ],
    ids=["prefix_equals_negative", "separator_before_verb", "flag_after_separator",
         "last_repeat_wins", "value_with_space", "ambiguous_prefix", "missing_value"],
)
def test_reader_agrees_on_examples(argv):
    assert read(argv) == reference_fields(argv)


def test_double_dash_after_equals():
    """--in=-- and --out=-- name the file --, and --seed=-- is not an int, as
    in Python 3.13's argparse; 3.10 to 3.12 read each as an empty list, which
    made main end in a traceback on --out=--."""
    argvs = [["smith", "--in=--", "--out=--"], ["smith", "--seed=--"]]
    assert read(argvs[0])["infile"] == read(argvs[0])["outfile"] == "--"
    assert read(argvs[1]) == "rejected"
    if sys.version_info >= (3, 13):
        assert [read(argv) for argv in argvs] == [reference_fields(argv) for argv in argvs]


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_usage_and_returns_zero(capsys, flag):
    code = main([flag])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert not out.startswith("{")
    listed = out.split("verbs:\n", 1)[1].split("\n\n", 1)[0].split()
    assert listed == sorted(VERBS)
    assert len(listed) == 15


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["confalg", "product", "--seed=7"])
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"a": [["x"]], "b": [["1"]]}'))
    assert main() == 0
    envelope = json.loads(capsys.readouterr().out)
    assert (envelope["verb"], envelope["budgets"]["seed"]) == ("product", 7)


def test_importing_the_cli_skips_argparse():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, confalg.cli; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
