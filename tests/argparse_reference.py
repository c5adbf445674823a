"""The argparse parser the CLI used before its table-driven reader.

A reference model for ``confalg.cli.read_command_line``: ``reference_fields``
reads argv with it and gives the same fields, "help", or "rejected".
"""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stdout
from typing import Any

from confalg.cli import DEFAULT_SEED, VERBS


class _Rejected(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _Rejected(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="confalg",
        description="Exact symbolic kernel for conformal endomorphism algebras.",
    )
    parser.add_argument("verb", choices=sorted(VERBS))
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


_PARSER = build_parser()


def reference_fields(argv: list[str]) -> dict[str, Any] | str:
    try:
        with redirect_stdout(io.StringIO()):
            return vars(_PARSER.parse_args(argv))
    except _Rejected:
        return "rejected"
    except SystemExit as exc:  # help prints its text and exits 0
        assert exc.code == 0
        return "help"
