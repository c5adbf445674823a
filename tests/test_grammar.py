"""Grammar: parsing, canonical printing, position-reported errors."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confalg import grammar
from confalg.grammar import ParseError, format_poly, format_upoly, parse_poly
from confalg.poly import MAX_EXP, VARS, Exponent, ExponentOverflowError, MPoly, UPoly
from poly_helpers import upoly_from_mpoly

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")


def test_two_term_polynomial():
    p = parse_poly("x^2 + 1/2*d")
    assert p == X**2 + D.scale(Fraction(1, 2))


def test_example_round_trip():
    text = "2*x + d - 1/2*l^2"
    p = parse_poly(text)
    printed = format_poly(p)
    assert parse_poly(printed) == p
    assert format_poly(parse_poly(printed)) == printed


def test_whitespace_insignificant():
    assert parse_poly(" 2 * x ^ 2 ") == parse_poly("2*x^2")


def test_monomial_products():
    assert parse_poly("x*x") == X**2
    assert parse_poly("3*d*x^2") == D * X**2 * 3


def test_leading_minus():
    assert parse_poly("-x + 1") == MPoly.const(1) - X


def test_rational_coefficients():
    assert parse_poly("7/3") == MPoly.const(Fraction(7, 3))


def test_zero():
    assert parse_poly("0") == MPoly.zero()
    assert format_poly(MPoly.zero()) == "0"


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_poly("x^")
    assert err.value.position == 2


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x + y")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        terms = {
            (
                rng.randint(0, 3),
                rng.randint(0, 3),
                rng.randint(0, 2),
                rng.randint(0, 2),
            ): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, 6))
        }
        p = MPoly(terms)
        assert parse_poly(format_poly(p)) == p


def test_format_upoly_foreign_tag():
    q = UPoly((0, 0, 0, 1), "z")
    assert format_upoly(q) == "z^3"


# Reference model: the character-at-a-time scanner and the Fraction-based
# printer that the one-pass parser and the integer printer replaced, kept as
# they were apart from the ``ref_`` names and a local sorted_terms.


class _RefScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # e.g. more digits than int() accepts
            raise ParseError(f"invalid integer literal: {exc}", start) from exc


def ref_parse_poly(text: str) -> MPoly:
    sc = _RefScanner(text)
    result = MPoly.zero()
    sign = 1
    ch = sc.peek()
    if ch is None:
        raise ParseError("empty input", 0)
    if ch in "+-":
        sc.take()
        sign = -1 if ch == "-" else 1
    while True:
        result = result + _ref_parse_term(sc).scale(sign)
        ch = sc.peek()
        if ch is None:
            return result
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {ch!r}", sc.pos)
        sc.take()


def _ref_parse_term(sc: _RefScanner) -> MPoly:
    ch = sc.peek()
    if ch is None:
        raise ParseError("expected term", sc.pos)
    if ch.isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            sc.skip_ws()
            den_pos = sc.pos
            den = sc.integer()
            if den <= 0:
                raise ParseError("denominator must be positive", den_pos)
            coef = Fraction(num, den)
        else:
            coef = Fraction(num)
        term = MPoly.const(coef)
    elif ch in VARS:
        term = _ref_parse_mono(sc)
    else:
        raise ParseError(f"expected coefficient or variable, found {ch!r}", sc.pos)
    while sc.peek() == "*":
        sc.take()
        sc.skip_ws()
        start = sc.pos
        mono = _ref_parse_mono(sc)
        try:
            term = term * mono
        except ExponentOverflowError as exc:
            raise ParseError(str(exc), start) from exc
    return term


def _ref_parse_mono(sc: _RefScanner) -> MPoly:
    ch = sc.peek()
    if ch is None or ch not in VARS:
        raise ParseError(
            "expected variable (one of d, x, l, m)", sc.pos if ch is not None else sc.pos
        )
    sc.take()
    power = 1
    if sc.peek() == "^":
        sc.take()
        sc.skip_ws()
        start = sc.pos
        power = sc.integer()
        if power > MAX_EXP:
            raise ParseError(f"exponent {power} is above the limit {MAX_EXP}", start)
    exp = [0, 0, 0, 0]
    exp[VARS.index(ch)] = power
    return MPoly.monomial(tuple(exp))  # type: ignore[arg-type]


def _ref_format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _ref_format_monomial(exp: Exponent, names: tuple[str, ...]) -> str:
    parts = []
    for i, k in enumerate(exp):
        if k == 1:
            parts.append(names[i])
        elif k > 1:
            parts.append(f"{names[i]}^{k}")
    return "*".join(parts)


def _ref_sorted_terms(p: MPoly) -> list[tuple[Exponent, Fraction]]:
    # graded lex, d > x > l > m: exponent tuples compare in lex order
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def ref_format_poly(p: MPoly, var_map: dict[str, str] | None = None) -> str:
    names = tuple(var_map.get(v, v) for v in VARS) if var_map else VARS
    terms = _ref_sorted_terms(p)
    if not terms:
        return "0"
    pieces: list[str] = []
    for idx, (exp, coef) in enumerate(terms):
        mono = _ref_format_monomial(exp, names)
        mag = abs(coef)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_ref_format_fraction(mag)}*{mono}"
        else:
            body = _ref_format_fraction(mag)
        if idx == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(pieces)


def ref_format_upoly(p: UPoly) -> str:
    if p.var in VARS:
        return ref_format_poly(p.to_mpoly())
    return ref_format_poly(p.retag("x").to_mpoly(), var_map={"x": p.var})


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.position)


# grammar characters, ASCII and Unicode whitespace, a digit int() refuses
# ('²'), a decimal digit it accepts ('٣'), and the literals that hit
# the exponent limit, the zero denominator and the integer-string limit
_CHARS = list("dxlm0123456789+-*/^") + [" ", "\t", "\u00b2", "\u0663", "\u00a0", "\x1c"]
_PIECES = st.one_of(
    st.text(st.sampled_from(_CHARS), min_size=1, max_size=6),
    st.text(st.sampled_from(_CHARS), min_size=1, max_size=6),
    st.integers(MAX_EXP - 3, 10**6).map(lambda e: f"^{e}"),
    st.sampled_from(["/0", "*x^32767*x", "7" * 4300, "7" * 4301]),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(_PIECES, max_size=5).map("".join))
@example("0*x^32767*x")  # a zero term is never multiplied out, so no overflow
@example("2*x^32767*x")
@example("3\u00b2*x")
@example("x^\u00b2")
@example("1/\u0663 - x \x1c")
def test_parse_matches_reference_scanner(text):
    assert _outcome(parse_poly, text) == _outcome(ref_parse_poly, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["x", "d", "1/2", "3", "x^2", "l^3", "m", "0"]), min_size=1,
                max_size=6),
       st.lists(st.sampled_from(["+", "-", "*", " + ", " * ", "\t-\t"]), min_size=5,
                max_size=5))
def test_parse_matches_reference_on_well_formed_text(atoms, ops):
    text = atoms[0] + "".join(o + a for o, a in zip(ops, atoms[1:]))
    assert _outcome(parse_poly, text) == _outcome(ref_parse_poly, text)


_EXPONENTS = st.tuples(*[st.integers(0, 5)] * 4)
_RATIONALS = st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 40))
_MPOLYS = st.dictionaries(_EXPONENTS, _RATIONALS, max_size=7).map(MPoly)


@settings(max_examples=200, deadline=None)
@given(_MPOLYS)
def test_format_matches_reference_printer(p):
    assert format_poly(p) == ref_format_poly(p)
    assert parse_poly(format_poly(p)) == p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 20)), max_size=6),
       st.sampled_from("dxz"))
def test_format_upoly_matches_reference_printer(coeffs, var):
    p = UPoly(coeffs, var)
    assert format_upoly(p) == ref_format_upoly(p)


def test_format_upoly_refuses_an_exponent_it_could_not_read_back():
    # the message names the UPoly's own tag; the reference model, which
    # retags z to x before printing, would name x
    for var in "xz":
        p = UPoly((0,) * (MAX_EXP + 1) + (1,), var)
        with pytest.raises(ExponentOverflowError) as got:
            format_upoly(p)
        assert str(got.value) == f"exponent {MAX_EXP + 1} of {var} is above the limit {MAX_EXP}"
        assert format_upoly(UPoly((0,) * MAX_EXP + (1,), var)) == f"{var}^{MAX_EXP}"


# Printed text is read by splitting (grammar._read_printed); anything else
# falls back to the token parser.  These are the fall-back triggers: other
# spacing, a leading '+', digits that are not ASCII, a literal int() refuses,
# a zero denominator, an exponent above MAX_EXP and a key that sets a guard
# bit.
_TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)
_FALL_BACK = [
    "x+1", "x  + 1", "x +1", "x\t+ 1", " x", "x ", "- x", "+x", "x * 2",
    "\u0663*x", "x^\u00b2", "\u00b2", f"{_TOO_LONG}*x", f"x^{_TOO_LONG}",
    f"1/{_TOO_LONG}", "1/0", "0/0*x", f"x^{MAX_EXP + 1}", "x^65536", "0*x^32767*x",
    "2*x^32767*x", "", "x - ", "x +", "1/2/3", "x/2", "2*", "*x", "x^",
]


@pytest.mark.parametrize("text", _FALL_BACK, ids=[ascii(t)[:24] for t in _FALL_BACK])
def test_text_outside_the_printed_form_goes_to_the_token_parser(text):
    token_path = object()
    with mock.patch.object(grammar, "_parse_tokens", return_value=token_path):
        assert parse_poly(text) is token_path


_EDIT_CHARS = list("dxlm0123456789+-*/^") + [" ", "\t", "\u0663", "\u00b2"]


@st.composite
def _edited_prints(draw):
    """The printed text of a random MPoly with one random edit: a grammar
    character, a space, a tab, '٣' or '²' inserted, deleted or replaced."""
    text = format_poly(draw(_MPOLYS))
    pos = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(_EDIT_CHARS))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        return text[:pos] + ch + text[pos:]
    if edit == "delete":
        return text[:pos] + text[pos + 1 :]
    return text[:pos] + ch + text[pos + 1 :]


@settings(max_examples=600, deadline=None)
@given(_edited_prints())
@example("0*x^32767*x")
@example("2*x^32767*x")
@example("- x")
@example("+x")
@example(_TOO_LONG)
@example(f"{_TOO_LONG}*x")
@example(f"x^{_TOO_LONG}")
@example("x  + 1")
@example("x\t+ 1")
@example("\u0663*x")
@example("x^\u00b2")
@example("1/0")
@example(f"x^{MAX_EXP + 1}")
@example("x^65536")  # would carry into the d field
@example("x + 1 - x")  # terms that cancel
@example("1/2*d - 1/3 - 1/2*d")
def test_parse_of_edited_print_matches_reference_scanner(text):
    assert _outcome(parse_poly, text) == _outcome(ref_parse_poly, text)


_WIDE_EXPONENTS = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(MAX_EXP - 2, MAX_EXP))] * 4)
_WIDE_RATIONALS = st.builds(Fraction, st.integers(-(10**30), 10**30).filter(bool),
                            st.integers(1, 10**20))
_WIDE_MPOLYS = st.dictionaries(_WIDE_EXPONENTS, _WIDE_RATIONALS, max_size=6).map(MPoly)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_MPOLYS, _WIDE_MPOLYS),
       st.lists(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 20)), max_size=6),
       st.sampled_from("dx"))
def test_printed_text_is_read_without_the_token_parser(p, coeffs, var):
    # a printer change the fast path stops recognising fails here
    q = UPoly(coeffs, var)
    with mock.patch.object(grammar, "_parse_tokens", side_effect=AssertionError("token path")):
        assert parse_poly(format_poly(p)) == p
        assert upoly_from_mpoly(parse_poly(format_upoly(q)), var) == q
