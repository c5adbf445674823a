"""Text grammar for polynomials, shared by the CLI and test fixtures.

    expr := term (('+'|'-') term)*
    term := coef ('*' mono)* | mono ('*' mono)*
    mono := var ('^' nat)?          nat <= MAX_EXP (32767)
    var  ∈ {d, x, l, m}
    coef := integer | integer '/' positive-integer

Whitespace is insignificant.  Example: ``2*x + d - 1/2*l^2``.  Formatting is
canonical (graded-lex term order, d > x > l > m), so parse-format round trips
are stable after one normalization.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MAX_EXP, VARS, Exponent, ExponentOverflowError, MPoly, UPoly, upoly_from_mpoly


class ParseError(ValueError):
    """Syntax error with a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


class _Scanner:
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


def parse_poly(text: str) -> MPoly:
    """Parse the grammar above into a canonical MPoly."""
    sc = _Scanner(text)
    result = MPoly.zero()
    sign = 1
    ch = sc.peek()
    if ch is None:
        raise ParseError("empty input", 0)
    if ch in "+-":
        sc.take()
        sign = -1 if ch == "-" else 1
    while True:
        result = result + _parse_term(sc).scale(sign)
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


def _parse_term(sc: _Scanner) -> MPoly:
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
        term = _parse_mono(sc)
    else:
        raise ParseError(f"expected coefficient or variable, found {ch!r}", sc.pos)
    while sc.peek() == "*":
        sc.take()
        sc.skip_ws()
        start = sc.pos
        mono = _parse_mono(sc)
        try:
            term = term * mono
        except ExponentOverflowError as exc:
            raise ParseError(str(exc), start) from exc
    return term


def _parse_mono(sc: _Scanner) -> MPoly:
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


def _format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_monomial(exp: Exponent, names: tuple[str, ...]) -> str:
    parts = []
    for i, k in enumerate(exp):
        if k == 1:
            parts.append(names[i])
        elif k > 1:
            parts.append(f"{names[i]}^{k}")
    return "*".join(parts)


def format_poly(p: MPoly, var_map: dict[str, str] | None = None) -> str:
    """Canonical text form, graded-lex descending term order."""
    names = tuple(var_map.get(v, v) for v in VARS) if var_map else VARS
    terms = p.sorted_terms()
    if not terms:
        return "0"
    pieces: list[str] = []
    for idx, (exp, coef) in enumerate(terms):
        mono = _format_monomial(exp, names)
        mag = abs(coef)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_format_fraction(mag)}*{mono}"
        else:
            body = _format_fraction(mag)
        if idx == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(pieces)


def format_upoly(p: UPoly) -> str:
    """Text form of a univariate polynomial in its own variable tag."""
    if p.var in VARS:
        return format_poly(p.to_mpoly())
    # foreign tag (e.g. z standing for d+x): render via the x slot
    return format_poly(p.retag("x").to_mpoly(), var_map={"x": p.var})


def parse_upoly(text: str, var: str, out_var: str | None = None) -> UPoly:
    """Parse a polynomial that must use only one variable."""
    p = parse_poly(text)
    return upoly_from_mpoly(p, var, out_var)
