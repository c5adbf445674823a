"""Text grammar for polynomials, shared by the CLI and test fixtures.

    expr := term (('+'|'-') term)*
    term := coef ('*' mono)* | mono ('*' mono)*
    mono := var ('^' nat)?          nat <= MAX_EXP (32767)
    var  ∈ {d, x, l, m}
    coef := integer | integer '/' positive-integer

Whitespace is insignificant.  Example: ``2*x + d - 1/2*l^2``.  Formatting is
canonical (graded-lex term order, d > x > l > m), so parse-format round trips
are stable after one normalization.

Text in the printed form is read by splitting it (``_read_printed``); any
other text goes through the token parser (``_parse_tokens``), which alone
raises ParseError with an offset.  Both give the same MPoly for text that
both read.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable

from .poly import (
    _FIELD, _GUARD, _SHIFTS, MAX_EXP, VARS, ExponentOverflowError, MPoly, UPoly, _grlex,
    _make, _overflow, _unpack,
)


class ParseError(ValueError):
    """Syntax error with a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


# A token is a run of decimal digits (group 1) or any other character that is
# not whitespace (group 2); finditer skips the whitespace between tokens.  For
# str patterns ``\S`` is exactly not str.isspace and ``\d`` exactly
# str.isdecimal.
_TOKEN = re.compile(r"(\d+)|(\S)")
_SHIFT = dict(zip(VARS, _SHIFTS))
_VAR_SHIFTS = tuple(_SHIFT.items())
_SIGN = {"+": 1, "-": -1}


def _start(text: str, tok: re.Match[str] | None) -> int:
    """Offset of a token; the end of the text when there is none."""
    return len(text) if tok is None else tok.start()


def _integer(text: str, tok: re.Match[str] | None) -> int:
    """The integer literal at ``tok``.

    A literal is a run of str.isdigit characters, which include digits such
    as '²' that int() refuses, so the run may extend past ``\\d+``; such a
    literal, or one longer than int() accepts, is a ParseError at its start.
    """
    start = _start(text, tok)
    end = start if tok is None or tok[1] is None else tok.end()
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == start:
        raise ParseError("expected integer", start)
    try:
        return int(text[start:end])
    except ValueError as exc:
        raise ParseError(f"invalid integer literal: {exc}", start) from exc


def parse_poly(text: str) -> MPoly:
    """Parse the grammar above into a canonical MPoly.

    Text in the printed form is read by splitting (``_read_printed``); any
    other text, and every error, goes through the token parser.
    """
    try:
        p = _read_printed(text)
    except ValueError:  # a literal longer than int() accepts
        p = None
    return _parse_tokens(text) if p is None else p


def _read_printed(text: str) -> MPoly | None:
    """Read text in the form that ``format_poly`` and ``format_upoly`` print,
    or return None when the text is not in that form.

    The form: an optional leading '-', terms joined by ' + ' or ' - ' with
    single spaces, each term ``c``, ``c/q``, a monomial, or either coefficient
    '*' a monomial, where a monomial is ``v`` or ``v^e`` factors joined by
    '*' and every literal is ASCII digits.  A zero denominator, an exponent
    above MAX_EXP or a key that sets a guard bit also gives None, so that
    the token parser reports it; int() raises ValueError on a literal
    longer than it accepts.
    """
    if not text.isascii():
        return None
    sign = 1
    if text[:1] == "-":
        sign = -1
        text = text[1:]
    words = text.split(" ")
    if not len(words) & 1:
        return None
    num: dict[int, int] = {}
    den = 1
    for i in range(0, len(words), 2):
        if i:
            sign = _SIGN.get(words[i - 1])
            if sign is None:
                return None
        factors = words[i].split("*")
        top, slash, bottom = factors[0].partition("/")
        if top.isdigit():
            q = int(bottom) if bottom.isdigit() else 0 if slash else 1
            if not q:  # a zero or missing denominator
                return None
            c = int(top)
            del factors[0]
        else:  # a '/' left in a factor fails as a variable or an exponent
            c = q = 1
        key = 0
        for factor in factors:
            name, caret, power_lit = factor.partition("^")
            shift = _SHIFT.get(name)
            if shift is None:
                return None
            if not caret:
                power = 1
            elif power_lit.isdigit():
                power = int(power_lit)
                if power > MAX_EXP:
                    return None
            else:
                return None
            key += power << shift
            if key & _GUARD:
                return None
        if c:
            if den % q:
                scale = q // gcd(den, q)
                num = {k: v * scale for k, v in num.items()}
                den *= scale
            v = num.get(key, 0) + sign * c * (den // q)
            if v:
                num[key] = v
            else:  # the term cancelled one read before it
                del num[key]
    return _make(num, den)


def _parse_tokens(text: str) -> MPoly:
    """The token parser: one pass over the tokens, each term's coefficient
    and packed exponent key read directly, the numerators summed over one
    common denominator.  It alone raises ParseError, with an offset.
    """
    tokens = _TOKEN.finditer(text)
    tok = next(tokens, None)
    if tok is None:
        raise ParseError("empty input", 0)
    num: dict[int, int] = {}
    den = 1
    sign = _SIGN.get(tok[2])
    if sign is None:
        sign = 1
    else:
        tok = next(tokens, None)
    while True:
        if tok is None:
            raise ParseError("expected term", len(text))
        ch = tok[2]
        c, q, key = 1, 1, 0
        if ch is None or ch.isdigit():
            c = _integer(text, tok)
            tok = next(tokens, None)
            if tok is not None and tok[2] == "/":
                tok = next(tokens, None)
                q = _integer(text, tok)
                if not q:
                    raise ParseError("denominator must be positive", _start(text, tok))
                tok = next(tokens, None)
            more = tok is not None and tok[2] == "*"
            if more:
                tok = next(tokens, None)
        elif ch in _SHIFT:
            more = True
        else:
            raise ParseError(f"expected coefficient or variable, found {ch!r}", tok.start())
        while more:  # tok is a monomial's variable
            shift = _SHIFT.get(tok[2]) if tok is not None else None
            if shift is None:
                raise ParseError("expected variable (one of d, x, l, m)", _start(text, tok))
            start = tok.start()
            tok = next(tokens, None)
            power = 1
            if tok is not None and tok[2] == "^":
                tok = next(tokens, None)
                power = _integer(text, tok)
                if power > MAX_EXP:
                    raise ParseError(
                        f"exponent {power} is above the limit {MAX_EXP}", tok.start()
                    )
                tok = next(tokens, None)
            key += power << shift
            if key & _GUARD and c:  # a zero term is never multiplied out
                try:
                    _overflow(_unpack(key))
                except ExponentOverflowError as exc:
                    raise ParseError(str(exc), start) from exc
            more = tok is not None and tok[2] == "*"
            if more:
                tok = next(tokens, None)
        if c:
            if den % q:
                scale = q // gcd(den, q)
                num = {k: v * scale for k, v in num.items()}
                den *= scale
            num[key] = num.get(key, 0) + sign * c * (den // q)
        if tok is None:
            return _make({k: v for k, v in num.items() if v}, den)
        sign = _SIGN.get(tok[2])
        if sign is None:
            pos = _start(text, tok)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tok = next(tokens, None)


def _join_terms(terms: Iterable[tuple[int, str]], den: int) -> str:
    """Canonical text of the terms ``c/den * mono``, given in print order."""
    pieces: list[str] = []
    for c, mono in terms:
        mag = -c if c < 0 else c
        if den == 1:
            coef = str(mag)
        else:
            g = gcd(mag, den)
            coef = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        if mono:
            body = mono if coef == "1" else f"{coef}*{mono}"
        else:
            body = coef
        if pieces:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return " ".join(pieces) if pieces else "0"


def _monomial(key: int) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, s in _VAR_SHIFTS if (e := key >> s & _FIELD)
    )


def format_poly(p: MPoly) -> str:
    """Canonical text form, graded-lex descending term order."""
    num = p._num
    keys = sorted(num, key=_grlex, reverse=True) if len(num) > 1 else num
    return _join_terms(((num[k], _monomial(k)) for k in keys), p._den)


def format_upoly(p: UPoly) -> str:
    """Text form of a univariate polynomial in its own variable tag, read
    from its numerators highest power first; the same text as
    ``format_poly`` of the polynomial, a foreign tag (z for d+x) included."""
    num, var = p._num, p.var
    if len(num) > MAX_EXP + 1:  # the text could not be read back
        _overflow([len(num) - 1], [var])
    return _join_terms(
        (
            (num[e], var if e == 1 else f"{var}^{e}" if e else "")
            for e in range(len(num) - 1, -1, -1)
            if num[e]
        ),
        p._den,
    )
