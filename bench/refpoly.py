"""A small exact polynomial helper, independent of confalg.

The benchmark builds its inputs and reference answers with this module, so
neither depends on the code under test.  A polynomial is a dict mapping an
exponent tuple (d, x, l, m) to a nonzero rational; matrices are lists of
rows of such dicts.  ``parse`` reads confalg's polynomial grammar (with
``z`` standing in the x slot) so reported answers can be compared here.
"""

from __future__ import annotations

from fractions import Fraction

VARS = ("d", "x", "l", "m")
_SLOT = {"d": 0, "x": 1, "l": 2, "m": 3, "z": 1}
ONE = {(0, 0, 0, 0): 1}


def const(c) -> dict:
    return {(0, 0, 0, 0): c} if c else {}


def var(name: str, power: int = 1) -> dict:
    exp = [0, 0, 0, 0]
    exp[_SLOT[name]] = power
    return {tuple(exp): 1}


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def sub(a: dict, b: dict) -> dict:
    return add(a, b, -1)


def scale(a: dict, c) -> dict:
    return {e: c * v for e, v in a.items()} if c else {}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(a: dict, n: int) -> dict:
    out = ONE
    for _ in range(n):
        out = mul(out, a)
    return out


def subst(a: dict, bindings: dict[str, dict]) -> dict:
    """Simultaneous substitution of polynomials for variables."""
    bound = {_SLOT[k]: v for k, v in bindings.items()}
    out: dict = {}
    for e, c in a.items():
        piece = const(c)
        rest = [0, 0, 0, 0]
        for slot, k in enumerate(e):
            if slot in bound:
                piece = mul(piece, power(bound[slot], k))
            else:
                rest[slot] = k
        out = add(out, mul(piece, {tuple(rest): 1}))
    return out


def upoly(coeffs, name: str = "x") -> dict:
    """Univariate polynomial from ascending coefficients."""
    out: dict = {}
    for k, c in enumerate(coeffs):
        out = add(out, scale(var(name, k), c))
    return out


def from_roots(roots, name: str = "x") -> dict:
    out = ONE
    for r in roots:
        out = mul(out, sub(var(name), const(r)))
    return out


def monic(a: dict, name: str = "x") -> dict:
    """Scale so the coefficient of the top power of ``name`` is 1 (univariate)."""
    if not a:
        return a
    slot = _SLOT[name]
    top = max(a, key=lambda e: e[slot])
    return scale(a, Fraction(1) / Fraction(a[top]))


def fmt(a: dict) -> str:
    """Text in confalg's grammar (term order is irrelevant to the parser)."""
    if not a:
        return "0"
    pieces = []
    for e, c in sorted(a.items(), reverse=True):
        c = Fraction(c)
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, e) if k
        )
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = mono if mono and mag == 1 else (f"{num}*{mono}" if mono else num)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def parse(text: str) -> dict:
    """Parse confalg's grammar: signed terms of coef and var^k factors."""
    src = text.replace(" ", "")
    if not src:
        raise ValueError("empty polynomial")
    out: dict = {}
    pos = 0
    while pos < len(src):
        sign = 1
        if src[pos] in "+-":
            sign = -1 if src[pos] == "-" else 1
            pos += 1
        end = pos
        while end < len(src) and src[end] not in "+-":
            end += 1
        term = const(sign)
        for factor in src[pos:end].split("*"):
            if factor[:1].isdigit():
                term = scale(term, Fraction(factor))
            else:
                name, _, k = factor.partition("^")
                if name not in _SLOT:
                    raise ValueError(f"unknown variable in {text!r}")
                term = mul(term, var(name, int(k) if k else 1))
        out = add(out, term)
        pos = end
    return out


# -- matrices of polynomials -------------------------------------------------


def mat_mul(a: list, b: list) -> list:
    n = len(a)
    return [
        [
            _sum(mul(a[i][k], b[k][j]) for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _sum(polys) -> dict:
    out: dict = {}
    for p in polys:
        out = add(out, p)
    return out


def mat_diag(entries: list) -> list:
    n = len(entries)
    return [[entries[i] if i == j else {} for j in range(n)] for i in range(n)]


def mat_subst(a: list, bindings: dict[str, dict]) -> list:
    return [[subst(e, bindings) for e in row] for row in a]


def mat_fmt(a: list) -> list:
    return [[fmt(e) for e in row] for row in a]
