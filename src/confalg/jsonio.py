"""JSON wire formats: matrices as arrays of polynomial strings, one grammar.

Every polynomial that crosses the CLI boundary uses the text grammar from
:mod:`confalg.grammar`; matrices are arrays of arrays of such strings, series
are maps keyed by "l^n" exponent strings.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Any, Callable, Sequence

from .cend import CendElem, LambdaSeries, ModVec, modvec
from .grammar import ParseError, format_poly, format_upoly, parse_poly
from .poly import _ALL, _FIELD, _SHIFTS, VARS, MPoly, UPoly, _upoly_from_keys
from .polymat import PolyMat


# Largest total degree of a polynomial in a verb's payload: work grows fast
# with degree (a dense 1x1 product of degree 32 takes about 80 times as long
# as one of degree 16), so larger inputs are refused as E_PARSE.  The
# certificates and results that ``verify`` reads are not bounded.
MAX_DEGREE = 16
# Largest size n of an n x n matrix in a verb's payload; no verb's work is
# bounded by degree alone (oc-gens at n = 8 takes seconds).
MAX_MATRIX_N = 4

# the bits of each variable's exponent field in a packed key
_VAR_FIELDS = {v: _FIELD << s for v, s in zip(VARS, _SHIFTS)}


class PayloadError(ValueError):
    """Malformed JSON payload (wrong shape, bad polynomial, bad variable)."""


def check_degree(poly: MPoly, field: str, max_degree: int | None = MAX_DEGREE) -> MPoly:
    """``poly``, unless its total degree is above ``max_degree`` (None: no limit)."""
    if max_degree is not None and (degree := poly.total_degree()) > max_degree:
        raise PayloadError(f"{field}: total degree {degree} is above the limit {max_degree}")
    return poly


def fraction_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fraction_from_json(data: Any, field: str) -> Fraction:
    if isinstance(data, bool) or not isinstance(data, (str, int)):
        raise PayloadError(f"{field}: expected a rational as string or integer")
    try:
        return Fraction(str(data))
    except (ValueError, ZeroDivisionError) as exc:
        raise PayloadError(f"{field}: not a rational: {data!r}") from exc


def poly_from_json(
    text: Any, field: str, allowed: set[str], max_degree: int | None = MAX_DEGREE
) -> MPoly:
    if not isinstance(text, str):
        raise PayloadError(f"{field}: expected a polynomial string")
    try:
        poly = parse_poly(text)
    except ParseError as exc:
        raise PayloadError(f"{field}: {exc}") from exc
    forbidden = _ALL
    for var in allowed:
        forbidden ^= _VAR_FIELDS[var]
    if reduce(or_, poly._num, 0) & forbidden:
        extra = poly.variables() - allowed
        raise PayloadError(
            f"{field}: variable(s) {sorted(extra)} not allowed here"
        )
    return check_degree(poly, field, max_degree)


def polys_from_json(
    data: Any, field: str, allowed: set[str], max_degree: int | None = MAX_DEGREE
) -> list[MPoly]:
    if not isinstance(data, list):
        raise PayloadError(f"{field}: expected an array of polynomial strings")
    return [
        poly_from_json(e, f"{field}[{i}]", allowed, max_degree) for i, e in enumerate(data)
    ]


def _matrix_size(data: Any, field: str, bounded: bool) -> int:
    """The number of rows of a matrix; a payload matrix (``bounded``) may
    have at most MAX_MATRIX_N."""
    if not isinstance(data, list) or not data:
        raise PayloadError(f"{field}: expected a non-empty array of arrays")
    n = len(data)
    if bounded and n > MAX_MATRIX_N:
        raise PayloadError(f"{field}: {n} x {n} matrix is above the size limit {MAX_MATRIX_N}")
    return n


def _square_from_json(
    data: Any, field: str, bounded: bool, entry: Callable[[Any, str], Any]
) -> list[list[Any]]:
    """The rows of a square matrix, each entry read by ``entry(text, field of
    the entry)``."""
    n = _matrix_size(data, field, bounded)
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise PayloadError(f"{field}: non-square matrix")
        rows.append([entry(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)])
    return rows


def polymat_from_json(
    data: Any, field: str = "matrix", max_degree: int | None = MAX_DEGREE
) -> PolyMat:
    return PolyMat(_square_from_json(
        data, field, max_degree is not None,
        lambda e, at: _upoly_from_keys(poly_from_json(e, at, {"x"}, max_degree), "x"),
    ))


def polymat_to_json(mat: PolyMat) -> list[list[str]]:
    return [[format_upoly(e) for e in row] for row in mat.rows]


def cend_from_json(data: Any, field: str = "symbol") -> CendElem:
    return CendElem(
        _square_from_json(data, field, True, lambda e, at: poly_from_json(e, at, {"d", "x"}))
    )


def cend_to_json(elem: CendElem) -> list[list[str]]:
    return [[format_poly(e) for e in row] for row in elem.entries]


def series_to_json(series: LambdaSeries) -> dict[str, list[list[str]]]:
    return {f"l^{k}": cend_to_json(c) for k, c in series.coefficients if not c.is_zero()}


def upolys_from_json(
    data: Any, field: str, var: str, max_degree: int | None = MAX_DEGREE
) -> tuple[UPoly, ...]:
    """An array of polynomial strings in ``var`` alone, as UPolys."""
    return tuple(_upoly_from_keys(p, var) for p in polys_from_json(data, field, {var}, max_degree))


def modvec_from_json(data: Any, field: str = "vector") -> ModVec:
    if not isinstance(data, list) or not data:
        raise PayloadError(f"{field}: expected a non-empty array")
    return modvec(upolys_from_json(data, field, "d"))


def modvec_to_json(vec: Sequence[UPoly]) -> list[str]:
    return [format_upoly(e) for e in vec]


def vec_series_to_json(series: dict[int, ModVec]) -> dict[str, list[str]]:
    return {f"l^{k}": modvec_to_json(v) for k, v in series.items()}


def upolys_to_json(polys: Sequence[UPoly]) -> list[str]:
    return [format_upoly(p) for p in polys]


def cend_list_from_json(data: Any, field: str = "gens") -> list[CendElem]:
    if not isinstance(data, list) or not data:
        raise PayloadError(f"{field}: expected a non-empty array of matrices")
    return [cend_from_json(m, f"{field}[{k}]") for k, m in enumerate(data)]
