"""Wire layer: payload polynomial checks and one-variable reads against the
reference code they replaced (variable sets, unpacked total degrees, and
``poly_helpers.upoly_from_mpoly``, which reads a UPoly coefficient by
coefficient)."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.grammar import format_poly, parse_poly
from confalg.jsonio import (
    MAX_DEGREE,
    PayloadError,
    modvec_from_json,
    poly_from_json,
    polymat_from_json,
    upolys_from_json,
)
from confalg.poly import MAX_EXP, VARS, MPoly, _upoly_from_keys
from poly_helpers import upoly_from_mpoly


def ref_poly_from_json(text, field, allowed, max_degree=MAX_DEGREE):
    """poly_from_json as it read before field masks: a variable set and a
    total degree summed over unpacked exponents."""
    poly = parse_poly(text)
    extra = poly.variables() - allowed
    if extra:
        raise PayloadError(f"{field}: variable(s) {sorted(extra)} not allowed here")
    degree = max((sum(e) for e in poly.terms), default=-1)
    if max_degree is not None and degree > max_degree:
        raise PayloadError(f"{field}: total degree {degree} is above the limit {max_degree}")
    return poly


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


_EXP = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXP))
_COEF = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def _mpolys(draw, used=st.sets(st.sampled_from(VARS))):
    """MPolys in the variables ``used`` draws, exponents up to MAX_EXP."""
    names = draw(used)
    terms = draw(st.dictionaries(st.tuples(*[_EXP] * 4), _COEF, max_size=5))
    return MPoly(
        {tuple(e if v in names else 0 for v, e in zip(VARS, exp)): c for exp, c in terms.items()}
    )


_LIMITS = st.one_of(st.none(), st.just(MAX_DEGREE), st.integers(-1, 4 * MAX_EXP))


@settings(max_examples=400, deadline=None)
@given(_mpolys(), st.sets(st.sampled_from(VARS)), _LIMITS)
def test_payload_checks_match_reference(p, allowed, max_degree):
    text = format_poly(p)
    got = _outcome(poly_from_json, text, "a[0][0]", allowed, max_degree)
    assert got == _outcome(ref_poly_from_json, text, "a[0][0]", allowed, max_degree)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VARS).flatmap(lambda v: st.tuples(st.just(v), _mpolys(st.just({v})))))
def test_direct_upoly_read_matches_reference(var_poly):
    var, p = var_poly
    assert _upoly_from_keys(p, var) == upoly_from_mpoly(p, var)


@settings(max_examples=300, deadline=None)
@given(_mpolys(st.sets(st.sampled_from(("d", "x")))))
def test_payload_upolys_match_reference(p):
    """Matrix entries, module vectors and output polynomials read as UPolys
    directly, or refused as before."""
    text = format_poly(p)
    readers = [
        (lambda: polymat_from_json([[text]], "p").rows[0][0], "p[0][0]", "x", MAX_DEGREE),
        (lambda: modvec_from_json([text], "start")[0], "start[0]", "d", MAX_DEGREE),
        (lambda: upolys_from_json([text], "divisors", "x", None)[0], "divisors[0]", "x", None),
    ]
    for read, field, var, limit in readers:
        want = _outcome(lambda: upoly_from_mpoly(ref_poly_from_json(text, field, {var}, limit), var))
        assert _outcome(read) == want
