"""Closure and classification of scalar subalgebras."""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confalg import cend1, poly
from confalg.cend import CendElem, product_apply
from confalg.cend1 import (
    CPARTIAL,
    FULL,
    PQ,
    P_ONLY,
    Q_ONLY,
    classify,
    closure,
    irreducible_on_standard,
    replay,
)
from confalg.gclie import ProbeOutcome, irreducibility_probe
from confalg.cli import main
from confalg.grammar import format_poly, parse_poly
from confalg.poly import MPoly, UPoly, bipoly_gcd, upoly_gcd
from confalg.polymat import PolyMat
from confalg.structure import unital_closure_probe
from ideal_oracle import hermite_form
from poly_helpers import upoly_from_mpoly

D = MPoly.var("d")
X = MPoly.var("x")
L = MPoly.var("l")


class TestClosure:
    def test_constants_stay_derivation_only(self):
        state = closure([MPoly.const(1)])
        assert state.status == "x_free"
        assert state.gcd_witness == MPoly.const(1)
        assert (state.derivation, state.rounds) == ((), 0)

    def test_x_squared(self):
        state = closure([X**2])
        assert state.status == "split"
        assert state.gcd_witness == X**2

    def test_x_and_d_generate_everything(self):
        state = closure([X, D])
        assert state.status == "split"
        assert state.gcd_witness == MPoly.const(1)
        assert (state.derivation, state.rounds) == ((), 0)

    def test_pure_p_witness_matches_generator(self):
        for p in (X, X**2 + 1, X**3 - X):
            state = closure([p])
            assert state.status == "split"
            assert state.gcd_witness == bipoly_gcd(p, MPoly.zero())

    def test_nonsplit_gcd_is_lowered_by_one_step(self):
        # gcd d*x*(x + 1): the l^2 part of the generator times itself has gcd
        # x*(x + 1) with it, which splits
        gens = [D * X**2 + D * X]
        state = closure(gens)
        assert (state.status, state.rounds, state.derivation) == ("split", 1, ((0, 0, 2),))
        assert state.gcd_witness == X**2 + X
        assert replay(gens, state.derivation) == state

    def test_monotone_in_generators(self):
        base = closure([X**2 * (D + X)])
        bigger = closure([X**2 * (D + X), X**2])
        quotient = bipoly_gcd(base.gcd_witness, bigger.gcd_witness)
        assert quotient == bigger.gcd_witness  # new witness divides the old

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            closure([MPoly.var("l")])

    def test_zero_first_generator_derives_from_the_next(self):
        # gcd d*x does not split; the l^2 part of (d*x) * (d*x), -2*d*x - x^2,
        # lowers it to x
        gens = [MPoly.zero(), D * X]
        state = closure(gens)
        assert (state.status, state.rounds, state.derivation) == ("split", 1, ((1, 1, 2),))
        assert state.gcd_witness == X
        assert replay(gens, state.derivation) == state

    @pytest.mark.parametrize(
        "derivation,message",
        [
            ([(0, 1, 2)], "not a generator"),
            ([(-1, 0, 2)], "not a generator"),
            ([(0, 0, 1), (0, 0, 2)], "does not lower the gcd"),
            ([(0, 0, 9)], "does not lower the gcd"),
            ([(0, 0, 2), (0, 0, 3)], "does not lower the gcd"),
        ],
    )
    def test_replay_rejects_a_bad_step(self, derivation, message):
        with pytest.raises(ValueError, match=message):
            replay([D * X**2 + D * X], derivation)

    def test_replay_rejects_a_derived_element(self):
        # a two-round derivation: step 0 lowers the gcd of 4*d^2 - x^2 to
        # d - x/2, and step 1 multiplies that derived element 1, lowering it to 1
        gens = [D**2 * 4 - X**2]
        state = replay(gens, [(0, 0, 3)])
        assert (state.gcd_witness, state.rounds) == (D - X * Fraction(1, 2), 1)
        assert (state.status, state.split) == ("unsplit", None)
        with pytest.raises(ValueError, match="step 1 names an element that is not a generator"):
            replay(gens, [(0, 0, 3), (1, 0, 1)])


class TestClassify:
    def test_cpartial(self):
        assert classify(closure([MPoly.const(1)])).type_tag == CPARTIAL
        assert classify(closure([D**2 + D])).type_tag == CPARTIAL

    def test_p_only(self):
        desc = classify(closure([X**2]))
        assert desc.type_tag == P_ONLY
        assert desc.p == UPoly((0, 0, 1), "x")

    def test_q_only(self):
        desc = classify(closure([(D + X) ** 3]))
        assert desc.type_tag == Q_ONLY
        assert desc.q == UPoly((0, 0, 0, 1), "z")

    def test_pq(self):
        desc = classify(closure([X * (D + X)]))
        assert desc.type_tag == PQ
        assert desc.p == UPoly((0, 1), "x")
        assert desc.q == UPoly((0, 1), "z")

    def test_full(self):
        desc = classify(closure([X, D]))
        assert desc.type_tag == FULL

    def test_idempotence_across_types(self):
        fixtures = [
            ([X**3 + X], P_ONLY),
            ([(D + X) ** 2 + (D + X)], Q_ONLY),
            ([(X**2 + 1) * (D + X)], PQ),
            ([D**3], CPARTIAL),
        ]
        for gens, tag in fixtures:
            first = classify(closure(gens))
            assert first.type_tag == tag
            # rebuild generators of the classified algebra and re-classify
            if tag == CPARTIAL:
                regen = [D]
            else:
                p_m = first.p.to_mpoly("x") if first.p else MPoly.const(1)
                q_m = (
                    first.q.retag("x").to_mpoly().substitute({"x": D + X})
                    if first.q
                    else MPoly.const(1)
                )
                core = p_m * q_m
                regen = [core, core * X, core * D]
            second = classify(closure(regen))
            assert second.type_tag == tag
            assert second.p == first.p
            assert second.q == first.q

    def test_split_reconstructs_witness(self):
        for gens in ([X * (D + X) ** 2], [(X**2 - 1) * (D + X)]):
            state = closure(gens)
            desc = classify(state)
            p_m = desc.p.to_mpoly("x") if desc.p else MPoly.const(1)
            q_m = (
                desc.q.retag("x").to_mpoly().substitute({"x": D + X})
                if desc.q
                else MPoly.const(1)
            )
            assert p_m * q_m == state.gcd_witness


split_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _upolys(var):
    """Nonzero polynomials of degree <= 3, constants included."""
    return st.lists(split_coeffs, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0).map(
        lambda cs: UPoly(cs, var)
    )


def _at_shift(q):
    """q(z) as the symbol q(d + x)."""
    return q.retag("x").to_mpoly().substitute({"x": D + X})


def split_witness(witness):
    """The split of a witness as c * p(x) * q(d + x): monic p in x, monic q
    in z; None when it does not split (zero included)."""
    return cend1._split(poly._dx_content_and_primitive(witness))


def classify_witness(uses_x, witness):
    """The type of the closure of generators with this gcd witness:
    CPARTIAL when no generator uses x, else the type of the witness's split."""
    return cend1._descriptor(split_witness(witness)) if uses_x else cend1.SubalgDescriptor(CPARTIAL)


class TestSplitWitness:
    @settings(max_examples=200, deadline=None)
    @given(_upolys("x"), _upolys("z"), split_coeffs.filter(bool))
    def test_returns_the_monic_factors(self, p, q, c):
        witness = (p.to_mpoly() * _at_shift(q)).scale(c)
        assert split_witness(witness) == (p.monic(), q.monic())

    @settings(max_examples=100, deadline=None)
    @given(
        _upolys("x"),
        _upolys("z"),
        st.sampled_from(("d*x + 1", "d^2 + x", "d*x^2 + d + 1", "d")),
    )
    def test_mixed_factor_raises(self, p, q, mixed):
        witness = p.to_mpoly() * _at_shift(q) * parse_poly(mixed)
        assert split_witness(witness) is None
        with pytest.raises(ValueError, match="does not split"):
            classify_witness(True, witness)

    def test_zero_raises(self):
        assert split_witness(MPoly.zero()) is None
        with pytest.raises(ValueError, match="does not split"):
            classify_witness(True, MPoly.zero())

    def test_type_from_generators_and_witness(self):
        assert classify_witness(False, X * (D + X)).type_tag == CPARTIAL
        assert classify_witness(True, MPoly.const(3)).type_tag == FULL
        assert classify_witness(True, X**2 - 1).p == UPoly((-1, 0, 1), "x")
        assert classify_witness(True, (D + X) * 2).q == UPoly((0, 1), "z")
        desc = classify_witness(True, X * (D + X + 1))
        assert (desc.type_tag, desc.p, desc.q) == (PQ, UPoly((0, 1)), UPoly((1, 1), "z"))


def substitution_split(witness):
    """The split by substitution, a reference model for ``split_witness``.

    Put d = z - x (z kept in d).  Then w(z - x, x) = c * p(x) * q(z), so p is
    its content over Q[x] and q its primitive part, which is free of x
    exactly when w splits.  None when it does not split (zero included).
    """
    if witness.is_zero():
        return None
    shifted = witness.substitute({"d": D - X})
    p = _content(shifted, "d", "x")
    coeffs = {k: upoly_from_mpoly(c, "x").exact_div(p)
              for k, c in shifted.coefficients_in("d").items()}
    if any(not c.is_constant() for c in coeffs.values()):
        return None
    q = UPoly([coeffs[k].constant_value() if k in coeffs else 0
               for k in range(max(coeffs) + 1)], "z")
    return p, q.monic()


@st.composite
def witnesses(draw):
    """c * p(x) * q(d + x) with rational coefficients, half of them times a
    polynomial in d and x, which mostly breaks the split."""
    p, q, c = draw(_upolys("x")), draw(_upolys("z")), draw(split_coeffs.filter(bool))
    w = (p.to_mpoly() * _at_shift(q)).scale(c)
    return w * draw(dx_polys) if draw(st.booleans()) else w


class TestDerivativeCriterion:
    @settings(max_examples=300, deadline=None)
    @given(witnesses())
    def test_matches_the_substitution_split(self, witness):
        assert split_witness(witness) == substitution_split(witness)


@pytest.mark.parametrize(
    "generators",
    [
        ["d*x^2 + d*x"],  # one derivation step
        [format_poly(X * (D + X) * f) for f in (D + 1, X + 2, X * (D * X - 3))],  # a fold
        ["4*d^2 - x^2"],
    ],
)
def test_each_witness_has_its_content_computed_once_and_is_split_once(monkeypatch, generators):
    contents, splits = [], []

    def content(coeffs):
        parts = content_and_primitive(coeffs)
        contents.append(poly._from_parts(parts))
        return parts

    def split(witness):
        splits.append(poly._from_parts(witness))
        return split_parts(witness)

    content_and_primitive, split_parts = poly._content_and_primitive, cend1._split
    monkeypatch.setattr(poly, "_content_and_primitive", content)
    monkeypatch.setattr(cend1, "_split", split)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(generators)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classify-cend1"]) == 0
    report = json.loads(out.getvalue())
    assert len(splits) == len(set(splits)) == 1 + len(report["certificate"]["derivation"])
    assert format_poly(splits[-1]) == report["certificate"]["gcd_witness"]
    assert max(Counter(c for c in contents if c).values()) == 1  # the zero start is no witness


class TestIrreducibility:
    def test_flags(self):
        assert irreducible_on_standard(classify(closure([X])))
        assert irreducible_on_standard(classify(closure([MPoly.const(1)])))
        assert irreducible_on_standard(classify(closure([X, D])))
        assert not irreducible_on_standard(classify(closure([D + X])))
        assert not irreducible_on_standard(classify(closure([X * (D + X)])))


# ---------------------------------------------------------------------------
# Reference models: the naive saturation loops, which recompute every product
# pair and every substitution in every round.  gclie.irreducibility_probe runs
# its loop with no cap and no rounds: whenever the capped loop decides, the
# probe must give the same outcome, rank and basis, in at most as many rounds.
# cend1.closure derives its gcd from
# one product, with no cap and no rounds: whenever the saturation stabilises
# with a witness that decides the type, it must decide that type.
# structure.unital_closure_probe answers from the coefficient algebra:
# whenever the saturation stabilises, it must give the same outcome and rank.
# ---------------------------------------------------------------------------


def _poly_to_row(p, cap):
    parts = p.coefficients_in("x")
    if max(parts, default=-1) > cap:
        return None
    row = [UPoly.zero("d")] * (cap + 1)
    for k, part in parts.items():
        row[k] = upoly_from_mpoly(part, "d")
    return row


def _rows_to_polys(rows):
    out = []
    for row in rows:
        acc = MPoly.zero()
        for k, entry in enumerate(row):
            if not entry.is_zero():
                acc = acc + entry.to_mpoly("d") * X**k
        out.append(acc)
    return tuple(out)


def _gcd_of(polys):
    return reduce(bipoly_gcd, polys, MPoly.zero())


def _product_parts(a, b):
    """The l-coefficient matrices of the product a_l b, summed here entry by
    entry from the definition a(-l, x + l + d) b(l + d, x): {power: matrix}."""
    n = len(a)
    head = [[e.substitute({"d": -L, "x": X + L + D}) for e in row] for row in a]
    tail = [[e.substitute({"d": L + D}) for e in row] for row in b]
    parts = {}
    for i in range(n):
        for j in range(n):
            entry = sum((head[i][k] * tail[k][j] for k in range(n)), MPoly.zero())
            for k, c in entry.coefficients_in("l").items():
                parts.setdefault(k, [[MPoly.zero()] * n for _ in range(n)])[i][j] = c
    return parts


# The reference models keep each span as the Hermite form of the ideal
# oracle, recomputed from all its rows, so they share no code with the
# PidRowBasis the probes under test use: a span grew in a round when its
# Hermite form changed, and it holds a row when adding the row leaves its
# Hermite form as it was.  They form products and actions by substituting
# into each entry (``_product_parts``, ``_acted_rows``), not through ``cend``.


def naive_closure(gens, x_degree_cap, rounds):
    """Saturate a capped Q[d]-module basis: (basis, witness, rounds, status)."""
    width = x_degree_cap + 1
    span = hermite_form([_poly_to_row(g, x_degree_cap) for g in gens if not g.is_zero()], width)
    witness = _gcd_of(_rows_to_polys(span))
    rounds_used = 0
    for round_no in range(1, rounds + 1):
        rounds_used = round_no
        current = _rows_to_polys(span)
        offered = []
        for a in current:
            for b in current:
                for (part,), in _product_parts(((a,),), ((b,),)).values():
                    row = _poly_to_row(part, x_degree_cap)
                    if row is not None:
                        offered.append(row)
        grown = hermite_form([*span, *offered], width)
        new_witness = _gcd_of(_rows_to_polys(grown))
        stable = grown == span and new_witness == witness
        span, witness = grown, new_witness
        if stable:
            return _rows_to_polys(span), witness, rounds_used, "stabilized"
    return _rows_to_polys(span), witness, rounds_used, "budget_exhausted"


def naive_unital_closure_probe(gens, degree_cap, rounds):
    """The capped Q[d]-module saturation: (outcome, rank), undecided if unstable."""
    n = gens[0].n
    if any(g.uses_x() for g in gens):
        return "cend_n", 0

    def to_row(entries):
        return [upoly_from_mpoly(entries[i][j], "d") for i in range(n) for j in range(n)]

    def from_row(row):
        return [[row[i * n + j].to_mpoly("d") for j in range(n)] for i in range(n)]

    span = hermite_form([to_row(g.entries) for g in gens], n * n)
    for _ in range(rounds):
        current = [from_row(r) for r in span]
        offered = []
        for a in current:
            for b in current:
                for coeff in _product_parts(a, b).values():
                    entries = [e for row in coeff for e in row]
                    if any(e.uses("x") for e in entries):
                        return "cend_n", len(span)
                    if max(max(e.coefficients_in("d"), default=-1) for e in entries) <= degree_cap:
                        offered.append(to_row(coeff))
        grown = hermite_form([*span, *offered], n * n)
        if grown == span:
            return "cur_n", len(span)
        span = grown
    return "undecided", len(span)


def _acted_rows(gens, p_mat, alpha, rows):
    """Every l-coefficient row of every generator acting on every row, summed
    here entry by entry from the definition: the full symbol E = a P acts on
    v by E(-l, l + d + alpha) v(l + d)."""
    n = p_mat.n
    p = [[e.to_mpoly("x") for e in row] for row in p_mat.rows]
    twist = {"d": -L, "x": L + D + alpha}
    out = []
    for gen in gens:
        a = gen.entries
        head = [[sum((a[i][k] * p[k][j] for k in range(n)), MPoly.zero()).substitute(twist)
                 for j in range(n)] for i in range(n)]
        for row in rows:
            v = [c.to_mpoly("d").substitute({"d": L + D}) for c in row]
            series = {}
            for i in range(n):
                acted = sum((head[i][j] * v[j] for j in range(n)), MPoly.zero())
                for k, c in acted.coefficients_in("l").items():
                    series.setdefault(k, [UPoly.zero("d")] * n)[i] = upoly_from_mpoly(c, "d")
            out.extend(series.values())
    return out


def naive_irreducibility_probe(gens, p_mat, alpha, start, degree_cap, rounds):
    n = p_mat.n
    span = hermite_form([start], n)
    one = UPoly.const(1, "d")
    rounds_used = 0
    for round_no in range(1, rounds + 1):
        rounds_used = round_no
        offered = [
            r for r in _acted_rows(gens, p_mat, alpha, span)
            if max(e.degree() for e in r) <= degree_cap
        ]
        grown = hermite_form([*span, *offered], n)
        changed, span = grown != span, grown
        if len(span) == n and all(row[i] == one for i, row in enumerate(span)):
            return ProbeOutcome("irreducible", n, rounds_used, span)
        if not changed:
            # stabilized strictly below the full span: verify invariance
            if hermite_form([*span, *_acted_rows(gens, p_mat, alpha, span)], n) != span:
                return ProbeOutcome("undecided", len(span), rounds_used, span)
            return ProbeOutcome("proper_invariant_detected", len(span), rounds_used, span)
    return ProbeOutcome("undecided", len(span), rounds_used, span)


def _assert_invariant(gens, p_mat, alpha, rows):
    """Every coefficient row of every generator on every row lies in their span."""
    span = hermite_form(rows, p_mat.n)
    acted = _acted_rows(gens, p_mat, alpha, rows)
    assert hermite_form([*span, *acted], p_mat.n) == span


small_coeffs = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


def _poly_in(variables):
    """Polynomials in ``variables`` of degree <= 2 in each, few terms."""
    exps = st.tuples(*(st.integers(0, 2) if v else st.just(0) for v in variables))
    return st.dictionaries(exps, small_coeffs, max_size=4).map(
        lambda terms: MPoly({(e[0], e[1], 0, 0): c for e, c in terms.items() if c})
    )


dx_polys = _poly_in((True, True))
d_polys = _poly_in((True, False))


def _symbols(entries, n):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda es: CendElem([es[i * n:(i + 1) * n] for i in range(n)])
    )


@st.composite
def unital_sets(draw):
    n = draw(st.integers(1, 3))
    others = draw(st.lists(_symbols(d_polys, n), min_size=1, max_size=2))
    return [CendElem.identity(n), *others]


@st.composite
def probe_inputs(draw):
    n = draw(st.integers(1, 2))
    diag = draw(st.lists(st.sampled_from(("1", "x", "x - 1", "x^2")), min_size=n, max_size=n))
    p_mat = PolyMat.diagonal([upoly_from_mpoly(parse_poly(e), "x") for e in diag])
    gens = draw(st.lists(_symbols(dx_polys, n), min_size=1, max_size=2))
    start = draw(
        st.lists(d_polys, min_size=n, max_size=n).filter(lambda v: any(v))
    )
    alpha = draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2))))
    return gens, p_mat, alpha, tuple(upoly_from_mpoly(e, "d") for e in start)


class TestSaturationMatchesNaiveLoops:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(dx_polys, min_size=1, max_size=3).filter(lambda gs: any(gs)),
        st.integers(2, 5),
        st.integers(1, 4),
    )
    def test_closure(self, gens, cap, rounds):
        basis, witness, _, status = naive_closure(gens, cap, rounds)
        uses_x = any(b.uses("x") for b in basis)
        got = closure(gens)
        assert len(got.derivation) <= _gcd_of(gens).total_degree()
        assert replay(gens, got.derivation) == got
        # the derivation replayed from the definition: each step's l-part
        # properly lowers the gcd, down to the reported witness
        lowered = _gcd_of(gens)
        for a, b, k in got.derivation:
            (part,), = _product_parts(((gens[a],),), ((gens[b],),)).get(k, ((MPoly.zero(),),))
            step = bipoly_gcd(lowered, part)
            assert step != lowered
            lowered = step
        assert lowered == got.gcd_witness
        if status != "stabilized":
            return
        try:
            want = classify_witness(uses_x, witness)
        except ValueError:  # stabilised under the cap without a split witness
            return
        assert classify(got) == want

    @settings(max_examples=80, deadline=None)
    @given(unital_sets(), st.integers(2, 5), st.integers(1, 4))
    def test_unital_closure_probe(self, gens, cap, rounds):
        outcome, rank = naive_unital_closure_probe(gens, cap, rounds)
        got = unital_closure_probe(gens)
        if outcome != "undecided":
            assert (got.outcome, got.basis_rank) == (outcome, rank)

    @settings(max_examples=80, deadline=None)
    @given(probe_inputs(), st.integers(1, 5), st.integers(1, 4))
    # d + x acts as d + alpha, so the multiples of d + alpha are invariant
    @example(
        ([CendElem([[D + X]])], PolyMat([[UPoly((0, 1))]]), Fraction(1), (UPoly((1, 1), "d"),)),
        2,
        2,
    )
    def test_irreducibility_probe(self, case, cap, rounds):
        gens, p_mat, alpha, start = case
        got = irreducibility_probe(gens, p_mat, alpha, start)
        want = naive_irreducibility_probe(gens, p_mat, alpha, start, cap, rounds)
        assert got.outcome in ("irreducible", "proper_invariant_detected")
        if want.outcome != "undecided":
            assert (got.outcome, got.rank, got.basis) == (want.outcome, want.rank, want.basis)
            assert got.rounds_used <= want.rounds_used
        if got.outcome == "proper_invariant_detected":
            _assert_invariant(gens, p_mat, alpha, got.basis)

    @pytest.mark.parametrize(
        "entries,start",
        [([["0", "x"], ["d", "x^3"]], ("d^2", "0")), ([["x^3", "0"], ["d", "x"]], ("1", "0"))],
        ids=["cap_skipped_two_rounds", "cap_skipped_one_round"],
    )
    def test_golden_probe_cases_are_decided(self, entries, start):
        # the capped loop leaves both undecided: rows above its cap were skipped
        gen = CendElem([[parse_poly(e) for e in row] for row in entries])
        start = tuple(upoly_from_mpoly(parse_poly(e), "d") for e in start)
        args = ([gen], PolyMat.identity(2), 0, start)
        assert naive_irreducibility_probe(*args, 1, 4).outcome == "undecided"
        got = irreducibility_probe(*args)
        assert (got.outcome, got.rank) == ("irreducible", 2)
        assert got == naive_irreducibility_probe(*args, 16, 4)

    def test_chain_needs_a_round_per_link(self):
        # E12, E23, E34 carry e4 to e3, e2 and e1, one link per round
        gens = [CendElem.matrix_unit(4, i, i + 1) for i in range(3)]
        start = tuple(UPoly.const(int(i == 3), "d") for i in range(4))
        got = irreducibility_probe(gens, PolyMat.identity(4), 0, start)
        assert (got.outcome, got.rank, got.rounds_used) == ("irreducible", 4, 3)
        assert got == naive_irreducibility_probe(gens, PolyMat.identity(4), 0, start, 0, 3)


class TestProductPreservesSplitDivisibility:
    """The lemma behind the search: for a split w = p(x) * q(d + x), every
    l-part of a product of two multiples of w is a multiple of w."""

    @settings(max_examples=100, deadline=None)
    @given(_upolys("x"), _upolys("z"), dx_polys, dx_polys)
    def test_l_parts_stay_divisible(self, p, q, f, g):
        w = p.to_mpoly() * _at_shift(q)
        monic_w = bipoly_gcd(w, MPoly.zero())
        product = product_apply(((w * f,),), ((w * g,),), L)[0][0]
        for part in product.coefficients_in("l").values():
            assert bipoly_gcd(part, w) == monic_w


def _content(p, var, over):
    """The monic gcd of p's coefficients as a polynomial in ``var``; they lie in Q[over]."""
    acc = UPoly.zero(over)
    for c in p.coefficients_in(var).values():
        acc = upoly_gcd(acc, upoly_from_mpoly(c, over))
    return acc


def _split_parts(gens):
    """gcd_i p_i(x) * gcd_i q_i(d+x) over the nonzero generators g_i.

    p_i, the factors of g_i free of d, is its content over Q[x] as a
    polynomial in d.  q_i, the factors that are polynomials in d+x, is the
    content over Q[z] of g_i(z - x, x) as a polynomial in x; z is kept in d.
    """
    p = q = None
    for g in gens:
        if g.is_zero():
            continue
        p_g, q_g = _content(g, "d", "x"), _content(g.substitute({"d": D - X}), "x", "d")
        p, q = (p_g, q_g) if p is None else (upoly_gcd(p, p_g), upoly_gcd(q, q_g))
    return p.to_mpoly() * q.to_mpoly().substitute({"d": D + X})


@st.composite
def generator_sets(draw):
    """One to three generators, not all zero, sometimes sharing a factor."""
    gens = draw(st.lists(dx_polys, min_size=1, max_size=3).filter(any))
    if draw(st.booleans()):
        common = draw(dx_polys.filter(bool))
        gens = [common * g for g in gens]
    return gens


class TestOneProductSplits:
    """The lemma behind closure: the l-parts of g * g, for g the first
    nonzero generator, have gcd p_g(x) * q_g(d+x), so the closure's gcd is
    the product of the generators' common split parts."""

    @settings(max_examples=200, deadline=None)
    @given(generator_sets())
    def test_gcd_is_the_common_split_part(self, gens):
        got = closure(gens)
        assert got.status in ("split", "x_free")
        if got.status == "x_free":
            assert not any(g.uses("x") for g in gens)
            return
        assert got.gcd_witness == bipoly_gcd(_split_parts(gens), MPoly.zero())
        first = next(i for i, g in enumerate(gens) if not g.is_zero())
        assert all((a, b) == (first, first) for a, b, _ in got.derivation)
        assert got.rounds == (1 if got.derivation else 0)
