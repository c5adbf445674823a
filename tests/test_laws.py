"""Cross-verb laws: verbs that must agree with each other, run through ``cli.main``.

Each law is a seeded property over small inputs (n x n matrices with n in
{1, 2, 3} and entries of degree 1-2; ``classify-cend1`` generators of degree
at most 5), with unimodular U and V from ``sampling.random_unimodular``:

* ``iso`` finds P and U * P(x + a) * V isomorphic, with shift a;
* ``smith`` gives U * P * V the divisors of P;
* ``anti-auto`` answers the same for P and U * P(x + a) * V, its shift moved
  by -2a;
* ``classify-cend1`` is unchanged when the generators are reversed, when the
  sum of two generators is added and when d times a generator is added;
* ``unital-probe`` does not depend on generator order;
* ``irreducibility-probe`` gives the same result and certificate when the
  generators are reversed and when one generator is repeated.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from confalg.cend import CendElem
from confalg.cli import main
from confalg.grammar import format_poly
from confalg.jsonio import cend_to_json, fraction_to_str, polymat_to_json
from confalg.poly import MPoly, UPoly
from confalg.polymat import PolyMat, det
from confalg.sampling import (
    random_cend,
    random_modvec_raw,
    random_mpoly_dx,
    random_polymat,
    random_unimodular,
)



def _run(verb: str, payload) -> dict:
    """The result of one decided in-process call of ``verb`` on ``payload``."""
    return _decided(verb, payload)["result"]


def _decided(verb: str, payload) -> dict:
    """The envelope of one decided in-process call of ``verb`` on ``payload``."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out):
            code = main([verb])
    finally:
        sys.stdin = stdin
    [line] = out.getvalue().splitlines()
    envelope = json.loads(line)
    assert code == 0 and envelope["status"] == "decided", envelope
    return envelope


def _nondegenerate(rng: random.Random, n: int):
    """A random n x n matrix over Q[x] of degree 1-2 with nonzero determinant."""
    while True:
        p = random_polymat(rng, n, rng.randint(1, 2))
        if not det(p).is_zero():
            return p


def _upper(rows, zero):
    """The rows with every entry below the diagonal replaced by ``zero``."""
    return [[e if j >= i else zero for j, e in enumerate(row)] for i, row in enumerate(rows)]


def _scrambled(rng: random.Random, p, a: int):
    """U * P(x + a) * V for random unimodular U and V."""
    n = p.n
    return random_unimodular(rng, n) @ p.shift(a) @ random_unimodular(rng, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_iso_smith_and_anti_auto_see_through_unimodular_shifts(seed, n):
    rng = random.Random(seed * 10 + n)
    p = _nondegenerate(rng, n)
    a = rng.randint(-3, 3)
    q = _scrambled(rng, p, a)
    constant = det(p).degree() == 0  # every shift is one; the verbs pick 0
    iso = _run("iso", {"p": polymat_to_json(p), "q": polymat_to_json(q)})
    assert iso == {"isomorphic": True, "alpha": "0" if constant else str(a)}
    divisors = _run("smith", {"matrix": polymat_to_json(p)})["divisors"]
    q0 = _scrambled(rng, p, 0)
    assert _run("smith", {"matrix": polymat_to_json(q0)})["divisors"] == divisors
    mine = _run("anti-auto", {"p": polymat_to_json(p)})
    theirs = _run("anti-auto", {"p": polymat_to_json(q)})
    assert theirs["exists"] == mine["exists"]
    if mine["exists"] and not constant:
        assert theirs["alpha"] == fraction_to_str(Fraction(mine["alpha"]) - 2 * a)


def _classification(gens) -> tuple:
    result = _run("classify-cend1", {"generators": [format_poly(g) for g in gens]})
    return result["type"], result["p"], result["q"], result["irreducible_on_standard"]


def _cend1_generators(rng: random.Random) -> list[MPoly]:
    """p(x) * q(d + x) * m_i with m_1 = 1 and p, q of degree 0-2, so that every
    type of subalgebra can come out."""
    x, dx = MPoly.var("x"), MPoly.var("d") + MPoly.var("x")
    head = MPoly.const(rng.choice([1, 2, Fraction(-1, 2)]))
    for t in (x, dx):
        for _ in range(rng.randint(0, 2)):
            head = head * (t - rng.randint(-2, 2))
    count = rng.randint(2, 3)
    gens = [head]
    while len(gens) < count:
        m = random_mpoly_dx(rng, 1)
        if not m.is_zero():
            gens.append(head * m)
    return gens


@pytest.mark.parametrize("seed", range(24))
def test_classify_cend1_depends_only_on_the_generated_algebra(seed):
    rng = random.Random(seed)
    gens = _cend1_generators(rng)
    want = _classification(gens)
    assert _classification(gens[::-1]) == want
    assert _classification([*gens, gens[0] + gens[1]]) == want
    assert _classification([*gens, MPoly.var("d") * gens[-1]]) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_unital_probe_does_not_depend_on_generator_order(seed, n):
    # the identity and two symbols in d alone, upper triangular on half the
    # seeds; on odd seeds one in d and x too
    rng = random.Random(seed * 10 + n)
    gens = [CendElem.identity(n)]
    for _ in range(2):
        rows = [random_modvec_raw(rng, n, rng.randint(1, 2)) for _ in range(n)]
        if seed % 4 < 2:  # upper triangular: a proper subalgebra for n > 1
            rows = _upper(rows, MPoly.zero())
        gens.append(CendElem(rows))
    if seed % 2:
        gens.append(random_cend(rng, n, 1))
    gens = [cend_to_json(g) for g in gens]
    want = _run("unital-probe", {"gens": gens})
    assert _run("unital-probe", {"gens": gens[::-1]}) == want
    assert _run("unital-probe", {"gens": [*gens[1:], gens[0]]}) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(16))
def test_irreducibility_probe_depends_only_on_the_generator_set(seed, n):
    # one to three generators of degree 0-2 under a nondegenerate P and an
    # integer alpha; on half the seeds P and the generators are upper
    # triangular and the start is on e_1, whose Q[d]-line is then invariant
    rng = random.Random(seed * 10 + n)
    triangular = seed % 4 < 2
    while True:
        p = random_polymat(rng, n, rng.randint(1, 2))
        if triangular:
            p = PolyMat(_upper(p.rows, UPoly.zero()))
        if not det(p).is_zero():
            break
    gens = []
    for _ in range(rng.randint(1, 3)):
        rows = random_cend(rng, n, rng.randint(0, 2)).entries
        gens.append(cend_to_json(CendElem(_upper(rows, MPoly.zero()) if triangular else rows)))
    start: tuple[MPoly, ...] = ()
    while all(e.is_zero() for e in start):
        start = random_modvec_raw(rng, n, rng.randint(0, 1))
        if triangular:
            start = (start[0],) + (MPoly.zero(),) * (n - 1)
    payload = {"p": polymat_to_json(p), "start": [format_poly(e) for e in start],
               "alpha": str(rng.randint(-2, 2))}

    def probe(gens):
        envelope = _decided("irreducibility-probe", {**payload, "gens": gens})
        return envelope["result"], envelope["certificate"]

    want = probe(gens)
    assert probe(gens[::-1]) == want
    assert probe([*gens, gens[rng.randrange(len(gens))]]) == want
