"""Seeded request generators with answers known by construction.

Every request carries a ``check`` that compares confalg's envelope with an
answer fixed when the input was built, using only ``refpoly``:

* ``smith``: U * diag(d1, d2, d3) * V with d1 | d2 | d3 and unimodular U, V,
  so the invariant divisors are d1, d2, d3.
* ``iso``: Q = U * P(x + a) * V is isomorphic to P with shift a; negative
  cases pair divisor chains (1, f) and (g, g) that no shift can match.
* ``anti-auto`` / ``anti-inv-search``: divisor roots symmetric about a/2
  give an anti-automorphism with shift a; P with P^T(a - x) = e * P has the
  anti-involution Y = 1; asymmetric roots admit neither.
* ``ideal``: generators A_i * H * P (left) or H(d+x) * A_i (right) with
  A_1 = 1, so the ideal generator is the Hermite form of the diagonal H.
* ``classify-cend1``: generators p(x) * q(d+x) * m_i with m_1 = 1 give the
  type and the split (p, q) directly.
* ``unital-probe``, ``irreducibility-probe``: x-free unital sets close on
  the current algebra; constant generators act irreducibly; generators with
  a factor q(d+x) keep q(d+alpha) Q[d] invariant.
* ``product`` / ``bracket``: the series is recomputed here from the
  substitution formula.
* ``check-axioms`` / ``extension-build``: the axioms hold, so ``ok`` is true.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import refpoly as rp

D = rp.var("d")
X = rp.var("x")
L = rp.var("l")


@dataclass(frozen=True)
class Request:
    verb: str
    payload: dict
    flags: tuple[str, ...]
    check: Callable[[dict], str | None]  # envelope -> problem, or None if right


def _same(text: str, want: dict) -> bool:
    return rp.parse(text) == want


def _mismatch(field: str, got, want) -> str:
    return f"{field}: got {got!r}, want {want!r}"


# -- random building blocks --------------------------------------------------


def _roots(rng: random.Random, k: int, lo: int = -4, hi: int = 4) -> list[int]:
    return rng.sample(range(lo, hi + 1), k)


def _unimodular(rng: random.Random, n: int, ops: int) -> list:
    """Product of transvections I + c x^k E_ij and row swaps; det = +-1."""
    mat = rp.mat_diag([rp.ONE] * n)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        step = rp.mat_diag([rp.ONE] * n)
        if rng.random() < 0.2:
            step[i], step[j] = step[j], step[i]
        else:
            step[i][j] = rp.scale(rp.var("x", rng.randint(0, 1)), rng.choice([1, -1, 2, -2]))
        mat = rp.mat_mul(mat, step)
    return mat


def _scramble(rng: random.Random, diag: list, ops: int = 2) -> list:
    n = len(diag)
    return rp.mat_mul(rp.mat_mul(_unimodular(rng, n, ops), rp.mat_diag(diag)), _unimodular(rng, n, ops))


def _rand_dx(rng: random.Random, degree: int) -> dict:
    """Random polynomial in d, x of total degree <= degree."""
    out: dict = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = rng.randint(-2, 2)
            if c:
                out[(i, j, 0, 0)] = c
    return out or rp.ONE


def _rand_mat(rng: random.Random, n: int, degree: int) -> list:
    return [[_rand_dx(rng, degree) for _ in range(n)] for _ in range(n)]


def _at_shift(p: dict) -> dict:
    """p(x) -> p(d + x)."""
    return rp.subst(p, {"x": rp.add(D, X)})


def _nonsingular_x_mat(rng: random.Random, n: int) -> list:
    diag = [rp.from_roots(_roots(rng, 1)) for _ in range(n)]
    return _scramble(rng, diag, 1)


# -- axioms workload -----------------------------------------------------------


def _flags(rng: random.Random, rounds: int) -> tuple[str, ...]:
    return ("--rounds", str(rounds), "--seed", str(rng.randrange(1 << 30)))


def _ok_check(count: int, ok_key: str = "ok", extra: tuple[str, ...] = ()):
    def check(env: dict) -> str | None:
        res = env["result"]
        for key in (ok_key,) + extra:
            if res.get(key) is not True:
                return _mismatch(key, res.get(key), True)
        if res.get("checked") != count:
            return _mismatch("checked", res.get("checked"), count)
        return None

    return check


def check_axioms(rng: random.Random, kind: str) -> Request:
    payload: dict = {"kind": kind, "n": 2, "degree": 2}
    if kind == "module":
        # a diagonal P: scrambled ones made this request's time vary 4x
        payload["p"] = rp.mat_fmt(rp.mat_diag([rp.from_roots([r]) for r in _roots(rng, 2)]))
        payload["alphas"] = [str(rng.randint(-3, 3))]
    return Request("check-axioms", payload, _flags(rng, 1), _ok_check(1))


def extension_build(rng: random.Random, kind: str) -> Request:
    if kind == "factorization":
        r_mat = _nonsingular_x_mat(rng, 1)
        s_mat = _nonsingular_x_mat(rng, 1)
        alpha = rng.randint(-3, 3)
        p_mat = rp.mat_subst(rp.mat_mul(r_mat, s_mat), {"x": rp.upoly([-alpha, 1])})
        payload = {
            "kind": kind,
            "p": rp.mat_fmt(p_mat),
            "r": rp.mat_fmt(r_mat),
            "s": rp.mat_fmt(s_mat),
            "alpha": str(alpha),
        }
    else:
        payload = {
            "kind": kind,
            "p": rp.mat_fmt(_nonsingular_x_mat(rng, 1)),
            "gamma": str(rng.randint(-3, 3)),
        }
    return Request(
        "extension-build", payload, _flags(rng, 1), _ok_check(1, "axioms_ok", ("submodule_ok",))
    )


# -- closure workload ----------------------------------------------------------

CLOSURE_TYPES = ("CPARTIAL", "P_ONLY", "Q_ONLY", "PQ", "FULL")
_IRREDUCIBLE_TYPES = ("CPARTIAL", "P_ONLY", "FULL")


def classify(rng: random.Random, tag: str, cap: str | None) -> Request:
    # p = x for PQ: a nonzero root of p there makes the closure ~15x slower,
    # all of it in products of large rationals rather than in the basis
    p = {"P_ONLY": rp.from_roots(_roots(rng, 1)), "PQ": X}.get(tag, rp.ONE)
    q = rp.from_roots(_roots(rng, 1)) if tag in ("Q_ONLY", "PQ") else rp.ONE
    if tag == "CPARTIAL":
        gens = [rp.upoly([rng.randint(-3, 3), rng.choice([1, -1])], "d"), rp.from_roots(_roots(rng, 2), "d")]
    elif tag == "FULL":
        gens = [rp.sub(X, rp.const(rng.randint(-3, 3))), rp.add(D, rp.const(rng.randint(-3, 3)))]
    elif tag == "PQ":
        gens = [rp.mul(p, _at_shift(q))]
    else:
        base = rp.mul(p, _at_shift(q))
        cof = rp.add(rp.scale(D, rng.choice([1, -1])), rp.const(rng.randint(-2, 2)))
        gens = [base, rp.mul(base, cof)]
    want_p = None if tag in ("CPARTIAL", "Q_ONLY") else p
    want_q = rp.monic(q) if tag in ("Q_ONLY", "PQ") else None

    def check(env: dict) -> str | None:
        res = env["result"]
        if res.get("type") != tag:
            return _mismatch("type", res.get("type"), tag)
        for key, want in (("p", want_p), ("q", want_q)):
            got = res.get(key)
            if (got is None) != (want is None) or (got is not None and not _same(got, want)):
                return _mismatch(key, got, rp.fmt(want) if want is not None else None)
        flag = tag in _IRREDUCIBLE_TYPES
        if res.get("irreducible_on_standard") is not flag:
            return _mismatch("irreducible_on_standard", res.get("irreducible_on_standard"), flag)
        return None

    flags = ("--rounds", "12") + (("--degree-cap", cap) if cap else ())
    return Request("classify-cend1", {"generators": [rp.fmt(g) for g in gens]}, flags, check)


def _outcome_check(want: str):
    def check(env: dict) -> str | None:
        got = env["result"].get("outcome")
        return None if got == want else _mismatch("outcome", got, want)

    return check


def unital_probe(rng: random.Random) -> Request:
    """x-free unital generators close on the current algebra Cur_2."""
    ident = rp.mat_diag([rp.ONE, rp.ONE])
    gens = [ident]
    for _ in range(2):
        g = [[{}, {}], [{}, {}]]
        for _ in range(2):
            i, j = rng.randrange(2), rng.randrange(2)
            g[i][j] = rp.upoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))] + [1], "d")
        gens.append(g)
    payload = {"gens": [rp.mat_fmt(g) for g in gens]}
    return Request(
        "unital-probe", payload, ("--degree-cap", "4", "--rounds", "8"), _outcome_check("cur_n")
    )


def irreducibility_probe(rng: random.Random, irreducible: bool) -> Request:
    alpha = rng.randint(-3, 3)
    if irreducible:
        # constant matrices I, E12, E21 act irreducibly on Q[d]^2
        one, zero = rp.ONE, {}
        gens = [[[one, zero], [zero, one]], [[zero, one], [zero, zero]], [[zero, zero], [one, zero]]]
        start = [rp.from_roots(_roots(rng, 2), "d"), {}]
        p_mat = rp.mat_diag([rp.ONE, rp.ONE])
        want = "irreducible"
    else:
        # a factor q(d+x) in every generator keeps q(d+alpha) Q[d] invariant
        q = rp.from_roots(_roots(rng, 1))
        qs = _at_shift(q)
        gens = [[[qs]], [[rp.mul(qs, X)]], [[rp.mul(qs, D)]]]
        q_at = rp.subst(q, {"x": rp.add(D, rp.const(alpha))})
        start = [rp.mul(q_at, rp.from_roots(_roots(rng, 1), "d"))]
        p_mat = [[rp.ONE]]
        want = "proper_invariant_detected"
    payload = {
        "p": rp.mat_fmt(p_mat),
        "gens": [rp.mat_fmt(g) for g in gens],
        "start": [rp.fmt(e) for e in start],
        "alpha": str(alpha),
    }
    return Request(
        "irreducibility-probe", payload, ("--degree-cap", "4", "--rounds", "6"), _outcome_check(want)
    )


# -- decide workload -------------------------------------------------------------


def smith(rng: random.Random) -> Request:
    r1, r2, r3, r4 = _roots(rng, 4)
    d1 = rp.from_roots([r1]) if rng.random() < 0.5 else rp.ONE
    d2 = rp.mul(d1, rp.from_roots([r2]))
    d3 = rp.mul(d2, rp.from_roots([r3, r4][: rng.randint(1, 2)]))
    mat = _scramble(rng, [d1, d2, d3], 2)

    def check(env: dict) -> str | None:
        got = env["result"].get("divisors", [])
        want = [d1, d2, d3]
        if len(got) != 3 or not all(_same(g, w) for g, w in zip(got, want)):
            return _mismatch("divisors", got, [rp.fmt(w) for w in want])
        return None

    return Request("smith", {"matrix": rp.mat_fmt(mat)}, (), check)


def iso(rng: random.Random, positive: bool) -> Request:
    r1, r2, r3 = _roots(rng, 3)
    p_mat = _scramble(rng, [rp.ONE, rp.from_roots([r1, r2])])
    if positive:
        alpha = rng.choice([a for a in range(-4, 5) if a])
        shifted = rp.mat_subst(p_mat, {"x": rp.upoly([alpha, 1])})
        q_mat = rp.mat_mul(rp.mat_mul(_unimodular(rng, 2, 2), shifted), _unimodular(rng, 2, 2))
    else:
        alpha = None
        q_mat = _scramble(rng, [rp.from_roots([r3]), rp.from_roots([r3])])

    def check(env: dict) -> str | None:
        res = env["result"]
        got = (res.get("isomorphic"), res.get("alpha"))
        want = (positive, None if alpha is None else str(alpha))
        return None if got == want else _mismatch("isomorphic, alpha", got, want)

    return Request("iso", {"p": rp.mat_fmt(p_mat), "q": rp.mat_fmt(q_mat)}, (), check)


def _symmetric_roots(rng: random.Random, alpha: int, pairs: int) -> list[int]:
    """Roots r and alpha - r, so the product is symmetric about alpha / 2."""
    out: list[int] = []
    for r in rng.sample(range(-3, 4), pairs):
        out += [r, alpha - r]
    return out


def _asymmetric_roots(rng: random.Random) -> list[int]:
    """Three distinct roots with unequal gaps: no reflection fixes them."""
    base = rng.randint(-3, 1)
    gap1 = rng.randint(1, 2)
    return [base, base + gap1, base + gap1 + gap1 + rng.randint(1, 2)]


def anti_auto(rng: random.Random, positive: bool) -> Request:
    if positive:
        alpha = rng.randint(-3, 3)
        chain = [rp.ONE, rp.from_roots(_symmetric_roots(rng, alpha, 1))]
    else:
        alpha = None
        chain = [rp.ONE, rp.from_roots(_asymmetric_roots(rng))]
    p_mat = _scramble(rng, chain)

    def check(env: dict) -> str | None:
        res = env["result"]
        got = (res.get("exists"), res.get("alpha"))
        want = (positive, None if alpha is None else str(alpha))
        return None if got == want else _mismatch("exists, alpha", got, want)

    return Request("anti-auto", {"p": rp.mat_fmt(p_mat)}, (), check)


def _star(mat: list, alpha: int) -> list:
    """Entrywise x -> alpha - x, then transpose."""
    n = len(mat)
    refl = rp.upoly([alpha, -1])
    return [[rp.subst(mat[j][i], {"x": refl}) for j in range(n)] for i in range(n)]


def anti_inv_search(rng: random.Random, positive: bool) -> Request:
    """Positive: P^T(alpha - x) = eps * P, so Y = 1 is an anti-involution.

    Negative: P has no anti-automorphism, hence no anti-involution.  confalg
    answers this decided question ``undecided`` (a known defect), which
    counts as undecided, not as an error.
    """
    if positive:
        alpha = rng.randint(-3, 3)
        eps = rng.choice([1, -1])
        sym = rp.from_roots(_symmetric_roots(rng, alpha, 1))
        odd = rp.mul(rp.upoly([-alpha, 2]), sym)  # odd about alpha / 2
        even_diag = sym if eps == 1 else odd
        other = rp.mul(even_diag, rp.from_roots(_symmetric_roots(rng, alpha, 1)))
        s = rp.scale(rp.var("x", rng.randint(0, 1)), rng.choice([1, -1]))
        s_refl = rp.scale(rp.subst(s, {"x": rp.upoly([alpha, -1])}), eps)
        p_mat = [[even_diag, s], [s_refl, other]]
    else:
        alpha = eps = None
        p_mat = _scramble(rng, [rp.ONE, rp.from_roots(_asymmetric_roots(rng))])

    def check(env: dict) -> str | None:
        res = env["result"]
        if not positive:
            # the true answer is "none exists"; found=True would be wrong
            return None if res.get("found") is False else _mismatch("found", res.get("found"), False)
        if res.get("found") is not True or res.get("alpha") != str(alpha):
            return _mismatch("found, alpha", (res.get("found"), res.get("alpha")), (True, str(alpha)))
        got_eps = res.get("epsilon")
        y = [[rp.parse(e) for e in row] for row in env["certificate"]["y"]]
        lhs = rp.mat_mul(_star(y, alpha), _star(p_mat, alpha))
        rhs = [[rp.scale(e, got_eps) for e in row] for row in rp.mat_mul(p_mat, y)]
        if got_eps not in (1, -1) or lhs != rhs:
            return "certificate Y does not satisfy Y*(P*) = eps P Y"
        return None

    return Request("anti-inv-search", {"p": rp.mat_fmt(p_mat)}, ("--degree-cap", "0"), check)


def ideal(rng: random.Random, side: str) -> Request:
    h = [rp.from_roots(_roots(rng, rng.randint(1, 2))) for _ in range(2)]
    h_mat = rp.mat_diag(h)
    cofactors = [rp.mat_diag([rp.ONE, rp.ONE]), _rand_mat(rng, 2, 1)]
    if side == "left":
        p_mat = rp.mat_diag([rp.from_roots(_roots(rng, 1)), rp.ONE])
        gens = [rp.mat_mul(a, h_mat) for a in cofactors]
    else:
        p_mat = rp.mat_diag([rp.ONE, rp.ONE])
        h_shift = rp.mat_subst(h_mat, {"x": rp.add(D, X)})
        gens = [rp.mat_mul(h_shift, a) for a in cofactors]

    def check(env: dict) -> str | None:
        got = env["result"].get("generator")
        try:
            parsed = [[rp.parse(e) for e in row] for row in got]
        except (TypeError, ValueError):
            return _mismatch("generator", got, rp.mat_fmt(h_mat))
        return None if parsed == h_mat else _mismatch("generator", got, rp.mat_fmt(h_mat))

    payload = {"side": side, "p": rp.mat_fmt(p_mat), "gens": [rp.mat_fmt(g) for g in gens]}
    return Request("ideal", payload, (), check)


def _split_l(mat: list) -> dict[str, list]:
    """Series coefficients keyed "l^k" as confalg reports them."""
    n = len(mat)
    out: dict[str, list] = {}
    for i, row in enumerate(mat):
        for j, e in enumerate(row):
            for exp, c in e.items():
                grid = out.setdefault(f"l^{exp[2]}", [[{} for _ in range(n)] for _ in range(n)])
                grid[i][j] = rp.add(grid[i][j], {(exp[0], exp[1], 0, 0): c})
    return out


def _series_request(verb: str, a: list, b: list) -> Request:
    """Series of a_l b (product) or [a_l b] (bracket) by the substitution formula."""
    lam_d = rp.add(L, D)
    head = rp.mat_subst(a, {"d": rp.scale(L, -1), "x": rp.add(X, lam_d)})
    series = rp.mat_mul(head, rp.mat_subst(b, {"d": lam_d}))
    if verb == "bracket":
        back = rp.mat_mul(
            rp.mat_subst(b, {"d": lam_d, "x": rp.sub(X, L)}),
            rp.mat_subst(a, {"d": rp.scale(L, -1)}),
        )
        series = [[rp.sub(s, t) for s, t in zip(rs, rt)] for rs, rt in zip(series, back)]
    want = _split_l(series)

    def check(env: dict) -> str | None:
        got = env["result"].get("series", {})
        parsed = {k: [[rp.parse(e) for e in row] for row in v] for k, v in got.items()}
        return None if parsed == want else _mismatch("series", got, {k: rp.mat_fmt(v) for k, v in want.items()})

    return Request(verb, {"a": rp.mat_fmt(a), "b": rp.mat_fmt(b)}, (), check)


def product_or_bracket(rng: random.Random, verb: str) -> Request:
    return _series_request(verb, _rand_mat(rng, 2, 1), _rand_mat(rng, 2, 1))


def trivial_product() -> Request:
    """The set-up probe: x times 1, whose series is (d + x) + l."""
    return _series_request("product", [[X]], [[rp.ONE]])


# -- workload mixes ----------------------------------------------------------------

Maker = Callable[[random.Random], Request]

# One block is a fixed mix; a run draws fresh blocks from the seed.  Request
# kinds form latency clusters; with an odd number of kinds per block the
# median and p90 fall inside a cluster rather than on the gap between two.
WORKLOADS: dict[str, list[Maker]] = {
    "axioms": [
        lambda r: check_axioms(r, "lie"),
        lambda r: check_axioms(r, "lie"),
        lambda r: check_axioms(r, "assoc"),
        lambda r: check_axioms(r, "assoc"),
        lambda r: check_axioms(r, "module"),
        lambda r: check_axioms(r, "module"),
        lambda r: extension_build(r, "factorization"),
        lambda r: extension_build(r, "factorization"),
        lambda r: extension_build(r, "jordan"),
    ],
    "closure": [
        *(lambda r, t=t: classify(r, t, None) for t in CLOSURE_TYPES),
        *(lambda r, t=t: classify(r, t, "4") for t in CLOSURE_TYPES[1:]),
        *(lambda r, t=t: classify(r, t, "5") for t in ("Q_ONLY", "PQ", "FULL")),
        unital_probe,
        lambda r: irreducibility_probe(r, True),
        lambda r: irreducibility_probe(r, False),
    ],
    "decide": [
        smith,
        smith,
        smith,
        lambda r: iso(r, True),
        lambda r: iso(r, False),
        lambda r: anti_auto(r, True),
        lambda r: anti_auto(r, False),
        lambda r: anti_inv_search(r, True),
        lambda r: anti_inv_search(r, False),
        lambda r: ideal(r, "left"),
        lambda r: ideal(r, "right"),
        lambda r: product_or_bracket(r, "product"),
        lambda r: product_or_bracket(r, "bracket"),
    ],
}


def block(name: str, rng: random.Random) -> list[Request]:
    return [make(rng) for make in WORKLOADS[name]]
