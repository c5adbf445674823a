"""Brute-force ideal saturation oracle: degree-capped closure, then Hermite.

Independent of the production path: it saturates the generated one-sided
ideal under lambda-products with a monomial probe set and only then reads
off the canonical generator, instead of trusting the coefficient-stripping
argument.
"""

from __future__ import annotations

from confalg.cend import CendElem, product_apply
from confalg.poly import MPoly, UPoly, upoly_from_mpoly
from confalg.polymat import PidRowBasis, PolyMat, adjugate, det, hermite_left_generator
from confalg.structure import _d_coefficient_mats

_D = MPoly.var("d")
_X = MPoly.var("x")


def _flatten(elem: CendElem, x_cap: int) -> list[UPoly] | None:
    n = elem.n
    if elem.x_degree() > x_cap:
        return None
    row = [UPoly.zero("d")] * (n * n * (x_cap + 1))
    for i in range(n):
        for j in range(n):
            for k, part in elem.entries[i][j].coefficients_in("x").items():
                row[(i * n + j) * (x_cap + 1) + k] = upoly_from_mpoly(part, "d")
    return row


def _unflatten(row, n: int, x_cap: int) -> CendElem:
    entries = []
    for i in range(n):
        rr = []
        for j in range(n):
            acc = MPoly.zero()
            for k in range(x_cap + 1):
                c = row[(i * n + j) * (x_cap + 1) + k]
                if not c.is_zero():
                    acc = acc + c.to_mpoly("d") * _X**k
            rr.append(acc)
        entries.append(rr)
    return CendElem(entries)


def _probes(n: int, p_mat: PolyMat, probe_cap: int) -> list[CendElem]:
    out = []
    for i in range(probe_cap + 1):
        for j in range(probe_cap + 1 - i):
            mono = _D**i * _X**j
            for r in range(n):
                for c in range(n):
                    out.append(
                        CendElem.matrix_unit(n, r, c, mono).times_polymat(p_mat)
                    )
    return out


def _saturate(
    p_mat: PolyMat,
    gens: list[CendElem],
    side: str,
    probe_cap: int,
    x_cap: int,
    rounds: int,
) -> list[CendElem]:
    n = p_mat.n
    basis = PidRowBasis(n * n * (x_cap + 1), var="d")
    for g in gens:
        row = _flatten(g.times_polymat(p_mat), x_cap)
        assert row is not None, "generator exceeds the oracle cap"
        basis.add(row)
    probes = _probes(n, p_mat, probe_cap)
    for _ in range(rounds):
        changed = False
        current = [_unflatten(r, n, x_cap) for r in basis.canonical()]
        for e in current:
            for c in probes:
                if side == "left":
                    raw = product_apply(c.entries, e.entries, "l")
                else:
                    raw = product_apply(e.entries, c.entries, "l")
                coeffs: dict[int, list[list[MPoly]]] = {}
                for i in range(n):
                    for j in range(n):
                        for k, part in raw[i][j].coefficients_in("l").items():
                            grid = coeffs.setdefault(
                                k, [[MPoly.zero()] * n for _ in range(n)]
                            )
                            grid[i][j] = grid[i][j] + part
                for grid in coeffs.values():
                    elem = CendElem(grid)
                    if elem.is_zero():
                        continue
                    row = _flatten(elem, x_cap)
                    if row is not None and basis.add(row):
                        changed = True
        if not changed:
            break
    return [_unflatten(r, n, x_cap) for r in basis.canonical()]


def brute_left_generator(
    p_mat: PolyMat,
    gens: list[CendElem],
    probe_cap: int = 2,
    x_cap: int = 8,
    rounds: int = 6,
) -> PolyMat:
    elements = _saturate(p_mat, gens, "left", probe_cap, x_cap, rounds)
    mats: list[PolyMat] = []
    for e in elements:
        mats.extend(_d_coefficient_mats(e))
    hermite, _ = hermite_left_generator(mats)
    return (hermite @ adjugate(p_mat)).map_entries(lambda e: e.exact_div(det(p_mat)))


def brute_right_generator(
    p_mat: PolyMat,
    gens: list[CendElem],
    probe_cap: int = 2,
    x_cap: int = 8,
    rounds: int = 6,
) -> PolyMat:
    elements = _saturate(p_mat, gens, "right", probe_cap, x_cap, rounds)
    mats: list[PolyMat] = []
    for e in elements:
        # the (d+x)-adapted expansion: x -> z - d (z in the x slot), then strip d
        shifted = e.substitute({"x": _X - _D})
        mats.extend(m.transpose() for m in _d_coefficient_mats(shifted))
    hermite_t, _ = hermite_left_generator(mats)
    return hermite_t.transpose()
