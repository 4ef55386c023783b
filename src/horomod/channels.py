"""Rank-one law channels and the linearized law equations.

For A1 the Hom channels of V(a) (x) V(b) -> V(a+b-2i) are the
transvectants of binary forms.  _channel_coeff gives the i-th
transvectant on a monomial pair, and ChannelTable serves those
coefficients to every law route, each value computed once per call.

This layer also holds what the tangent route needs and nothing else:
the monoid window, the unknowns m[a,b,i] of a law window, the
commutativity rows, the singular vectors of the triple products, the
two bracketings of associativity, the cost check, and law_tangent, the
linearization at the graded law from the linear rows alone.  The full
quadratic system, its oracle, is mulaw's, so law_tangent runs neither
mulaw nor polysys.
"""

from __future__ import annotations

from math import comb, perm
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import ResourceError, ValidationError
from . import linalg

if TYPE_CHECKING:
    from .rootdata import RootDatum, WeightMonoid

Weight = Tuple[int, ...]

_WINDOW_CAP = 100_000
# Cap on the cost estimate of _check_law_cost for the linear rows.  In
# process, the largest window N*n admitted for n = 1..6 takes 0.3-1.1 s.
_TANGENT_COST_CAP = 100_000_000


def _channel_coeff(a: int, s: int, b: int, t: int, i: int) -> int:
    """Coefficient of the i-th transvectant on the monomial pair
    (x^(a-s) y^s, x^(b-t) y^t); the result is the single monomial of
    y-exponent s+t-i in degree a+b-2i."""
    total = 0
    for j in range(i + 1):
        total += (
            (-1) ** j
            * comb(i, j)
            * perm(a - s, i - j)
            * perm(s, j)
            * perm(b - t, j)
            * perm(t, i - j)
        )
    return total


class ChannelTable(dict):
    """_channel_coeff keyed by (a, s, b, t, i), each value computed on
    its first lookup.  A route builds one table per call, so it holds no
    more than that call looks up and is freed when the call returns."""

    def __missing__(self, key: Tuple[int, int, int, int, int]) -> int:
        value = self[key] = _channel_coeff(*key)
        return value


def monoid_window(monoid: WeightMonoid, bound: int) -> Tuple[Weight, ...]:
    """Monoid elements with every fundamental coordinate <= bound."""
    gens = [g for g in monoid.generators if any(g)]
    if any(x < 0 for g in gens for x in g):
        raise ValidationError("window enumeration needs dominant generators")
    zero = tuple(0 for _ in range(monoid.rd.rank))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                cand = tuple(a + b for a, b in zip(w, g))
                if cand in seen or any(c > bound for c in cand):
                    continue
                seen.add(cand)
                nxt.append(cand)
        if len(seen) > _WINDOW_CAP:
            raise ResourceError("monoid window enumeration cap exceeded")
        frontier = nxt
    return tuple(sorted(seen))


def _is_a1(rd: RootDatum) -> bool:
    return rd.rank == 1


def _triple_top_vectors(a: int, b: int, c: int, nu: int) -> List[Dict[Tuple[int, int, int], int]]:
    """Spanning set of the singular vectors of weight nu in the triple
    tensor of forms of degrees a, b, c, keyed by y-exponents: one per
    admissible splitting through the first two factors.

    The splitting through the degree-e component of the first two
    factors pairs its m-th lowered image L^m(top)/perm(e, m) with the
    third factor; each vector is scaled by perm(e, k) > 0, which clears
    every denominator and leaves integers."""
    out = []
    for i0 in range(min(a, b) + 1):
        e = a + b - 2 * i0
        k2 = e + c - nu
        if k2 < 0 or k2 % 2:
            continue
        k = k2 // 2
        if k > min(e, c):
            continue
        low = {(j, i0 - j): (-1) ** j * comb(i0, j) for j in range(i0 + 1)}
        eta: Dict[Tuple[int, int, int], int] = {}
        for m in range(k + 1):
            if m:
                nxt: Dict[Tuple[int, int], int] = {}
                for (s, t), v in low.items():
                    if s < a:
                        nxt[(s + 1, t)] = nxt.get((s + 1, t), 0) + v * (a - s)
                    if t < b:
                        nxt[(s, t + 1)] = nxt.get((s, t + 1), 0) + v * (b - t)
                low = {key: v for key, v in nxt.items() if v}
            outer = (-1) ** m * comb(k, m) * perm(e - m, k - m)
            for (s, t), v in low.items():
                eta[(s, t, k - m)] = outer * v
        out.append(eta)
    return out


def _triples(pos: List[int], truncation: int) -> Iterable[Tuple[int, int, int]]:
    """Each (a, b, c) of positive window weights with a+b+c <= truncation."""
    for a in pos:
        for b in pos:
            for c in pos:
                if a + b + c > truncation:
                    break
                yield a, b, c


def _check_law_cost(pos: Sequence[int], truncation: int, cap: int) -> None:
    """Refuse a window whose cost estimate, the sum of (a+b+c)^3 over
    its triples, exceeds cap; the sum stops as soon as it does, so a
    refusal costs little."""
    total = 0
    for a, b, c in _triples(pos, truncation):
        total += (a + b + c) ** 3
        if total > cap:
            raise ResourceError(
                f"law window cost estimate exceeds the cap {cap}; lower the truncation"
            )


def _law_unknowns(
    monoid: WeightMonoid, truncation: int, cap: int
) -> Tuple[List[int], List[int], Dict[Tuple[int, int, int], int]]:
    """Window weights, positive window weights and the index of each
    unknown m[a,b,i] (of grade i) of a rank-one law window, after the
    cost check against cap.  The multiples of the smallest generator lie
    in the window, so their cost bounds the window's from below and is
    checked before the window is listed."""
    if not _is_a1(monoid.rd):
        raise ValidationError("equation generation is implemented for rank one")
    step = min((g[0] for g in monoid.generators if g[0]), default=0)
    if step > 0:
        _check_law_cost(range(step, truncation + 1, step), truncation, cap)
    ints = [w[0] for w in monoid_window(monoid, truncation)]
    sset = set(ints)
    pos = [x for x in ints if x >= 1]
    if not any(x + y <= truncation for x in pos for y in pos):
        raise ValidationError("truncation too small to contain any generator product")
    _check_law_cost(pos, truncation, cap)
    index: Dict[Tuple[int, int, int], int] = {}
    for a in pos:
        for b in pos:
            if a + b > truncation:
                continue
            for i in range(1, min(a, b) + 1):
                if a + b - 2 * i in sset:
                    index[(a, b, i)] = len(index)
    return ints, pos, index


def _commutativity_rows(
    index: Mapping[Tuple[int, int, int], int]
) -> Iterable[Tuple[Dict[int, int], int]]:
    """The linear equations m[a,b,i] = (-1)^i m[b,a,i], a <= b, as
    ({unknown: coefficient}, grade i); those that vanish are left out."""
    for (a, b, i) in sorted(index):
        if a < b:
            yield {index[(a, b, i)]: 1, index[(b, a, i)]: -((-1) ** i)}, i
        elif a == b and i % 2:
            yield {index[(a, b, i)]: 2}, i


def _associativity_windows(
    ints: List[int], pos: List[int], truncation: int
) -> Iterable[Tuple[int, int, int, int, int]]:
    """Each (a, b, c, nu) of the associativity equations with its grade
    r = (a + b + c - nu) / 2 > 0."""
    for a, b, c in _triples(pos, truncation):
        for nu in ints:
            tot = a + b + c - nu
            if tot > 0 and tot % 2 == 0:
                yield a, b, c, nu, tot // 2


def _bracketings(a: int, b: int, c: int, s: int, t: int, u: int, coef: int):
    """(a.b).c counts positively, a.(b.c) negatively.  Each side as
    (x, sx, y, sy, z, sz, coef, first): the inner product x.y meets z as
    the left outer factor when first, else as the right one."""
    return (a, s, b, t, c, u, coef, True), (b, t, c, u, a, s, -coef, False)


def law_tangent(monoid: WeightMonoid, truncation: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """mulaw.tangent_at_horospherical(mulaw.law_equations(monoid,
    truncation)), from the linear rows alone.

    At the all-zero point a product of two unknowns vanishes to first
    order, and the top channel is 1.  So an associativity term of grade
    r is linear exactly when one of its two channels is the top one:
    inner channel 0 and outer r (unknown m[p,q,r]), or inner r and
    outer 0 (unknown m[x,y,r]).  Only those terms are generated, with
    integer coefficients, into one RowSpace per grade."""
    ints, pos, index = _law_unknowns(monoid, truncation, _TANGENT_COST_CAP)
    sset = set(ints)
    coeff = ChannelTable()
    columns: Dict[int, Dict[int, int]] = {}  # grade -> {unknown: column}
    for u, (_, _, i) in enumerate(index):
        cols = columns.setdefault(i, {})
        cols[u] = len(cols)
    spaces = {i: linalg.RowSpace(len(cols)) for i, cols in columns.items()}

    def add(row: Mapping[int, int], r: int) -> None:
        cols = columns[r]
        assert all(u in cols for u in row), "linear term off its equation grade"
        spaces[r].add({cols[u]: v for u, v in row.items() if v})

    for row, i in _commutativity_rows(index):
        add(row, i)
    for a, b, c, nu, r in _associativity_windows(ints, pos, truncation):
        space = spaces.get(r)
        if space is None or space.dim == space.ncols:
            continue  # no row of grade r can change the rank
        for eta in _triple_top_vectors(a, b, c, nu):
            row: Dict[int, int] = {}
            for (s, t, u), coef in eta.items():
                for x, sx, y, sy, z, sz, sgn, first in _bracketings(a, b, c, s, t, u, coef):
                    if r <= min(x + y, z):
                        # x + y <= truncation lies in the window, and the
                        # outer product lands on p + q - 2r = nu.
                        if first:
                            p, sp, q, sq = x + y, sx + sy, z, sz
                        else:
                            p, sp, q, sq = z, sz, x + y, sx + sy
                        key = index[(p, q, r)]
                        row[key] = row.get(key, 0) + sgn * coeff[p, sp, q, sq, r]
                    if r <= min(x, y) and x + y - 2 * r in sset:
                        key = index[(x, y, r)]
                        row[key] = row.get(key, 0) + sgn * coeff[x, sx, y, sy, r]
            add(row, r)
    weights = tuple((r,) for r in sorted(spaces) for _ in range(spaces[r].ncols - spaces[r].dim))
    return len(weights), weights
