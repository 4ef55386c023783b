"""Saturation and presentations of finitely generated submonoids of
weight and root lattices.

Generators are integer tuples: fundamental coordinates for weight
monoids, simple-root coordinates for root monoids; the one record,
rootdata.Monoid, and its constructors are rootdata's.

Saturation computes the Hilbert basis of cone(gens) intersect
lattice(gens) for rank at most 3, in integer lattice coordinates.  The
lattice points of the generator zonotope box are enumerated first, by
back-substitution over integer echelon rows, each level counted in
integers against a cap before it is built; then the cone is described
once by integer facet normals, and each point's facet values, computed
once, decide both membership in the cone (all non-negative) and
reducibility (they dominate a lighter kept point's).  The points are
graded by phi, the sum of the facet values; the sum of the normals is
positive on every generator exactly when the cone is pointed.

A presentation is the tuple of its binomial relations up to a degree
bound, each a pair of exponent vectors; nothing is claimed past it.
The exponent vectors (errors.binomial) and the candidate pairs, times
the generators, are counted against caps before any is formed, and the
searches that thin the relations share one budget of move checks.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, groupby, repeat
from math import comb
from operator import ge, mul, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError, binomial
from . import linalg
from .rootdata import Gen

_ENUM_CAP = 200_000
_CONGRUENCE_CAP = 20_000
# Move checks times generators over all the _congruent searches of one
# presentation.  In process, 100 random A2 generators of entries 0..100
# at bound 2 spend 3.7e7 in 0.82 s, and 110 spend 1.0e8 in 2.2 s.
_MOVE_CAP = 40_000_000
# Candidate pairs times generators, counted before any pair is formed:
# each pair compares two exponent vectors of one entry per generator.
# In process, A1 generators 1..5 at bound 10 form 7.6e5 in 1.0 s.
_PAIR_CAP = 1_000_000
# Facet-value comparisons of the reducibility pass of one saturation
# call, estimated before it starts.
_REDUCE_CAP = 10_000_000


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


# ------------------------------------------------------------ saturation


def _box_points(gens: Sequence[Gen], basis: Sequence[Sequence[int]]) -> List[Gen]:
    """The points of the lattice spanned by the linalg.echelon rows basis
    inside the zonotope box lo..hi of gens, by back-substitution.  Later
    rows vanish at the pivot of row k, so once z_k is chosen that
    coordinate is final and bounds z_k in integers.  The number of
    points each level builds is checked against the cap before the
    level is built."""
    lo = [sum(min(0, x) for x in col) for col in zip(*gens)]
    hi = [sum(max(0, x) for x in col) for col in zip(*gens)]
    points = [tuple([0] * len(lo))]
    for row in basis:
        c, p = next((c, x) for c, x in enumerate(row) if x)
        spans = [(y, range(-((y[c] - lo[c]) // p), (hi[c] - y[c]) // p + 1)) for y in points]
        if sum(max(0, zs.stop - zs.start) for _, zs in spans) > _ENUM_CAP:
            raise ResourceError("saturation enumeration cap exceeded")
        points = [tuple(a + z * b for a, b in zip(y, row)) for y, zs in spans for z in zs]
    return [y for y in points if all(l <= v <= h for v, l, h in zip(y, lo, hi))]


def _facet_normals(gens: Sequence[Gen], basis: Sequence[Sequence[int]]) -> List[Gen]:
    """Integer inequalities u . y >= 0 cutting cone(gens) out of its span.

    Each candidate is the one-dimensional kernel of r - 1 generators and
    the complement of the span, r = len(basis), made integral; it is
    kept, with its sign fixed, when no generator is negative on it.  The
    kept ones include every facet, so a point of the span lies in the
    cone iff all are non-negative on it."""
    n = len(gens[0])
    perp = linalg.RowSpace(n, basis).kernel()
    normals = set()
    for subset in combinations(gens, len(basis) - 1):
        kernel = linalg.RowSpace(n, list(subset) + perp).kernel()
        if len(kernel) != 1:
            continue
        u = tuple(map(linalg.integral(kernel[0])[0].get, range(n), repeat(0)))
        for s in (1, -1):
            if all(s * _dot(u, g) >= 0 for g in gens):
                normals.add(tuple(s * a for a in u))
    return sorted(normals)


def _grading(gens: Sequence[Gen], normals: Sequence[Gen]) -> Optional[Gen]:
    """The sum of the facet normals of cone(gens), or None when it is not
    positive on every nonzero generator.  It is positive on them all
    exactly when the cone is pointed: only 0 lies on every facet."""
    phi = tuple(sum(u[j] for u in normals) for j in range(len(gens[0])))
    if all(_dot(phi, g) > 0 for g in gens if any(g)):
        return phi
    return None


def saturation(monoid):
    """Hilbert basis of S = cone(gens) intersect lattice(gens), rank <= 3.

    S is saturated, so y in S is reducible iff y - h lies in S for some
    Hilbert-basis element h != y.  y - h is in the lattice already, so it
    lies in S exactly when every facet value u . (y - h) is >= 0: when
    the facet values of y dominate those of h.  The Hilbert basis lies
    in the zonotope box of gens, so the in-cone box points are taken by
    phi(y), the sum of their facet values, and each is kept unless its
    values dominate a kept point's.  That pass compares each point with
    the lighter ones, facet by facet; the count of comparisons is
    refused against a cap before it starts."""
    gens = [g for g in monoid.generators if any(g)]
    if not gens:
        return monoid._replace(generators=())
    basis = linalg.echelon(gens)
    if len(basis) > 3:
        raise ValidationError("saturation implemented for lattice rank <= 3")
    points = _box_points(gens, basis)
    normals = _facet_normals(gens, basis)
    if _grading(gens, normals) is None:
        raise ValidationError("no strictly positive grading; cone may not be pointed")
    values = {}
    for y in points:
        v = tuple(_dot(u, y) for u in normals)
        if any(y) and min(v) >= 0:
            values[y] = v
    n = len(values)
    cost = n * (n - 1) // 2 * len(normals)
    if cost > _REDUCE_CAP:
        raise ResourceError(
            f"saturation would compare {cost} facet values of {n} cone points,"
            f" past the cap {_REDUCE_CAP}"
        )
    return monoid._replace(generators=_undominated(values))


def _undominated(values: Dict[Gen, Gen]) -> Tuple[Gen, ...]:
    """The points of values, a map to their facet values, whose values
    dominate no lighter kept point's, taken by the sum of the values."""
    keep: List[Gen] = []
    for y in sorted(values, key=lambda y: sum(values[y])):
        if not any(all(map(ge, values[y], values[h])) for h in keep):
            keep.append(y)
    return tuple(sorted(keep))


# ---------------------------------------------------------- presentation

# Two exponent vectors over the generators with the same product.
Relation = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _congruent(a, b, relations, degree_cap, budget: int) -> Tuple[bool, int]:
    """Whether a search over rewriting with kept relations, both
    directions, reaches b from a, and what is left of budget: each state
    tried spends its move checks times the entries each compares, and a
    search that would overspend it is refused."""
    moves = [move for p, q in relations for move in ((p, q), (q, p))]
    cost = len(moves) * len(a)
    seen = {a}
    queue = [a]
    while queue:
        if len(seen) > _CONGRUENCE_CAP:
            return False, budget
        budget -= cost
        if budget < 0:
            raise ResourceError(
                f"presentation thinning cap exceeded: more than {_MOVE_CAP}"
                " move checks times generators"
            )
        cur = queue.pop()
        for p, q in moves:
            if all(c >= x for c, x in zip(cur, p)):
                nxt = tuple(c - x + y for c, x, y in zip(cur, p, q))
                if nxt == b:
                    return True, budget
                if sum(nxt) <= degree_cap and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False, budget


def _exponent_vectors(m: int, b: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """The exponent vectors over m generators of degree at most b, each as
    its pairs (generator, exponent > 0).  A vector is a lattice path of m
    bars and b stars, read by the rarer symbol, so it costs min(m, b):
    the stars before each bar, or each star's bar, m for the slack."""
    if m <= b:
        for cuts in combinations_with_replacement(range(b + 1), m):
            yield tuple((i, e) for i, e in enumerate(map(sub, cuts, (0,) + cuts)) if e)
    else:
        for picks in combinations_with_replacement(range(m + 1), b):
            yield tuple((i, len(list(run))) for i, run in groupby(picks) if i < m)


def semigroup_presentation(monoid, degree_bound: int) -> Tuple[Relation, ...]:
    """Binomial relations among the generators up to total degree
    degree_bound, thinned to ones not implied by smaller kept relations.
    Nothing is claimed beyond the degree window."""
    gens = monoid.generators
    m = len(gens)
    if m == 0:
        return ()
    if binomial(max(degree_bound, 0) + m, m) > _ENUM_CAP:
        raise ResourceError("presentation enumeration cap exceeded")
    rank = range(len(gens[0]))
    fibers: Dict[Gen, List[Tuple[Tuple[int, int], ...]]] = {}
    for vec in _exponent_vectors(m, max(degree_bound, 0)):
        val = tuple(sum(e * gens[i][j] for i, e in vec) for j in rank)
        fibers.setdefault(val, []).append(vec)
    if sum(comb(len(fiber), 2) for fiber in fibers.values()) * m > _PAIR_CAP:
        raise ResourceError("presentation candidate-pair cap exceeded")
    candidates = set()
    for fiber in fibers.values():
        if len(fiber) < 2:
            continue
        exps = [tuple(map(dict(vec).get, range(m), repeat(0))) for vec in fiber]
        for x, y in combinations(exps, 2):
            xa = tuple(max(a - b, 0) for a, b in zip(x, y))
            yb = tuple(max(b - a, 0) for a, b in zip(x, y))
            candidates.add(tuple(sorted((xa, yb), key=lambda t: (sum(t), t))))
    ordered = sorted(candidates, key=lambda p: (max(sum(p[0]), sum(p[1])), p))
    kept: List[Relation] = []
    slack = max((max(sum(p), sum(q)) for p, q in ordered), default=0)
    budget = _MOVE_CAP
    for a, b in ordered:
        found, budget = _congruent(a, b, kept, degree_bound + slack, budget)
        if not found:
            kept.append((a, b))
    return tuple(kept)
