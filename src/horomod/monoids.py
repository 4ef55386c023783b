"""Finitely generated submonoids of weight and root lattices.

Generators are integer tuples: fundamental coordinates for weight
monoids, simple-root coordinates for root monoids; the records and
their constructors are rootdata's.  Membership is a
bounded exhaustive search that returns a certificate; when a strictly
positive grading functional exists the search is exhaustive and a
negative answer is definitive, otherwise the result carries a
bound-limited flag.  The grading is the sum of the cone's facet
normals, computed once per call; it exists exactly when the cone is
pointed.

Saturation computes the Hilbert basis of cone(gens) intersect
lattice(gens) for rank at most 3, in integer lattice coordinates.  The
lattice points of the generator zonotope box are enumerated by
back-substitution over the Hermite normal form rows, each level counted
against a cap before it is built; the cone is described once by integer
facet normals, so membership is a sign test on each point; and
minimal_generators keeps the irreducible points.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from . import linalg
from .rootdata import Gen

DEFAULT_MEMBERSHIP_BOUND = 64
_ENUM_CAP = 200_000
_CONGRUENCE_CAP = 20_000
_PAIR_CAP = 100_000
# Recursion nodes of the membership searches of one membership or
# minimal_generators call.
_SEARCH_CAP = 150_000


class MembershipResult(NamedTuple):
    found: bool
    certificate: Optional[Tuple[int, ...]]
    bound_limited: bool


def _search(
    gens: Sequence[Gen], target: Gen, bound: int, budget: List[int], phi: Optional[Gen]
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """First certificate in lexicographic coefficient order, plus a flag
    telling whether the search was exhaustive.  phi, when not None, is
    an integer functional positive on every nonzero generator.
    budget[0] is the number of search nodes left; the search is refused
    when it runs out."""
    m = len(gens)
    exhaustive = False
    limit = bound
    if phi is not None:
        tval = sum(c * x for c, x in zip(phi, target))
        if tval < 0:
            return None, True
        mins = [sum(c * x for c, x in zip(phi, g)) for g in gens if any(g)]
        if mins:
            needed = tval // min(mins)
            if needed <= bound:
                exhaustive = True
                limit = min(bound, needed)
        else:
            exhaustive = True
            limit = 0

    coeffs = [0] * m

    def rec(i: int, remaining: Gen, terms: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceError(f"membership search exceeded {_SEARCH_CAP} nodes")
        if all(x == 0 for x in remaining):
            return True
        if i == m or terms == 0:
            return False
        g = gens[i]
        if not any(g):
            coeffs[i] = 0
            return rec(i + 1, remaining, terms)
        for c in range(0, terms + 1):
            coeffs[i] = c
            rest = tuple(r - c * x for r, x in zip(remaining, g)) if c else remaining
            if phi is not None and sum(p * x for p, x in zip(phi, rest)) < 0:
                break
            if rec(i + 1, rest, terms - c):
                return True
        coeffs[i] = 0
        return False

    ok = rec(0, target, limit)
    if ok:
        return tuple(coeffs), exhaustive
    return None, exhaustive


def membership(
    monoid, target: Sequence[int], bound: int = DEFAULT_MEMBERSHIP_BOUND
) -> MembershipResult:
    """Is target a natural combination of the generators?

    The certificate is the lexicographically first coefficient vector.
    found=False is definitive only when bound_limited is False.
    """
    gens = monoid.generators
    t = tuple(int(x) for x in target)
    if gens and len(t) != len(gens[0]):
        raise ValidationError("target length does not match generators")
    if not gens:
        return MembershipResult(not any(t), tuple() if not any(t) else None, False)
    phi = _grading(gens, _facet_normals(gens, _hnf(gens)))
    cert, exhaustive = _search(gens, t, bound, [_SEARCH_CAP], phi)
    if cert is not None:
        return MembershipResult(True, cert, False)
    return MembershipResult(False, None, not exhaustive)


# ------------------------------------------------------------ saturation


def _hnf(rows: Sequence[Gen]) -> List[List[int]]:
    """Row Hermite normal form over the integers (nonzero rows)."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        again = True
        while again:
            again = False
            for i in range(r + 1, len(mat)):
                if mat[i][c] == 0:
                    continue
                q = mat[i][c] // mat[r][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                if mat[i][c] != 0:
                    mat[r], mat[i] = mat[i], mat[r]
                    again = True
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat[:r]]


def _box_points(gens: Sequence[Gen], basis: Sequence[Sequence[int]]) -> List[Gen]:
    """The points of the lattice spanned by the _hnf rows basis inside the
    zonotope box lo..hi of gens, by back-substitution.  Later rows vanish
    at the pivot of row k, so once z_k is chosen that coordinate is final
    and bounds z_k in integers.  The number of points each level builds
    is checked against the cap before the level is built."""
    lo = [sum(min(0, x) for x in col) for col in zip(*gens)]
    hi = [sum(max(0, x) for x in col) for col in zip(*gens)]
    points = [tuple([0] * len(lo))]
    for row in basis:
        c, p = next((c, x) for c, x in enumerate(row) if x)
        spans = [(y, range(-((y[c] - lo[c]) // p), (hi[c] - y[c]) // p + 1)) for y in points]
        if sum(len(zs) for _, zs in spans) > _ENUM_CAP:
            raise ResourceError("saturation enumeration cap exceeded")
        points = [tuple(a + z * b for a, b in zip(y, row)) for y, zs in spans for z in zs]
    return [y for y in points if all(l <= v <= h for v, l, h in zip(y, lo, hi))]


def _facet_normals(gens: Sequence[Gen], basis: Sequence[Sequence[int]]) -> List[Gen]:
    """Integer inequalities u . y >= 0 cutting cone(gens) out of its span.

    Each candidate is the one-dimensional kernel of r - 1 generators and
    the complement of the span, r = len(basis); it is kept, with its sign
    fixed, when no generator is negative on it.  The kept ones include
    every facet, so a point of the span lies in the cone iff all are
    non-negative on it."""
    if not basis:
        return []
    n = len(gens[0])
    perp = linalg.RowSpace(n, basis).kernel()
    normals = set()
    for subset in combinations(gens, len(basis) - 1):
        kernel = linalg.RowSpace(n, list(subset) + perp).kernel()
        if len(kernel) != 1:
            continue
        d = lcm(*(x.denominator for x in kernel[0].values()))
        u = tuple(int(kernel[0].get(j, 0) * d) for j in range(n))
        for s in (1, -1):
            if all(s * sum(a * b for a, b in zip(u, g)) >= 0 for g in gens):
                normals.add(tuple(s * a for a in u))
    return sorted(normals)


def _grading(gens: Sequence[Gen], normals: Sequence[Gen]) -> Optional[Gen]:
    """The sum of the facet normals of cone(gens), or None when it is not
    positive on every nonzero generator.  It is positive on them all
    exactly when the cone is pointed: only 0 lies on every facet."""
    phi = tuple(sum(u[j] for u in normals) for j in range(len(gens[0])))
    if all(sum(p * x for p, x in zip(phi, g)) > 0 for g in gens if any(g)):
        return phi
    return None


def saturation(monoid):
    """Hilbert basis of cone(gens) intersect lattice(gens), rank <= 3."""
    gens = [g for g in monoid.generators if any(g)]
    if not gens:
        return type(monoid)(monoid.rd, ())
    basis = _hnf(gens)
    if len(basis) > 3:
        raise ValidationError("saturation implemented for lattice rank <= 3")
    normals = _facet_normals(gens, basis)
    phi = _grading(gens, normals)
    if phi is None:
        raise ValidationError("no strictly positive grading; cone may not be pointed")
    candidates = [
        y
        for y in _box_points(gens, basis)
        if any(y) and all(sum(a * b for a, b in zip(u, y)) >= 0 for u in normals)
    ]
    return type(monoid)(monoid.rd, _irreducible(candidates, phi))


def minimal_generators(monoid) -> Tuple[Gen, ...]:
    """Generators with the reducible ones removed (needs a positive grading)."""
    gens = [g for g in monoid.generators if any(g)]
    if not gens:
        return ()
    phi = _grading(gens, _facet_normals(gens, _hnf(gens)))
    if phi is None:
        raise ValidationError("no strictly positive grading on the generators")
    return _irreducible(gens, phi)


def _irreducible(gens: Sequence[Gen], phi: Gen) -> Tuple[Gen, ...]:
    """The nonzero gens that are no natural sum of other gens, phi a
    grading positive on each."""
    keep: List[Gen] = []
    budget = [_SEARCH_CAP]
    for g in sorted(gens, key=lambda v: (sum(p * x for p, x in zip(phi, v)), v)):
        # phi >= 1 on every generator, so a sum for g has at most phi(g)
        # terms, all lighter than g: searching keep that far is complete.
        grade = sum(p * x for p, x in zip(phi, g))
        if not keep or _search(keep, g, grade, budget, phi)[0] is None:
            keep.append(g)
    return tuple(sorted(keep))


def is_free(monoid) -> bool:
    """True iff the minimal generating set is linearly independent over Q."""
    gens = minimal_generators(monoid)
    if not gens:
        return True
    return linalg.RowSpace(len(gens[0]), gens).dim == len(gens)


# ---------------------------------------------------------- presentation


class Presentation(NamedTuple):
    relations: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    bound_limited: bool = True


def _congruent(a, b, relations, degree_cap) -> bool:
    """BFS over rewriting with kept relations, both directions."""
    if a == b:
        return True
    moves = []
    for p, q in relations:
        moves.append((p, q))
        moves.append((q, p))
    seen = {a}
    queue = [a]
    while queue:
        if len(seen) > _CONGRUENCE_CAP:
            return False
        cur = queue.pop()
        for p, q in moves:
            if all(c >= x for c, x in zip(cur, p)):
                nxt = tuple(c - x + y for c, x, y in zip(cur, p, q))
                if nxt == b:
                    return True
                if sum(nxt) <= degree_cap and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def semigroup_presentation(monoid, degree_bound: int) -> Presentation:
    """Binomial relations among the generators up to total degree
    degree_bound, thinned to ones not implied by smaller kept relations.
    The result is always bound-limited: nothing is claimed beyond the
    degree window."""
    gens = monoid.generators
    m = len(gens)
    if m == 0:
        return Presentation((), True)
    if comb(max(degree_bound, 0) + m, m) > _ENUM_CAP:
        raise ResourceError("presentation enumeration cap exceeded")
    fibers: Dict[Gen, List[Tuple[int, ...]]] = {}

    def rec(i, acc, left):
        if i == m:
            val = tuple(
                sum(a * g[j] for a, g in zip(acc, gens)) for j in range(len(gens[0]))
            )
            fibers.setdefault(val, []).append(tuple(acc))
            return
        for c in range(left + 1):
            rec(i + 1, acc + [c], left - c)

    rec(0, [], degree_bound)
    if sum(comb(len(exps), 2) for exps in fibers.values()) > _PAIR_CAP:
        raise ResourceError("presentation candidate-pair cap exceeded")
    candidates = set()
    for val, exps in fibers.items():
        if len(exps) < 2:
            continue
        for x, y in combinations(sorted(exps), 2):
            common = tuple(min(a, b) for a, b in zip(x, y))
            xa = tuple(a - c for a, c in zip(x, common))
            yb = tuple(b - c for b, c in zip(y, common))
            if xa == yb:
                continue
            pair = tuple(sorted((xa, yb), key=lambda t: (sum(t), t)))
            candidates.add((pair[0], pair[1]))
    ordered = sorted(candidates, key=lambda p: (max(sum(p[0]), sum(p[1])), p))
    kept: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    slack = max((max(sum(p), sum(q)) for p, q in ordered), default=0)
    for a, b in ordered:
        if kept and _congruent(a, b, kept, degree_bound + slack):
            continue
        kept.append((a, b))
    return Presentation(tuple(kept), True)
