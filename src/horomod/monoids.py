"""Finitely generated submonoids of weight and root lattices.

Generators are integer tuples: fundamental coordinates for weight
monoids, simple-root coordinates for root monoids.  Membership is a
bounded exhaustive search that returns a certificate; when a strictly
positive grading functional exists the search is exhaustive and a
negative answer is definitive, otherwise the result carries a
bound-limited flag.

Saturation computes the Hilbert basis of cone(gens) intersect
lattice(gens) for rank at most 3 by enumerating lattice points of the
generator zonotope box, filtering by exact cone membership (a
non-negative solution on a generator subset), and keeping the
irreducible points with minimal_generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from . import linalg
from .rootdata import RootDatum

Q = Fraction

Gen = Tuple[int, ...]

DEFAULT_MEMBERSHIP_BOUND = 64
_ENUM_CAP = 200_000
_CONGRUENCE_CAP = 20_000
_PAIR_CAP = 100_000
# Recursion nodes of the membership searches of one membership or
# minimal_generators call.
_SEARCH_CAP = 150_000


@dataclass(frozen=True)
class WeightMonoid:
    rd: RootDatum
    generators: Tuple[Gen, ...]


@dataclass(frozen=True)
class RootMonoid:
    rd: RootDatum
    generators: Tuple[Gen, ...]


def _check_gens(rd: RootDatum, gens: Sequence[Sequence[int]], nonneg: bool) -> Tuple[Gen, ...]:
    out: List[Gen] = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if len(t) != rd.rank:
            raise ValidationError(f"generator {t} has wrong length for rank {rd.rank}")
        if nonneg and any(x < 0 for x in t):
            raise ValidationError(f"root monoid generator {t} has negative entries")
        if t in out:
            raise ValidationError(f"duplicate generator {t}")
        out.append(t)
    return tuple(out)


def make_weight_monoid(rd: RootDatum, gens: Sequence[Sequence[int]]) -> WeightMonoid:
    return WeightMonoid(rd, _check_gens(rd, gens, nonneg=False))


def make_root_monoid(rd: RootDatum, gens: Sequence[Sequence[int]]) -> RootMonoid:
    return RootMonoid(rd, _check_gens(rd, gens, nonneg=True))


@dataclass(frozen=True)
class MembershipResult:
    found: bool
    certificate: Optional[Tuple[int, ...]]
    bound_limited: bool


def _positive_functional(gens: Sequence[Gen]) -> Optional[Tuple[int, ...]]:
    """Integer functional strictly positive on every nonzero generator."""
    nonzero = [g for g in gens if any(g)]
    if not nonzero:
        return tuple([1] * (len(gens[0]) if gens else 1))
    n = len(nonzero[0])
    ones = tuple([1] * n)
    if all(sum(c * x for c, x in zip(ones, g)) > 0 for g in nonzero):
        return ones
    for radius in (1, 2, 3, 5):
        for cand in product(range(-radius, radius + 1), repeat=n):
            if all(sum(c * x for c, x in zip(cand, g)) > 0 for g in nonzero):
                return cand
    return None


def _search(
    gens: Sequence[Gen], target: Gen, bound: int, budget: List[int]
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """First certificate in lexicographic coefficient order, plus a flag
    telling whether the search was exhaustive.  budget[0] is the number
    of search nodes left; the search is refused when it runs out."""
    m = len(gens)
    phi = _positive_functional(gens)
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
    cert, exhaustive = _search(gens, t, bound, [_SEARCH_CAP])
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


def _in_cone(gens: Sequence[Gen], y: Gen, r: int) -> bool:
    """Exact cone membership: a non-negative solution on some set of at
    most r generators, r the rank of gens (Caratheodory)."""
    for size in range(1, r + 1):
        for subset in combinations(gens, size):
            sol = linalg.solve(list(zip(*subset)), y)
            if sol is not None and all(t >= 0 for t in sol):
                return True
    return False


def saturation(monoid):
    """Hilbert basis of cone(gens) intersect lattice(gens), rank <= 3."""
    gens = [g for g in monoid.generators if any(g)]
    if not gens:
        return type(monoid)(monoid.rd, ())
    basis = _hnf(gens)
    if len(basis) > 3:
        raise ValidationError("saturation implemented for lattice rank <= 3")
    if _positive_functional(gens) is None:
        raise ValidationError("no strictly positive grading; cone may not be pointed")
    n = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    r = len(basis)
    # r independent columns of the lattice basis
    cols: List[int] = []
    for row in basis:
        cols.append(next(k for k, x in enumerate(row) if x != 0))
    sub = [[Q(basis[k][c]) for k in range(r)] for c in cols]  # column-major square
    # the pivot columns make sub triangular with nonzero diagonal
    inv_cols = [linalg.solve(sub, [int(i == k) for i in range(r)]) for k in range(r)]
    # bounds for z where lattice point = z . basis and z_k = sum inv[k][j] y_{cols[j]}
    zlo, zhi = [], []
    for k in range(r):
        a, b = Q(0), Q(0)
        for j in range(r):
            coef = inv_cols[j][k]
            la_, hb = Q(lo[cols[j]]), Q(hi[cols[j]])
            if coef >= 0:
                a += coef * la_
                b += coef * hb
            else:
                a += coef * hb
                b += coef * la_
        zlo.append(a)
        zhi.append(b)
    ranges = []
    total = 1
    for k in range(r):
        lo_k = -(-zlo[k].numerator // zlo[k].denominator)  # ceil
        hi_k = zhi[k].numerator // zhi[k].denominator  # floor
        ranges.append(range(lo_k, hi_k + 1))
        total *= max(0, hi_k - lo_k + 1)
    if total > _ENUM_CAP:
        raise ResourceError("saturation enumeration cap exceeded")
    candidates = set()
    for z in product(*ranges):
        y = tuple(
            sum(z[k] * basis[k][j] for k in range(r)) for j in range(n)
        )
        if not any(y):
            continue
        if any(v < l or v > h for v, l, h in zip(y, lo, hi)):
            continue
        if _in_cone(gens, y, r):
            candidates.add(y)
    return type(monoid)(
        monoid.rd, minimal_generators(WeightMonoid(monoid.rd, tuple(candidates)))
    )


def minimal_generators(monoid) -> Tuple[Gen, ...]:
    """Generators with the reducible ones removed (needs a positive grading)."""
    gens = [g for g in monoid.generators if any(g)]
    phi = _positive_functional(gens) if gens else (1,)
    if phi is None:
        raise ValidationError("no strictly positive grading on the generators")
    keep: List[Gen] = []
    budget = [_SEARCH_CAP]
    for g in sorted(gens, key=lambda v: (sum(p * x for p, x in zip(phi, v)), v)):
        # phi >= 1 on every generator, so a sum for g has at most phi(g)
        # terms, all lighter than g: searching keep that far is complete.
        grade = sum(p * x for p, x in zip(phi, g))
        if not keep or _search(keep, g, grade, budget)[0] is None:
            keep.append(g)
    return tuple(sorted(keep))


def is_free(monoid) -> bool:
    """True iff the minimal generating set is linearly independent over Q."""
    gens = minimal_generators(monoid)
    if not gens:
        return True
    return linalg.RowSpace(len(gens[0]), gens).dim == len(gens)


# ---------------------------------------------------------- presentation


@dataclass(frozen=True)
class Presentation:
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
