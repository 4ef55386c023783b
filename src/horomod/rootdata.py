"""Root data, weights in fundamental coordinates, and dominance order.

Conventions.  A weight is a tuple of integers: its coordinates against
the fundamental weights.  The simple root alpha_i has fundamental
coordinates equal to the i-th row of the Cartan matrix, so a vector of
root coordinates x relates to fundamental coordinates v by
cartan^T . x = v.  Root coordinates are tuples of Fraction since a
weight need not lie in the root lattice.

The reflection s_i sends mu to mu - mu_i * alpha_i where mu_i is the
i-th fundamental coordinate.  Repeated reflection at positive
coordinates reaches the antidominant chamber in at most as many steps
as there are positive roots; that count doubles as the overflow guard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from .errors import ResourceError, ValidationError
from . import linalg

Q = Fraction

Weight = Tuple[int, ...]
RootVector = Tuple[Q, ...]

_ROOT_ENUM_CAP = 10_000


@dataclass(frozen=True)
class RootDatum:
    label: str
    cartan: Tuple[Tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)


def _type_a_cartan(n: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def make_root_datum(source: Union[str, Sequence[Sequence[int]]]) -> RootDatum:
    """Build a root datum from a label like "A3" or from a Cartan matrix."""
    if isinstance(source, str):
        m = re.fullmatch(r"A([1-9][0-9]*)", source)
        if not m:
            raise ValidationError(f"unknown root datum label {source!r}")
        n = int(m.group(1))
        return RootDatum(source, _type_a_cartan(n))
    cartan = tuple(tuple(int(x) for x in row) for row in source)
    rd = RootDatum("custom", cartan)
    _validate_cartan(rd)
    return rd


def _validate_cartan(rd: RootDatum) -> None:
    n = rd.rank
    if n == 0 or any(len(row) != n for row in rd.cartan):
        raise ValidationError("Cartan matrix must be square and nonempty")
    for i in range(n):
        if rd.cartan[i][i] != 2:
            raise ValidationError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j and rd.cartan[i][j] > 0:
                raise ValidationError("off-diagonal Cartan entries must be <= 0")
    if linalg.RowSpace(n, rd.cartan).dim != n:
        raise ValidationError("Cartan matrix must be invertible")


def check_weight(rd: RootDatum, lam: Sequence[int]) -> Weight:
    w = tuple(int(x) for x in lam)
    if len(w) != rd.rank:
        raise ValidationError(f"weight {w} has wrong length for rank {rd.rank}")
    return w


def is_dominant(rd: RootDatum, lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


@lru_cache(maxsize=None)
def _cartan_t_inverse(rd: RootDatum) -> Tuple[Tuple[Q, ...], ...]:
    n = rd.rank
    cols = []
    ct = [[Q(rd.cartan[j][i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        rhs = [Q(1) if i == k else Q(0) for i in range(n)]
        sol = linalg.solve(ct, rhs)
        assert sol is not None
        cols.append(sol)
    return tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))


def to_root_coords(rd: RootDatum, lam: Sequence[int]) -> RootVector:
    """Coordinates of lam against the simple roots (exact rationals)."""
    v = [Q(x) for x in lam]
    inv = _cartan_t_inverse(rd)
    return tuple(sum(inv[i][j] * v[j] for j in range(rd.rank)) for i in range(rd.rank))


def natural_root_coords(rd: RootDatum, lam: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Root coordinates of lam as integers if all are natural, else None."""
    coords = to_root_coords(rd, lam)
    if any(c.denominator != 1 or c < 0 for c in coords):
        return None
    return tuple(int(c) for c in coords)


def dominance_leq(rd: RootDatum, mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam - mu is a sum of simple roots with natural coefficients."""
    mu = check_weight(rd, mu)
    lam = check_weight(rd, lam)
    return natural_root_coords(rd, tuple(a - b for a, b in zip(lam, mu))) is not None


@lru_cache(maxsize=None)
def _positive_roots_of(cartan: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[int, ...], ...]:
    """All positive roots, as integer root-coordinate vectors.

    Closure of the simple roots under the reflections
    s_j(c) = c - <c, alpha_j^vee> e_j with <c, alpha_j^vee> = (C^T c)_j,
    keeping vectors with all coordinates >= 0.  Diverges only for
    non-finite Cartan matrices, which the cap turns into an error.
    """
    n = len(cartan)
    seen = set()
    queue = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    for q in queue:
        seen.add(q)
    while queue:
        c = queue.pop()
        for j in range(n):
            pairing = sum(c[i] * cartan[i][j] for i in range(n))
            refl = tuple(
                c[k] - pairing if k == j else c[k] for k in range(n)
            )
            if all(x >= 0 for x in refl) and any(x > 0 for x in refl):
                if refl not in seen:
                    if len(seen) >= _ROOT_ENUM_CAP:
                        raise ResourceError("positive root enumeration cap exceeded")
                    seen.add(refl)
                    queue.append(refl)
    return tuple(sorted(seen))


def positive_roots(rd: RootDatum) -> Tuple[Tuple[int, ...], ...]:
    return _positive_roots_of(rd.cartan)


def positive_coroots(rd: RootDatum) -> Tuple[Tuple[int, ...], ...]:
    """Positive coroots in coroot coordinates: the dual system has the
    transposed Cartan matrix."""
    n = rd.rank
    ct = tuple(tuple(rd.cartan[j][i] for j in range(n)) for i in range(n))
    return _positive_roots_of(ct)


def _reflect_until(rd: RootDatum, lam: Weight, want_negative: bool):
    """Reflect toward the (anti)dominant chamber, tracking sign and walls.

    Returns (weight, sign, hit_wall).  hit_wall reports a zero coordinate
    in the final chamber representative.
    """
    cur = list(lam)
    sign = 1
    limit = len(positive_roots(rd)) + 1
    steps = 0
    while True:
        idx = None
        for i, c in enumerate(cur):
            if (c > 0) if want_negative else (c < 0):
                idx = i
                break
        if idx is None:
            break
        ci = cur[idx]
        alpha = rd.cartan[idx]
        cur = [c - ci * a for c, a in zip(cur, alpha)]
        sign = -sign
        steps += 1
        if steps > limit:
            raise ResourceError("reflection loop exceeded positive root count")
    return tuple(cur), sign, any(c == 0 for c in cur)


def lowest_weight(rd: RootDatum, lam: Sequence[int]) -> Weight:
    """Image of the dominant weight lam under the longest Weyl element."""
    lam = check_weight(rd, lam)
    if not is_dominant(rd, lam):
        raise ValidationError(f"{lam} is not dominant")
    w, _, _ = _reflect_until(rd, lam, want_negative=True)
    return w


def dominant_conjugate(rd: RootDatum, mu: Sequence[int]) -> Tuple[Weight, int, bool]:
    """Dominant Weyl conjugate with the sign of the element used.

    The third component flags a wall (some coordinate zero), which is
    what the tensor product weight-push needs to discard singular terms.
    """
    mu = check_weight(rd, mu)
    return _reflect_until(rd, mu, want_negative=False)
