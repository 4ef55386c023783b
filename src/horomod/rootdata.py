"""Root data of type A, weights in fundamental coordinates, and dominance order.

Every root datum is A_n, named by its label "An", n <= _MAX_RANK.
Conventions.  A weight is a tuple of integers: its coordinates against
the fundamental weights.  The simple root alpha_i has fundamental
coordinates equal to the i-th row of the Cartan matrix, so a vector of
root coordinates x relates to fundamental coordinates v by
cartan^T . x = v, solved in closed form.  Root coordinates are tuples
of Fraction since a weight need not lie in the root lattice.

The reflection s_i sends mu to mu - mu_i * alpha_i where mu_i is the
i-th fundamental coordinate.  In the epsilon-coordinates e_k = mu_k +
... + mu_n (k = 1..n+1, so e_{n+1} = 0), which fix mu up to a common
shift by mu_k = e_k - e_{k+1}, s_i swaps e_i and e_{i+1}.  So the Weyl
group permutes the epsilon-coordinates: the dominant conjugate sorts
them in descending order, the antidominant one in ascending order.

The monoid records live here too, with the checks on their generators,
so that the law layers get them without loading monoids.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError

Q = Fraction

Weight = Tuple[int, ...]
RootVector = Tuple[Q, ...]
# A monoid generator: fundamental coordinates in a weight monoid,
# simple-root coordinates in a root monoid.
Gen = Tuple[int, ...]

# A140 has 9 870 positive roots, the most below 10 000.
_MAX_RANK = 140


class RootDatum(NamedTuple):
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


def make_root_datum(label: str) -> RootDatum:
    """The root datum of type A_n named by a label like "A3".  The rank
    cap is checked on the label's digits, before anything is built."""
    m = re.fullmatch(r"A([1-9][0-9]*)", label) if isinstance(label, str) else None
    if not m:
        raise ValidationError(f"unknown root datum label {label!r}")
    digits = m.group(1)
    if len(digits) > len(str(_MAX_RANK)) or int(digits) > _MAX_RANK:
        raise ResourceError(f"root datum rank exceeds the cap {_MAX_RANK}")
    return RootDatum(label, _type_a_cartan(int(digits)))


def check_weight(rd: RootDatum, lam: Sequence[int]) -> Weight:
    w = tuple(int(x) for x in lam)
    if len(w) != rd.rank:
        raise ValidationError(f"weight {w} has wrong length for rank {rd.rank}")
    return w


class WeightMonoid(NamedTuple):
    rd: RootDatum
    generators: Tuple[Gen, ...]


class RootMonoid(NamedTuple):
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


def is_dominant(rd: RootDatum, lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def to_root_coords(rd: RootDatum, lam: Sequence[int]) -> RootVector:
    """Coordinates of lam against the simple roots (exact rationals).

    The inverse of the A_n Cartan matrix is symmetric, with entry
    min(i, j) (n + 1 - max(i, j)) / (n + 1) for 1-based i and j."""
    n = rd.rank
    return tuple(
        Q(
            sum(min(i, j) * (n + 1 - max(i, j)) * lam[j - 1] for j in range(1, n + 1)),
            n + 1,
        )
        for i in range(1, n + 1)
    )


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


def positive_roots(rd: RootDatum) -> Tuple[Tuple[int, ...], ...]:
    """All positive roots alpha_i + ... + alpha_j, in root coordinates."""
    n = rd.rank
    return tuple(
        sorted(
            tuple(1 if i <= k <= j else 0 for k in range(n))
            for i in range(n)
            for j in range(i, n)
        )
    )


def _epsilon(mu: Sequence[int]) -> List[int]:
    """The epsilon-coordinates e_1..e_{n+1} of mu: its suffix sums."""
    return list(accumulate(reversed(mu), initial=0))[::-1]


def _from_epsilon(e: Sequence[int]) -> Weight:
    return tuple(a - b for a, b in zip(e, e[1:]))


def lowest_weight(rd: RootDatum, lam: Sequence[int]) -> Weight:
    """Image of the dominant weight lam under the longest Weyl element:
    its epsilon-coordinates in ascending order."""
    lam = check_weight(rd, lam)
    if not is_dominant(rd, lam):
        raise ValidationError(f"{lam} is not dominant")
    return _from_epsilon(sorted(_epsilon(lam)))


def dominant_conjugate(rd: RootDatum, mu: Sequence[int]) -> Tuple[Weight, int, bool]:
    """Dominant Weyl conjugate with the sign of the element used.

    The conjugate sorts the epsilon-coordinates in descending order.  A
    chain of simple reflections at negative coordinates swaps one
    adjacent strict inversion at each step, so its sign is (-1) to the
    number of strict inversions: the parity of the stable sort's
    permutation.  The third component flags a wall (some coordinate of
    the conjugate zero, that is two equal epsilon-coordinates), which is
    what the tensor product weight-push needs to discard singular terms.
    """
    mu = check_weight(rd, mu)
    e = _epsilon(mu)
    order = sorted(range(len(e)), key=lambda k: -e[k])
    # A permutation of m points with c cycles has parity m - c.
    parity = len(order)
    seen = [False] * len(order)
    for start in range(len(order)):
        if not seen[start]:
            parity -= 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = order[k]
    top = [e[k] for k in order]
    return _from_epsilon(top), -1 if parity % 2 else 1, any(a == b for a, b in zip(top, top[1:]))
