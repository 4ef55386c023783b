"""Root data of type A, weights in fundamental coordinates, and dominance order.

Every root datum is A_n, named by its label "An", n <= _MAX_RANK, and
holds only its label and rank: cartan_matrix builds the matrix where it
is printed or checked.
Conventions.  A weight is a tuple of integers: its coordinates against
the fundamental weights, of the shape check_weight alone checks.  The
simple root alpha_i has fundamental coordinates equal to the i-th row
of the Cartan matrix, so a vector of root coordinates x relates to
fundamental coordinates v by cartan^T . x = v, solved in closed form.
Root coordinates are read only where they are natural, as tuples of
ints: the package asks only whether mu lies below lam in the dominance
order, and by which roots, and root_coords_below answers it.

One Monoid record serves weight and root monoids; their constructors
check the generators here, so the law layers need not load monoids.
"""

from __future__ import annotations

import re
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError, clip

Weight = Tuple[int, ...]
# A monoid generator: fundamental coordinates in a weight monoid,
# simple-root coordinates in a root monoid.
Gen = Tuple[int, ...]

# A140 has 9 870 positive roots, the most below 10 000.
_MAX_RANK = 140


class RootDatum(NamedTuple):
    label: str
    rank: int


def cartan_matrix(rd: RootDatum) -> Tuple[Tuple[int, ...], ...]:
    """The Cartan matrix of A_n, built where it is printed or checked."""
    n = rd.rank
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def make_root_datum(label: str) -> RootDatum:
    """The root datum of type A_n named by a label like "A3".  The rank
    cap is checked on the label's digits, before anything is built."""
    m = re.fullmatch(r"A([1-9][0-9]*)", label) if isinstance(label, str) else None
    if not m:
        raise ValidationError(f"unknown root datum label {clip(repr(label))}")
    digits = m.group(1)
    if len(digits) > len(str(_MAX_RANK)) or int(digits) > _MAX_RANK:
        raise ResourceError(f"root datum rank exceeds the cap {_MAX_RANK}")
    return RootDatum(label, int(digits))


def check_weight(rd: RootDatum, lam: Sequence[int], what: str = "weight") -> Weight:
    """lam as ints, one per simple root; what names it in the refusal."""
    w = tuple(int(x) for x in lam)
    if len(w) != rd.rank:
        raise ValidationError(f"{what} {clip(str(w))} has wrong length for rank {rd.rank}")
    return w


class Monoid(NamedTuple):
    rd: RootDatum
    generators: Tuple[Gen, ...]


def _check_gens(rd: RootDatum, gens: Sequence[Sequence[int]], nonneg: bool) -> Tuple[Gen, ...]:
    out: Dict[Gen, None] = {}  # the generators seen, in order
    for g in gens:
        t = check_weight(rd, g, "generator")
        if nonneg and any(x < 0 for x in t):
            raise ValidationError(f"root monoid generator {clip(str(t))} has negative entries")
        if t in out:
            raise ValidationError(f"duplicate generator {clip(str(t))}")
        out[t] = None
    return tuple(out)


def make_weight_monoid(rd: RootDatum, gens: Sequence[Sequence[int]]) -> Monoid:
    return Monoid(rd, _check_gens(rd, gens, nonneg=False))


def make_root_monoid(rd: RootDatum, gens: Sequence[Sequence[int]]) -> Monoid:
    return Monoid(rd, _check_gens(rd, gens, nonneg=True))


def natural_root_coords(rd: RootDatum, lam: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Coordinates of lam against the simple roots if all are natural,
    else None.  The inverse of the A_n Cartan matrix is symmetric, with
    entry min(i, j) (n + 1 - max(i, j)) / (n + 1) for 1-based i and j,
    so each coordinate is an integer numerator over n + 1."""
    n1 = rd.rank + 1
    nums = [
        sum(min(i, j) * (n1 - max(i, j)) * lam[j - 1] for j in range(1, n1))
        for i in range(1, n1)
    ]
    if any(x < 0 or x % n1 for x in nums):
        return None
    return tuple(x // n1 for x in nums)


def root_coords_below(rd: RootDatum, mu: Sequence[int], lam: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """lam - mu in simple-root coordinates when mu lies below lam in the
    dominance order, every coordinate natural; else None."""
    mu = check_weight(rd, mu)
    lam = check_weight(rd, lam)
    return natural_root_coords(rd, tuple(a - b for a, b in zip(lam, mu)))


def tangent_weight(rd: RootDatum, lam: Weight, mu: Weight) -> Tuple[int, ...]:
    """Grading character lambda - mu of the deformation moving the
    highest-weight line of V(lambda) toward a weight-mu direction,
    in root coordinates."""
    coords = root_coords_below(rd, mu, lam)
    if coords is None:
        raise ValidationError(
            f"weight {clip(str(mu))} is not below {clip(str(lam))} in the dominance order"
        )
    return coords


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
