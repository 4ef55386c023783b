"""Dimensions, weight multiplicities and tensor product decompositions.

Everything is integer arithmetic.  Characters are plain dicts mapping
weights (fundamental coordinates) to positive integer multiplicities,
closed under the Weyl group.

Every root datum is of type A_n.  The reflection s_i sends mu to
mu - mu_i * alpha_i where mu_i is the i-th fundamental coordinate.  In
the epsilon-coordinates e_k = mu_k + ... + mu_n (k = 1..n+1, so
e_{n+1} = 0), which fix mu up to a common shift by mu_k = e_k - e_{k+1},
s_i swaps e_i and e_{i+1}.  So the Weyl group permutes the
epsilon-coordinates, the content of the weight: the orbit is the distinct
orderings of the content, and the dominant conjugate sorts it descending.

The highest weight lam gives the partition p, and the multiplicity of a
weight of content c is the Kostka number K(p, c), the number of
Gelfand-Tsetlin patterns with top row p whose row k sums to
c_1 + ... + c_k.  weight_multiplicities lists the dominant contents (the
partitions below p in dominance), counts each K(p, c) row by row with a
memo, and spreads it over the Weyl orbit.  A count expands at most dim
partial patterns per row, so the character costs at most (dominant
weights) * rank * dim steps, and dim, the Weyl dimension, is checked
against its cap (errors.DIM_CAP by default) before anything is counted.

weyl_dim is the one dominance rule.  tensor_decompose computes each
factor's Weyl dimension once, pushes the weights of the smaller factor
against the other highest weight and folds them back into the dominant
chamber with signs.  The test suite keeps an independent route, which
multiplies full characters and peels highest weights greedily, and
insists the two agree.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import accumulate, product
from math import prod
from operator import sub
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import BIG, DIM_CAP, ValidationError, check_size, clip
from .rootdata import RootDatum, Weight, check_weight

CharacterTable = Dict[Weight, int]
Decomposition = Dict[Weight, int]


def epsilon(mu: Sequence[int]) -> List[int]:
    """The epsilon-coordinates e_1..e_{n+1} of mu: its suffix sums."""
    return list(accumulate(reversed(mu), initial=0))[::-1]


def from_epsilon(e: Sequence[int]) -> Weight:
    return tuple(map(sub, e, e[1:]))


def dominant_conjugate(mu: Weight) -> Tuple[Weight, int, bool]:
    """Dominant Weyl conjugate with the sign of the element used.

    The conjugate sorts the epsilon-coordinates in descending order.  A
    chain of simple reflections at negative coordinates swaps one
    adjacent strict inversion at each step, so its sign is (-1) to the
    number of strict inversions: the parity of the stable sort's
    permutation.  The third component flags a wall (some coordinate of
    the conjugate zero, that is two equal epsilon-coordinates), which is
    what the tensor product weight-push needs to discard singular terms.
    """
    e = epsilon(mu)
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
    return from_epsilon(top), -1 if parity % 2 else 1, any(a == b for a, b in zip(top, top[1:]))


def weyl_dim(rd: RootDatum, lam) -> int:
    """Dimension of the simple module with highest weight lam.

    Weyl's product over the positive roots alpha_i + ... + alpha_j of
    (lam + rho, alpha) / (rho, alpha), in integers: with S the prefix
    sums of lam + 1 (S_0 = 0), the factor is (S_{j+1} - S_i) / (j - i + 1).
    A dimension of more digits than can be printed is refused; every
    factor is at least 1, so once the product passes den * BIG in bit
    length the rest is not multiplied out."""
    lam = check_weight(rd, lam)
    if any(c < 0 for c in lam):
        raise ValidationError(f"{clip(str(lam))} is not dominant")
    s = list(accumulate((l + 1 for l in lam), initial=0))
    n = len(s)
    den = prod(b - a for a in range(n) for b in range(a + 1, n))
    bound = den.bit_length() + BIG.bit_length()
    num = 1
    for factor in (s[b] - s[a] for a in range(n) for b in range(a + 1, n)):
        num *= factor
        if num.bit_length() > bound:
            break  # num // den is past BIG already
    d, rem = divmod(num, den)
    check_size("dimension", d)
    assert rem == 0 and d > 0
    return d


def _dominant_contents(p: Sequence[int]) -> Iterator[Weight]:
    """The partitions of sum(p) into len(p) parts, zeros allowed, that
    lie below the partition p in dominance: each prefix sum at most p's.
    A part is tried only while the parts after it, none larger, can
    still make up the rest of the sum."""
    bound = list(accumulate(p))
    n, total = len(p), bound[-1]

    def extend(head: Weight, s: int, top: int) -> Iterator[Weight]:
        k = len(head)
        if k == n:
            yield head
            return
        for c in range(min(top, bound[k] - s), -1, -1):
            if s + c * (n - k) < total:
                break
            yield from extend(head + (c,), s + c, c)

    return extend((), 0, total)


def _kostka(p: Weight, content: Weight) -> int:
    """K(p, content), the Gelfand-Tsetlin patterns with top row p whose
    row k sums to the first k parts of content.  The row below interlaces
    a row: all its entries but the last range over the interlacing
    bounds, and the row sum fixes the last."""
    sums = list(accumulate(content, initial=0))

    @cache
    def below(row: Weight) -> int:
        if len(row) == 1:
            return 1
        spans = [range(b, a + 1) for a, b in zip(row, row[1:])]
        target = sums[len(row) - 1]
        got = 0
        for head in product(*spans[:-1]):
            last = target - sum(head)
            if last in spans[-1]:
                got += below(head + (last,))
        return got

    return below(p)


def _weyl_orbit(content: Sequence[int]) -> Iterator[Weight]:
    """The Weyl orbit of the weight of this content: its distinct
    orderings in fundamental coordinates, from the ascending one by the
    next-permutation step.  At the last ascent e_i < e_{i+1}, the entries
    after i descend: reverse them, then swap e_i with the first above it."""
    e = sorted(content)
    while True:
        yield from_epsilon(e)
        i = len(e) - 2
        while i >= 0 and e[i] >= e[i + 1]:
            i -= 1
        if i < 0:
            return
        e[i + 1 :] = reversed(e[i + 1 :])
        j = bisect_right(e, e[i], i + 1)
        e[i], e[j] = e[j], e[i]


def weight_multiplicities(rd: RootDatum, lam, cap: int = DIM_CAP) -> CharacterTable:
    """Full character of the simple module with highest weight lam: the
    Kostka number of each dominant content, spread over its Weyl orbit.
    The multiplicities must add up to Weyl's dimension, which checks lam."""
    return _character(lam, check_size("dimension", weyl_dim(rd, lam), cap))


def _character(lam: Weight, dim: int) -> CharacterTable:
    """The character of V(lam), for lam dominant of Weyl dimension dim."""
    p = tuple(epsilon(lam))
    char: CharacterTable = {}
    for content in _dominant_contents(p):
        m = _kostka(p, content)
        for w in _weyl_orbit(content):
            char[w] = m
    assert sum(char.values()) == dim
    return char


def tensor_decompose(rd: RootDatum, lam, mu, cap: int = DIM_CAP) -> Decomposition:
    """Decomposition of V(lam) (x) V(mu) into simple summands.

    Weight-push method: for every weight eps of the smaller factor,
    reflect lam + eps + rho to the dominant chamber; wall hits drop out
    and the sign of the reflecting element weights the count.  Both
    shapes are checked before weyl_dim refuses either factor.
    """
    lam = check_weight(rd, lam)
    mu = check_weight(rd, mu)
    dl, dm = weyl_dim(rd, lam), weyl_dim(rd, mu)
    check_size("tensor dimension", dl * dm, cap)
    if dm > dl:
        lam, mu, dm = mu, lam, dl
    acc: Dict[Weight, int] = {}
    for eps, m in _character(mu, dm).items():
        shifted = tuple(l + e + 1 for l, e in zip(lam, eps))
        conj, sign, wall = dominant_conjugate(shifted)
        if wall:
            continue
        nu = tuple(c - 1 for c in conj)
        acc[nu] = acc.get(nu, 0) + sign * m
    result = {nu: m for nu, m in acc.items() if m != 0}
    assert all(m > 0 for m in result.values())
    return result
