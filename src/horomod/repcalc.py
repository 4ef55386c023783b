"""Dimensions, weight multiplicities and tensor product decompositions.

All computations stay in exact rational arithmetic.  Characters are
plain dicts mapping weights (fundamental coordinates) to positive
integer multiplicities, closed under the Weyl group.

tensor_decompose pushes the weights of one factor against the other
highest weight and folds them back into the dominant chamber with
signs.  The test suite keeps an independent route, which multiplies
full characters and peels highest weights greedily, and insists the two
agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Dict, List, Tuple

from .errors import ValidationError
from .linalg import BIG, check_size
from .rootdata import (
    RootDatum,
    Weight,
    check_weight,
    dominant_conjugate,
    is_dominant,
    to_root_coords,
)

Q = Fraction

DEFAULT_DIM_CAP = 10_000

CharacterTable = Dict[Weight, int]
Decomposition = Dict[Weight, int]


def weyl_dim(rd: RootDatum, lam) -> int:
    """Dimension of the simple module with highest weight lam.

    Weyl's product over the positive roots alpha_i + ... + alpha_j of
    (lam + rho, alpha) / (rho, alpha), in integers: with S the prefix
    sums of lam + 1 (S_0 = 0), the factor is (S_{j+1} - S_i) / (j - i + 1).
    A dimension of more digits than can be printed is refused; every
    factor is at least 1, so once the product passes den * BIG in bit
    length the rest is not multiplied out."""
    lam = check_weight(rd, lam)
    if not is_dominant(rd, lam):
        raise ValidationError(f"{lam} is not dominant")
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


def _inner(rd: RootDatum, mu, nu) -> Q:
    """Weyl-invariant pairing of two weights in fundamental coordinates."""
    return sum(Q(m) * x for m, x in zip(mu, to_root_coords(rd, nu)))


def _inner_root(nu: Weight, i: int, j: int) -> int:
    """(nu, alpha_i + ... + alpha_j) for nu in fundamental coordinates,
    which pair with the simple roots as the identity (type A is simply
    laced): the sum of nu_i .. nu_j."""
    return sum(nu[i : j + 1])


Step = Tuple[Tuple[int, int], ...]


def _positive_roots_fund(rd: RootDatum) -> List[Tuple[int, int, Step]]:
    """The positive roots alpha_i + ... + alpha_j as (i, j, nonzero
    fundamental coordinates as (index, value) pairs): the Cartan rows
    i..j sum to 1 at i and j (2 if i = j) and -1 at i - 1 and j + 1."""
    n = rd.rank
    out = []
    for i in range(n):
        for j in range(i, n):
            ends = ((i, 1), (j, 1)) if i < j else ((i, 2),)
            step = ((i - 1, -1),) + ends + ((j + 1, -1),)
            out.append((i, j, tuple((k, b) for k, b in step if 0 <= k < n)))
    return out


def _shifted(mu: Weight, k: int, step: Step) -> Weight:
    """mu + k * the root whose nonzero coordinates are step."""
    nu = list(mu)
    for p, b in step:
        nu[p] += k * b
    return tuple(nu)


def dominant_weights_below(
    rd: RootDatum, lam: Weight, roots: List[Tuple[int, int, Step]]
) -> List[Weight]:
    """All dominant mu with lam - mu a natural sum of simple roots;
    roots is _positive_roots_fund(rd).

    Walks down from lam by positive roots, keeping the dominant results.
    A dominant weight covers another in dominance order only if their
    difference is a positive root (Stembridge 1998), so the walk reaches
    every dominant mu below lam.  A root is subtracted at its at most
    four nonzero coordinates."""
    found = {lam}
    todo = [lam]
    while todo:
        mu = todo.pop()
        for _, _, step in roots:
            if any(mu[k] < b for k, b in step):
                continue
            nu = _shifted(mu, -1, step)
            if nu not in found:
                found.add(nu)
                todo.append(nu)
    return sorted(found, key=lambda mu: (sum(to_root_coords(rd, mu)), mu), reverse=True)


def _dominant_mult(rd: RootDatum, lam: Weight) -> Dict[Weight, int]:
    """Freudenthal recursion for multiplicities at dominant weights."""
    roots_fund = _positive_roots_fund(rd)
    dom = dominant_weights_below(rd, lam, roots_fund)
    table: Dict[Weight, int] = {lam: 1}
    dom_set = set(dom)
    rho_norm = _inner(rd, _shift(lam), _shift(lam))

    for mu in dom:
        if mu == lam:
            continue
        rhs = 0
        for i, j, step in roots_fund:
            k = 1
            while True:
                nu = _shifted(mu, k, step)
                conj, _, _ = dominant_conjugate(rd, nu)
                if conj not in dom_set:
                    break
                m = table.get(conj)
                assert m is not None, "recursion order violated"
                rhs += m * _inner_root(nu, i, j)
                k += 1
        denom = rho_norm - _inner(rd, _shift(mu), _shift(mu))
        assert denom > 0
        val = 2 * rhs / denom
        assert val.denominator == 1 and val > 0
        table[mu] = int(val)
    return table


def _shift(mu: Weight) -> Tuple[int, ...]:
    return tuple(m + 1 for m in mu)


def _weyl_orbit(rd: RootDatum, mu: Weight) -> List[Weight]:
    seen = {mu}
    queue = [mu]
    while queue:
        w = queue.pop()
        for i in range(rd.rank):
            ci = w[i]
            if ci == 0:
                continue
            r = tuple(c - ci * a for c, a in zip(w, rd.cartan[i]))
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return sorted(seen)


def weight_multiplicities(rd: RootDatum, lam, cap: int = DEFAULT_DIM_CAP) -> CharacterTable:
    """Full character of the simple module with highest weight lam."""
    lam = check_weight(rd, lam)
    dim = check_size("dimension", weyl_dim(rd, lam), cap)
    table = _dominant_mult(rd, lam)
    char: CharacterTable = {}
    for mu, m in table.items():
        for w in _weyl_orbit(rd, mu):
            char[w] = m
    assert sum(char.values()) == dim
    return char


def tensor_decompose(rd: RootDatum, lam, mu, cap: int = DEFAULT_DIM_CAP) -> Decomposition:
    """Decomposition of V(lam) (x) V(mu) into simple summands.

    Weight-push method: for every weight eps of the smaller factor,
    reflect lam + eps + rho to the dominant chamber; wall hits drop out
    and the sign of the reflecting element weights the count.
    """
    lam = check_weight(rd, lam)
    mu = check_weight(rd, mu)
    for w in (lam, mu):
        if not is_dominant(rd, w):
            raise ValidationError(f"{w} is not dominant")
    dl, dm = weyl_dim(rd, lam), weyl_dim(rd, mu)
    check_size("tensor dimension", dl * dm, cap)
    if dm > dl:
        lam, mu = mu, lam
    char = weight_multiplicities(rd, mu, cap=cap)
    acc: Dict[Weight, int] = {}
    for eps, m in char.items():
        shifted = tuple(l + e + 1 for l, e in zip(lam, eps))
        conj, sign, wall = dominant_conjugate(rd, shifted)
        if wall:
            continue
        nu = tuple(c - 1 for c in conj)
        acc[nu] = acc.get(nu, 0) + sign * m
    result = {nu: m for nu, m in acc.items() if m != 0}
    assert all(m > 0 for m in result.values())
    return result
