"""The rank-one law system: channels, window, unknowns and both law routes.

For A1 the Hom channels of V(a) (x) V(b) -> V(a+b-2i) are the
transvectants of binary forms.  channel_coeff gives the i-th
transvectant on a monomial pair.  Each law route wraps it in its own
functools.cache, so every coefficient is computed once per call and the
memo is freed when the call returns; mulaw.transvectants calls
channel_coeff for the orbit laws.

This layer also holds the monoid window, the unknowns m[a,b,i], the
commutativity rows, the associativity windows, the cost check, the
one expansion of an associator into channel terms, and its inputs:
the weight vectors of the triple product with s = 0.  Both law routes
read those rows: law_tangent, the linearization at the graded law,
their top-channel terms, and law_equations, the full quadratic system
and its oracle, every term.  law_equations imports polysys when it
runs, so law_tangent runs neither mulaw nor polysys.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, perm
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import ResourceError, ValidationError
from . import linalg

if TYPE_CHECKING:
    from .polysys import PolySystem
    from .rootdata import Monoid

Weight = Tuple[int, ...]
Mono = Tuple[int, ...]  # sorted unknown indices, as in polysys
Term = Tuple[int, int, Mono]  # inner channel, outer channel, unknowns
Plan = Tuple[int, int, int, List[Term], List[Term]]
Coeff = Callable[[int, int, int, int, int], int]  # channel_coeff or a memo of it

_WINDOW_CAP = 100_000
# Cap on the cost estimate of _check_law_cost for the linear rows.  The largest
# window admitted for n = 1..6, D = 32..83, takes 0.03-0.17 s in process.
_TANGENT_COST_CAP = 100_000_000
# Cap on the cost estimate of _check_law_cost for the full system.  The
# largest window admitted for n = 1..6, D = 15..41, takes 0.004-0.31 s in
# process, best of 5; up to it the time grows about as D^5.6 for n = 1, 2.
_SYSTEM_COST_CAP = 1_000_000


def channel_coeff(a: int, s: int, b: int, t: int, i: int) -> int:
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


def monoid_window(monoid: Monoid, bound: int) -> Tuple[Weight, ...]:
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
    monoid: Monoid, truncation: int, cap: int
) -> Tuple[List[int], List[int], Dict[Tuple[int, int, int], int]]:
    """Window weights, positive window weights and the index of each
    unknown m[a,b,i] (of grade i) of a rank-one law window, after the
    cost check against cap.  The multiples of the smallest generator lie
    in the window, so their cost bounds the window's from below and is
    checked before the window is listed."""
    if monoid.rd.rank != 1:
        raise ValidationError("equation generation is implemented for rank one")
    step = min((g[0] for g in monoid.generators if g[0]), default=0)
    if step > 0:
        _check_law_cost(range(step, truncation + 1, step), truncation, cap)
    ints = [w[0] for w in monoid_window(monoid, truncation)]
    sset = set(ints)
    pos = ints[1:]  # the window lists 0 first
    if not pos or 2 * pos[0] > truncation:
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
) -> Iterable[Tuple[Dict[Mono, int], int]]:
    """The linear equations m[a,b,i] = (-1)^i m[b,a,i], a <= b, as
    ({monomial: coefficient}, grade i); those that vanish are left out."""
    for (a, b, i) in index:
        if a < b:
            yield {(index[(a, b, i)],): 1, (index[(b, a, i)],): -((-1) ** i)}, i
        elif a == b and i % 2:
            yield {(index[(a, b, i)],): 2}, i


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


def _associator_plan(
    index: Mapping[Tuple[int, int, int], int], a: int, b: int, c: int, r: int, inner: Iterable[int]
) -> Plan:
    """The grade-r associator (a.b).c - a.(b.c) as (a, b, c, terms of
    (a.b).c, terms of a.(b.c)): a term (i, r - i, unknowns) for each i
    in inner whose inner and outer channels lie in the window, channel 0
    being the fixed top one and any other an unknown."""
    left: List[Term] = []
    right: List[Term] = []
    for i in inner:
        j = r - i
        for terms, inner_key, outer_key in (
            (left, (a, b, i), (a + b - 2 * i, c, j)),
            (right, (b, c, i), (a, b + c - 2 * i, j)),
        ):
            if (i and inner_key not in index) or (j and outer_key not in index):
                continue
            mono = (index[inner_key],) if i else ()
            if j:
                mono = tuple(sorted(mono + (index[outer_key],)))
            terms.append((i, j, mono))
    return a, b, c, left, right


def _add_associator(plan: Plan, coeff: Coeff, stu: Tuple[int, int, int]) -> Dict[Mono, int]:
    """plan on the monomial x^(a-s) y^s (x) x^(b-t) y^t (x) x^(c-u) y^u,
    stu = (s, t, u), as a fresh {unknowns: coefficient} row, zero
    entries kept; channel 0 is 1 on every pair, and is not looked up."""
    a, b, c, left, right = plan
    s, t, u = stu
    out: Dict[Mono, int] = {}
    for i, j, mono in left:
        k = coeff(a, s, b, t, i) if i else 1
        if k and j:
            k *= coeff(a + b - 2 * i, s + t - i, c, u, j)
        out[mono] = out.get(mono, 0) + k
    for i, j, mono in right:
        k = coeff(b, t, c, u, i) if i else 1
        if k and j:
            k *= coeff(a, s, b + c - 2 * i, t + u - i, j)
        out[mono] = out.get(mono, 0) - k
    return out


def _weight_vector_rows(
    index: Mapping[Tuple[int, int, int], int], coeff: Coeff,
    a: int, b: int, c: int, r: int, inner: Iterable[int],
) -> Iterable[Dict[Mono, int]]:
    """The grade-r associator plan of the window (a, b, c) over the inner
    channels in inner, on each weight vector of the triple product with
    s = 0: the inputs x^a (x) x^(b-t) y^t (x) x^(c-u) y^u with t + u = r,
    one {unknowns: coefficient} row each, zero entries kept."""
    plan = _associator_plan(index, a, b, c, r, inner)
    for t in range(max(0, r - c), min(b, r) + 1):
        yield _add_associator(plan, coeff, (0, t, r - t))


def law_tangent(monoid: Monoid, truncation: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The kernel of the linear part of law_equations(monoid,
    truncation) at the all-zero point, as (dim, one grade per kernel
    direction), from the linear rows alone.

    At the all-zero point a product of two unknowns vanishes to first
    order, and the top channel is 1.  So an associativity term of grade
    r is linear exactly when one of its two channels is the top one:
    inner channel 0 or r.  Only those terms of the associator plan are
    listed.  Each is one unknown of grade r, so each row goes, with
    integer coefficients, into that grade's RowSpace, whose columns are
    the unknowns' own indices.

    For any value of the unknowns, the linear associator of a window
    (a, b, c, nu, r) is a G-map phi from W = V(a) (x) V(b) (x) V(c) to
    V(nu), so phi(f.W_{nu+2}) lies in f.V(nu)_{nu+2} = 0, f the lowering
    operator y d/dx.  A weight-nu monomial (s, t, u) of W with s >= 1
    is the leading term of f applied to (s-1, t, u), with coefficient
    a - s + 1 != 0, so modulo f.W_{nu+2} it reduces to monomials with
    s = 0.  Hence phi = 0 exactly when it vanishes on the inputs
    x^a (x) x^(b-t) y^t (x) x^(c-u) y^u with t + u = r, one row each.
    A window with a > c is skipped: modulo the commutativity rows,
    already in its grade's RowSpace, its mirror (c, b, a) gives the
    same equations.  So each grade's kernel is the one every weight-nu
    input of every window gives; the tests check it against the
    singular vectors of the triple products."""
    ints, pos, index = _law_unknowns(monoid, truncation, _TANGENT_COST_CAP)
    coeff = cache(channel_coeff)
    unknowns = Counter(i for _, _, i in index)  # grade -> number of unknowns
    spaces = {i: linalg.RowSpace(len(index)) for i in unknowns}

    def add(row: Mapping[Mono, int], r: int) -> None:
        spaces[r].add({u: v for (u,), v in row.items() if v})

    for row, i in _commutativity_rows(index):
        add(row, i)
    for a, b, c, _, r in _associativity_windows(ints, pos, truncation):
        if a > c or r not in spaces or spaces[r].dim == unknowns[r]:
            continue  # the mirror window's rows, or none can change the rank
        for row in _weight_vector_rows(index, coeff, a, b, c, r, (0, r)):
            add(row, r)
    weights = tuple((r,) for r in sorted(spaces) for _ in range(unknowns[r] - spaces[r].dim))
    return len(weights), weights


def law_equations(monoid: Monoid, truncation: int) -> PolySystem:
    """Commutativity and associativity constraints on a rank-one law
    window, as an exact polynomial system in the non-top coefficients:
    the associator of each window, every term, on the weight vectors of
    its triple product with s = 0, each grade as the reduced basis of
    its span (polysys.reduced_equations)."""
    from .polysys import PolySystem, reduced_equations

    ints, pos, index = _law_unknowns(monoid, truncation, _SYSTEM_COST_CAP)
    coeff = cache(channel_coeff)
    names = tuple(f"m[{a},{b},{i}]" for (a, b, i) in index)
    grades = tuple((i,) for (_, _, i) in index)
    rows = [(row, (i,)) for row, i in _commutativity_rows(index)]
    for a, b, c, _, r in _associativity_windows(ints, pos, truncation):
        for row in _weight_vector_rows(index, coeff, a, b, c, r, range(r + 1)):
            rows.append((row, (r,)))
    return PolySystem(names, grades, reduced_equations(rows, names))
