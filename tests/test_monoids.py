from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from horomod import linalg, monoids
from horomod.errors import ValidationError
from horomod.monoids import (
    Presentation,
    is_free,
    membership,
    minimal_generators,
    saturation,
    semigroup_presentation,
)
from horomod.rootdata import (
    make_root_datum,
    make_root_monoid,
    make_weight_monoid,
    positive_roots,
    to_root_coords,
)

A1 = make_root_datum("A1")
A2 = make_root_datum("A2")
A3 = make_root_datum("A3")


def test_membership_two_three():
    m = make_weight_monoid(A1, [(2,), (3,)])
    res = membership(m, (7,))
    assert res.found and not res.bound_limited
    assert res.certificate == (2, 1)
    assert 2 * 2 + 1 * 3 == 7


def test_membership_negative_definitive():
    m = make_weight_monoid(A1, [(2,), (3,)])
    res = membership(m, (1,))
    assert not res.found
    assert not res.bound_limited


def test_membership_zero_target():
    m = make_weight_monoid(A2, [(1, 0), (0, 1)])
    res = membership(m, (0, 0))
    assert res.found and res.certificate == (0, 0)


def test_membership_bound_limited_without_grading():
    # generators spanning opposite directions admit no positive functional
    m = make_weight_monoid(A1, [(2,), (-3,)])
    res = membership(m, (1,), bound=1)
    assert not res.found
    assert res.bound_limited
    wide = membership(m, (1,), bound=10)
    assert wide.found  # 2*2 - 3 = 1


def test_membership_rejects_bad_target():
    m = make_weight_monoid(A2, [(1, 0)])
    with pytest.raises(ValidationError):
        membership(m, (1,))


def test_generator_validation():
    with pytest.raises(ValidationError):
        make_weight_monoid(A2, [(1, 0), (1, 0)])
    with pytest.raises(ValidationError):
        make_root_monoid(A2, [(1, -1)])
    with pytest.raises(ValidationError):
        make_weight_monoid(A2, [(1,)])


def test_saturation_numerical_semigroup():
    m = make_weight_monoid(A1, [(2,), (3,)])
    sat = saturation(m)
    assert sat.generators == ((1,),)


def test_saturation_already_saturated():
    alpha = tuple(int(x) for x in A1.cartan[0])
    m = make_weight_monoid(A1, [tuple(2 * x for x in alpha)])
    sat = saturation(m)
    assert sat.generators == ((2 * alpha[0],),)  # lattice is 2*alpha*Z


def test_saturation_two_independent_gens_is_identity():
    # two independent generators are a basis of their own lattice, so
    # nothing new can appear
    m = make_weight_monoid(A2, [(1, 0), (1, 2)])
    sat = saturation(m)
    assert sat.generators == ((1, 0), (1, 2))


def test_saturation_rank_two_lattice_point_appears():
    # the cone between (1,0) and (1,3) needs (1,2) in its Hilbert basis,
    # and (1,2) is not a natural combination of the three generators
    m = make_weight_monoid(A2, [(1, 0), (1, 1), (1, 3)])
    assert not membership(m, (1, 2), bound=8).found
    sat = saturation(m)
    assert sat.generators == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_saturation_root_monoid_a3():
    # spans of alpha1+alpha2, alpha2+alpha3, alpha1+2*alpha2+alpha3:
    # the third is the sum of the first two, and the cone over the first
    # two is free, so the Hilbert basis drops to two elements.
    gens = [(1, 1, 0), (0, 1, 1), (1, 2, 1)]
    m = make_root_monoid(A3, gens)
    sat = saturation(m)
    assert sat.generators == ((0, 1, 1), (1, 1, 0))
    assert is_free(sat)


def test_saturation_keeps_type():
    m = make_root_monoid(A2, [(2, 0)])
    assert type(saturation(m)) is type(m)


def test_minimal_generators_drop_redundant():
    m = make_weight_monoid(A1, [(2,), (3,), (5,)])
    assert minimal_generators(m) == ((2,), (3,))


def test_is_free_fundamental_weights():
    m = make_weight_monoid(A2, [(1, 0), (0, 1)])
    assert is_free(m)


def test_is_free_numerical_counterexample():
    m = make_weight_monoid(A1, [(2,), (3,)])
    assert not is_free(m)


def test_presentation_two_three():
    m = make_weight_monoid(A1, [(2,), (3,)])
    pres = semigroup_presentation(m, degree_bound=3)
    assert pres.bound_limited
    assert pres.relations == (((0, 2), (3, 0)),)  # g2^2 = g1^3


def test_presentation_two_three_five():
    m = make_weight_monoid(A1, [(2,), (3,), (5,)])
    pres = semigroup_presentation(m, degree_bound=3)
    rels = set(pres.relations)
    assert ((0, 0, 1), (1, 1, 0)) in rels  # g3 = g1 g2
    assert ((0, 2, 0), (3, 0, 0)) in rels  # g2^2 = g1^3
    assert len(rels) == 2


def test_presentation_free_monoid_empty():
    m = make_weight_monoid(A2, [(1, 0), (0, 1)])
    pres = semigroup_presentation(m, degree_bound=5)
    assert pres.relations == ()


def test_presentation_deduplicates_shifted_relations():
    m = make_weight_monoid(A1, [(1,), (2,)])
    pres = semigroup_presentation(m, degree_bound=4)
    assert pres.relations == (((0, 1), (2, 0)),)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
)
def test_membership_certificate_is_sound(gens, coeffs):
    gens = sorted(gens)
    coeffs = (coeffs + [0, 0, 0])[: len(gens)]
    m = make_weight_monoid(A1, [(g,) for g in gens])
    target = (sum(c * g for c, g in zip(coeffs, gens)),)
    res = membership(m, target, bound=sum(coeffs) + 4)
    assert res.found
    cert = res.certificate
    assert sum(c * g for c, g in zip(cert, gens)) == target[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7))
def test_saturation_generators_are_members_of_lattice_cone(a, b):
    if a == b:
        b += 1
    m = make_weight_monoid(A1, [(a,), (b,)])
    sat = saturation(m)
    from math import gcd

    assert sat.generators == ((gcd(a, b),),)


def test_positive_roots_monoid_contains_simples_after_saturation():
    gens = positive_roots(A2)  # already in root coordinates
    m = make_root_monoid(A2, gens)
    sat = saturation(m)
    assert sat.generators == ((0, 1), (1, 0))


def _solve(cols, y):
    """One solution of sum x_j cols[j] = y with its free coordinates
    zero, or None if there is none."""
    n = len(cols)
    space = linalg.RowSpace(n + 1, [(*row, b) for row, b in zip(zip(*cols), y)])
    if n in space.rows:
        return None
    return [space.rows[j].get(n, 0) if j in space.rows else 0 for j in range(n)]


def _caratheodory(gens, y, r):
    """Reference cone membership: a non-negative solution on some set of
    at most r generators, r the rank of gens."""
    for size in range(1, r + 1):
        for subset in combinations(gens, size):
            sol = _solve(subset, y)
            if sol is not None and all(t >= 0 for t in sol):
                return True
    return False


@st.composite
def _generator_lists(draw):
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=4, unique=True,
    ))
    return [g for g in gens if any(g)] or [(1,) * rank]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_generator_lists())
def test_facet_test_agrees_with_caratheodory(gens):
    basis = monoids._hnf(gens)
    n = len(gens[0])
    lo = tuple(sum(min(0, g[j]) for g in gens) for j in range(n))
    hi = tuple(sum(max(0, g[j]) for g in gens) for j in range(n))
    normals = monoids._facet_normals(gens, basis)
    points = monoids._box_points(gens, basis)
    assert len(set(points)) == len(points)
    for y in points:
        assert all(l <= v <= h for v, l, h in zip(y, lo, hi))
        in_cone = all(sum(a * b for a, b in zip(u, y)) >= 0 for u in normals)
        assert in_cone == _caratheodory(gens, y, len(basis)), (gens, y)


SATURATION_CASES = [
    (make_weight_monoid, A1, [(2,), (3,)], ((1,),)),
    (make_weight_monoid, A1, [(4,)], ((4,),)),
    (make_weight_monoid, A1, [(4,), (6,)], ((2,),)),
    (make_weight_monoid, A2, [(1, 0), (1, 2)], ((1, 0), (1, 2))),
    (make_weight_monoid, A2, [(1, 0), (1, 1), (1, 3)], ((1, 0), (1, 1), (1, 2), (1, 3))),
    (make_weight_monoid, A2, [(1, 0), (3, 1), (3, 2), (1, -1)], ((1, -1), (1, 0), (2, 1), (3, 2))),
    (make_root_monoid, A3, [(1, 1, 0), (0, 1, 1), (1, 2, 1)], ((0, 1, 1), (1, 1, 0))),
    (make_root_monoid, A2, [(2, 0)], ((2, 0),)),
    (make_root_monoid, A2, [(0, 1), (1, 0), (1, 1)], ((0, 1), (1, 0))),
]


def test_saturation_gives_the_known_generators():
    for make, rd, gens, want in SATURATION_CASES:
        assert saturation(make(rd, gens)).generators == want


@pytest.mark.parametrize(
    "call",
    [
        lambda m: saturation(m),
        lambda m: minimal_generators(m),
        lambda m: membership(m, (7, 9)),
    ],
    ids=["saturation", "minimal_generators", "membership"],
)
def test_grading_is_computed_once_per_call(monkeypatch, call):
    calls = []
    grading = monoids._grading

    def spy(gens, normals):
        calls.append(gens)
        return grading(gens, normals)

    monkeypatch.setattr(monoids, "_grading", spy)
    call(make_weight_monoid(A2, [(1, 0), (1, 1), (1, 3), (2, 3)]))
    assert len(calls) == 1


def test_grading_is_the_facet_sum_and_none_off_pointed_cones():
    # Every positive functional on (1,-10), (-1,11) has a coefficient
    # above 5; the facet normals (11,1) and (10,1) sum to one.
    gens = [(1, -10), (-1, 11)]
    normals = monoids._facet_normals(gens, monoids._hnf(gens))
    assert monoids._grading(gens, normals) == (21, 2)
    assert minimal_generators(make_weight_monoid(A2, gens)) == ((-1, 11), (1, -10))
    line = [(1, -1), (-1, 1)]
    assert monoids._grading(line, monoids._facet_normals(line, monoids._hnf(line))) is None
    with pytest.raises(ValidationError):
        minimal_generators(make_weight_monoid(A2, line))
