from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ResourceError, ValidationError
from horomod import rootdata as rda
from horomod.repcalc import dominant_conjugate
from oracles import lowest_weight, to_root_coords

A1 = rda.make_root_datum("A1")
A2 = rda.make_root_datum("A2")
A3 = rda.make_root_datum("A3")


def test_labels_expand():
    assert rda.cartan_matrix(A2) == ((2, -1), (-1, 2))
    assert A3.rank == 3
    assert rda.cartan_matrix(A3)[0] == (2, -1, 0)


def test_bad_cartan_rejected():
    with pytest.raises(ValidationError):
        rda.make_root_datum("B2")


def test_rank_cap_admits_a140():
    assert rda.make_root_datum("A140").rank == 140
    with pytest.raises(ResourceError):
        rda.make_root_datum("A141")


def test_simple_root_coords_are_cartan_rows():
    for rd in (A1, A2, A3):
        for i, row in enumerate(rda.cartan_matrix(rd)):
            x = to_root_coords(rd, row)
            assert x == tuple(Q(1) if k == i else Q(0) for k in range(rd.rank))


def test_root_coords_a2_fundamental():
    # solved by hand: 2x - y = 1, -x + 2y = 0
    assert to_root_coords(A2, (1, 0)) == (Q(2, 3), Q(1, 3))


def test_dominance_basic():
    assert rda.root_coords_below(A2, (0, 0), (1, 1)) is not None
    assert rda.root_coords_below(A2, (0, 1), (1, 0)) is None
    assert rda.root_coords_below(A1, (0,), (2,)) is not None
    assert rda.root_coords_below(A1, (1,), (2,)) is None  # parity


def test_lowest_weight_values():
    assert lowest_weight(A2, (1, 0)) == (0, -1)
    assert lowest_weight(A3, (0, 1, 0)) == (0, -1, 0)
    assert lowest_weight(A1, (5,)) == (-5,)
    with pytest.raises(ValidationError):
        lowest_weight(A2, (-1, 0))


def test_positive_root_counts():
    assert len(rda.positive_roots(A1)) == 1
    assert len(rda.positive_roots(A2)) == 3
    assert len(rda.positive_roots(A3)) == 6


small_weight = st.integers(min_value=-6, max_value=6)


@given(st.tuples(small_weight, small_weight), st.tuples(small_weight, small_weight))
def test_dominance_antisymmetric(a, b):
    if rda.root_coords_below(A2, a, b) is not None and rda.root_coords_below(A2, b, a) is not None:
        assert a == b


@given(
    st.tuples(small_weight, small_weight),
    st.tuples(small_weight, small_weight),
    st.tuples(small_weight, small_weight),
)
def test_dominance_transitive(a, b, c):
    if rda.root_coords_below(A2, a, b) is not None and rda.root_coords_below(A2, b, c) is not None:
        assert rda.root_coords_below(A2, a, c) is not None


@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
def test_lowest_weight_duality(lam):
    low = lowest_weight(A3, lam)
    assert rda.root_coords_below(A3, low, lam) is not None
    dual = tuple(-c for c in low)
    assert lowest_weight(A3, dual) == tuple(-c for c in lam)


@given(st.tuples(small_weight, small_weight, small_weight))
def test_dominant_conjugate_is_dominant(mu):
    conj, sign, _ = dominant_conjugate(mu)
    assert all(c >= 0 for c in conj)
    assert sign in (1, -1)
    assert to_root_coords(A3, tuple(a - b for a, b in zip(conj, mu)))


@st.composite
def _type_a_weight(draw):
    rd = rda.make_root_datum(f"A{draw(st.integers(1, 20))}")
    return rd, draw(st.lists(small_weight, min_size=rd.rank, max_size=rd.rank))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_type_a_weight())
def test_closed_form_root_coords_solve_cartan_transpose(case):
    rd, v = case
    x = to_root_coords(rd, v)
    n, cartan = rd.rank, rda.cartan_matrix(rd)
    assert all(sum(cartan[i][j] * x[i] for i in range(n)) == v[j] for j in range(n))


def test_natural_root_coords_are_the_oracle_coords_where_natural():
    """On a seeded grid of A1-A4 weights, sums of -1..3 times each simple
    root, plus a fundamental weight in a third of them: the oracle's
    coordinates where they are natural, as ints, and None elsewhere."""
    rng = Random(0)
    seen = set()
    for n in range(1, 5):
        rd = rda.make_root_datum(f"A{n}")
        cartan = rda.cartan_matrix(rd)
        for _ in range(300):
            ks = [rng.randint(-1, 3) for _ in range(n)]
            lam = [sum(k * cartan[i][j] for i, k in enumerate(ks)) for j in range(n)]
            if rng.random() < 1 / 3:
                lam[rng.randrange(n)] += 1
            exact = to_root_coords(rd, lam)
            natural = all(c.denominator == 1 and c >= 0 for c in exact)
            got = rda.natural_root_coords(rd, lam)
            assert got == (exact if natural else None), (rd.label, lam)
            assert got is None or all(type(c) is int for c in got)
            seen.add(natural)
    assert seen == {True, False}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 20))
def test_closed_form_positive_roots_are_closed_under_reflections(n):
    rd = rda.make_root_datum(f"A{n}")
    cartan = rda.cartan_matrix(rd)
    roots = rda.positive_roots(rd)
    assert len(roots) == n * (n + 1) // 2
    assert list(roots) == sorted(roots)
    for j in range(n):
        simple = tuple(1 if k == j else 0 for k in range(n))
        assert simple in roots

        def reflect(c):
            pairing = sum(c[i] * cartan[i][j] for i in range(n))
            return tuple(x - pairing if k == j else x for k, x in enumerate(c))

        rest = set(roots) - {simple}
        assert {reflect(c) for c in rest} == rest
        assert reflect(simple) == tuple(-x for x in simple)


def _reflect_until(rd, lam, want_negative):
    """Oracle: reflect at one simple root at a time toward the
    (anti)dominant chamber, flipping the sign at each step; returns
    (weight, sign, some coordinate zero)."""
    cartan = rda.cartan_matrix(rd)
    cur = list(lam)
    sign = 1
    while True:
        idx = next((i for i, c in enumerate(cur) if (c > 0 if want_negative else c < 0)), None)
        if idx is None:
            return tuple(cur), sign, any(c == 0 for c in cur)
        ci = cur[idx]
        cur = [c - ci * a for c, a in zip(cur, cartan[idx])]
        sign = -sign


@st.composite
def _small_type_a_weight(draw):
    rd = rda.make_root_datum(f"A{draw(st.integers(1, 8))}")
    return rd, tuple(draw(st.lists(small_weight, min_size=rd.rank, max_size=rd.rank)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_type_a_weight())
def test_sorted_chambers_match_the_reflection_walk(case):
    rd, mu = case
    assert dominant_conjugate(mu) == _reflect_until(rd, mu, want_negative=False)
    lam = tuple(abs(c) for c in mu)
    assert lowest_weight(rd, lam) == _reflect_until(rd, lam, want_negative=True)[0]
