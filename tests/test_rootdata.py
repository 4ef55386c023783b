from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ResourceError, ValidationError
from horomod import rootdata as rda

A1 = rda.make_root_datum("A1")
A2 = rda.make_root_datum("A2")
A3 = rda.make_root_datum("A3")


def test_labels_expand():
    assert A2.cartan == ((2, -1), (-1, 2))
    assert A3.rank == 3
    assert A3.cartan[0] == (2, -1, 0)


def test_bad_cartan_rejected():
    with pytest.raises(ValidationError):
        rda.make_root_datum("B2")


def test_rank_cap_admits_a140():
    assert rda.make_root_datum("A140").rank == 140
    with pytest.raises(ResourceError):
        rda.make_root_datum("A141")


def test_simple_root_coords_are_cartan_rows():
    for rd in (A1, A2, A3):
        for i in range(rd.rank):
            x = rda.to_root_coords(rd, rd.cartan[i])
            assert x == tuple(Q(1) if k == i else Q(0) for k in range(rd.rank))


def test_root_coords_a2_fundamental():
    # solved by hand: 2x - y = 1, -x + 2y = 0
    assert rda.to_root_coords(A2, (1, 0)) == (Q(2, 3), Q(1, 3))


def test_dominance_basic():
    assert rda.dominance_leq(A2, (0, 0), (1, 1))
    assert not rda.dominance_leq(A2, (0, 1), (1, 0))
    assert rda.dominance_leq(A1, (0,), (2,))
    assert not rda.dominance_leq(A1, (1,), (2,))  # parity


def test_lowest_weight_values():
    assert rda.lowest_weight(A2, (1, 0)) == (0, -1)
    assert rda.lowest_weight(A3, (0, 1, 0)) == (0, -1, 0)
    assert rda.lowest_weight(A1, (5,)) == (-5,)
    with pytest.raises(ValidationError):
        rda.lowest_weight(A2, (-1, 0))


def test_positive_root_counts():
    assert len(rda.positive_roots(A1)) == 1
    assert len(rda.positive_roots(A2)) == 3
    assert len(rda.positive_roots(A3)) == 6


small_weight = st.integers(min_value=-6, max_value=6)


@given(st.tuples(small_weight, small_weight), st.tuples(small_weight, small_weight))
def test_dominance_antisymmetric(a, b):
    if rda.dominance_leq(A2, a, b) and rda.dominance_leq(A2, b, a):
        assert a == b


@given(
    st.tuples(small_weight, small_weight),
    st.tuples(small_weight, small_weight),
    st.tuples(small_weight, small_weight),
)
def test_dominance_transitive(a, b, c):
    if rda.dominance_leq(A2, a, b) and rda.dominance_leq(A2, b, c):
        assert rda.dominance_leq(A2, a, c)


@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
def test_lowest_weight_duality(lam):
    low = rda.lowest_weight(A3, lam)
    assert rda.dominance_leq(A3, low, lam)
    dual = tuple(-c for c in low)
    assert rda.lowest_weight(A3, dual) == tuple(-c for c in lam)


@given(st.tuples(small_weight, small_weight, small_weight))
def test_dominant_conjugate_is_dominant(mu):
    conj, sign, _ = rda.dominant_conjugate(A3, mu)
    assert rda.is_dominant(A3, conj)
    assert sign in (1, -1)
    assert rda.to_root_coords(A3, tuple(a - b for a, b in zip(conj, mu)))


@st.composite
def _type_a_weight(draw):
    rd = rda.make_root_datum(f"A{draw(st.integers(1, 20))}")
    return rd, draw(st.lists(small_weight, min_size=rd.rank, max_size=rd.rank))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_type_a_weight())
def test_closed_form_root_coords_solve_cartan_transpose(case):
    rd, v = case
    x = rda.to_root_coords(rd, v)
    n = rd.rank
    assert all(sum(rd.cartan[i][j] * x[i] for i in range(n)) == v[j] for j in range(n))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 20))
def test_closed_form_positive_roots_are_closed_under_reflections(n):
    rd = rda.make_root_datum(f"A{n}")
    roots = rda.positive_roots(rd)
    assert len(roots) == n * (n + 1) // 2
    assert list(roots) == sorted(roots)
    for j in range(n):
        simple = tuple(1 if k == j else 0 for k in range(n))
        assert simple in roots

        def reflect(c):
            pairing = sum(c[i] * rd.cartan[i][j] for i in range(n))
            return tuple(x - pairing if k == j else x for k, x in enumerate(c))

        rest = set(roots) - {simple}
        assert {reflect(c) for c in rest} == rest
        assert reflect(simple) == tuple(-x for x in simple)


def _reflect_until(rd, lam, want_negative):
    """Oracle: reflect at one simple root at a time toward the
    (anti)dominant chamber, flipping the sign at each step; returns
    (weight, sign, some coordinate zero)."""
    cur = list(lam)
    sign = 1
    while True:
        idx = next((i for i, c in enumerate(cur) if (c > 0 if want_negative else c < 0)), None)
        if idx is None:
            return tuple(cur), sign, any(c == 0 for c in cur)
        ci = cur[idx]
        cur = [c - ci * a for c, a in zip(cur, rd.cartan[idx])]
        sign = -sign


@st.composite
def _small_type_a_weight(draw):
    rd = rda.make_root_datum(f"A{draw(st.integers(1, 8))}")
    return rd, tuple(draw(st.lists(small_weight, min_size=rd.rank, max_size=rd.rank)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_type_a_weight())
def test_sorted_chambers_match_the_reflection_walk(case):
    rd, mu = case
    assert rda.dominant_conjugate(rd, mu) == _reflect_until(rd, mu, want_negative=False)
    lam = tuple(abs(c) for c in mu)
    assert rda.lowest_weight(rd, lam) == _reflect_until(rd, lam, want_negative=True)[0]
