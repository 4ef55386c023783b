import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ResourceError
from horomod import repcalc, rootdata as rda

A1 = rda.make_root_datum("A1")
A2 = rda.make_root_datum("A2")
A3 = rda.make_root_datum("A3")


def test_weyl_dim_known_values():
    assert repcalc.weyl_dim(A1, (0,)) == 1
    assert repcalc.weyl_dim(A1, (3,)) == 4
    assert repcalc.weyl_dim(A2, (1, 0)) == 3
    assert repcalc.weyl_dim(A2, (1, 1)) == 8
    assert repcalc.weyl_dim(A3, (0, 1, 0)) == 6
    assert repcalc.weyl_dim(A3, (1, 0, 1)) == 15


def test_weight_multiplicities_adjoint_a2():
    char = repcalc.weight_multiplicities(A2, (1, 1))
    assert char[(0, 0)] == 2
    assert sum(char.values()) == 8
    # six roots, each once
    assert sorted(m for w, m in char.items() if w != (0, 0)) == [1] * 6


def test_weight_multiplicities_a1():
    char = repcalc.weight_multiplicities(A1, (4,))
    assert char == {(-4,): 1, (-2,): 1, (0,): 1, (2,): 1, (4,): 1}


def test_weight_multiplicities_a3_wedge2():
    char = repcalc.weight_multiplicities(A3, (0, 1, 0))
    assert sum(char.values()) == 6
    assert all(m == 1 for m in char.values())


def test_character_weyl_symmetric():
    char = repcalc.weight_multiplicities(A2, (2, 1))
    for w, m in char.items():
        for i in range(2):
            r = tuple(c - w[i] * a for c, a in zip(w, A2.cartan[i]))
            assert char[r] == m


def test_tensor_a1():
    assert repcalc.tensor_decompose(A1, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert repcalc.tensor_decompose(A1, (2,), (3,)) == {(5,): 1, (3,): 1, (1,): 1}


def test_tensor_a2():
    assert repcalc.tensor_decompose(A2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    got = repcalc.tensor_decompose(A2, (1, 1), (1, 1))
    assert got == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}


def test_tensor_cap():
    with pytest.raises(ResourceError):
        repcalc.tensor_decompose(A2, (9, 9), (9, 9), cap=100)


def test_oracle_matches_closed_form():
    assert repcalc.character_product_peel(A1, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert repcalc.character_product_peel(A2, (1, 0), (0, 1)) == {
        (1, 1): 1,
        (0, 0): 1,
    }


dom_a2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(deadline=None, max_examples=40)
@given(dom_a2, dom_a2)
def test_tensor_conservation_and_cartan(lam, mu):
    dec = repcalc.tensor_decompose(A2, lam, mu, cap=100_000)
    total = sum(m * repcalc.weyl_dim(A2, nu) for nu, m in dec.items())
    assert total == repcalc.weyl_dim(A2, lam) * repcalc.weyl_dim(A2, mu)
    top = tuple(a + b for a, b in zip(lam, mu))
    assert dec[top] == 1
    for nu in dec:
        assert rda.dominance_leq(A2, nu, top)


@settings(deadline=None, max_examples=25)
@given(dom_a2, dom_a2)
def test_tensor_routes_agree_a2(lam, mu):
    dec = repcalc.tensor_decompose(A2, lam, mu, cap=100_000)
    oracle = repcalc.character_product_peel(A2, lam, mu, cap=100_000)
    assert dec == oracle


def _dominant_weights_in_box(rd, lam):
    """Oracle: every point of the box of root coordinates of lam - w0 lam,
    kept when lam minus it is dominant, in the order of
    dominant_weights_below."""
    kmax = rda.to_root_coords(rd, tuple(a - b for a, b in zip(lam, rda.lowest_weight(rd, lam))))
    found = []
    for ks in itertools.product(*(range(int(c) + 1) for c in kmax)):
        mu = tuple(
            lam[j] - sum(ks[t] * rd.cartan[t][j] for t in range(rd.rank))
            for j in range(rd.rank)
        )
        if all(c >= 0 for c in mu):
            found.append(mu)
    found.sort(key=lambda mu: (sum(rda.to_root_coords(rd, mu)), mu), reverse=True)
    return found


@st.composite
def _dominant_weight(draw):
    # Entry bounds keep the oracle's box under about 30 000 points.
    rank = draw(st.integers(1, 5))
    top = {1: 8, 2: 4, 3: 3, 4: 2, 5: 1}[rank]
    lam = tuple(draw(st.lists(st.integers(0, top), min_size=rank, max_size=rank)))
    return rda.make_root_datum(f"A{rank}"), lam


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_dominant_weight())
def test_dominant_walk_matches_the_box(case):
    rd, lam = case
    roots = repcalc._positive_roots_fund(rd)
    assert repcalc.dominant_weights_below(rd, lam, roots) == _dominant_weights_in_box(rd, lam)


def _weyl_dim_over_roots(rd, lam):
    """Oracle: Weyl's product over rootdata.positive_roots, in Fractions."""
    num = den = Fraction(1)
    for beta in rda.positive_roots(rd):
        num *= sum(b * (l + 1) for b, l in zip(beta, lam))
        den *= sum(beta)
    return num / den


@pytest.mark.parametrize("rank", range(1, 9))
def test_weyl_dim_matches_the_product_over_roots(rank):
    rd = rda.make_root_datum(f"A{rank}")
    top = {1: 9, 2: 5, 3: 3, 4: 2}.get(rank, 1)
    for lam in itertools.product(range(top + 1), repeat=rank):
        assert repcalc.weyl_dim(rd, lam) == _weyl_dim_over_roots(rd, lam)


@pytest.mark.parametrize("rank", range(1, 7))
def test_root_pairing_matches_the_general_pairing(rank):
    rd = rda.make_root_datum(f"A{rank}")
    values = {1: range(-4, 5), 2: range(-3, 4), 3: range(-2, 3), 6: (-1, 2)}
    roots = repcalc._positive_roots_fund(rd)
    assert len(roots) == rank * (rank + 1) // 2
    # Each step is the nonzero part of the sum of the Cartan rows i..j.
    dense = {}
    for i, j, step in roots:
        alpha = tuple(sum(rd.cartan[t][c] for t in range(i, j + 1)) for c in range(rank))
        assert step == tuple((c, a) for c, a in enumerate(alpha) if a)
        dense[(i, j)] = alpha
    for nu in itertools.product(values.get(rank, range(-1, 2)), repeat=rank):
        for (i, j), alpha in dense.items():
            assert repcalc._inner_root(nu, i, j) == repcalc._inner(rd, nu, alpha)
