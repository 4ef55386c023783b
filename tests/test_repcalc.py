import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ResourceError
from horomod import liealg, repcalc, rootdata as rda
from oracles import character_product_peel, lowest_weight, to_root_coords

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
    cartan = rda.cartan_matrix(A2)
    for w, m in char.items():
        for i in range(2):
            r = tuple(c - w[i] * a for c, a in zip(w, cartan[i]))
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
    assert character_product_peel(A1, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert character_product_peel(A2, (1, 0), (0, 1)) == {
        (1, 1): 1,
        (0, 0): 1,
    }


dom_a2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


def test_tensor_decompose_computes_each_weyl_dimension_once(monkeypatch):
    calls = []
    weyl_dim = repcalc.weyl_dim
    monkeypatch.setattr(repcalc, "weyl_dim", lambda rd, lam: calls.append(lam) or weyl_dim(rd, lam))
    assert repcalc.tensor_decompose(A2, (2, 0), (0, 1)) == {(2, 1): 1, (1, 0): 1}
    assert calls == [(2, 0), (0, 1)]


@settings(deadline=None, max_examples=40)
@given(dom_a2, dom_a2)
def test_tensor_conservation_and_cartan(lam, mu):
    dec = repcalc.tensor_decompose(A2, lam, mu, cap=100_000)
    total = sum(m * repcalc.weyl_dim(A2, nu) for nu, m in dec.items())
    assert total == repcalc.weyl_dim(A2, lam) * repcalc.weyl_dim(A2, mu)
    top = tuple(a + b for a, b in zip(lam, mu))
    assert dec[top] == 1
    for nu in dec:
        assert rda.root_coords_below(A2, nu, top) is not None


@settings(deadline=None, max_examples=25)
@given(dom_a2, dom_a2)
def test_tensor_routes_agree_a2(lam, mu):
    dec = repcalc.tensor_decompose(A2, lam, mu, cap=100_000)
    oracle = character_product_peel(A2, lam, mu, cap=100_000)
    assert dec == oracle


def _dominant_weights_in_box(rd, lam):
    """Oracle: every point of the box of root coordinates of lam - w0 lam,
    kept when lam minus it is dominant."""
    kmax = to_root_coords(rd, tuple(a - b for a, b in zip(lam, lowest_weight(rd, lam))))
    cartan = rda.cartan_matrix(rd)
    found = []
    for ks in itertools.product(*(range(int(c) + 1) for c in kmax)):
        mu = tuple(
            lam[j] - sum(ks[t] * cartan[t][j] for t in range(rd.rank))
            for j in range(rd.rank)
        )
        if all(c >= 0 for c in mu):
            found.append(mu)
    return sorted(found)


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
    # The dominant weights of the character are those below lam.
    rd, lam = case
    char = repcalc.weight_multiplicities(rd, lam, cap=100_000)
    assert sorted(mu for mu in char if all(c >= 0 for c in mu)) == _dominant_weights_in_box(rd, lam)


def _small_dominant_weights():
    for rank, top in ((1, 6), (2, 2), (3, 1)):
        for lam in itertools.product(range(top + 1), repeat=rank):
            if any(lam):
                yield rank, lam


@pytest.mark.parametrize("rank, lam", _small_dominant_weights())
def test_character_matches_the_cartan_piece_of_an_explicit_module(rank, lam):
    """Independent route: V(lam) is the piece of highest weight lam in
    the tensor product of the sym^{a_j}(ext^j(natural)), a_j = lam_j; its
    weights are read off the explicit module's reduced weight-vector
    basis, one basis weight per row at the row's pivot."""
    rd = rda.make_root_datum(f"A{rank}")
    natural = f"natural({rank + 1})"
    factors = [f"sym({a},ext({j + 1},{natural}))" for j, a in enumerate(lam) if a]
    m = liealg.build_module(rd, f"tensor({','.join(factors)})")
    (rows,) = [rows for mu, rows in liealg.isotypic_components(m) if mu == lam]
    assert Counter(m.basis_weights[min(row)] for row in rows) == repcalc.weight_multiplicities(rd, lam)


def _small_contents():
    """The descending contents of A1-A3 with entries 0..3."""
    for rank in (1, 2, 3):
        for content in itertools.combinations_with_replacement(range(3, -1, -1), rank + 1):
            yield rank, content


@pytest.mark.parametrize("rank, content", _small_contents())
def test_weyl_orbit_lists_each_weight_once(rank, content):
    """The orbit has no repeat, which no character would show, since a
    repeat overwrites its own entry; it has the multinomial count of the
    content; and it is the set of weights of a box whose dominant
    conjugate has this content."""
    rd = rda.make_root_datum(f"A{rank}")
    orbit = list(repcalc._weyl_orbit(content))
    assert len(orbit) == len(set(orbit))
    count = math.factorial(len(content))
    for c in set(content):
        count //= math.factorial(content.count(c))
    assert len(orbit) == count
    top = repcalc.from_epsilon(sorted(content, reverse=True))
    side = range(content[-1] - content[0], content[0] - content[-1] + 1)
    box = {w for w in itertools.product(side, repeat=rank) if repcalc.dominant_conjugate(w)[0] == top}
    assert set(orbit) == box


def test_weyl_dim_refuses_past_the_digit_limit_before_multiplying_out():
    # Multiplied out, the 820 factors would have about 3.5 million digits.
    rd = rda.make_root_datum("A40")
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="dimension of more than 4300 digits cannot be printed"):
        repcalc.weyl_dim(rd, (10**4299,) * 40)
    assert time.perf_counter() - start < 1
    assert repcalc.weyl_dim(rda.make_root_datum("A1"), (10**4300 - 2,)) == 10**4300 - 1


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
