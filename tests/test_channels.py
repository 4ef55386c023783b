from collections import Counter
from itertools import product
from math import comb, perm

import pytest

from horomod import channels, mulaw
from horomod.channels import channel_coeff, law_tangent
from horomod.rootdata import make_root_datum, make_weight_monoid
from oracles import singular_vector_law_tangent, triple_top_vectors

A1 = make_root_datum("A1")


def _alternating_sum(a, s, b, t, i):
    """Oracle: the i-th transvectant on (x^(a-s) y^s, x^(b-t) y^t), as
    the alternating sum of falling factorials."""
    return sum(
        (-1) ** j * comb(i, j) * perm(a - s, i - j) * perm(s, j) * perm(b - t, j) * perm(t, i - j)
        for j in range(i + 1)
    )


def test_table_returns_the_alternating_sum():
    grid = [
        (a, s, b, t, i)
        for a, b in product(range(8), repeat=2)
        for s in range(a + 1)
        for t in range(b + 1)
        for i in range(min(a, b) + 1)
    ]
    for key in grid:
        assert channel_coeff(*key) == _alternating_sum(*key)


@pytest.mark.parametrize(
    "route, top, expected",
    [(law_tangent, 16, (1, ((2,),))), (channels.law_equations, 12, None)],
    ids=["law_tangent", "law_equations"],
)
def test_a_law_route_evaluates_each_key_once_per_call(monkeypatch, route, top, expected):
    calls = Counter()
    channel_coeff = channels.channel_coeff

    def counting(*key):
        calls[key] += 1
        return channel_coeff(*key)

    monkeypatch.setattr(channels, "channel_coeff", counting)
    mon = make_weight_monoid(A1, [(2,)])
    result = route(mon, top)
    assert expected is None or result == expected
    assert calls and set(calls.values()) == {1}
    # A second call builds its own memo.
    route(mon, top)
    assert set(calls.values()) == {2}


# Every channel of weights up to 18 is an unknown of this window.
_, _, INDEX = channels._law_unknowns(make_weight_monoid(A1, [(1,)]), 18, 10**9)


def _expansion(inner, a, b, c, r, stu):
    plan = channels._associator_plan(INDEX, a, b, c, r, inner)
    out = channels._add_associator(plan, channel_coeff, stu)
    return {m: v for m, v in out.items() if v}


def _four_term_row(a, b, c, r, t):
    """The first-order associator on x^a (x) x^(b-t) y^t (x) x^(c-u) y^u,
    u = r - t, written out: each unknown's term where it is indexed."""
    u = r - t
    terms = [
        ((a, b, r), _alternating_sum(a, 0, b, t, r) if t == r else 0),
        ((a + b, c, r), _alternating_sum(a + b, t, c, u, r)),
        ((b, c, r), -_alternating_sum(b, t, c, u, r)),
        ((a, b + c, r), -_alternating_sum(a, 0, b + c, r, r)),
    ]
    row = Counter()
    for key, v in terms:
        if key in INDEX:
            row[(INDEX[key],)] += v
    return {m: v for m, v in row.items() if v}


def test_the_associator_expansion_on_every_weight_vector():
    """On a, b, c <= 6, every grade r and every monomial triple (s, t, u)
    of weight a + b + c - 2r: the first-order terms are the degree-one
    terms of the full expansion, and at s = 0 they are the four-term
    row."""
    checked = 0
    for a, b, c in product(range(1, 7), repeat=3):
        for r in range(1, (a + b + c) // 2 + 1):
            for s, t in product(range(a + 1), range(b + 1)):
                u = r - s - t
                if not 0 <= u <= c:
                    continue
                first = _expansion((0, r), a, b, c, r, (s, t, u))
                full = _expansion(range(r + 1), a, b, c, r, (s, t, u))
                assert first == {m: v for m, v in full.items() if len(m) == 1}
                if s == 0:
                    assert first == _four_term_row(a, b, c, r, t)
                    checked += bool(first)
    assert checked > 1000


@pytest.mark.parametrize(
    "gens, top",
    [((n,), 8 * n) for n in range(1, 7)]
    + [((1, 2), 20), ((2, 3), 24), ((2, 5), 26), ((3, 5), 28), ((4, 6), 30)],
)
def test_weight_vector_rows_agree_with_the_singular_vector_rows(gens, top):
    """law_tangent, on the s = 0 weight vectors of the windows with
    a <= c, against its oracle on every singular vector of every window,
    on each window from the least holding a product up to top."""
    mon = make_weight_monoid(A1, [(g,) for g in gens])
    for d in range(2 * min(gens), top + 1):
        assert law_tangent(mon, d) == singular_vector_law_tangent(mon, d)


def test_law_tangent_pairs_with_no_singular_vector():
    windows = [(make_weight_monoid(A1, [(g,) for g in gens]), d) for gens, d in (((4,), 9), ((2, 3), 5))]
    expected = [singular_vector_law_tangent(mon, d) for mon, d in windows]
    assert expected == [(2, ((2,), (4,))), (2, ((1,), (2,)))]
    assert [law_tangent(mon, d) for mon, d in windows] == expected
    for module in (channels, mulaw):
        assert not hasattr(module, "_triple_top_vectors") and not hasattr(module, "_bracketings")


def test_triple_top_vectors_are_integer_singular_vectors():
    """Each vector of the oracle is integer, of weight nu, and killed by
    the raising operator x d/dy acting on the three factors."""
    for a, b, c in product(range(1, 6), repeat=3):
        for nu in range(a + b + c + 1):
            for eta in triple_top_vectors(a, b, c, nu):
                assert eta and all(type(v) is int for v in eta.values())
                assert {s + t + u for s, t, u in eta} == {(a + b + c - nu) // 2}
                raised = {}
                for (s, t, u), v in eta.items():
                    for key, k in (((s - 1, t, u), s), ((s, t - 1, u), t), ((s, t, u - 1), u)):
                        raised[key] = raised.get(key, 0) + k * v
                assert not any(raised.values())
