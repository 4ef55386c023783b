from collections import Counter
from itertools import product
from math import comb, perm

from horomod import channels
from horomod.channels import ChannelTable, law_tangent
from horomod.rootdata import make_root_datum, make_weight_monoid

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
    table = ChannelTable()
    for key in grid + grid[::-1]:
        assert table[key] == _alternating_sum(*key)
    assert len(table) == len(grid)


def test_law_tangent_evaluates_each_key_once_per_call(monkeypatch):
    calls = Counter()
    channel_coeff = channels._channel_coeff

    def counting(*key):
        calls[key] += 1
        return channel_coeff(*key)

    monkeypatch.setattr(channels, "_channel_coeff", counting)
    mon = make_weight_monoid(A1, [(2,)])
    assert law_tangent(mon, 16) == (1, ((2,),))
    assert calls and set(calls.values()) == {1}
    # A second call builds its own table.
    law_tangent(mon, 16)
    assert set(calls.values()) == {2}
