"""Nine headline checks, printed one line each.

Each criterion prints exactly one PASS or FAIL line; stated runtime
limits are asserted, everything else is exact equality.
"""

import time
from fractions import Fraction as Q
from functools import lru_cache
from itertools import product

from horomod.channels import _commutativity_rows, _law_unknowns, law_equations, law_tangent
from horomod.examples import BINARY_DEGREES, binary_cone_input, flag_multicone
from horomod.linalg import RowSpace
from horomod.monoids import saturation
from horomod.mulaw import (
    contract,
    orbit_law,
    root_monoid_of_law,
)
from horomod.repcalc import tensor_decompose, weight_multiplicities, weyl_dim
from horomod.rootdata import make_root_datum, make_weight_monoid, root_coords_below
from oracles import (
    character_product_peel,
    horospherical_law,
    is_free,
    law_unknown_values,
    minimal_generators,
    system_residuals,
)

A1 = make_root_datum("A1")
A2 = make_root_datum("A2")


def _gate(num, desc, body, limit=None):
    t0 = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL  {desc}")
        raise
    dt = time.monotonic() - t0
    if limit is not None and dt >= limit:
        print(f"criterion {num}: FAIL  {desc} ({dt:.2f}s over the {limit}s limit)")
        raise AssertionError(f"criterion {num} exceeded {limit}s: {dt:.2f}s")
    print(f"criterion {num}: PASS  {desc}")


@lru_cache(maxsize=None)
def _t1_dims():
    return tuple(binary_cone_input(n).report()["dims"]["t1_invariant"] for n in BINARY_DEGREES)


@lru_cache(maxsize=None)
def _law_dims(scale):
    return tuple(law_tangent(make_weight_monoid(A1, [(n,)]), scale * n)[0] for n in BINARY_DEGREES)


@lru_cache(maxsize=None)
def _test_laws():
    mon2 = make_weight_monoid(A1, [(2,)])
    mon4 = make_weight_monoid(A1, [(4,)])
    return (
        orbit_law([(1, 0, 0)], mon2, 8),
        orbit_law([(1, 0, 1)], mon2, 8),
        orbit_law([(0, 0, 1, 0, 0)], mon4, 12),
    )


def _sweep_cases():
    cases = []
    for a, b in product(range(7), range(7)):
        cases.append((A1, (a,), (b,)))
    a2_weights = [
        (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0),
    ]
    for lam, mu in product(a2_weights, a2_weights):
        if weyl_dim(A2, lam) * weyl_dim(A2, mu) <= 200:
            cases.append((A2, lam, mu))
    return cases


def test_criterion_1():
    def body():
        assert _t1_dims() == (0, 1, 0, 1, 0, 0)

    _gate(1, "deformation dims of binary-form cones, n=1..6", body, limit=1.0)


def test_criterion_2():
    def body():
        dims = _law_dims(4)
        assert dims == (0, 1, 0, 1, 0, 0)
        assert dims == _t1_dims()

    _gate(2, "law-linearization dims match, n=1..6 at D=4n", body, limit=30.0)


def test_criterion_3():
    def body():
        report = flag_multicone(3).report()
        assert report["dims"]["t1_invariant"] == 2
        assert report["weights"] == [[0, 1, 1], [1, 1, 0]]

    _gate(3, "rank-three point: dim 2, weights a1+a2 and a2+a3", body, limit=10.0)


def test_criterion_4():
    def body():
        cases = _sweep_cases()
        assert len(cases) >= 50
        for rd, lam, mu in cases:
            dec = tensor_decompose(rd, lam, mu)
            assert dec == character_product_peel(rd, lam, mu)
            top = tuple(a + b for a, b in zip(lam, mu))
            assert dec[top] == 1
            for nu in dec:
                assert root_coords_below(rd, nu, top) is not None

    _gate(4, "two tensor routes agree on the full sweep", body)


def test_criterion_5():
    def body():
        seen = set()
        for rd, lam, mu in _sweep_cases():
            dec = tensor_decompose(rd, lam, mu)
            total = sum(k * weyl_dim(rd, nu) for nu, k in dec.items())
            assert total == weyl_dim(rd, lam) * weyl_dim(rd, mu)
            for w in (lam, mu):
                if (rd.label, w) in seen:
                    continue
                seen.add((rd.label, w))
                table = weight_multiplicities(rd, w)
                assert sum(table.values()) == weyl_dim(rd, w)

    _gate(5, "dimension conservation in products and weight tables", body)


def test_criterion_6():
    def body():
        for n in range(1, 6):
            mon = make_weight_monoid(A1, [(n,)])
            system = law_equations(mon, 4 * n)
            hor = horospherical_law(mon, 4 * n)
            resid = system_residuals(system, law_unknown_values(hor))
            assert all(r == 0 for r in resid)
        sample = (Q(2), Q(-1, 3), Q(5))
        for law in _test_laws():
            hor = horospherical_law(law.monoid, law.truncation)
            assert contract(law, [Q(0)]).coeffs == hor.coeffs
            assert contract(law, [Q(1)]).coeffs == law.coeffs
            for s in sample:
                for t in sample:
                    twice = contract(contract(law, [s]), [t])
                    assert twice.coeffs == contract(law, [s * t]).coeffs

    _gate(6, "graded law solves its system; contraction is an action", body)


def test_criterion_7():
    def body():
        for law in _test_laws():
            rm = root_monoid_of_law(law)
            assert all(c >= 0 for g in rm.generators for c in g)
            if rm.generators:
                assert is_free(saturation(rm))
        squares = _test_laws()[1]
        assert minimal_generators(root_monoid_of_law(squares)) == ((2,),)

    _gate(7, "root monoids: non-negative, free after saturation", body)


def test_criterion_8():
    def body():
        for n in range(1, 6):
            mon = make_weight_monoid(A1, [(n,)])
            system = law_equations(mon, 4 * n)
            for cp, grade in system.equations:
                assert max(len(mono) for mono, _ in cp) <= 2
                for mono, _ in cp:
                    total = sum(system.grades[u][0] for u in mono)
                    assert (total,) == grade
            # Every commutativity equation is linear and lies in the span
            # of its grade's equations.
            _, _, index = _law_unknowns(mon, 4 * n, 10**6)
            rows = list(_commutativity_rows(index))
            column = {}
            for p in [dict(cp) for cp, _ in system.equations] + [row for row, _ in rows]:
                for mono in p:
                    column.setdefault(mono, len(column))
            spaces = {}
            for cp, grade in system.equations:
                spaces.setdefault(grade, RowSpace(len(column))).add({column[m]: v for m, v in cp})
            for row, i in rows:
                assert all(len(mono) == 1 for mono in row)
                assert not spaces[(i,)].reduce({column[m]: v for m, v in row.items()})

    _gate(8, "equation degrees and grade tags audit clean", body)


def test_criterion_9():
    def body():
        assert _law_dims(4) == _law_dims(8)

    _gate(9, "linearization dims stable from D=4n to D=8n", body)
