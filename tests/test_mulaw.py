from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horomod import channels
from horomod.channels import _triple_top_vectors, law_tangent, monoid_window
from horomod.errors import ResourceError, ValidationError
from horomod.monoids import minimal_generators
from horomod.mulaw import (
    contract,
    horospherical_law,
    law_equations,
    law_from_json_dict,
    law_to_json_dict,
    law_unknown_values,
    make_binary_form,
    make_law,
    orbit_law,
    root_monoid_of_law,
    system_residuals,
    tangent_at_horospherical,
    transvectant,
)
from horomod.polysys import PolySystem
from horomod.rootdata import make_root_datum, make_weight_monoid

A1 = make_root_datum("A1")


def nat2(mon):
    return make_weight_monoid(A1, [(m,) for m in mon])


# ---------------------------------------------------------------- transvectants


def test_transvectant_index_zero_is_product():
    f = make_binary_form(2, [Q(1), Q(0), Q(3)])
    g = make_binary_form(1, [Q(2), Q(-1)])
    h = transvectant(f, g, 0)
    assert h.degree == 3
    assert h.coeffs == (Q(2), Q(-1) + Q(0), Q(-0) + Q(6), Q(-3))


def test_transvectant_x2_y2_full_contraction():
    f = make_binary_form(2, [Q(1), Q(0), Q(0)])  # x^2
    g = make_binary_form(2, [Q(0), Q(0), Q(1)])  # y^2
    h = transvectant(f, g, 2)
    assert h.degree == 0
    assert h.coeffs == (Q(4),)


def test_transvectant_index_out_of_range():
    f = make_binary_form(2, [Q(1), Q(0), Q(0)])
    g = make_binary_form(1, [Q(0), Q(1)])
    with pytest.raises(ValidationError):
        transvectant(f, g, 2)


@st.composite
def forms(draw, max_deg=4):
    d = draw(st.integers(min_value=0, max_value=max_deg))
    coeffs = [
        Q(draw(st.integers(min_value=-4, max_value=4)), draw(st.integers(min_value=1, max_value=3)))
        for _ in range(d + 1)
    ]
    return make_binary_form(d, coeffs)


@settings(max_examples=40, deadline=None)
@given(forms(), forms(), st.integers(min_value=0, max_value=4))
def test_transvectant_antisymmetry(f, g, i):
    if i > min(f.degree, g.degree):
        return
    fg = transvectant(f, g, i)
    gf = transvectant(g, f, i)
    sign = (-1) ** i
    assert fg.coeffs == tuple(sign * c for c in gf.coeffs)


@settings(max_examples=25, deadline=None)
@given(forms(), st.integers(min_value=1, max_value=3))
def test_transvectant_odd_self_pairing_vanishes(f, k):
    i = 2 * k - 1
    if i > f.degree:
        return
    h = transvectant(f, f, i)
    assert all(c == 0 for c in h.coeffs)


# ---------------------------------------------------------------- windows, laws


def test_monoid_window_rank_one():
    mon = nat2([2])
    assert monoid_window(mon, 6) == ((0,), (2,), (4,), (6,))


def test_monoid_window_needs_dominant_generators():
    bad = make_weight_monoid(A1, [(-2,)])
    with pytest.raises(ValidationError):
        monoid_window(bad, 4)


def test_horospherical_law_entries():
    mon = nat2([2])
    law = horospherical_law(A1, mon, 6)
    assert all(ch == 0 for (_, _, _, ch) in law.coeffs)
    assert all(v == 1 for v in law.coeffs.values())
    # every admissible pair within the window carries its top entry
    assert ((2,), (4,), (6,), 0) in law.coeffs
    assert ((4,), (4,), (8,), 0) not in law.coeffs
    assert root_monoid_of_law(law).generators == ()


def test_make_law_rejects_non_unit_top():
    mon = nat2([2])
    with pytest.raises(ValidationError):
        make_law(A1, mon, 4, {((2,), (2,), (4,), 0): Q(2)})


def test_make_law_rejects_alien_channel():
    mon = nat2([2])
    base = {k: Q(1) for k in horospherical_law(A1, mon, 4).coeffs}
    base[((2,), (2,), (4,), 1)] = Q(1)  # channel 1 must land in V(2), not V(4)
    with pytest.raises(ValidationError):
        make_law(A1, mon, 4, base)


def test_make_law_rejects_weight_outside_monoid():
    mon = nat2([2])
    base = {k: Q(1) for k in horospherical_law(A1, mon, 6).coeffs}
    base[((2,), (2,), (3,), 0)] = Q(1)
    with pytest.raises(ValidationError):
        make_law(A1, mon, 6, base)


def test_law_grades_and_contract_identity():
    mon = nat2([2])
    law = horospherical_law(A1, mon, 8)
    same = contract(law, [Q(5)])
    assert same.coeffs == law.coeffs


# ---------------------------------------------------------------- equation systems


def test_equation_system_shape_n2():
    mon = nat2([2])
    sys_ = law_equations(mon, 8)
    assert len(sys_.unknowns) == 14
    assert len(sys_.equations) == 35
    for name in sys_.unknowns:
        assert name.startswith("m[")
    for cp, grade in sys_.equations:
        assert all(type(c) is int for _, c in cp)
        for mono, _ in cp:
            assert 1 <= len(mono) <= 2
            total = 0
            for idx in mono:
                total += sys_.grades[idx][0]
            assert (total,) == grade


def test_equation_grades_homogeneous_n3():
    mon = nat2([3])
    sys_ = law_equations(mon, 12)
    assert len(sys_.unknowns) == 7
    assert len(sys_.equations) == 22
    for cp, grade in sys_.equations:
        for mono, _ in cp:
            assert (sum(sys_.grades[i][0] for i in mono),) == grade


def test_tangent_reads_the_linear_terms_per_grade():
    # a - b at grade 1 and c + a*b at grade 2: the linear rows are a - b
    # and c, so one grade-1 direction survives.
    system = PolySystem(
        ("a", "b", "c"),
        ((1,), (1,), (2,)),
        (
            ((((0,), 1), ((1,), -1)), (1,)),
            ((((2,), 1), ((0, 1), 1)), (2,)),
        ),
    )
    assert tangent_at_horospherical(system) == (1, ((1,),))


def test_tangent_refuses_a_constant_term():
    system = PolySystem(("a",), ((1,),), (((((), 1), ((0,), 1)), (1,)),))
    with pytest.raises(ValidationError, match="not centered at the all-zero point"):
        tangent_at_horospherical(system)


def test_residuals_of_a_quadratic_system():
    # 2x - 3yz and 4y^2 - z - 1 at x = 3, y = 1/2, z = 4; then at x = 1/3,
    # y = 2, with z unnamed, so read as 0.
    system = PolySystem(
        ("x", "y", "z"),
        ((1,), (1,), (2,)),
        (
            ((((0,), 2), ((1, 2), -3)), (2,)),
            ((((), -1), ((2,), -1), ((1, 1), 4)), (2,)),
        ),
    )
    values = system_residuals(system, {"x": 3, "y": Q(1, 2), "z": 4})
    assert values == (0, -4)
    assert all(type(v) is Q for v in values)
    assert system_residuals(system, {"x": Q(1, 3), "y": 2}) == (Q(2, 3), 15)


def test_triple_top_vectors_are_integer_singular_vectors():
    """Each vector is integer, of weight nu, and killed by the raising
    operator x d/dy acting on the three factors."""
    for a, b, c in product(range(1, 6), repeat=3):
        for nu in range(a + b + c + 1):
            for eta in _triple_top_vectors(a, b, c, nu):
                assert eta and all(type(v) is int for v in eta.values())
                assert {s + t + u for s, t, u in eta} == {(a + b + c - nu) // 2}
                raised = {}
                for (s, t, u), v in eta.items():
                    for key, k in (((s - 1, t, u), s), ((s, t - 1, u), t), ((s, t, u - 1), u)):
                        raised[key] = raised.get(key, 0) + k * v
                assert not any(raised.values())


def test_tangent_dims_small_families():
    dims = []
    for n in range(1, 6):
        mon = nat2([n])
        dim, weights = tangent_at_horospherical(law_equations(mon, 4 * n))
        dims.append(dim)
        if dim:
            assert weights == ((2,),) * dim
    assert dims == [0, 1, 0, 1, 0]


def test_tangent_dims_stable_under_window_growth():
    for n in (2, 3):
        a = tangent_at_horospherical(law_equations(nat2([n]), 4 * n))
        b = tangent_at_horospherical(law_equations(nat2([n]), 5 * n))
        assert a == b


def test_equations_need_room():
    with pytest.raises(ValidationError):
        law_equations(nat2([2]), 2)


@pytest.mark.parametrize("route", [law_tangent, law_equations])
@pytest.mark.parametrize("gens", [(1,), (2, 3)])
def test_law_cost_is_checked_before_the_window_is_listed(monkeypatch, route, gens):
    """The multiples of the smallest generator already cost too much, so
    the window of 10^5 weights is refused without being listed."""

    def unlisted(*args):
        raise AssertionError("window listed before the cost check")

    monkeypatch.setattr(channels, "monoid_window", unlisted)
    with pytest.raises(ResourceError):
        route(nat2(gens), 99999)


@pytest.mark.parametrize(
    "gens, top",
    [((n,), (8 if n <= 3 else 5) * n) for n in range(1, 7)] + [((2, 3), 12), ((3, 5), 16)],
)
def test_linear_rows_agree_with_the_full_system(gens, top):
    """law_tangent against its oracle, the linearization of the full
    system, on every window from 2 up to top; the windows too small to
    hold a product are refused alike."""
    mon = nat2(gens)
    for d in range(2, top + 1):
        if d < 2 * min(gens):
            with pytest.raises(ValidationError) as full:
                law_equations(mon, d)
            with pytest.raises(ValidationError) as direct:
                law_tangent(mon, d)
            assert str(direct.value) == str(full.value)
        else:
            assert law_tangent(mon, d) == tangent_at_horospherical(law_equations(mon, d))


# ---------------------------------------------------------------- orbit laws


def test_orbit_law_of_single_highest_weight_vector_is_horospherical():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(0)])], mon, 8)
    assert law.coeffs == horospherical_law(A1, mon, 8).coeffs


def test_orbit_law_x2_plus_y2():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    assert law.coeffs[((2,), (2,), (0,), 2)] == Q(1, 6)
    assert ((2,), (2,), (2,), 1) not in law.coeffs
    assert law.coeffs[((4,), (4,), (4,), 2)] == Q(1, 126)
    assert law.coeffs[((4,), (4,), (0,), 4)] == Q(1, 1080)
    assert law.coeffs[((2,), (4,), (2,), 2)] == Q(1, 30)
    # deeper pairs pick up the same pattern by symmetry
    assert law.coeffs[((4,), (2,), (2,), 2)] == Q(1, 30)


def test_orbit_law_satisfies_equations():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    sys_ = law_equations(mon, 8)
    vals = law_unknown_values(law)
    assert all(r == 0 for r in system_residuals(sys_, vals))


def test_orbit_law_checks_every_row_pair(monkeypatch):
    seen = set()
    channel_coeff = channels._channel_coeff

    def spy(a, s, b, t, i):
        if (a, b) == (6, 6):
            seen.add((s, t))
        return channel_coeff(a, s, b, t, i)

    monkeypatch.setattr(channels, "_channel_coeff", spy)
    orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], nat2([2]), 12)
    assert seen == {(s, t) for s in range(7) for t in range(7)}


def test_orbit_law_forms_each_product_once(monkeypatch):
    import horomod.mulaw as mulaw

    muls = [0]
    counts = {}
    nf_mul, solve_pair = mulaw.nf_mul, mulaw._solve_pair

    def counting_mul(f, g):
        muls[0] += 1
        return nf_mul(f, g)

    def counting_pair(a, b, channels, bases, coeff):
        before = muls[0]
        out = solve_pair(a, b, channels, bases, coeff)
        counts[(a, b)] = muls[0] - before
        return out

    monkeypatch.setattr(mulaw, "nf_mul", counting_mul)
    monkeypatch.setattr(mulaw, "_solve_pair", counting_pair)
    orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], nat2([2]), 12)
    assert counts[(4, 6)] == 5 * 7
    assert all(n == (a + 1) * (b + 1) for (a, b), n in counts.items())


def test_orbit_law_root_monoid():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    rm = root_monoid_of_law(law)
    assert rm.generators == ((2,), (4,))
    assert minimal_generators(rm) == ((2,),)


def test_orbit_law_zero_weight_vector_degree_four():
    mon = nat2([4])
    form = make_binary_form(4, [Q(0), Q(0), Q(1), Q(0), Q(0)])  # x^2 y^2
    law = orbit_law([form], mon, 12)
    assert law.coeffs[((4,), (4,), (4,), 2)] == Q(-1, 504)
    assert law.coeffs[((4,), (4,), (0,), 4)] == Q(1, 17280)
    sys_ = law_equations(mon, 12)
    vals = law_unknown_values(law)
    assert all(r == 0 for r in system_residuals(sys_, vals))


def test_orbit_law_rejects_vector_with_too_big_orbit():
    # x^4 + x^2 y^2 has a finite stabilizer, so its orbit closure is a
    # three-dimensional cone whose coordinate ring repeats modules; the
    # decomposition step must fail rather than return a law.
    mon = nat2([4])
    form = make_binary_form(4, [Q(1), Q(0), Q(1), Q(0), Q(0)])
    with pytest.raises(ValidationError):
        orbit_law([form], mon, 8)


def test_orbit_law_rejects_zero_vector():
    with pytest.raises(ValidationError):
        orbit_law([make_binary_form(2, [Q(0), Q(0), Q(0)])], nat2([2]), 8)


def test_orbit_law_needs_single_generator():
    mon = nat2([2, 3])
    with pytest.raises(ValidationError):
        orbit_law(
            [make_binary_form(2, [Q(1), Q(0), Q(1)]), make_binary_form(3, [Q(1), Q(0), Q(0), Q(0)])],
            mon,
            8,
        )


def test_orbit_law_truncation_cap():
    with pytest.raises(ValidationError):
        orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], nat2([2]), 40)


# ---------------------------------------------------------------- contraction


def test_contract_origin_gives_horospherical():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    at_zero = contract(law, [Q(0)])
    assert at_zero.coeffs == horospherical_law(A1, mon, 8).coeffs


@settings(max_examples=20, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_contract_is_an_action(s, t):
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    once = contract(contract(law, [s]), [t])
    joint = contract(law, [s * t])
    assert once.coeffs == joint.coeffs


@pytest.mark.parametrize("s", [Q(1), Q(-2), Q(3, 7)])
def test_contract_preserves_solutions(s):
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    sys_ = law_equations(mon, 8)
    moved = contract(law, [s])
    vals = law_unknown_values(moved)
    assert all(r == 0 for r in system_residuals(sys_, vals))


# ---------------------------------------------------------------- serialization


def test_law_json_round_trip():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    blob = law_to_json_dict(law)
    back = law_from_json_dict(blob)
    assert back.coeffs == law.coeffs
    assert back.truncation == law.truncation
    assert back.monoid.generators == law.monoid.generators


def test_law_json_values_are_strings():
    mon = nat2([2])
    law = orbit_law([make_binary_form(2, [Q(1), Q(0), Q(1)])], mon, 8)
    blob = law_to_json_dict(law)
    assert all(isinstance(entry["value"], str) for entry in blob["coeffs"])
