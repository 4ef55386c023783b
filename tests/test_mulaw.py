from fractions import Fraction as Q
from functools import cache
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horomod import channels, mulaw
from horomod.channels import law_equations, law_tangent, monoid_window
from horomod.errors import ResourceError, ValidationError
from horomod.mulaw import (
    MAX_ORBIT_TRUNCATION,
    contract,
    law_from_json_dict,
    law_to_json_dict,
    make_law,
    orbit_law,
    root_monoid_of_law,
    transvectants,
)
from horomod.linalg import RowSpace
from horomod.polysys import PolySystem, reduced_equations
from horomod.rootdata import make_root_datum, make_weight_monoid
from oracles import (
    horospherical_law,
    law_unknown_values,
    minimal_generators,
    singular_vector_system,
    system_residuals,
    tangent_at_horospherical,
)

A1 = make_root_datum("A1")


def nat2(mon):
    return make_weight_monoid(A1, [(m,) for m in mon])


# ---------------------------------------------------------------- transvectants


def test_transvectant_index_zero_is_product():
    f = (1, 0, 3)
    g = (2, -1)
    h = transvectants(f, g, 0)[0]
    assert len(h) - 1 == 3
    assert h == (Q(2), Q(-1) + Q(0), Q(-0) + Q(6), Q(-3))


def test_transvectant_x2_y2_full_contraction():
    f = (1, 0, 0)  # x^2
    g = (0, 0, 1)  # y^2
    h = transvectants(f, g, 2)[2]
    assert len(h) - 1 == 0
    assert h == (Q(4),)


@st.composite
def forms(draw, max_deg=4):
    d = draw(st.integers(min_value=0, max_value=max_deg))
    coeffs = [
        Q(draw(st.integers(min_value=-4, max_value=4)), draw(st.integers(min_value=1, max_value=3)))
        for _ in range(d + 1)
    ]
    return tuple(coeffs)


@settings(max_examples=40, deadline=None)
@given(forms(), forms(), st.integers(min_value=0, max_value=4))
def test_transvectant_antisymmetry(f, g, i):
    if i > min(len(f), len(g)) - 1:
        return
    fg = transvectants(f, g, i)[i]
    gf = transvectants(g, f, i)[i]
    sign = (-1) ** i
    assert fg == tuple(sign * c for c in gf)


@settings(max_examples=25, deadline=None)
@given(forms(), st.integers(min_value=1, max_value=3))
def test_transvectant_odd_self_pairing_vanishes(f, k):
    i = 2 * k - 1
    if i > len(f) - 1:
        return
    h = transvectants(f, f, i)[i]
    assert all(c == 0 for c in h)


class _CountedQ(Q):
    """A Fraction that counts the products it is the left factor of."""

    products = 0

    def __mul__(self, other):
        _CountedQ.products += 1
        return super().__mul__(other)


def test_transvectants_form_each_coefficient_product_once():
    f = tuple(_CountedQ(c) for c in (1, 0, -2, 3, Q(1, 2)))
    g = (2, 1, 0, 5)
    _CountedQ.products = 0
    out = transvectants(f, g, 3)
    # One product per pair of nonzero coefficients, for all four channels.
    assert _CountedQ.products == 4 * 3
    assert [len(h) - 1 for h in out] == [7, 5, 3, 1]
    assert out[0] == (2, 1, -4, 9, 4, Q(-19, 2), 15, Q(5, 2))  # the product


def test_integer_forms_give_integer_transvectants():
    """Integer forms give int entries on every channel, equal to those
    of the same forms written with Fractions; so does the covariant Z,
    whatever the forms."""
    f, g = (1, 0, -2, 3, 7), (2, 1, 0, 5)
    out = transvectants(f, g, 3)
    assert all(type(c) is int for h in out for c in h)
    assert out == transvectants(tuple(map(Q, f)), tuple(map(Q, g)), 3)
    z = mulaw._hw_covariant([(Q(1, 2), 0, Q(-1, 3))], 2)
    assert z == (-3, 0, 2) and all(type(c) is int for c in z)


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
    law = horospherical_law(mon, 6)
    assert all(ch == 0 for (_, _, _, ch) in law.coeffs)
    assert all(v == 1 for v in law.coeffs.values())
    # every admissible pair within the window carries its top entry
    assert ((2,), (4,), (6,), 0) in law.coeffs
    assert ((4,), (4,), (8,), 0) not in law.coeffs
    assert root_monoid_of_law(law).generators == ()


def test_make_law_rejects_non_unit_top():
    mon = nat2([2])
    with pytest.raises(ValidationError):
        make_law(mon, 4, {((2,), (2,), (4,), 0): Q(2)})


def test_make_law_rejects_alien_channel():
    mon = nat2([2])
    base = {k: Q(1) for k in horospherical_law(mon, 4).coeffs}
    base[((2,), (2,), (4,), 1)] = Q(1)  # channel 1 must land in V(2), not V(4)
    with pytest.raises(ValidationError):
        make_law(mon, 4, base)


def test_make_law_rejects_weight_outside_monoid():
    mon = nat2([2])
    base = {k: Q(1) for k in horospherical_law(mon, 6).coeffs}
    base[((2,), (2,), (3,), 0)] = Q(1)
    with pytest.raises(ValidationError):
        make_law(mon, 6, base)


def test_law_grades_and_contract_identity():
    mon = nat2([2])
    law = horospherical_law(mon, 8)
    same = contract(law, [Q(5)])
    assert same.coeffs == law.coeffs


# ---------------------------------------------------------------- equation systems


def test_equation_system_shape_n2():
    mon = nat2([2])
    sys_ = law_equations(mon, 8)
    assert len(sys_.unknowns) == 14
    assert len(sys_.equations) == 24
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
    assert len(sys_.equations) == 8
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


@pytest.mark.parametrize(
    "gens, windows",
    [((n,), range(2 * n, 4 * n + 1)) for n in range(1, 7)]
    + [((1,), [15]), ((2, 3), [12, 16]), ((3, 5), [20]), ((2, 5), [18])],
)
def test_law_equations_are_the_reduced_singular_vector_system(gens, windows):
    """law_equations, on the s = 0 weight vectors, against its oracle on
    every singular vector of every window: the same reduced basis, tuple
    for tuple."""
    mon = nat2(gens)
    for d in windows:
        oracle = singular_vector_system(mon, d)
        system = law_equations(mon, d)
        assert system.unknowns == oracle.unknowns and system.grades == oracle.grades
        rows = ((dict(cp), g) for cp, g in oracle.equations)
        assert system.equations == reduced_equations(rows, oracle.unknowns)


# ------------------------------------------- the function-ring route, an oracle
#
# Functions on SL2 are polynomials in the four matrix entries with the
# relation (top-left)(bottom-right) = 1 + (top-right)(bottom-left);
# monomials are exponent quadruples reduced so the first and last slots
# are never both positive.  The orbit law is read off products of the
# lowering bases of covariant powers, solved on the rows (0, t) and
# checked on every row pair (s, t).


def _nf_into(out, mono, coef):
    p, q, r, s = mono
    if p and s:
        t = min(p, s)
        for k in range(t + 1):
            _nf_into(out, (p - t, q + k, r + k, s - t), coef * comb(t, k))
        return
    v = out.get(mono, Q(0)) + coef
    if v:
        out[mono] = v
    else:
        out.pop(mono, None)


def nf_combination(terms):
    """The sum of coef * f over the (coef, f) pairs, in normal form."""
    out = {}
    for coef, f in terms:
        for mono, c in f.items():
            _nf_into(out, mono, coef * c)
    return out


def nf_mul(f, g):
    out = {}
    for (p1, q1, r1, s1), c1 in f.items():
        for (p2, q2, r2, s2), c2 in g.items():
            _nf_into(out, (p1 + p2, q1 + q2, r1 + r2, s1 + s2), c1 * c2)
    return out


def op_raise(f):
    out = {}
    for (p, q, r, s), c in f.items():
        if p:
            _nf_into(out, (p - 1, q, r + 1, s), -c * p)
        if q:
            _nf_into(out, (p, q - 1, r, s + 1), -c * q)
    return out


def op_lower(f):
    out = {}
    for (p, q, r, s), c in f.items():
        if r:
            _nf_into(out, (p + 1, q, r - 1, s), -c * r)
        if s:
            _nf_into(out, (p, q + 1, r, s - 1), -c * s)
    return out


def coordinate_pullbacks(form):
    """Pullback of each linear coordinate along the orbit map of the
    given vector: entry r is the weight-(2r-n) function picking the
    y^r coefficient of the moved vector."""
    n = len(form) - 1
    out = []
    for r in range(n + 1):
        raw = {}
        for t, vt in enumerate(form):
            for k in range(max(0, r - t), min(r, n - t) + 1):
                if vt:
                    _nf_into(raw, (n - t - k, t - r + k, k, r - k), vt * comb(n - t, k) * comb(t, r - k))
        out.append(raw)
    return out


def ring_hw_covariant(forms, nbar):
    cands = [
        pb
        for form in forms
        for r, pb in enumerate(coordinate_pullbacks(form))
        if 2 * r - (len(form) - 1) == nbar and pb
    ]
    if not cands:
        raise ValidationError("no coordinate function of the generator weight")
    rows = {}  # monomial -> {candidate: coeff}
    for j, rp in enumerate(op_raise(pb) for pb in cands):
        for m, c in rp.items():
            rows.setdefault(m, {})[j] = c
    kern = RowSpace(len(cands), rows.values()).kernel()
    if not kern:
        raise ValidationError("no singular covariant of the generator weight")
    if len(kern) > 1:
        raise ValidationError(
            "degree-one covariant of the generator weight is not unique; "
            "the orbit closure is not multiplicity-free in this window"
        )
    z = nf_combination((coef, cands[j]) for j, coef in kern[0].items())
    if not z:
        raise ValidationError("singular covariant vanished after normalization")
    monos = sorted(z)
    (row,) = RowSpace(len(monos), [[z[m] for m in monos]]).primitive.values()
    return {m: Q(row[j]) for j, m in enumerate(monos)}


def lowering_basis(top, weight):
    basis = [top]
    for s in range(weight):
        nxt = nf_combination([(Q(1, weight - s), op_lower(basis[-1]))])
        if not nxt:
            raise ValidationError("covariant span collapsed while lowering")
        basis.append(nxt)
    if op_lower(basis[-1]):
        raise ValidationError("covariant does not close into the expected span")
    return basis


def ring_orbit_law(forms, monoid, truncation):
    """orbit_law by products of covariant bases as functions on SL2."""
    if truncation > MAX_ORBIT_TRUNCATION:
        raise ValidationError(f"orbit-law truncation capped at {MAX_ORBIT_TRUNCATION}")
    if not forms or all(not any(f) for f in forms):
        raise ValidationError("zero vector has no orbit law")
    nbar = mulaw._single_generator(monoid)
    ints = [w[0] for w in monoid_window(monoid, truncation)]
    z = ring_hw_covariant(forms, nbar)
    bases = {0: [{(0, 0, 0, 0): Q(1)}]}
    power = {(0, 0, 0, 0): Q(1)}
    for a in ints[1:]:
        power = nf_mul(power, z)
        if not power:
            raise ValidationError("covariant power vanished; window too large")
        bases[a] = lowering_basis(power, a)
    coeffs = {}
    for a in ints:
        for b in ints:
            if a + b > truncation:
                continue
            coeffs[((a,), (b,), (a + b,), 0)] = Q(1)
            if a and b:
                open_ = [i for i in range(min(a, b) + 1) if a + b - 2 * i in bases]
                for i, val in zip(open_, ring_solve_pair(a, b, open_, bases)):
                    if i and val:
                        coeffs[((a,), (b,), (a + b - 2 * i,), i)] = val
    return make_law(monoid, truncation, coeffs)


def ring_solve_pair(a, b, open_, bases):
    """Values of the channels open_ of the (a, b) product: solved on the
    rows (0, t), then checked on every row pair (s, t)."""
    coeff = cache(channels.channel_coeff)
    n = len(open_)
    space = RowSpace(n + 1)
    for t in range(min(a, b) + 1):
        prod = nf_mul(bases[a][0], bases[b][t])
        terms = [
            (open_.index(i), coeff(a, 0, b, t, i), bases[a + b - 2 * i][t - i])
            for i in open_
            if coeff(a, 0, b, t, i)
        ]
        for m in set(prod) | {m for _, _, vec in terms for m in vec}:
            row = {n: prod.get(m, Q(0))}
            for col, k, vec in terms:
                row[col] = row.get(col, 0) + k * vec.get(m, Q(0))
            space.add(row)
    if n in space.rows:
        raise ValidationError(
            f"product of the weight-{a} and weight-{b} pieces does not "
            "decompose inside the declared monoid window"
        )
    sol = [space.rows[c].get(n, Q(0)) if c in space.rows else Q(0) for c in range(n)]
    if sol[open_.index(0)] != 1:
        raise ValidationError("top-channel normalization failed")
    for s in range(a + 1):
        for t in range(b + 1):
            acc = nf_combination(
                (val * coeff(a, s, b, t, i), bases[a + b - 2 * i][s + t - i])
                for i, val in zip(open_, sol)
                if val and coeff(a, s, b, t, i) and 0 <= s + t - i <= a + b - 2 * i
            )
            if acc != nf_mul(bases[a][s], bases[b][t]):
                raise ValidationError(
                    f"decomposition check failed on rows ({s},{t}) for the "
                    f"({a},{b}) product"
                )
    return sol


# ---------------------------------------------------------------- orbit laws


def test_orbit_law_of_single_highest_weight_vector_is_horospherical():
    mon = nat2([2])
    law = orbit_law([(1, 0, 0)], mon, 8)
    assert law.coeffs == horospherical_law(mon, 8).coeffs


def test_orbit_law_x2_plus_y2():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    assert law.coeffs[((2,), (2,), (0,), 2)] == Q(1, 6)
    assert ((2,), (2,), (2,), 1) not in law.coeffs
    assert law.coeffs[((4,), (4,), (4,), 2)] == Q(1, 126)
    assert law.coeffs[((4,), (4,), (0,), 4)] == Q(1, 1080)
    assert law.coeffs[((2,), (4,), (2,), 2)] == Q(1, 30)
    # deeper pairs pick up the same pattern by symmetry
    assert law.coeffs[((4,), (2,), (2,), 2)] == Q(1, 30)


def test_orbit_law_of_a_window_with_no_positive_weight_forms_no_transvectant(monkeypatch):
    calls = []
    transvectants = mulaw.transvectants
    monkeypatch.setattr(mulaw, "transvectants", lambda *args: calls.append(args) or transvectants(*args))
    law = orbit_law([(1,) * 8], nat2([7]), 6)
    assert calls == []
    assert law.coeffs == {((0,), (0,), (0,), 0): 1}


def test_orbit_law_satisfies_equations():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    sys_ = law_equations(mon, 8)
    vals = law_unknown_values(law)
    assert all(r == 0 for r in system_residuals(sys_, vals))


def draw_orbit_request(rng):
    """(nbar, [(degree, coefficients)], truncation): 1-3 summands of
    degree 0-7, nbar 1-6 and truncation 0-16.  Summands of degree nbar,
    sparse ones and proportional copies are drawn often, so that every
    refusal of the covariant and nontrivial laws are reached."""
    nbar = rng.randint(1, 6)
    forms = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        if forms and rng.random() < 0.25:
            degree, coeffs = rng.choice(forms)
            scale = rng.choice([1, -2, Q(1, 3)])
            forms.append((degree, [scale * c for c in coeffs]))
            continue
        degree = rng.choice([nbar, nbar, nbar, min(nbar + 2, 7), rng.randint(0, 7)])
        pool = rng.choice([[0, 1, -1, 2, Q(1, 2)], [0, 0, 0, 1, -1]])
        forms.append((degree, [rng.choice(pool) for _ in range(degree + 1)]))
    return nbar, forms, rng.randint(0, 16)


def outcome(route, nbar, forms, truncation):
    try:
        return route([tuple(c) for _, c in forms], nat2([nbar]), truncation).coeffs
    except ValidationError as exc:
        return str(exc)


def test_orbit_law_matches_the_function_ring_route():
    """Equal coefficients, or equal refusals, on both routes over 150
    seeded requests."""
    for seed in range(150):
        request = draw_orbit_request(Random(seed))
        assert outcome(orbit_law, *request) == outcome(ring_orbit_law, *request), request


@pytest.mark.parametrize(
    "nbar, forms, message",
    [
        (4, [(1, [1, 0])], "no coordinate function of the generator weight"),
        (2, [(4, [1, 0, 0, 0, 0])], "no singular covariant of the generator weight"),
        (2, [(2, [1, 0, 1]), (2, [0, 1, 0])], "is not unique"),
        (2, [(4, [0, 1, 0, 0, 1]), (4, [0, 2, 0, 0, 2])], "singular covariant vanished"),
        (4, [(4, [1, 0, 1, 0, 0])], "weight-4 and weight-4 pieces does not decompose"),
    ],
)
def test_orbit_law_refusals_match_the_function_ring_route(nbar, forms, message):
    """Each refusal of the covariant and of the decomposition, reached
    alike on both routes."""
    got = outcome(orbit_law, nbar, forms, 8)
    assert message in got
    assert got == outcome(ring_orbit_law, nbar, forms, 8)


def test_orbit_law_root_monoid():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    rm = root_monoid_of_law(law)
    assert rm.generators == ((2,), (4,))
    assert minimal_generators(rm) == ((2,),)


def test_orbit_law_zero_weight_vector_degree_four():
    mon = nat2([4])
    form = (0, 0, 1, 0, 0)  # x^2 y^2
    law = orbit_law([form], mon, 12)
    assert law.coeffs[((4,), (4,), (4,), 2)] == Q(-1, 504)
    assert law.coeffs[((4,), (4,), (0,), 4)] == Q(1, 17280)
    sys_ = law_equations(mon, 12)
    vals = law_unknown_values(law)
    assert all(r == 0 for r in system_residuals(sys_, vals))


@pytest.mark.parametrize(
    "nbar, form",
    [(1, (3, 1)), (2, (1, 2, 1)), (3, (1, -3, 3, -1)), (4, (0, 0, 0, 0, 5))],
    ids=["linear", "square", "cube", "fourth-power"],
)
def test_orbit_law_of_a_power_of_a_linear_form_multiplies_out_no_power(monkeypatch, nbar, form):
    """A power of a linear form has the graded law: its covariant's
    powers have no transvectant of index >= 1, so the only one formed is
    the Hessian of Z, and none for nbar = 1."""
    tops = []

    def counted(f, g, top):
        tops.append(top)
        return transvectants(f, g, top)

    monkeypatch.setattr(mulaw, "transvectants", counted)
    law = orbit_law([form], nat2([nbar]), 16)
    assert tops == ([] if nbar == 1 else [2])
    assert law.coeffs == {
        ((a,), (b,), (a + b,), 0): 1
        for a in range(0, 17, nbar) for b in range(0, 17 - a, nbar)
    }


def test_orbit_law_rejects_vector_with_too_big_orbit():
    # x^4 + x^2 y^2 has a finite stabilizer, so its orbit closure is a
    # three-dimensional cone whose coordinate ring repeats modules; the
    # decomposition step must fail rather than return a law.
    mon = nat2([4])
    form = (1, 0, 1, 0, 0)
    with pytest.raises(ValidationError):
        orbit_law([form], mon, 8)


def test_orbit_law_rejects_zero_vector():
    with pytest.raises(ValidationError):
        orbit_law([(0, 0, 0)], nat2([2]), 8)


def test_orbit_law_needs_single_generator():
    mon = nat2([2, 3])
    with pytest.raises(ValidationError):
        orbit_law(
            [(1, 0, 1), (1, 0, 0, 0)],
            mon,
            8,
        )


def test_orbit_law_truncation_cap():
    with pytest.raises(ValidationError):
        orbit_law([(1, 0, 1)], nat2([2]), 40)


# ---------------------------------------------------------------- contraction


def test_contract_origin_gives_horospherical():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    at_zero = contract(law, [Q(0)])
    assert at_zero.coeffs == horospherical_law(mon, 8).coeffs


@settings(max_examples=20, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_contract_is_an_action(s, t):
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    once = contract(contract(law, [s]), [t])
    joint = contract(law, [s * t])
    assert once.coeffs == joint.coeffs


@pytest.mark.parametrize("s", [Q(1), Q(-2), Q(3, 7)])
def test_contract_preserves_solutions(s):
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    sys_ = law_equations(mon, 8)
    moved = contract(law, [s])
    vals = law_unknown_values(moved)
    assert all(r == 0 for r in system_residuals(sys_, vals))


# ---------------------------------------------------------------- serialization


def test_law_json_round_trip():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    blob = law_to_json_dict(law)
    back = law_from_json_dict(blob)
    assert back.coeffs == law.coeffs
    assert back.truncation == law.truncation
    assert back.monoid.generators == law.monoid.generators


def test_law_json_values_are_strings():
    mon = nat2([2])
    law = orbit_law([(1, 0, 1)], mon, 8)
    blob = law_to_json_dict(law)
    assert all(isinstance(entry["value"], str) for entry in blob["coeffs"])
