from fractions import Fraction as Q
from functools import cache, reduce
from math import gcd

import pytest
from hypothesis import given, reject, settings, strategies as st

from horomod import examples, liealg, tangent
from horomod.errors import ValidationError
from horomod.liealg import build_module, unipotent_radical_spec
from horomod.linalg import RowSpace, echelon, in_lattice
from horomod.channels import law_equations
from horomod.rootdata import make_root_datum, make_weight_monoid, tangent_weight
from horomod.tangent import t1_invariant
from oracles import tangent_at_horospherical
from test_liealg import adjoint_module

A1 = make_root_datum("A1")
A3 = make_root_datum("A3")


def test_binary_family_dims():
    dims = [examples.binary_cone_input(n).report()["dims"]["t1_invariant"] for n in range(1, 7)]
    assert dims == [0, 1, 0, 1, 0, 0]


def test_binary_family_weights():
    assert examples.binary_cone_input(2).report()["weights"] == [[2]]
    assert examples.binary_cone_input(4).report()["weights"] == [[2]]
    assert examples.binary_cone_input(3).report()["weights"] == []


def test_binary_family_agrees_with_law_linearization():
    for n in range(1, 5):
        mon = make_weight_monoid(A1, [(n,)])
        dim, _ = tangent_at_horospherical(law_equations(mon, 4 * n))
        assert dim == examples.binary_cone_input(n).report()["dims"]["t1_invariant"]


def test_flag_point_dim_and_weights():
    rep = examples.flag_multicone(3).report()
    assert rep["dims"]["t1_invariant"] == 2
    assert rep["weights"] == [[0, 1, 1], [1, 1, 0]]


def test_t1_builds_chevalley_and_isotypic_split_once(monkeypatch):
    isotypic_args = []
    lie_calls = []
    orbit_spans = []
    quotient_spans = []
    split = tangent.isotypic_components
    build_lie = tangent.lie_matrix
    orbit = tangent.orbit_tangent
    quotient = tangent.fixed_in_quotient

    def counted_split(m):
        isotypic_args.append(m)
        return split(m)

    def counted_lie(m, coeffs):
        lie_calls.append((m, tuple(coeffs), build_lie(m, coeffs)))
        return lie_calls[-1][2]

    def recorded_orbit(m, x):
        orbit_spans.append(orbit(m, x))
        return orbit_spans[-1]

    def recorded_quotient(span, lie, passing):
        quotient_spans.append(span)
        return quotient(span, lie, passing)

    def unreached(*args):
        raise AssertionError("t1 computed the stabilizer of the point")

    monkeypatch.setattr(tangent, "isotypic_components", counted_split)
    monkeypatch.setattr(tangent, "lie_matrix", counted_lie)
    monkeypatch.setattr(tangent, "orbit_tangent", recorded_orbit)
    monkeypatch.setattr(tangent, "fixed_in_quotient", recorded_quotient)
    monkeypatch.setattr(liealg, "stabilizer_lie", unreached)
    assert examples.flag_multicone(3).report()["dims"]["t1_invariant"] == 2
    # The Chevalley table is built with the module: a unit Lie
    # generator's matrix equals its table entry.
    assert all(mat == m.ops[k] for m, (k,), mat in lie_calls)
    assert len(isotypic_args) <= 1
    # one matrix per Lie generator (3 for the unipotent radical of A3,
    # one per simple root), all on the module itself: no adjoint module
    # is built
    lie_args = [(id(m), coeffs) for m, coeffs, _ in lie_calls]
    assert len(lie_args) == len(set(lie_args)) == 3
    assert len({m for m, _ in lie_args}) == 1
    # the orbit span is built once, and the quotient by it extends it;
    # the other quotient is V^{G_x}
    assert len(orbit_spans) == 1 and len(quotient_spans) == 2
    assert quotient_spans[-1] is orbit_spans[0]
    assert orbit_spans[0].dim == 9 + 2


def test_t1_refuses_a_weight_count_that_differs_from_the_dimension(monkeypatch):
    """The one check of the report that can fail is t1_invariant's: a
    graded count of survivors that differs from dim T1^G."""
    graded = tangent._graded_weights
    monkeypatch.setattr(tangent, "_graded_weights", lambda *args: graded(*args) + [(1, 1, 1)])
    with pytest.raises(ValidationError, match="^3 tangent weights for an invariant deformation space of dimension 2$"):
        examples.flag_multicone(3).report()


@pytest.mark.parametrize(
    "module, point",
    [
        ("tensor(natural(3),ext(2,natural(3)))", (1, 0, 0, 0, 0, 0, 0, 0, 0)),
        ("tensor(natural(3),dual(natural(3)))", (0, 0, 1, 0, 0, 0, 0, 0, 0)),
    ],
)
def test_weights_ignore_the_trivial_summand(module, point):
    """Both modules are the adjoint module plus a trivial summand, and the
    point is the highest root vector.  The surviving class has a
    representative of weight zero with a part in the trivial summand,
    inside V^{G_x}; only the adjoint part carries a weight."""
    A2 = make_root_datum("A2")
    m = build_module(A2, module)
    report = t1_invariant(m, [Q(c) for c in point], unipotent_radical_spec(A2))
    assert (report["dims"]["V_fixed"], report["dims"]["t1_invariant"]) == (2, 1)
    assert report["weights"] == [[1, 1]]


def test_report_json_layout():
    blob = examples.flag_multicone(3).report()
    assert blob["dims"]["t1_invariant"] == 2
    assert blob["weights"] == [[0, 1, 1], [1, 1, 0]]
    assert set(blob) == {"dims", "weights"}


def test_stabilizer_must_annihilate():
    m = build_module(A1, "sym(2,natural(2))")
    x = [Q(0)] * m.dim
    x[m.basis_weights.index((-2,))] = Q(1)  # lowest weight vector
    with pytest.raises(ValidationError):
        t1_invariant(m, x, unipotent_radical_spec(A1))


@pytest.mark.parametrize("n", [2, 4])
def test_diagonal_part_must_fix_the_point(monkeypatch, n):
    """x^n has weight n, which 3 does not divide: the cube roots of unity
    move the point, and t1 refuses before any fixed space is computed."""

    def unreached(*args):
        raise AssertionError("fixed space computed for a point the group moves")

    monkeypatch.setattr(tangent, "fixed_in_quotient", unreached)
    m, x, lie = examples.binary_cone_input(n).build()
    with pytest.raises(ValidationError, match=rf"weight \({n},\), which fails the congruence 1:3"):
        t1_invariant(m, x, lie, [((1,), 3)])


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_lie_output_is_the_lie_part_at_x_to_the_n(n):
    # stabilizer_lie returns sparse Chevalley coefficient vectors, which
    # t1_invariant takes unchanged; at x^n they span the radical, e.
    m, x, lie_u = examples.binary_cone_input(n).build()
    lie = tuple(liealg.stabilizer_lie(m, x))
    assert lie == lie_u
    assert t1_invariant(m, x, lie) == examples.binary_cone_input(n).report()


def test_stabilizer_lie_output_is_the_lie_part_at_e1_plus_e2():
    # The orbit of e1 + e2 is k3 minus the origin, whose closure is smooth,
    # and its stabilizer is connected; the Lie part has vectors with
    # several nonzero coefficients.
    m = build_module(make_root_datum("A2"), "natural(3)")
    x = [Q(1), Q(1), Q(0)]
    lie = tuple(liealg.stabilizer_lie(m, x))
    assert len(lie) == 5 and max(len(v) for v in lie) == 3
    report = t1_invariant(m, x, lie)
    assert report["dims"]["t1_invariant"] == 0 and report["weights"] == []


@pytest.mark.parametrize(
    "label, module, point, v_fixed",
    [
        ("A1", "sym(2,natural(2))", (0, 1, 0), 1),
        ("A1", "sym(2,natural(2))", (0, 0, 0), 1),
        ("A2", "tensor(natural(3),dual(natural(3)))", (1, 0, 0, 0, -1, 0, 0, 0, 0), 3),
    ],
    ids=["A1-weight-zero", "A1-origin", "A2-weight-zero"],
)
def test_a_support_of_zero_weights_has_all_of_t_as_its_torus_part(label, module, point, v_fixed):
    """S is {0}, or empty at the origin, so T_x is T, which fixes exactly
    the basis vectors of weight zero: with no Lie part, V^{G_x} is their
    span."""
    m = build_module(make_root_datum(label), module)
    assert m.basis_weights.count((0,) * m.rd.rank) == v_fixed
    assert t1_invariant(m, point, ())["dims"]["V_fixed"] == v_fixed


def test_tangent_weight_values():
    assert tangent_weight(A1, (4,), (0,)) == (2,)
    assert tangent_weight(A3, (0, 1, 0), (-1, 0, 1)) == (1, 1, 0)
    assert tangent_weight(A3, (0, 1, 0), (0, 1, 0)) == (0, 0, 0)


def test_tangent_weight_rejects_incomparable():
    with pytest.raises(ValidationError):
        tangent_weight(A1, (2,), (1,))  # difference not in the root lattice
    with pytest.raises(ValidationError):
        tangent_weight(A3, (0, 1, 0), (0, 0, 0))


# ---------------------------------------------- the adjoint route, an oracle


@cache
def _adjoint(rank):
    return adjoint_module(make_root_datum(f"A{rank}"))


def torus_fixed(m, x, weights):
    """The indices of weights in Z.S, S the weights of the support of x
    in m: the weights T_x acts trivially on."""
    lattice = echelon([m.basis_weights[i] for i, c in enumerate(x) if c])
    return [i for i, w in enumerate(weights) if in_lattice(lattice, w)]


def adjoint_route(m, x, lie_part):
    """dim (g/g_x)^{G_x} computed in the adjoint module: the fixed space
    of the stabilizer modulo g_x, with g_x from stabilizer_lie, under
    the Lie part lie_part and T_x."""
    ad = _adjoint(m.rd.rank)
    gx = RowSpace(ad.dim, liealg.stabilizer_lie(m, x))
    lie = [liealg.lie_matrix(ad, c) for c in lie_part]
    return len(liealg.fixed_in_quotient(gx, lie, torus_fixed(m, x, ad.basis_weights)))


def trivial_summand_point(module, point):
    A2 = make_root_datum("A2")
    return build_module(A2, module), [Q(c) for c in point], unipotent_radical_spec(A2)


def e1_plus_e2():
    m = build_module(make_root_datum("A2"), "natural(3)")
    x = [Q(1), Q(1), Q(0)]
    return m, x, tuple(liealg.stabilizer_lie(m, x))


ORACLE_CASES = {
    **{f"binary-{n}": examples.binary_cone_input(n).build for n in range(1, 7)},
    **{f"multicone-A{r}": examples.flag_multicone(r).build for r in range(1, 8)},
    "adjoint-plus-trivial-ext": lambda: trivial_summand_point(
        "tensor(natural(3),ext(2,natural(3)))", (1, 0, 0, 0, 0, 0, 0, 0, 0)
    ),
    "adjoint-plus-trivial-dual": lambda: trivial_summand_point(
        "tensor(natural(3),dual(natural(3)))", (0, 0, 1, 0, 0, 0, 0, 0, 0)
    ),
    "e1-plus-e2": e1_plus_e2,
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_g_mod_gx_fixed_matches_the_adjoint_route(case):
    m, x, lie = ORACLE_CASES[case]()
    assert t1_invariant(m, x, lie)["dims"]["g_mod_gx_fixed"] == adjoint_route(m, x, lie)


SWEEP_MODULES = {
    1: [
        "natural(2)",
        "sym(3,natural(2))",
        "sym(4,natural(2))",
        "sum(natural(2),sym(2,natural(2)))",
        "sum(sym(2,natural(2)),sym(4,natural(2)))",
        "tensor(natural(2),sym(2,natural(2)))",
    ],
    2: [
        "natural(3)",
        "sum(natural(3),dual(natural(3)))",
        "sym(2,natural(3))",
        "tensor(natural(3),dual(natural(3)))",
    ],
    3: [
        "ext(2,natural(4))",
        "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))",
        "sum(natural(4),dual(natural(4)))",
    ],
}


def draw_u_fixed_point(data, m):
    """A combination of the highest weight vectors of m, with small
    coefficients: a point fixed by the maximal unipotent subgroup."""
    x = [Q(0)] * m.dim
    hw = [v for vs in liealg.highest_weight_vectors(m).values() for v in vs]
    coeffs = data.draw(st.lists(st.sampled_from([0, 1, 2, -1]), min_size=len(hw), max_size=len(hw)))
    for c, v in zip(coeffs, hw):
        for i, val in v.items():
            x[i] += c * val
    return x


def draw_congruences(data, m, x):
    """Up to two congruences that every weight of the point x passes."""
    support = [i for i, c in enumerate(x) if c]
    congruences = []
    for coeffs in data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m.rd.rank), max_size=2)):
        values = (sum(a * b for a, b in zip(coeffs, m.basis_weights[i])) for i in support)
        g = reduce(gcd, values, 0)
        moduli = [d for d in range(1, 7) if g % d == 0] + ([0] if g == 0 else [])
        congruences.append((coeffs, data.draw(st.sampled_from(moduli))))
    return congruences


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_g_mod_gx_fixed_matches_the_adjoint_route_on_a_sweep(data):
    """Points fixed by the maximal unipotent subgroup, with its Lie part,
    or random points with their stabilizer_lie Lie part; and up to two
    congruences that the point passes, which change nothing: the group
    they describe lies in T_x."""
    rank = data.draw(st.integers(1, 3))
    rd = make_root_datum(f"A{rank}")
    m = build_module(rd, data.draw(st.sampled_from(SWEEP_MODULES[rank])))
    if data.draw(st.booleans()):
        x = draw_u_fixed_point(data, m)
        lie = unipotent_radical_spec(rd)
    else:
        coeffs = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=m.dim, max_size=m.dim))
        x = [Q(c) for c in coeffs]
        lie = tuple(liealg.stabilizer_lie(m, x))
    report = report_or_message(m, x, lie, draw_congruences(data, m, x))
    assert report == report_or_message(m, x, lie)
    if isinstance(report, str):
        # At a point that is not a sum of weight vectors, the classes
        # need not be graded, so their graded pieces may count more
        # weights than the dimension and fail the report's length check;
        # there is no report to compare then.
        reject()
    assert report["dims"]["g_mod_gx_fixed"] == adjoint_route(m, x, lie)


# ------------------------------ all positive root vectors, an oracle for u


def all_of_u(rd):
    """The Lie part of every positive root vector e[i,j], read off the
    Chevalley labels."""
    labels = liealg.chevalley_labels(rd)
    lie = tuple({k: Q(1)} for k, label in enumerate(labels) if label.startswith("e["))
    assert len(lie) == rd.rank * (rd.rank + 1) // 2
    return lie


U_ORACLE_CASES = {
    **{f"binary-{n}": examples.binary_cone_input(n).build for n in range(1, 7)},
    **{f"multicone-A{r}": examples.flag_multicone(r).build for r in range(1, 8)},
    "adjoint-plus-trivial-ext": ORACLE_CASES["adjoint-plus-trivial-ext"],
    "adjoint-plus-trivial-dual": ORACLE_CASES["adjoint-plus-trivial-dual"],
}


@pytest.mark.parametrize("case", U_ORACLE_CASES)
def test_simple_root_vectors_give_the_report_of_all_of_u(case):
    m, x, lie = U_ORACLE_CASES[case]()
    assert lie == unipotent_radical_spec(m.rd)
    assert t1_invariant(m, x, lie) == t1_invariant(m, x, all_of_u(m.rd))


def test_the_flag_point_report_is_that_of_all_of_u():
    m, x, _ = examples.flag_multicone(3).build()
    assert examples.flag_multicone(3).report() == t1_invariant(m, x, all_of_u(m.rd))


def report_or_message(m, x, lie, congruences=()):
    try:
        return t1_invariant(m, x, lie, congruences)
    except ValidationError as exc:
        return str(exc)


SQUARES = "tensor(sym(2,natural(2)),sym(2,natural(2)))"


@pytest.mark.parametrize("point", [(2, -1, 0, 1, 0, 0, 0, 0, 0), (1, -2, 1, 2, -2, 0, 1, 0, 0)])
def test_non_homogeneous_survivors_give_one_weight(point):
    """U-fixed points, sums of highest weight vectors of several summands,
    whose survivor representative is not homogeneous: the graded count
    reads one weight, the same under all of u."""
    m = build_module(A1, SQUARES)
    x = [Q(c) for c in point]
    lie = unipotent_radical_spec(A1)
    report = t1_invariant(m, x, lie)
    assert report == {
        "dims": {"g_mod_gx_fixed": 1, "V_fixed": 3, "normal_fixed": 3, "t1_invariant": 1},
        "weights": [[2]],
    }
    assert report == t1_invariant(m, x, all_of_u(A1))


@pytest.mark.parametrize(
    "module, point, message",
    [
        # A lowest weight vector, which u moves.
        ("sym(2,natural(2))", (0, 0, 1), "does not annihilate"),
    ],
)
def test_simple_root_vectors_give_the_refusal_of_all_of_u(module, point, message):
    m = build_module(A1, module)
    x = [Q(c) for c in point]
    got = report_or_message(m, x, unipotent_radical_spec(A1))
    assert message in got
    assert got == report_or_message(m, x, all_of_u(A1))


ISOMORPHIC_FORMS = [
    # V(1,0) (x) V(1,0) = V(2,0) + V(0,1) at the sum of their highest
    # weight vectors, e1 (x) e1 + (e1 (x) e2 - e2 (x) e1).  T_x fixes
    # the weights in Z(2,0) + Z(0,1), those of even first coordinate;
    # a class of grade a1 + a2 = (1,1) below (2,0) or (0,1) has an odd
    # one, so only the grade 2*a1 survives.
    (
        "A2",
        ("tensor(natural(3),natural(3))", (1, 1, 0, -1, 0, 0, 0, 0, 0)),
        ("sum(sym(2,natural(3)),ext(2,natural(3)))", (1, 0, 0, 0, 0, 0, 1, 0, 0)),
        {"dims": {"g_mod_gx_fixed": 2, "V_fixed": 2, "normal_fixed": 1, "t1_invariant": 1}, "weights": [[2, 0]]},
    ),
    # V(2) (x) V(2) = V(4) + V(2) + V(0) at twice the highest weight
    # vector of V(4) plus that of V(2).
    (
        "A1",
        (SQUARES, (2, -1, 0, 1, 0, 0, 0, 0, 0)),
        ("sum(sym(4,natural(2)),sym(2,natural(2)),sym(0,natural(2)))", (2, 0, 0, 0, 0, 1, 0, 0, 0)),
        {"dims": {"g_mod_gx_fixed": 1, "V_fixed": 3, "normal_fixed": 3, "t1_invariant": 1}, "weights": [[2]]},
    ),
]


@pytest.mark.parametrize(
    "label, tensor_form, sum_form, want", ISOMORPHIC_FORMS, ids=[case[0] for case in ISOMORPHIC_FORMS]
)
def test_t1_is_the_same_on_isomorphic_modules(label, tensor_form, sum_form, want):
    """t1 on a tensor product at a U-fixed point equals t1 on its
    decomposition as a direct sum at the matching highest weight
    vectors."""
    rd = make_root_datum(label)
    lie = unipotent_radical_spec(rd)
    reports = [
        t1_invariant(build_module(rd, module), [Q(c) for c in point], lie)
        for module, point in (tensor_form, sum_form)
    ]
    assert reports == [want, want]


# Tensor products, whose U-fixed points are sums of highest weight
# vectors of several summands.
U_SWEEP_TENSORS = {
    1: [SQUARES, "tensor(natural(2),sym(3,natural(2)))"],
    2: ["tensor(natural(3),natural(3))", "sym(2,tensor(natural(3),dual(natural(3))))"],
    3: [],
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_simple_root_vectors_give_the_report_of_all_of_u_on_a_sweep(data):
    """At points fixed by the maximal unipotent subgroup, and up to two
    congruences that the point passes, the simple root vectors and all
    positive ones give the same report, or the same refusal, and never
    a weight count that differs from the dimension; without the
    congruences, the report is the same."""
    rank = data.draw(st.integers(1, 3))
    rd = make_root_datum(f"A{rank}")
    m = build_module(rd, data.draw(st.sampled_from(SWEEP_MODULES[rank] + U_SWEEP_TENSORS[rank])))
    x = draw_u_fixed_point(data, m)
    lie, congruences = unipotent_radical_spec(rd), draw_congruences(data, m, x)
    got = report_or_message(m, x, lie, congruences)
    assert "tangent weights for" not in str(got)
    assert got == report_or_message(m, x, all_of_u(rd), congruences)
    assert got == report_or_message(m, x, lie)
