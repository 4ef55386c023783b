from fractions import Fraction as Q
from functools import cache, reduce
from math import gcd

import pytest
from hypothesis import given, reject, settings, strategies as st

from horomod import examples, liealg, tangent
from horomod.errors import ValidationError
from horomod.liealg import (
    DiagCongruence,
    StabilizerSpec,
    build_module,
    unipotent_radical_spec,
)
from horomod.linalg import RowSpace
from horomod.mulaw import law_equations, tangent_at_horospherical
from horomod.rootdata import make_root_datum, make_weight_monoid
from horomod.tangent import (
    TangentReport,
    report_to_json_dict,
    t1_invariant,
    tangent_weight,
)
from test_liealg import adjoint_module, multicone

A1 = make_root_datum("A1")
A3 = make_root_datum("A3")


def binary_family(n):
    """The module, point and stabilizer of the binary cone x^n."""
    m = build_module(A1, f"sym({n},natural(2))")
    x = [Q(0)] * m.dim
    x[m.basis_weights.index((n,))] = Q(1)
    u = unipotent_radical_spec(A1)
    stab = StabilizerSpec(
        lie_part=u.lie_part,
        diag_part=(DiagCongruence(coeffs=(1,), modulus=n),),
    )
    return m, x, stab


def binary_family_report(n):
    return t1_invariant(*binary_family(n))


def multicone_point(r):
    """The sum of the fundamental modules of A_r, the sum of their
    highest-weight vectors, and the maximal unipotent stabilizer."""
    rd = make_root_datum(f"A{r}")
    m = build_module(rd, multicone(r))
    x = [Q(0)] * m.dim
    for k in range(r):
        x[m.basis_weights.index(tuple(int(i == k) for i in range(r)))] = Q(1)
    return m, x, unipotent_radical_spec(rd)


def flag_point_report():
    return t1_invariant(*multicone_point(3))


def test_binary_family_dims():
    dims = [binary_family_report(n).dim_T1_invariant for n in range(1, 7)]
    assert dims == [0, 1, 0, 1, 0, 0]


def test_binary_family_weights():
    assert binary_family_report(2).weights == ((2,),)
    assert binary_family_report(4).weights == ((2,),)
    assert binary_family_report(3).weights == ()


def test_binary_family_agrees_with_law_linearization():
    for n in range(1, 5):
        mon = make_weight_monoid(A1, [(n,)])
        dim, _ = tangent_at_horospherical(law_equations(mon, 4 * n))
        assert dim == binary_family_report(n).dim_T1_invariant


def test_flag_point_dim_and_weights():
    rep = flag_point_report()
    assert rep.dim_T1_invariant == 2
    assert rep.weights == ((0, 1, 1), (1, 1, 0))


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
    assert examples.flag_point().dim_T1_invariant == 2
    # The Chevalley table is built with the module: a unit Lie
    # generator's matrix is its table entry.
    assert all(mat is m.ops[k] for m, (k,), mat in lie_calls)
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


def test_report_identity_enforced():
    with pytest.raises(ValidationError):
        TangentReport(
            dim_g_mod_gx_fixed=1,
            dim_V_fixed=1,
            dim_normal_fixed=1,
            dim_T1_invariant=0,
            weights=(),
        )


def test_report_refuses_a_weight_list_of_the_wrong_length():
    with pytest.raises(ValidationError, match="2 tangent weights"):
        TangentReport(
            dim_g_mod_gx_fixed=1,
            dim_V_fixed=2,
            dim_normal_fixed=2,
            dim_T1_invariant=1,
            weights=((0, 0), (1, 1)),
        )


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
    assert (report.dim_V_fixed, report.dim_T1_invariant) == (2, 1)
    assert report.weights == ((1, 1),)


def test_report_json_layout():
    blob = report_to_json_dict(flag_point_report())
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
    m = build_module(A1, f"sym({n},natural(2))")
    x = [Q(0)] * m.dim
    x[m.basis_weights.index((n,))] = Q(1)
    stab = StabilizerSpec(
        lie_part=unipotent_radical_spec(A1).lie_part,
        diag_part=(DiagCongruence((1,), 3),),
    )
    with pytest.raises(ValidationError, match=rf"weight \({n},\), which fails the congruence 1:3"):
        t1_invariant(m, x, stab)


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_lie_output_is_the_lie_part_at_x_to_the_n(n):
    # stabilizer_lie returns sparse Chevalley coefficient vectors, which
    # StabilizerSpec takes unchanged; at x^n they span the radical, e.
    m = build_module(A1, f"sym({n},natural(2))")
    x = [Q(0)] * m.dim
    x[m.basis_weights.index((n,))] = Q(1)
    lie = tuple(liealg.stabilizer_lie(m, x))
    assert lie == unipotent_radical_spec(A1).lie_part
    stab = StabilizerSpec(lie_part=lie, diag_part=(DiagCongruence((1,), n),))
    assert t1_invariant(m, x, stab) == binary_family_report(n)


def test_stabilizer_lie_output_is_the_lie_part_at_e1_plus_e2():
    # The orbit of e1 + e2 is k3 minus the origin, whose closure is smooth,
    # and its stabilizer is connected; the Lie part has vectors with
    # several nonzero coefficients.
    m = build_module(make_root_datum("A2"), "natural(3)")
    x = [Q(1), Q(1), Q(0)]
    lie = tuple(liealg.stabilizer_lie(m, x))
    assert len(lie) == 5 and max(len(v) for v in lie) == 3
    report = t1_invariant(m, x, StabilizerSpec(lie_part=lie))
    assert report.dim_T1_invariant == 0 and report.weights == ()


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


def adjoint_route(m, x, stab):
    """dim (g/g_x)^{G_x} computed in the adjoint module: the fixed space
    of the stabilizer modulo g_x, with g_x from stabilizer_lie."""
    ad = _adjoint(m.rd.rank)
    gx = RowSpace(ad.dim, liealg.stabilizer_lie(m, x))
    lie = [liealg.lie_matrix(ad, c) for c in stab.lie_part]
    return len(liealg.fixed_in_quotient(gx, lie, stab.passing(ad.basis_weights)))


def trivial_summand_point(module, point):
    A2 = make_root_datum("A2")
    return build_module(A2, module), [Q(c) for c in point], unipotent_radical_spec(A2)


def e1_plus_e2():
    m = build_module(make_root_datum("A2"), "natural(3)")
    x = [Q(1), Q(1), Q(0)]
    return m, x, StabilizerSpec(lie_part=tuple(liealg.stabilizer_lie(m, x)))


ORACLE_CASES = {
    **{f"binary-{n}": (lambda n=n: binary_family(n)) for n in range(1, 7)},
    **{f"multicone-A{r}": (lambda r=r: multicone_point(r)) for r in range(1, 8)},
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
    m, x, stab = ORACLE_CASES[case]()
    assert t1_invariant(m, x, stab).dim_g_mod_gx_fixed == adjoint_route(m, x, stab)


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
    diag = []
    for coeffs in data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m.rd.rank), max_size=2)):
        values = (sum(a * b for a, b in zip(coeffs, m.basis_weights[i])) for i in support)
        g = reduce(gcd, values, 0)
        moduli = [d for d in range(1, 7) if g % d == 0] + ([0] if g == 0 else [])
        diag.append(DiagCongruence(coeffs, data.draw(st.sampled_from(moduli))))
    return tuple(diag)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_g_mod_gx_fixed_matches_the_adjoint_route_on_a_sweep(data):
    """Points fixed by the maximal unipotent subgroup, with its Lie part,
    or random points with their stabilizer_lie Lie part; and up to two
    congruences that the point passes."""
    rank = data.draw(st.integers(1, 3))
    rd = make_root_datum(f"A{rank}")
    m = build_module(rd, data.draw(st.sampled_from(SWEEP_MODULES[rank])))
    if data.draw(st.booleans()):
        x = draw_u_fixed_point(data, m)
        lie = unipotent_radical_spec(rd).lie_part
    else:
        coeffs = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=m.dim, max_size=m.dim))
        x = [Q(c) for c in coeffs]
        lie = tuple(liealg.stabilizer_lie(m, x))
    stab = StabilizerSpec(lie_part=lie, diag_part=draw_congruences(data, m, x))
    try:
        report = t1_invariant(m, x, stab)
    except ValidationError:
        # At a point that is not a sum of weight vectors, a survivor may
        # carry two weights and fail the report's length check; there is
        # no report to compare then.
        reject()
    assert report.dim_g_mod_gx_fixed == adjoint_route(m, x, stab)


# ------------------------------ all positive root vectors, an oracle for u


def with_all_of_u(stab, rd):
    """stab with its Lie part replaced by every positive root vector
    e[i,j], read off the Chevalley labels."""
    labels = liealg.chevalley_labels(rd)
    lie = tuple({k: Q(1)} for k, label in enumerate(labels) if label.startswith("e["))
    assert len(lie) == rd.rank * (rd.rank + 1) // 2
    return StabilizerSpec(lie_part=lie, diag_part=stab.diag_part)


U_ORACLE_CASES = {
    **{f"binary-{n}": (lambda n=n: binary_family(n)) for n in range(1, 7)},
    **{f"multicone-A{r}": (lambda r=r: multicone_point(r)) for r in range(1, 8)},
    "adjoint-plus-trivial-ext": ORACLE_CASES["adjoint-plus-trivial-ext"],
    "adjoint-plus-trivial-dual": ORACLE_CASES["adjoint-plus-trivial-dual"],
}


@pytest.mark.parametrize("case", U_ORACLE_CASES)
def test_simple_root_vectors_give_the_report_of_all_of_u(case):
    m, x, stab = U_ORACLE_CASES[case]()
    assert stab.lie_part == unipotent_radical_spec(m.rd).lie_part
    assert t1_invariant(m, x, stab) == t1_invariant(m, x, with_all_of_u(stab, m.rd))


def test_the_flag_point_report_is_that_of_all_of_u():
    m, x, stab = multicone_point(3)
    assert examples.flag_point() == t1_invariant(m, x, with_all_of_u(stab, m.rd))


def report_or_message(m, x, stab):
    try:
        return t1_invariant(m, x, stab)
    except ValidationError as exc:
        return str(exc)


SQUARES = "tensor(sym(2,natural(2)),sym(2,natural(2)))"


@pytest.mark.parametrize(
    "module, point, message",
    [
        # U-fixed points whose survivor representative is not homogeneous
        # and so carries several weights: refused, with the same count
        # either way.
        (SQUARES, (2, -1, 0, 1, 0, 0, 0, 0, 0), "3 tangent weights"),
        (SQUARES, (1, -2, 1, 2, -2, 0, 1, 0, 0), "3 tangent weights"),
        # A lowest weight vector, which u moves.
        ("sym(2,natural(2))", (0, 0, 1), "does not annihilate"),
    ],
)
def test_simple_root_vectors_give_the_refusal_of_all_of_u(module, point, message):
    m = build_module(A1, module)
    x = [Q(c) for c in point]
    stab = unipotent_radical_spec(A1)
    got = report_or_message(m, x, stab)
    assert message in got
    assert got == report_or_message(m, x, with_all_of_u(stab, A1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_simple_root_vectors_give_the_report_of_all_of_u_on_a_sweep(data):
    """At points fixed by the maximal unipotent subgroup, and up to two
    congruences that the point passes, the simple root vectors and all
    positive ones give the same report, or the same refusal."""
    rank = data.draw(st.integers(1, 3))
    rd = make_root_datum(f"A{rank}")
    modules = SWEEP_MODULES[rank] + ([SQUARES] if rank == 1 else [])
    m = build_module(rd, data.draw(st.sampled_from(modules)))
    x = draw_u_fixed_point(data, m)
    stab = StabilizerSpec(unipotent_radical_spec(rd).lie_part, draw_congruences(data, m, x))
    assert report_or_message(m, x, stab) == report_or_message(m, x, with_all_of_u(stab, rd))
