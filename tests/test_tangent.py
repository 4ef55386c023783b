from fractions import Fraction as Q

import pytest

from horomod import examples, liealg, tangent
from horomod.errors import ValidationError
from horomod.liealg import (
    DiagCongruence,
    StabilizerSpec,
    build_module,
    unipotent_radical_spec,
)
from horomod.mulaw import law_equations, tangent_at_horospherical
from horomod.monoids import make_weight_monoid
from horomod.rootdata import make_root_datum
from horomod.tangent import (
    TangentReport,
    report_to_json_dict,
    t1_invariant,
    tangent_weight,
)

A1 = make_root_datum("A1")
A3 = make_root_datum("A3")


def binary_family_report(n):
    m = build_module(A1, f"sym({n},natural(2))")
    x = [Q(0)] * m.dim
    x[m.basis_weights.index((n,))] = Q(1)
    u = unipotent_radical_spec(A1)
    stab = StabilizerSpec(
        lie_part=u.lie_part,
        diag_part=(DiagCongruence(coeffs=(1,), modulus=n),),
    )
    return t1_invariant(m, x, stab)


def flag_point_report():
    m = build_module(A3, "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))")
    x = [Q(0)] * m.dim
    for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        x[m.basis_weights.index(w)] = Q(1)
    return t1_invariant(m, x, unipotent_radical_spec(A3))


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

    monkeypatch.setattr(tangent, "isotypic_components", counted_split)
    monkeypatch.setattr(tangent, "lie_matrix", counted_lie)
    monkeypatch.setattr(tangent, "orbit_tangent", recorded_orbit)
    monkeypatch.setattr(tangent, "fixed_in_quotient", recorded_quotient)
    assert examples.flag_point().dim_T1_invariant == 2
    # The Chevalley table is built with each module, the adjoint's in
    # closed form: a unit Lie generator's matrix is its table entry.
    assert all(mat is m.ops[k] for m, (k,), mat in lie_calls)
    assert len(isotypic_args) <= 1
    # one matrix per Lie generator (6 for the unipotent radical of A3)
    # and module: 6 on the module, 6 on its adjoint
    lie_args = [(id(m), coeffs) for m, coeffs, _ in lie_calls]
    assert len(lie_args) == len(set(lie_args)) == 12
    assert len({m for m, _ in lie_args}) == 2
    assert "adjoint" in {m.label for m, _, _ in lie_calls}
    # the orbit span is built once, and the quotient by it extends it
    assert len(orbit_spans) == 1 and len(quotient_spans) == 3
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
