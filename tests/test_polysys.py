from fractions import Fraction as Q

from horomod.polysys import (
    PolySystem,
    canonical_poly,
    equation_texts,
    reduced_equations,
    render_poly,
    system_to_text,
)

NAMES = ("m[2,2,1]", "m[2,2,2]", "m[2,4,1]")


def test_canonical_clears_content_and_sign():
    p = {(1,): Q(-2, 3), (0,): Q(-4, 3)}
    cp = canonical_poly(p, NAMES)
    # sorted by name: m[2,2,1] before m[2,2,2]; leading coefficient positive
    assert cp == (((0,), 2), ((1,), 1))
    assert all(type(c) is int for _, c in cp)
    # Integer input, as the law equations are generated, gives the same form.
    assert canonical_poly({(1,): -3, (0,): -6}, NAMES) == cp


def test_canonical_orders_by_degree_then_name():
    p = {(1, 1): Q(1), (2,): Q(1), (0,): Q(1)}
    cp = canonical_poly(p, NAMES)
    assert [m for m, _ in cp] == [(0,), (2,), (1, 1)]


def test_canonical_zero():
    assert canonical_poly({}, NAMES) == ()
    assert canonical_poly({(0,): Q(0)}, NAMES) == ()


def test_reduced_equations_depend_only_on_the_span():
    """Each grade's basis, grades in order: the pivot of a row is its
    largest monomial, m[2,2,2]^2 and then m[2,4,1], and no other row
    holds it.  A second spanning set, with a zero row, gives the same
    tuples."""
    a = {(1, 1): 2, (0,): 2}
    b = {(1, 1): 1, (2,): -1}
    expected = (
        ((((0,), 1),), (1,)),
        ((((0,), 1), ((1, 1), 1)), (2,)),
        ((((0,), 1), ((2,), 1)), (2,)),
    )
    assert reduced_equations([(a, (2,)), (b, (2,)), ({(0,): -3}, (1,))], NAMES) == expected
    a_plus_b = {m: a.get(m, 0) + b.get(m, 0) for m in a.keys() | b.keys()}
    rows = [({(0,): 5, (2,): 0}, (1,)), (b, (2,)), (a_plus_b, (2,)), ({}, (2,)), (a, (2,))]
    assert reduced_equations(rows, NAMES) == expected


def test_render_terms():
    cp = (((0,), 1), ((1, 1), -3))
    assert render_poly(cp, NAMES) == "+1*m[2,2,1]-3*m[2,2,2]*m[2,2,2]"


def test_render_constant_and_long_coefficients():
    assert render_poly((((), 7),), NAMES) == "+7"
    big = 10**40 + 1
    cp = (((0,), big), ((2,), -big))
    assert render_poly(cp, NAMES) == f"+{big}*m[2,2,1]-{big}*m[2,4,1]"


def test_text_export_layout():
    cp = canonical_poly({(0,): Q(1), (1, 1): Q(-2)}, NAMES)
    sys_ = PolySystem(NAMES, ((1,), (2,), (1,)), ((cp, (2,)),))
    text = system_to_text(sys_, equation_texts(sys_))
    lines = text.splitlines()
    assert lines[0] == "# unknown m[2,2,1] grade=1*alpha"
    assert lines[1] == "# unknown m[2,2,2] grade=2*alpha"
    assert lines[2] == "# unknown m[2,4,1] grade=1*alpha"
    assert lines[3] == "+1*m[2,2,1]-2*m[2,2,2]*m[2,2,2]"
    assert text.endswith("\n")


def test_equation_texts_order_by_grade_degree_then_text():
    a, b, c = (((0,), 1),), (((1,), 1),), (((0, 0), 1),)
    sys_ = PolySystem(NAMES, ((1,), (2,), (1,)), ((c, (2,)), (b, (2,)), (a, (2,)), (c, (1,))))
    assert equation_texts(sys_) == [
        "+1*m[2,2,1]*m[2,2,1]",
        "+1*m[2,2,1]",
        "+1*m[2,2,2]",
        "+1*m[2,2,1]*m[2,2,1]",
    ]
