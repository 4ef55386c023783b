from horomod import polysys
from horomod.polysys import (
    PolySystem,
    equation_texts,
    reduced_equations,
    render_poly,
    system_to_text,
)

NAMES = ("m[2,2,1]", "m[2,2,2]", "m[2,4,1]")


def test_canonical_orders_by_degree_then_name():
    ((cp, _),) = reduced_equations([({(1, 1): 1, (2,): 1, (0,): 1}, (1,))], NAMES)
    assert [m for m, _ in cp] == [(0,), (2,), (1, 1)]


def test_a_negative_smallest_monomial_is_negated():
    """The primitive row is positive at its pivot, the largest monomial
    m[2,2,2]^2; canonical form is positive at the smallest, m[2,2,1]."""
    rows = [({(1, 1): 2, (0,): -4}, (2,))]
    assert reduced_equations(rows, NAMES) == (((((0,), 2), ((1, 1), -1)), (2,)),)


def test_reduced_equations_build_one_rowspace_per_grade(monkeypatch):
    built = []

    class Counted(polysys.RowSpace):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(polysys, "RowSpace", Counted)
    rows = [({(0,): 1, (1,): 2}, (1,)), ({(2,): -1}, (1,)), ({(1, 1): 3, (0,): 1}, (2,))]
    assert len(reduced_equations(rows, NAMES)) == 3
    assert len(built) == 2


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
    cp = (((0,), 1), ((1, 1), -2))
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
