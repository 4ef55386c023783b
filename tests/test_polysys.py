from fractions import Fraction as Q

import pytest

from horomod.errors import ValidationError
from horomod.polysys import (
    PolySystem,
    canon_to_poly,
    canonical_poly,
    evaluate,
    linear_part,
    poly_add,
    poly_degree,
    render_poly,
    system_to_text,
)

NAMES = ("m[2,2,1]", "m[2,2,2]", "m[2,4,1]")


def test_canonical_clears_content_and_sign():
    p = {(1,): Q(-2, 3), (0,): Q(-4, 3)}
    cp = canonical_poly(p, NAMES)
    # sorted by name: m[2,2,1] before m[2,2,2]; leading coefficient positive
    assert cp == (((0,), 2), ((1,), 1))


def test_canonical_orders_by_degree_then_name():
    p = {(1, 1): Q(1), (2,): Q(1), (0,): Q(1)}
    cp = canonical_poly(p, NAMES)
    assert [m for m, _ in cp] == [(0,), (2,), (1, 1)]


def test_canonical_zero():
    assert canonical_poly({}, NAMES) == ()
    assert canonical_poly({(0,): Q(0)}, NAMES) == ()


def test_render_terms():
    cp = (((0,), 1), ((1, 1), -3))
    assert render_poly(cp, NAMES) == "+1*m[2,2,1]-3*m[2,2,2]*m[2,2,2]"


def test_render_fractional():
    assert render_poly((((0,), Q(1, 2)),), NAMES) == "+1/2*m[2,2,1]"


def test_evaluate_and_linear_part():
    p = {(0, 1): Q(2), (2,): Q(-1), (): Q(5)}
    assert linear_part(p) == {(2,): Q(-1)}
    vals = {0: Q(3), 1: Q(1, 2), 2: Q(4)}
    assert evaluate(p, vals) == Q(2) * 3 * Q(1, 2) - 4 + 5
    assert poly_degree(p) == 2
    assert () not in poly_add(p, {(): Q(-5)})


def test_system_requires_matching_grades():
    with pytest.raises(ValidationError):
        PolySystem(("a",), (), ())


def test_text_export_layout():
    cp = canonical_poly({(0,): Q(1), (1, 1): Q(-2)}, NAMES)
    sys_ = PolySystem(NAMES, ((1,), (2,), (1,)), ((cp, (2,)),))
    text = system_to_text(sys_)
    lines = text.splitlines()
    assert lines[0] == "# unknown m[2,2,1] grade=1*alpha"
    assert lines[1] == "# unknown m[2,2,2] grade=2*alpha"
    assert lines[2] == "# unknown m[2,4,1] grade=1*alpha"
    assert lines[3] == "+1*m[2,2,1]-2*m[2,2,2]*m[2,2,2]"
    assert text.endswith("\n")


def test_canon_round_trip():
    p = {(0,): Q(3), (1, 2): Q(-7)}
    cp = canonical_poly(p, NAMES)
    back = canon_to_poly(cp)
    # same zero set up to overall positive scaling
    assert back[(0,)] * p[(1, 2)] == back[(1, 2)] * p[(0,)]
