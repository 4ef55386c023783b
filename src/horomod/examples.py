"""The two worked examples, defined once.

Example 1: the closures of the orbits of x^n in the binary forms of
degree n, n = 1..6.  The invariant deformation dims are (0,1,0,1,0,0),
the nonzero ones of weight 2*alpha; the linearized law equations give
the same dims by an independent route.  Example 2: the rank-three point
e1 + e1^e2 + e1^e2^e3 in k4 + wedge2 k4 + wedge3 k4, with dim 2 and
weights a1+a2 and a2+a3.  The CLI, the scripts and the acceptance gate
build them here and only format the results.
"""

from __future__ import annotations

from .liealg import DiagCongruence, StabilizerSpec, build_module, unipotent_radical_spec
from .rootdata import make_root_datum, make_weight_monoid
from .tangent import TangentReport, t1_invariant

BINARY_DEGREES = range(1, 7)


def binary_cone(n: int) -> TangentReport:
    """Fixed-space report at x^n in V(n); the isotropy is the unipotent
    radical and the n-th roots of unity."""
    rd = make_root_datum("A1")
    m = build_module(rd, f"sym({n},natural(2))")
    x = [0] * m.dim
    x[m.basis_weights.index((n,))] = 1
    stab = StabilizerSpec(
        lie_part=unipotent_radical_spec(rd).lie_part,
        diag_part=(DiagCongruence(coeffs=(1,), modulus=n),),
    )
    return t1_invariant(m, x, stab)


def binary_cone_law_dim(n: int, truncation: int) -> int:
    """Dimension of the linearized law equations of the monoid N*n at the
    graded law, on the window up to truncation, from the linear rows on
    the s = 0 weight vectors alone (channels.law_tangent; the full
    system of mulaw.law_equations, on the same inputs, and the singular
    vectors are its oracles in the tests).  The law layer loads here,
    so the fixed-space examples never run them."""
    from . import channels

    mon = make_weight_monoid(make_root_datum("A1"), [(n,)])
    return channels.law_tangent(mon, truncation)[0]


def flag_point() -> TangentReport:
    """Fixed-space report at e1 + e1^e2 + e1^e2^e3, isotropy the
    unipotent radical."""
    rd = make_root_datum("A3")
    m = build_module(rd, "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))")
    x = [0] * m.dim
    for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        x[m.basis_weights.index(w)] = 1
    return t1_invariant(m, x, unipotent_radical_spec(rd))
