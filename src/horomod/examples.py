"""The two worked examples, defined once.

Example 1: the closures of the orbits of x^n in the binary forms of
degree n, n = 1..6.  The invariant deformation dims are (0,1,0,1,0,0),
the nonzero ones of weight 2*alpha; the linearized law equations give
the same dims by an independent route.  Example 2: the rank-three point
e1 + e1^e2 + e1^e2^e3 in k4 + wedge2 k4 + wedge3 k4, with dim 2 and
weights a1+a2 and a2+a3, the A3 case of the flag multicones: the sum of
the fundamental modules of A_r at the sum of their highest weight
vectors.  Each input is an Example, which the tests and the golden set
read here; the CLI, the scripts and the acceptance gate run its
Example.report and only format the result.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Tuple

from .liealg import ExplicitModule, build_module, unipotent_radical_spec
from .linalg import Sparse
from .rootdata import make_root_datum
from .tangent import t1_invariant

BINARY_DEGREES = range(1, 7)


class Example(NamedTuple):
    """A worked example's input: the root datum's label, the module
    expression and the point in the module's basis.  The Lie part of the
    isotropy is the unipotent radical; t1 computes its torus part."""

    label: str
    module: str
    point: Tuple[int, ...]

    def build(self) -> Tuple[ExplicitModule, Tuple[int, ...], Tuple[Sparse, ...]]:
        """The module, the point and the Lie part, as t1_invariant takes them."""
        rd = make_root_datum(self.label)
        return build_module(rd, self.module), self.point, unipotent_radical_spec(rd)

    def report(self) -> dict:
        """The t1 payload at the example's point."""
        return t1_invariant(*self.build())


def binary_cone_input(n: int) -> Example:
    """x^n in V(n), the first vector of the basis; the isotropy is the
    unipotent radical and T_x, the n-th roots of unity."""
    return Example("A1", f"sym({n},natural(2))", (1,) + (0,) * n)


def flag_multicone(r: int) -> Example:
    """The A_r flag multicone: the sum of the fundamental modules
    V(omega_k) = ext(k, natural(r + 1)), k = 1..r, at the sum of their
    highest weight vectors e1^...^ek, the first vector of each summand's
    basis; the isotropy is the unipotent radical."""
    n = r + 1
    summands = [f"natural({n})"] + [f"ext({k},natural({n}))" for k in range(2, n)]
    module = f"sum({','.join(summands)})"
    point = sum(((1,) + (0,) * (comb(n, k) - 1) for k in range(1, n)), ())
    return Example(f"A{r}", module, point)
