"""Invariant deformation dimensions at a stabilized point.

The four-term exact sequence

    0 -> (g/g_x)^{G_x} -> V^{G_x} -> (V/g.x)^{G_x} -> T1(X)^G -> 0

reduces the invariant part of the deformation space of an orbit closure
to three fixed-space dimensions, all computed in exact arithmetic inside
V.  The first needs no adjoint module: xi -> xi.x is a G_x-equivariant
isomorphism g/g_x -> g.x (eta.x = 0 gives [eta, xi].x = eta.(xi.x), and
the torus part of G_x fixes x), so (g/g_x)^{G_x} is g.x meet V^{G_x}, of
dimension dim g.x + dim V^{G_x} - dim(V^{G_x} + g.x).  The torus part is
T_x, the common kernel of the support weights S of x: by the duality of
diagonalizable groups it fixes exactly the basis vectors whose weight
lies in the lattice Z.S, which linalg.echelon and in_lattice decide.
The weights are the grades of a homogeneous basis of T1(X)^G, a vector
of the V(lambda)-isotypic piece at T-weight mu having grade lambda - mu.
At a sum x of highest weight vectors the torus acting through these
grades fixes x, so every space of the sequence is graded; where the
classes are not, the graded count can exceed the dimension.
t1_invariant refuses a weight count that differs from the dimension,
and returns the t1 payload itself.
The normality and boundary-codimension hypotheses behind the sequence are
never checked here; they are HYPOTHESES below, which the CLI records in
the provenance of every report.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .errors import ValidationError, clip
from .liealg import (
    ExplicitModule,
    act,
    fixed_in_quotient,
    isotypic_components,
    lie_matrix,
    orbit_tangent,
)
from .linalg import RowSpace, Sparse, echelon, in_lattice, sparse, transpose
from .rootdata import Weight, tangent_weight

RootVector = Tuple[int, ...]

# The four-term sequence needs the closure normal with boundary of
# codimension at least two.  The worked examples satisfy this; the code
# does not check it, so every t1 report carries it in its provenance.
HYPOTHESES = {"normal": True, "boundary_codim_ge_2": True}


def _graded_weights(
    m: ExplicitModule,
    comps: Sequence[Tuple[Weight, List[Sparse]]],
    survivors: Sequence[Sparse],
    span: RowSpace,
) -> List[RootVector]:
    """The weights of the classes of survivors modulo span, sorted.  One
    elimination of [B | survivors], the columns of B being the basis
    vectors of the isotypic pieces comps, gives the coordinates that
    split each survivor into graded pieces, one act over B per grade;
    grade by grade, each piece whose residual modulo span raises the
    rank counts its grade once."""
    cols = [(lam, b) for lam, basis in comps for b in basis]
    vectors = dict(enumerate([b for _, b in cols] + list(survivors)))
    rows = RowSpace(len(vectors), transpose(vectors).values()).rows
    pieces: List[Tuple[RootVector, Sparse]] = []
    for j in range(len(cols), len(vectors)):
        coords: Dict[RootVector, Sparse] = {}
        for pc, (lam, b) in enumerate(cols):
            coef = rows[pc].get(j)
            if coef:
                grade = tangent_weight(m.rd, lam, m.basis_weights[next(iter(b))])
                coords.setdefault(grade, {})[pc] = coef
        pieces += [(grade, act(vectors, part)) for grade, part in coords.items()]
    residuals = RowSpace(span.ncols)
    return [g for g, part in sorted(pieces, key=lambda p: p[0]) if residuals.add(span.reduce(part))]


def _fmt_congruence(coeffs: Sequence[int], modulus: int) -> str:
    """A congruence as coeffs:modulus, clipped as an error message echoes it."""
    return clip(f"{','.join(map(str, coeffs))}:{modulus}")


def t1_invariant(
    m: ExplicitModule,
    x: Sequence,
    lie_part: Sequence[Sparse],
    congruences: Sequence[Tuple[Sequence[int], int]] = (),
) -> dict:
    """Invariant deformation dimensions of the orbit closure of x, with
    isotropy generated by the Lie part lie_part (sparse Chevalley
    coefficient vectors) and T_x, as the t1 payload: the dimensions of
    (g/g_x)^{G_x}, V^{G_x}, (V/g.x)^{G_x} and T1(X)^G under "dims", and
    the sorted tangent weights, each a list of root coordinates.

    The Lie part must annihilate x.  Each congruence (coeffs, modulus)
    must have one coefficient per simple root, and every weight of x
    must pass it: its value at the weight vanishes for modulus 0 and is
    divisible by the modulus otherwise (all checked).  The congruences
    change nothing else: the weights that pass them form a lattice that
    contains S, so it contains Z.S, and the group they describe lies in
    T_x.  Normality of the closure and boundary codimension at least two
    are the caller's responsibility.
    """
    for coeffs, modulus in congruences:
        if len(coeffs) != m.rd.rank:
            raise ValidationError(
                f"congruence {_fmt_congruence(coeffs, modulus)} has {len(coeffs)} "
                f"coefficients, expected one per simple root ({m.rd.rank})"
            )
    tangent = orbit_tangent(m, x)  # checks x
    point = sparse(x)
    lie = [lie_matrix(m, coeffs) for coeffs in lie_part]
    if any(act(mat, point) for mat in lie):
        raise ValidationError("stabilizer Lie part does not annihilate the point")
    for i in point:
        w = m.basis_weights[i]
        for coeffs, modulus in congruences:
            value = sum(c * a for c, a in zip(coeffs, w))
            if value % modulus if modulus else value:
                raise ValidationError(
                    f"the point has weight {clip(str(w))}, which fails the congruence "
                    f"{_fmt_congruence(coeffs, modulus)}"
                )

    # The basis vectors T_x fixes.  Where S is {0} or empty, T_x is T,
    # and echelon gives no rows: only the weight-zero vectors pass.
    lattice = echelon({m.basis_weights[i] for i in point})
    passing = [i for i, w in enumerate(m.basis_weights) if in_lattice(lattice, w)]
    # fixed becomes V^{G_x}, then V^{G_x} + g.x: the span the survivors
    # and their weights are residuals modulo.
    fixed = RowSpace(m.dim)
    dim_b = len(fixed_in_quotient(fixed, lie, passing))
    for row in tangent.primitive.values():
        fixed.add(row)
    # dim(g.x meet V^{G_x}), read before the quotient below extends tangent.
    dim_a = tangent.dim + dim_b - fixed.dim
    reps = fixed_in_quotient(tangent, lie, passing)
    dim_c = len(reps)

    dim_t1 = dim_c - dim_b + dim_a
    if dim_t1 < 0:
        raise ValidationError(
            "fixed-space dimensions violate the exact sequence; "
            "the stabilizer description is inconsistent with the point"
        )

    # Classes surviving modulo both the orbit directions and the fixed
    # vectors of the ambient module are the invariant deformations.
    residuals = RowSpace(m.dim)
    survivors = [rep for rep in reps if residuals.add(fixed.reduce(rep))]
    weights = _graded_weights(m, isotypic_components(m), survivors, fixed) if survivors else []
    if len(survivors) != dim_t1:
        raise ValidationError(
            "exactness check failed: the cokernel has dimension "
            f"{len(survivors)}, the alternating sum gives {dim_t1}"
        )
    if len(weights) != dim_t1:
        raise ValidationError(
            f"{len(weights)} tangent weights for an invariant "
            f"deformation space of dimension {dim_t1}"
        )

    return {
        "dims": {"g_mod_gx_fixed": dim_a, "V_fixed": dim_b, "normal_fixed": dim_c, "t1_invariant": dim_t1},
        "weights": [list(w) for w in weights],
    }
