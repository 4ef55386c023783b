"""Invariant deformation dimensions at a stabilized point.

The four-term exact sequence

    0 -> (g/g_x)^{G_x} -> V^{G_x} -> (V/g.x)^{G_x} -> T1(X)^G -> 0

reduces the invariant part of the deformation space of an orbit closure
to three fixed-space dimensions, all computed in exact arithmetic inside
V.  The first needs no adjoint module: xi -> xi.x is a G_x-equivariant
isomorphism g/g_x -> g.x (eta.x = 0 gives [eta, xi].x = eta.(xi.x), and
the weights of x pass every congruence), so (g/g_x)^{G_x} is
g.x meet V^{G_x}, of dimension dim g.x + dim V^{G_x} - dim(V^{G_x} + g.x).
The normality and boundary-codimension hypotheses behind the sequence are
never checked here; they are HYPOTHESES below, which the CLI records in
the provenance of every report.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import ValidationError
from .liealg import (
    DiagCongruence,
    ExplicitModule,
    StabilizerSpec,
    _check_point,
    act,
    fixed_in_quotient,
    isotypic_components,
    lie_matrix,
    orbit_tangent,
)
from .linalg import RowSpace, Sparse
from .rootdata import RootDatum, Weight, natural_root_coords

RootVector = Tuple[int, ...]

# The four-term sequence needs the closure normal with boundary of
# codimension at least two.  The worked examples satisfy this; the code
# does not check it, so every t1 report carries it in its provenance.
HYPOTHESES = {"normal": True, "boundary_codim_ge_2": True}


class _ReportFields(NamedTuple):
    dim_g_mod_gx_fixed: int
    dim_V_fixed: int
    dim_normal_fixed: int
    dim_T1_invariant: int
    weights: Tuple[RootVector, ...]


class TangentReport(_ReportFields):
    """The fixed-space dimensions and tangent weights, checked against
    the exact-sequence identity when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lhs = self.dim_T1_invariant
        rhs = (
            self.dim_normal_fixed
            - self.dim_V_fixed
            + self.dim_g_mod_gx_fixed
        )
        if lhs != rhs:
            raise ValidationError(
                f"fixed-space dimensions {self.dim_g_mod_gx_fixed}, "
                f"{self.dim_V_fixed}, {self.dim_normal_fixed} break the "
                f"exact-sequence identity (got {lhs}, expected {rhs})"
            )
        if len(self.weights) != lhs:
            raise ValidationError(
                f"{len(self.weights)} tangent weights for an invariant "
                f"deformation space of dimension {lhs}"
            )
        for w in self.weights:
            if any(c < 0 for c in w):
                raise ValidationError(
                    f"tangent weight {w} is not a non-negative root vector"
                )
        return self


def report_to_json_dict(report: TangentReport) -> dict:
    return {
        "dims": {
            "g_mod_gx_fixed": report.dim_g_mod_gx_fixed,
            "V_fixed": report.dim_V_fixed,
            "normal_fixed": report.dim_normal_fixed,
            "t1_invariant": report.dim_T1_invariant,
        },
        "weights": [list(w) for w in report.weights],
    }


def tangent_weight(rd: RootDatum, lam: Weight, mu: Weight) -> RootVector:
    """Grading character lambda - mu of the deformation moving the
    highest-weight line of V(lambda) toward a weight-mu direction,
    in root coordinates."""
    if len(lam) != rd.rank or len(mu) != rd.rank:
        raise ValidationError("weights must have one entry per simple root")
    coords = natural_root_coords(rd, tuple(a - b for a, b in zip(lam, mu)))
    if coords is None:
        raise ValidationError(
            f"weight {mu} is not below {lam} in the dominance order"
        )
    return coords


def _component_weights(
    m: ExplicitModule,
    comps: Sequence[Tuple[Weight, List[Sparse]]],
    reps: Sequence[Sparse],
    v_fixed: RowSpace,
) -> List[RootVector]:
    """Weights lambda - mu over the isotypic pieces comps of m meeting each
    representative, each distinct weight of a representative once, though
    several (piece, T-weight) pairs in its support may give it.  One
    elimination of [B | reps], the columns of B being the basis vectors
    of the pieces, gives the coordinates of every representative.  A part
    inside v_fixed (V^{G_x}) is projected off first: the representative
    stands for its class modulo V^{G_x}, where that part is zero."""
    cols = [(lam, b) for lam, basis in comps for b in basis]
    n = len(cols)
    by_coord: Dict[int, Sparse] = {}
    for j, v in enumerate([b for _, b in cols] + list(reps)):
        for r, x in v.items():
            by_coord.setdefault(r, {})[j] = x
    red = RowSpace(n + len(reps), by_coord.values())
    if red.pivots != list(range(n)):
        raise ValidationError("representative escapes the module decomposition")
    out: List[RootVector] = []
    for j in range(n, n + len(reps)):
        weights = set()
        parts: Dict[Weight, Sparse] = {}
        for pc, (lam, b) in enumerate(cols):
            coef = red.rows[pc].get(j)
            if coef:
                acc = parts.setdefault(lam, {})
                for r, x in b.items():
                    acc[r] = acc.get(r, 0) + coef * x
        for lam, part in parts.items():
            if v_fixed.contains(part):
                continue
            for mu in {m.basis_weights[i] for i, v in part.items() if v}:
                weights.add(tangent_weight(m.rd, lam, mu))
        out.extend(sorted(weights))
    return out


def _fmt_congruence(c: DiagCongruence) -> str:
    return f"{','.join(map(str, c.coeffs))}:{c.modulus}"


def t1_invariant(m: ExplicitModule, x: Sequence, stab: StabilizerSpec) -> TangentReport:
    """Invariant deformation dimensions of the orbit closure of x, with
    isotropy described by stab.

    Each congruence of the diagonalizable part of stab must have one
    coefficient per simple root, its Lie part must annihilate x, and
    every weight of x must pass each congruence (all checked).
    Normality of the closure and boundary codimension at least two are
    the caller's responsibility.
    """
    for c in stab.diag_part:
        if len(c.coeffs) != m.rd.rank:
            raise ValidationError(
                f"congruence {_fmt_congruence(c)} has {len(c.coeffs)} "
                f"coefficients, expected one per simple root ({m.rd.rank})"
            )
    point = _check_point(m, x)
    lie = [lie_matrix(m, coeffs) for coeffs in stab.lie_part]
    if any(act(mat, point) for mat in lie):
        raise ValidationError("stabilizer Lie part does not annihilate the point")
    for i in point:
        w = m.basis_weights[i]
        for c in stab.diag_part:
            if not c.passes(w):
                raise ValidationError(
                    f"the point has weight {w}, which fails the congruence "
                    f"{_fmt_congruence(c)}"
                )

    # fixed becomes V^{G_x}, then V^{G_x} + g.x: the span the survivors
    # are independent of.
    passing = stab.passing(m.basis_weights)
    fixed = RowSpace(m.dim)
    dim_b = len(fixed_in_quotient(fixed, lie, passing))
    v_fixed = RowSpace(m.dim, fixed.rows.values())
    tangent = orbit_tangent(m, x)
    for pc in tangent.pivots:
        fixed.add(tangent.rows[pc])
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
    survivors = [rep for rep in reps if fixed.add(rep)]
    weights = (
        _component_weights(m, isotypic_components(m), survivors, v_fixed)
        if survivors
        else []
    )
    if len(survivors) != dim_t1:
        raise ValidationError(
            "exactness check failed: the cokernel has dimension "
            f"{len(survivors)}, the alternating sum gives {dim_t1}"
        )

    return TangentReport(
        dim_g_mod_gx_fixed=dim_a,
        dim_V_fixed=dim_b,
        dim_normal_fixed=dim_c,
        dim_T1_invariant=dim_t1,
        weights=tuple(sorted(weights)),
    )
