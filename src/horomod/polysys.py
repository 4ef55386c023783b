"""Small exact polynomial systems in named unknowns.

Just enough for generating and exporting structure equations: sparse
polynomials in named unknowns, monomials of degree at most two, and
canonical form.  A canonical polynomial is a tuple of
(monomial, integer) pairs: monomials sorted by degree then unknown name,
integer content cleared, leading coefficient positive.  A PolySystem
holds its equations in that form only.  reduced_equations turns
generated rows into the reduced row-echelon basis of each grade's
span, so a system depends on its spans and not on the route that
generated them.  equation_texts renders each equation once, in the one
order the output shows, and system_to_text exports those texts one per
line.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import ValidationError
from .linalg import RowSpace

Mono = Tuple[int, ...]  # sorted unknown indices; () is the constant monomial
Grade = Tuple[int, ...]  # degree in the simple roots
CanonPoly = Tuple[Tuple[Mono, int], ...]


class _SystemFields(NamedTuple):
    unknowns: Tuple[str, ...]
    grades: Tuple[Grade, ...]  # one per unknown
    equations: Tuple[Tuple[CanonPoly, Grade], ...]


class PolySystem(_SystemFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.unknowns) != len(self.grades):
            raise ValidationError("one grade per unknown required")
        return self


def _mono_key(names: Sequence[str], m: Mono):
    return (len(m), tuple(names[i] for i in m))


def primitive_ints(coeffs: Sequence[Rational]) -> List[int]:
    """The integer vector proportional to the nonzero rationals coeffs
    with content one and a positive first entry."""
    denlcm = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denlcm // c.denominator) for c in coeffs]
    content = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return [c // content for c in ints]


def canonical_poly(p: Mapping[Mono, Rational], names: Sequence[str]) -> CanonPoly:
    """Sorted, integer-cleared, positive leading coefficient; () if zero."""
    items = [(m, c) for m, c in p.items() if c]
    if not items:
        return ()
    items.sort(key=lambda mc: _mono_key(names, mc[0]))
    ints = primitive_ints([c for _, c in items])
    return tuple((m, c) for (m, _), c in zip(items, ints))


def reduced_equations(
    rows: Iterable[Tuple[Mapping[Mono, int], Grade]], names: Sequence[str]
) -> Tuple[Tuple[CanonPoly, Grade], ...]:
    """The reduced row-echelon basis of the span of each grade's integer
    rows, grades in order, which depends only on the spans.  The columns
    are the monomials that occur, by descending _mono_key, so each pivot
    is its row's largest monomial; a basis row is RowSpace.primitive in
    canonical form."""
    by_grade: Dict[Grade, List[Mapping[Mono, int]]] = {}
    for row, g in rows:
        by_grade.setdefault(g, []).append(row)
    out = []
    for g, polys in sorted(by_grade.items()):
        monos = sorted({m for p in polys for m in p}, key=lambda m: _mono_key(names, m))[::-1]
        column = {m: j for j, m in enumerate(monos)}
        space = RowSpace(len(monos), ({column[m]: v for m, v in p.items()} for p in polys))
        for row in map(space.primitive.get, space.pivots):
            out.append((canonical_poly({monos[j]: v for j, v in row.items()}, names), g))
    return tuple(out)


def render_poly(cp: CanonPoly, names: Sequence[str]) -> str:
    if not cp:
        return "0"
    parts = []
    for m, c in cp:
        term = f"{c:+d}"
        if m:
            term += "*" + "*".join(names[i] for i in m)
        parts.append(term)
    return "".join(parts)


def equation_texts(system: PolySystem) -> List[str]:
    """Each equation rendered once, ordered by grade, then largest
    monomial degree, then text."""
    keyed = sorted(
        (g, max(len(m) for m, _ in cp), render_poly(cp, system.unknowns))
        for cp, g in system.equations
    )
    return [text for _, _, text in keyed]


def _grade_str(g: Grade) -> str:
    if len(g) == 1:
        return f"{g[0]}*alpha"
    return "+".join(f"{k}*alpha{i + 1}" for i, k in enumerate(g))


def system_to_text(system: PolySystem, equations: Sequence[str]) -> str:
    """One comment line per unknown of system with its grade, then the
    equation texts, one per line."""
    lines = [
        f"# unknown {name} grade={_grade_str(g)}"
        for name, g in zip(system.unknowns, system.grades)
    ]
    return "\n".join(lines + list(equations)) + "\n"
