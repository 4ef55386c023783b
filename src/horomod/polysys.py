"""Small exact polynomial systems in named unknowns.

Just enough for generating and exporting structure equations: sparse
polynomials in named unknowns, monomials of degree at most two, and
canonical form.  A canonical polynomial is a tuple of
(monomial, integer) pairs: monomials sorted by degree then unknown name,
integer content cleared, leading coefficient positive.  A PolySystem
holds its equations in that form only, and every reader reads it as it
stands.  system_to_text exports one polynomial per line.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import List, Mapping, NamedTuple, Sequence, Tuple

from .errors import ValidationError

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


def _grade_str(g: Grade) -> str:
    if len(g) == 1:
        return f"{g[0]}*alpha"
    return "+".join(f"{k}*alpha{i + 1}" for i, k in enumerate(g))


def system_to_text(system: PolySystem) -> str:
    lines = []
    for name, g in zip(system.unknowns, system.grades):
        lines.append(f"# unknown {name} grade={_grade_str(g)}")
    for cp, _ in system.equations:
        lines.append(render_poly(cp, system.unknowns))
    return "\n".join(lines) + "\n"
