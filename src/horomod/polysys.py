"""Small exact polynomial systems in named unknowns.

Just enough for generating and exporting structure equations: sparse
polynomials in named unknowns, monomials of degree at most two, and
canonical form.  A canonical polynomial is a tuple of
(monomial, integer) pairs: monomials sorted by degree then unknown name,
integer content cleared, leading coefficient positive.  A PolySystem
holds its equations in that form only.  reduced_equations turns
generated rows into the reduced row-echelon basis of each grade's
span, so a system depends on its spans and not on the route that
generated them; each equation is read off the grade's one elimination.
equation_texts renders each equation once, in the one order the output
shows, and system_to_text exports those texts one per line.  In the
package channels.law_equations alone builds a PolySystem, and imports
this layer when it runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .linalg import RowSpace

Mono = Tuple[int, ...]  # sorted unknown indices; () is the constant monomial
Grade = Tuple[int, ...]  # degree in the simple roots
CanonPoly = Tuple[Tuple[Mono, int], ...]


class PolySystem(NamedTuple):
    unknowns: Tuple[str, ...]
    grades: Tuple[Grade, ...]  # one per unknown
    equations: Tuple[Tuple[CanonPoly, Grade], ...]


def _mono_key(names: Sequence[str], m: Mono):
    return (len(m), tuple(names[i] for i in m))


def reduced_equations(
    rows: Iterable[Tuple[Mapping[Mono, int], Grade]], names: Sequence[str]
) -> Tuple[Tuple[CanonPoly, Grade], ...]:
    """The reduced row-echelon basis of the span of each grade's integer
    rows, grades in order, which depends only on the spans.  The columns
    are the monomials that occur, by descending _mono_key, so each pivot
    is its row's largest monomial.  A basis row is its RowSpace.primitive
    row, of content 1, read by descending column and negated where its
    smallest monomial has a negative coefficient: canonical form."""
    by_grade: Dict[Grade, List[Mapping[Mono, int]]] = {}
    for row, g in rows:
        by_grade.setdefault(g, []).append(row)
    out = []
    for g, polys in sorted(by_grade.items()):
        monos = sorted({m for p in polys for m in p}, key=lambda m: _mono_key(names, m))[::-1]
        column = {m: j for j, m in enumerate(monos)}
        space = RowSpace(len(monos), ({column[m]: v for m, v in p.items()} for p in polys))
        for _, row in sorted(space.primitive.items()):
            cols = sorted(row, reverse=True)
            sign = -1 if row[cols[0]] < 0 else 1
            out.append((tuple((monos[j], sign * row[j]) for j in cols), g))
    return tuple(out)


def render_poly(cp: CanonPoly, names: Sequence[str]) -> str:
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


def system_to_text(system: PolySystem, equations: Sequence[str]) -> str:
    """One comment line per unknown of system with its grade, then the
    equation texts, one per line."""
    lines = [
        f"# unknown {name} grade={g[0]}*alpha"
        for name, g in zip(system.unknowns, system.grades)
    ]
    return "\n".join(lines + list(equations)) + "\n"
