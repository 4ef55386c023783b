"""Exact Gaussian elimination over the rationals.

RowSpace is the one Gauss-Jordan kernel of the package.  It keeps each
reduced row as a sparse dict {column: Fraction} of its nonzero entries,
keyed by pivot, and takes vectors either dense (a sequence) or sparse (a
{column: value} mapping).  Everything is computed with exact arithmetic
so rank decisions are never subject to rounding.  Row echelon forms are
fully reduced with leading entry 1; that form is unique, so every derived
basis is deterministic.  The package passes RowSpaces and sparse vectors
between its layers; RowSpace.basis is the only dense view, and dense
converts a sparse vector where output is formatted.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import ValidationError

Q = Fraction

# Python's default limit on the digits of an int read from a string or
# printed.  No number read from outside has a longer run of digits, and
# no number past it is printed.
MAX_DIGITS = 4300

Vector = Tuple[Q, ...]
Sparse = Dict[int, Q]
AnyVector = Union[Sequence, Mapping[int, object]]


def sparse(vec: AnyVector) -> Sparse:
    """The nonzero entries of a dense or {column: value} vector, exact."""
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    return {c: x for c, e in items if (x := e if type(e) is Q else Q(e))}


def clip(text: str) -> str:
    """text as an error message echoes it: its first 20 characters and
    "..." if it is longer."""
    return text if len(text) <= 20 else text[:20] + "..."


def read_rational(text: str) -> Q:
    """The exact number an integer, p/q or plain decimal spells, each run
    of digits at most MAX_DIGITS long.  Exponent notation is refused, so
    no input makes the reader multiply out a power of ten."""
    body = text.strip()
    if body[:1] in ("+", "-"):
        body = body[1:]
    head, sep, tail = body.partition("/" if "/" in body else ".")
    if sep == ".":
        ok = (head + tail).isdecimal()
    else:
        ok = head.isdecimal() and (not sep or tail.isdecimal())
    if not ok:
        raise ValidationError(
            f"malformed rational {clip(text)!r}: expected an integer, p/q or a plain decimal"
        )
    longest = max(len(head), len(tail))
    if longest > MAX_DIGITS:
        raise ValidationError(
            f"number {clip(text)} is too long: {longest} digits, at most {MAX_DIGITS}"
        )
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ValidationError(f"malformed rational {clip(text)!r}: zero denominator")


def dense(vec: Mapping[int, Q], ncols: int) -> Vector:
    out = [Q(0)] * ncols
    for c, x in vec.items():
        out[c] = x
    return tuple(out)


def _subtract(v: Sparse, f: Q, row: Mapping[int, Q]) -> None:
    """v -= f * row in place, dropping the entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) - f * x
        if y:
            v[c] = y
        else:
            del v[c]


class RowSpace:
    """Incrementally maintained reduced row space.

    rows maps each pivot to its row, a dict of nonzero entries with 1 at
    the pivot and 0 at every other pivot; pivots lists them in order.
    The reduction of a vector against the rows is linear, so the residual
    map can double as projection onto a complement.
    """

    def __init__(self, ncols: int, vectors: Iterable[AnyVector] = ()):
        self.ncols = ncols
        self.rows: Dict[int, Sparse] = {}
        self.pivots: List[int] = []
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec: AnyVector) -> Sparse:
        """The residual of vec, as {column: value} of its nonzeros.

        Every row vanishes at the other pivots, so subtracting one never
        changes the vector at another pivot: one pass over the pivots in
        the vector's own support clears them all.
        """
        v = sparse(vec)
        rows = self.rows
        for pc in [c for c in v if c in rows]:
            _subtract(v, v[pc], rows[pc])
        return v

    def add(self, vec: AnyVector) -> bool:
        """Insert vec; True if the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pc = min(v)
        lead = v[pc]
        if lead != 1:
            v = {c: x / lead for c, x in v.items()}
        for row in self.rows.values():
            if pc in row:
                _subtract(row, row[pc], v)
        self.rows[pc] = v
        insort(self.pivots, pc)
        return True

    def contains(self, vec: AnyVector) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> List[Vector]:
        """The reduced rows, dense, in pivot order."""
        return [dense(self.rows[pc], self.ncols) for pc in self.pivots]

    def kernel(self) -> List[Sparse]:
        """Right kernel of the rows, one sparse vector per free column in
        order: 1 at the free column c and -row[c] at each row's pivot."""
        out: Dict[int, Sparse] = {
            c: {c: Q(1)} for c in range(self.ncols) if c not in self.rows
        }
        for pc in self.pivots:
            for c, x in self.rows[pc].items():
                if c != pc:
                    out[c][pc] = -x
        return list(out.values())
