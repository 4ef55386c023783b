"""Exact Gaussian elimination in integers.

RowSpace is the one elimination kernel of the package.  It keeps each
row as a primitive {column: int} dict of its nonzero entries, keyed by
pivot, and takes vectors dense (a sequence) or sparse (a {column: value}
mapping), of ints or Fractions, a vector with fractions scaled by the
lcm of its denominators (integral).  Elimination cross-multiplies and
divides by gcds (Bareiss, Math. Comp. 22, 1968), so rank decisions are
exact and no Fraction is made.  One appears only where a value is read: a residual,
the kernel, the reduced rows, which rows lists in pivot order.  The
package passes RowSpaces and sparse vectors between its layers; only the
CLI densifies a vector, where it prints one.  The one integer-lattice
rule is echelon, a basis of the lattice some integer vectors span, with
in_lattice, its membership test.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple, Union

from .errors import MAX_DIGITS, ValidationError, clip

if TYPE_CHECKING:
    from fractions import Fraction

# An exact number: an int, or a Fraction where it is not integral.
Number = Union[int, "Fraction"]
Sparse = Dict[int, Number]
AnyVector = Union[Sequence, Mapping[int, object]]


def sparse(vec: AnyVector) -> Sparse:
    """The nonzero entries of a dense or {column: value} vector."""
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    return {c: x for c, x in items if x}


def transpose(columns: Mapping[int, Sparse]) -> Dict[int, Sparse]:
    """The rows {row: {column: value}} of the matrix whose sparse
    columns are {column: sparse column}."""
    rows: Dict[int, Sparse] = {}
    for c, col in columns.items():
        for r, x in col.items():
            rows.setdefault(r, {})[c] = x
    return rows


def read_rational(text: str) -> Number:
    """The exact number an integer, p/q or plain decimal spells, each run
    of digits at most MAX_DIGITS long: an int for an integer, a Fraction
    for p/q or a decimal, even one of integral value.  Exponent notation
    is refused, so no input makes the reader multiply out a power of
    ten."""
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
    if not sep:
        return int(text)
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"malformed rational {clip(text)!r}: zero denominator")


def integral(vec: AnyVector) -> Tuple[Dict[int, int], int]:
    """(d * vec, d) with d the lcm of the denominators of vec's entries."""
    v = sparse(vec)
    if all(type(x) is int for x in v.values()):
        return v, 1
    d = lcm(*(x.denominator for x in v.values()))
    return {c: x.numerator * (d // x.denominator) for c, x in v.items()}, d


def _over(v: Dict[int, int], d: int) -> Sparse:
    """v / d, exact: v itself when d is 1, and an int at each entry d
    divides."""
    if d == 1:
        return v
    from fractions import Fraction

    return {c: x // d if x % d == 0 else Fraction(x, d) for c, x in v.items()}


def _cancel(u: Dict[int, int], p: int, row: Mapping[int, int]) -> int:
    """Clear u at column p with row, in place: u becomes e * u - a * row,
    with e = row[p] and a = u[p] divided by their gcd.  Returns e."""
    a, e = u[p], row[p]
    if e != 1:
        g = gcd(a, e)
        a, e = a // g, e // g
        if e != 1:
            for c in u:
                u[c] *= e
    for c, x in row.items():
        y = u.get(c, 0) - a * x
        if y:
            u[c] = y
        else:
            del u[c]
    return e


class RowSpace:
    """Incrementally maintained row space, eliminated in integers.

    primitive maps each pivot to its row, a primitive integer dict of
    nonzero entries, positive at the pivot and 0 at every other pivot.
    rows is the same rows divided by their pivot entries, in pivot
    order: the reduced row echelon form, built on each read.
    The reduction of a vector against the rows is linear, so the
    residual map can double as projection onto a complement.
    """

    def __init__(self, ncols: int, vectors: Iterable[AnyVector] = ()):
        self.ncols = ncols
        self.primitive: Dict[int, Dict[int, int]] = {}
        for vec in vectors:
            self.add(vec)

    def _eliminate(self, v: Dict[int, int]) -> int:
        """Turn the integer vector v, in place, into s times its residual,
        and return s > 0.  Every row vanishes at the other pivots, so
        clearing one pivot never changes the vector at another: one pass
        over the pivots in the vector's own support clears them all."""
        rows = self.primitive
        s = 1
        for pc in [c for c in v if c in rows]:
            s *= _cancel(v, pc, rows[pc])
        return s

    def reduce(self, vec: AnyVector) -> Sparse:
        """The residual of vec, exact, as {column: value} of its nonzeros."""
        v, d = integral(vec)
        d *= self._eliminate(v)
        return _over(v, d)

    def add(self, vec: AnyVector) -> bool:
        """Insert vec; True if the rank grew."""
        v = integral(vec)[0]
        self._eliminate(v)
        if not v:
            return False
        pc = min(v)
        g = gcd(*v.values())
        g = -g if v[pc] < 0 else g
        if g != 1:
            v = {c: x // g for c, x in v.items()}
        for row in self.primitive.values():
            if pc in row:
                _cancel(row, pc, v)
                g = gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
        self.primitive[pc] = v
        return True

    @property
    def dim(self) -> int:
        return len(self.primitive)

    @property
    def rows(self) -> Dict[int, Sparse]:
        """The reduced rows, keyed by pivot in increasing order: 1 at the
        pivot, exact; built on each read."""
        return {pc: _over(dict(row), row[pc]) for pc, row in sorted(self.primitive.items())}

    def kernel(self) -> List[Sparse]:
        """Right kernel of the rows, one sparse vector per free column in
        order: 1 at the free column c and -row[c] / row[p] at the pivot p
        of each row."""
        out: Dict[int, Sparse] = {
            c: {c: 1} for c in range(self.ncols) if c not in self.primitive
        }
        for pc, row in sorted(self.primitive.items()):
            for c, x in _over({c: -x for c, x in row.items() if c != pc}, row[pc]).items():
                out[c][pc] = x
        return list(out.values())


def echelon(rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """An integer row echelon basis of the lattice the rows span: pivots
    positive and strictly increasing, each row 0 before its pivot; no
    rows for the zero lattice."""
    mat = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        again = True
        while again:
            again = False
            for i in range(r + 1, len(mat)):
                if mat[i][c] == 0:
                    continue
                q = mat[i][c] // mat[r][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                if mat[i][c] != 0:
                    mat[r], mat[i] = mat[i], mat[r]
                    again = True
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        r += 1
    return mat[:r]


def in_lattice(basis: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v is an integer combination of the echelon rows basis.
    Later rows vanish at the pivot of each row, so once the earlier rows
    are taken off, its coefficient is the floor quotient there, and a
    remainder is left for good."""
    v = list(v)
    for row in basis:
        c = next(c for c, x in enumerate(row) if x)
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
