"""Exact Gaussian elimination over the rationals.

Matrices are lists of rows, rows are lists of Fraction.  Everything is
computed with exact arithmetic so rank decisions are never subject to
rounding.  Row echelon forms are fully reduced (Gauss-Jordan) with
leading entry 1, which makes every derived basis deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Q = Fraction

Vector = Tuple[Q, ...]


def to_row(entries: Iterable) -> List[Q]:
    """A fresh list of exact entries; Fraction entries are kept as they are."""
    return [e if type(e) is Q else Q(e) for e in entries]


def rref(rows: Sequence[Sequence]) -> Tuple[List[List[Q]], List[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    The reduced echelon form of a row space is unique, so inserting the
    rows one at a time into a RowSpace gives the same answer as any other
    Gauss-Jordan order.
    """
    if not rows:
        return [], []
    space = RowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.rows, space.pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> List[Vector]:
    """Basis of the right kernel, one vector per free column, deterministic."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One solution of A x = b, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if not rows:
        return tuple() if all(Q(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [to_row(r) + [Q(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    sol = [Q(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[ncols]
    return tuple(sol)


class RowSpace:
    """Incrementally maintained reduced row space: the one Gauss-Jordan
    loop of the package, behind rref and everything built on it.

    Rows stay fully reduced with leading entry 1, sorted by pivot.  The
    reduction of a vector against the current rows is linear, so the
    residual map can double as projection onto a complement.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: List[List[Q]] = []
        self.pivots: List[int] = []

    def reduce(self, vec: Sequence) -> List[Q]:
        v = to_row(vec)
        for row, pc in zip(self.rows, self.pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert vec; True if the rank grew."""
        v = self.reduce(vec)
        pc = next((c for c in range(self.ncols) if v[c] != 0), None)
        if pc is None:
            return False
        inv = Q(1) / v[pc]
        v = [x * inv for x in v]
        for row in self.rows:
            if row[pc] != 0:
                f = row[pc]
                row[:] = [a - f * b for a, b in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > pc), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> List[Vector]:
        return [tuple(r) for r in self.rows]
