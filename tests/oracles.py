"""Reference routes that only the tests call.

Each is an independent check on a package route, or a value the tests
compare against; none is reached from the CLI or the scripts.
"""

from bisect import insort
from fractions import Fraction as Q
from math import comb, perm, prod
from typing import Dict, List, Mapping, Sequence, Tuple

from horomod import linalg, monoids
from horomod.channels import (
    _TANGENT_COST_CAP,
    ChannelTable,
    _add_associator,
    _associator_plan,
    _associativity_windows,
    _commutativity_rows,
    _is_a1,
    _law_unknowns,
    monoid_window,
)
from horomod.errors import ResourceError, ValidationError
from horomod.mulaw import _SYSTEM_COST_CAP, LawKey, MultiplicationLaw
from horomod.polysys import Grade, Mono, PolySystem, canonical_poly
from horomod.repcalc import (
    DEFAULT_DIM_CAP,
    Decomposition,
    epsilon,
    from_epsilon,
    weight_multiplicities,
    weyl_dim,
)
from horomod.rootdata import Gen, RootDatum, Weight, WeightMonoid, check_weight

# ---------------------------------------------------------------- linalg


def _subtract(v: Dict[int, Q], f: Q, row: Mapping[int, Q]) -> None:
    """v -= f * row in place, dropping the entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) - f * x
        if y:
            v[c] = y
        else:
            del v[c]


class FractionRowSpace:
    """Gauss-Jordan over Fraction: the reduced rows themselves, 1 at the
    pivot and 0 at every other pivot, kept as {column: Fraction} dicts.
    The oracle of linalg.RowSpace, which eliminates in integers."""

    def __init__(self, ncols: int, vectors=()):
        self.ncols = ncols
        self.rows: Dict[int, Dict[int, Q]] = {}
        self.pivots: List[int] = []
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec) -> Dict[int, Q]:
        items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
        v = {c: Q(x) for c, x in items if x}
        for pc in [c for c in v if c in self.rows]:
            _subtract(v, v[pc], self.rows[pc])
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        pc = min(v)
        lead = v[pc]
        v = {c: x / lead for c, x in v.items()}
        for row in self.rows.values():
            if pc in row:
                _subtract(row, row[pc], v)
        self.rows[pc] = v
        insort(self.pivots, pc)
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def kernel(self) -> List[Dict[int, Q]]:
        out = {c: {c: Q(1)} for c in range(self.ncols) if c not in self.rows}
        for pc in self.pivots:
            for c, x in self.rows[pc].items():
                if c != pc:
                    out[c][pc] = -x
        return list(out.values())


# ---------------------------------------------------------------- monoids


def minimal_generators(monoid) -> Tuple[Gen, ...]:
    """Generators with the reducible ones removed (needs a positive grading)."""
    gens = [g for g in monoid.generators if any(g)]
    if not gens:
        return ()
    phi = monoids._grading(gens, monoids._facet_normals(gens, monoids._hnf(gens)))
    if phi is None:
        raise ValidationError("no strictly positive grading on the generators")
    return monoids._irreducible(gens, phi)


def is_free(monoid) -> bool:
    """True iff the minimal generating set is linearly independent over Q."""
    gens = minimal_generators(monoid)
    if not gens:
        return True
    return linalg.RowSpace(len(gens[0]), gens).dim == len(gens)


# ---------------------------------------------------------------- laws


def horospherical_law(rd: RootDatum, monoid: WeightMonoid, truncation: int) -> MultiplicationLaw:
    """The graded law X_0: every top channel 1, every other zero."""
    window = monoid_window(monoid, truncation)
    wset = set(window)
    coeffs: Dict[LawKey, Q] = {}
    for lam in window:
        for mu in window:
            sumw = tuple(a + b for a, b in zip(lam, mu))
            if sumw in wset:
                coeffs[(lam, mu, sumw, 0)] = Q(1)
    return MultiplicationLaw(rd, monoid, truncation, coeffs)


def triple_top_vectors(a: int, b: int, c: int, nu: int) -> List[Dict[Tuple[int, int, int], int]]:
    """Spanning set of the singular vectors of weight nu in the triple
    tensor of forms of degrees a, b, c, keyed by y-exponents: one per
    admissible splitting through the first two factors.

    The splitting through the degree-e component of the first two
    factors pairs its m-th lowered image L^m(top)/perm(e, m) with the
    third factor; each vector is scaled by perm(e, k) > 0, which clears
    every denominator and leaves integers."""
    out = []
    for i0 in range(min(a, b) + 1):
        e = a + b - 2 * i0
        k2 = e + c - nu
        if k2 < 0 or k2 % 2:
            continue
        k = k2 // 2
        if k > min(e, c):
            continue
        low = {(j, i0 - j): (-1) ** j * comb(i0, j) for j in range(i0 + 1)}
        eta: Dict[Tuple[int, int, int], int] = {}
        for m in range(k + 1):
            if m:
                nxt: Dict[Tuple[int, int], int] = {}
                for (s, t), v in low.items():
                    if s < a:
                        nxt[(s + 1, t)] = nxt.get((s + 1, t), 0) + v * (a - s)
                    if t < b:
                        nxt[(s, t + 1)] = nxt.get((s, t + 1), 0) + v * (b - t)
                low = {key: v for key, v in nxt.items() if v}
            outer = (-1) ** m * comb(k, m) * perm(e - m, k - m)
            for (s, t), v in low.items():
                eta[(s, t, k - m)] = outer * v
        out.append(eta)
    return out


def singular_vector_system(monoid: WeightMonoid, truncation: int) -> PolySystem:
    """The system of mulaw.law_equations before its reduction: the
    commutativity rows, then the associator of each window, every term,
    on each singular vector of its triple product, each row in canonical
    form, as generated and with repeats."""
    ints, pos, index = _law_unknowns(monoid, truncation, _SYSTEM_COST_CAP)
    coeff = ChannelTable()
    names = [f"m[{a},{b},{i}]" for (a, b, i) in index]
    rows = list(_commutativity_rows(index))
    for a, b, c, nu, r in _associativity_windows(ints, pos, truncation):
        plan = _associator_plan(index, a, b, c, r, range(r + 1))
        for eta in triple_top_vectors(a, b, c, nu):
            poly: Dict[Mono, int] = {}
            for stu, coef in eta.items():
                _add_associator(poly, plan, coeff, coef, stu)
            rows.append((poly, r))
    equations = ((canonical_poly(p, names), (r,)) for p, r in rows)
    grades = tuple((i,) for (_, _, i) in index)
    return PolySystem(tuple(names), grades, tuple((cp, g) for cp, g in equations if cp))


def singular_vector_law_tangent(
    monoid: WeightMonoid, truncation: int
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """channels.law_tangent by pairing each associativity window
    (a, b, c, nu, r), mirrors included, with every singular vector of
    weight nu in the triple product, over both bracketings; the linear
    terms go into one RowSpace per grade, after the commutativity rows."""
    ints, pos, index = _law_unknowns(monoid, truncation, _TANGENT_COST_CAP)
    sset = set(ints)
    coeff = ChannelTable()
    columns: Dict[int, Dict[int, int]] = {}  # grade -> {unknown: column}
    for u, (_, _, i) in enumerate(index):
        cols = columns.setdefault(i, {})
        cols[u] = len(cols)
    spaces = {i: linalg.RowSpace(len(cols)) for i, cols in columns.items()}

    def add(row: Mapping[int, int], r: int) -> None:
        spaces[r].add({columns[r][u]: v for u, v in row.items() if v})

    for row, i in _commutativity_rows(index):
        add({u: v for (u,), v in row.items()}, i)
    for a, b, c, nu, r in _associativity_windows(ints, pos, truncation):
        space = spaces.get(r)
        if space is None or space.dim == space.ncols:
            continue  # no row of grade r can change the rank
        for eta in triple_top_vectors(a, b, c, nu):
            row: Dict[int, int] = {}
            for (s, t, u), coef in eta.items():
                # (a.b).c counts positively, a.(b.c) negatively; the inner
                # product x.y meets z on its right in the first.
                for x, sx, y, sy, z, sz, sgn, first in (
                    (a, s, b, t, c, u, coef, True), (b, t, c, u, a, s, -coef, False)
                ):
                    if r <= min(x + y, z):
                        # x + y <= truncation lies in the window, and the
                        # outer product lands on p + q - 2r = nu.
                        if first:
                            p, sp, q, sq = x + y, sx + sy, z, sz
                        else:
                            p, sp, q, sq = z, sz, x + y, sx + sy
                        key = index[(p, q, r)]
                        row[key] = row.get(key, 0) + sgn * coeff[p, sp, q, sq, r]
                    if r <= min(x, y) and x + y - 2 * r in sset:
                        key = index[(x, y, r)]
                        row[key] = row.get(key, 0) + sgn * coeff[x, sx, y, sy, r]
            add(row, r)
    weights = tuple((r,) for r in sorted(spaces) for _ in range(spaces[r].ncols - spaces[r].dim))
    return len(weights), weights


def tangent_at_horospherical(system: PolySystem) -> Tuple[int, Tuple[Grade, ...]]:
    """channels.law_tangent from a full system: the kernel of its
    degree-one truncation at the all-zero point, reported blockwise per
    grade."""
    columns: Dict[Grade, Dict[int, int]] = {}  # grade -> {unknown: column}
    for u, g in enumerate(system.grades):
        cols = columns.setdefault(g, {})
        cols[u] = len(cols)
    spaces = {g: linalg.RowSpace(len(cols)) for g, cols in columns.items()}
    for cp, g in system.equations:
        if any(not m for m, _ in cp):
            raise ValidationError("system is not centered at the all-zero point")
        lin = {m[0]: c for m, c in cp if len(m) == 1}
        if lin:
            assert all(system.grades[u] == g for u in lin), "linear term off its equation grade"
            spaces[g].add({columns[g][u]: c for u, c in lin.items()})
    weights = tuple(g for g in sorted(spaces) for _ in range(spaces[g].ncols - spaces[g].dim))
    return len(weights), weights


def law_unknown_values(law: MultiplicationLaw) -> Dict[str, Q]:
    """The non-top coefficients of a rank-one law, by unknown name."""
    if not _is_a1(law.rd):
        raise ValidationError("unknown naming is defined for rank one")
    out: Dict[str, Q] = {}
    for (lam, mu, nu, ch), val in law.coeffs.items():
        if ch == 0:
            continue
        out[f"m[{lam[0]},{mu[0]},{ch}]"] = val
    return out


def system_residuals(system: PolySystem, values: Mapping[str, Q]) -> Tuple[Q, ...]:
    """Value of each equation at the given coefficient assignment;
    unnamed unknowns count as zero."""
    point = [Q(values.get(name, 0)) for name in system.unknowns]
    return tuple(
        sum((c * prod(point[u] for u in m) for m, c in cp), Q(0))
        for cp, _ in system.equations
    )


# ---------------------------------------------------------------- weights


def to_root_coords(rd: RootDatum, lam: Sequence[int]) -> Tuple[Q, ...]:
    """Coordinates of lam against the simple roots, exact rationals.

    The inverse of the A_n Cartan matrix is symmetric, with entry
    min(i, j) (n + 1 - max(i, j)) / (n + 1) for 1-based i and j."""
    n = rd.rank
    return tuple(
        Q(sum(min(i, j) * (n + 1 - max(i, j)) * lam[j - 1] for j in range(1, n + 1)), n + 1)
        for i in range(1, n + 1)
    )


def lowest_weight(rd: RootDatum, lam: Sequence[int]) -> Weight:
    """Image of the dominant weight lam under the longest Weyl element:
    its epsilon-coordinates in ascending order."""
    lam = check_weight(rd, lam)
    if any(c < 0 for c in lam):
        raise ValidationError(f"{lam} is not dominant")
    return from_epsilon(sorted(epsilon(lam)))


def character_product_peel(rd: RootDatum, lam, mu, cap: int = DEFAULT_DIM_CAP) -> Decomposition:
    """Multiply full characters, peel highest weights: the peel half of
    the tensor route pair.  Independent of repcalc.tensor_decompose on
    purpose; keep it that way."""
    lam = check_weight(rd, lam)
    mu = check_weight(rd, mu)
    dl, dm = weyl_dim(rd, lam), weyl_dim(rd, mu)
    if dl * dm > cap:
        raise ResourceError(f"tensor dimension {dl * dm} exceeds cap {cap}")
    ca = weight_multiplicities(rd, lam, cap=cap)
    cb = weight_multiplicities(rd, mu, cap=cap)
    product: Dict[Weight, int] = {}
    for wa, ma in ca.items():
        for wb, mb in cb.items():
            w = tuple(a + b for a, b in zip(wa, wb))
            product[w] = product.get(w, 0) + ma * mb
    result: Decomposition = {}
    while product:
        dominant = [w for w, m in product.items() if m != 0 and all(c >= 0 for c in w)]
        assert dominant, "character peel left a non-dominant residue"
        top = max(dominant, key=lambda w: (sum(to_root_coords(rd, w)), w))
        m = product[top]
        assert m > 0
        result[top] = m
        for w, k in weight_multiplicities(rd, top, cap=cap).items():
            left = product.get(w, 0) - m * k
            assert left >= 0
            if left == 0:
                product.pop(w, None)
            else:
                product[w] = left
    return result
