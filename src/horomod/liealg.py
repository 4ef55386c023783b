"""Explicit sl_n modules as sparse rational matrices.

Chevalley conventions on the natural module of A_{n-1}: e_i is the
matrix unit E_{i,i+1}, f_i is E_{i+1,i}, h_i is E_{ii} - E_{i+1,i+1}
(1-based i).  Operators are sparse dicts keyed by (row, col) that store
no zeros, so two operators are equal exactly when == says so.  Vectors
are sparse {index: Fraction} dicts and spans are linalg.RowSpaces; the
functions here return those, and only the CLI densifies, to print.
Constructions: natural, dual, tensor, sum, sym, ext, all with
deterministic bases: tensor indices in row-major order, sym on sorted
monomials in lexicographic order, ext on strictly increasing index
tuples with Koszul signs.

The full Chevalley basis of sl_n is ordered: e[i,j] for i < j in
lexicographic order (e[i,j] acting as E_{ij}), then f[i,j] for i < j
(acting as E_{ji}), then h[i] for i = 1..n-1.  Stabilizer coefficient
vectors and adjoint module coordinates all use this order.  A module's
table of Chevalley matrices comes from commutators of its simple
generators, except the adjoint module's, which is written down in
closed form from the brackets of matrix units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from .linalg import RowSpace, Sparse, sparse
from .rootdata import RootDatum, Weight

Q = Fraction

Matrix = Dict[Tuple[int, int], Q]

DEFAULT_MODULE_DIM_CAP = 2000


def act(mat: Matrix, vec: Sparse) -> Sparse:
    """mat applied to a sparse vector, as a sparse vector."""
    out: Sparse = {}
    for (r, c), val in mat.items():
        x = vec.get(c)
        if x is not None:
            out[r] = out.get(r, 0) + val * x
    return {r: x for r, x in out.items() if x}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    by_row: Dict[int, List[Tuple[int, Q]]] = {}
    for (r, c), val in b.items():
        by_row.setdefault(r, []).append((c, val))
    out: Matrix = {}
    for (r, c), va in a.items():
        for c2, vb in by_row.get(c, ()):  # a[r,c] * b[c,c2]
            key = (r, c2)
            out[key] = out.get(key, Q(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    out = dict(mat_mul(a, b))
    for k, v in mat_mul(b, a).items():
        out[k] = out.get(k, Q(0)) - v
    return {k: v for k, v in out.items() if v != 0}


def mat_scale(a: Matrix, s: Q) -> Matrix:
    return {} if s == 0 else {k: v * s for k, v in a.items()}


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Q(0)) + v
    return {k: v for k, v in out.items() if v != 0}


class _ModuleFields(NamedTuple):
    rd: RootDatum
    label: str
    dim: int
    basis_weights: Tuple[Weight, ...]
    e: Tuple[Matrix, ...]
    f: Tuple[Matrix, ...]
    h: Tuple[Matrix, ...]


class ExplicitModule(_ModuleFields):
    """A module given by the action of its simple generators e, f, h.
    The fields form a tuple; chevalley is cached in the instance dict."""

    @cached_property
    def chevalley(self) -> Tuple[Matrix, ...]:
        """chevalley_matrices(self), built once per module object."""
        return tuple(chevalley_matrices(self))


def _natural_weights(rd: RootDatum, n: int) -> Tuple[Weight, ...]:
    out = []
    for j in range(n):
        out.append(
            tuple((1 if j == i else 0) - (1 if j == i + 1 else 0) for i in range(rd.rank))
        )
    return tuple(out)


def natural(rd: RootDatum) -> ExplicitModule:
    n = rd.rank + 1
    e = tuple({(i, i + 1): Q(1)} for i in range(rd.rank))
    f = tuple({(i + 1, i): Q(1)} for i in range(rd.rank))
    h = tuple({(i, i): Q(1), (i + 1, i + 1): Q(-1)} for i in range(rd.rank))
    return ExplicitModule(rd, f"natural({n})", n, _natural_weights(rd, n), e, f, h)


def dual(m: ExplicitModule) -> ExplicitModule:
    def neg_t(mat: Matrix) -> Matrix:
        return {(c, r): -v for (r, c), v in mat.items()}

    return ExplicitModule(
        m.rd,
        f"dual({m.label})",
        m.dim,
        tuple(tuple(-c for c in w) for w in m.basis_weights),
        tuple(neg_t(x) for x in m.e),
        tuple(neg_t(x) for x in m.f),
        tuple(neg_t(x) for x in m.h),
    )


def tensor(a: ExplicitModule, b: ExplicitModule, cap: int = DEFAULT_MODULE_DIM_CAP) -> ExplicitModule:
    if a.rd != b.rd:
        raise ValidationError("tensor factors over different root data")
    dim = a.dim * b.dim
    if dim > cap:
        raise ResourceError(f"module dimension {dim} exceeds cap {cap}")

    def both(ma: Matrix, mb: Matrix) -> Matrix:
        out: Matrix = {}
        for (r, c), v in ma.items():
            for j in range(b.dim):
                out[(r * b.dim + j, c * b.dim + j)] = v
        for (r, c), v in mb.items():
            for i in range(a.dim):
                key = (i * b.dim + r, i * b.dim + c)
                out[key] = out.get(key, Q(0)) + v
        return {k: v for k, v in out.items() if v != 0}

    weights = tuple(
        tuple(x + y for x, y in zip(a.basis_weights[i], b.basis_weights[j]))
        for i in range(a.dim)
        for j in range(b.dim)
    )
    return ExplicitModule(
        a.rd,
        f"tensor({a.label},{b.label})",
        dim,
        weights,
        tuple(both(x, y) for x, y in zip(a.e, b.e)),
        tuple(both(x, y) for x, y in zip(a.f, b.f)),
        tuple(both(x, y) for x, y in zip(a.h, b.h)),
    )


def direct_sum(a: ExplicitModule, b: ExplicitModule) -> ExplicitModule:
    if a.rd != b.rd:
        raise ValidationError("sum terms over different root data")

    def block(ma: Matrix, mb: Matrix) -> Matrix:
        out = dict(ma)
        for (r, c), v in mb.items():
            out[(r + a.dim, c + a.dim)] = v
        return out

    return ExplicitModule(
        a.rd,
        f"sum({a.label},{b.label})",
        a.dim + b.dim,
        a.basis_weights + b.basis_weights,
        tuple(block(x, y) for x, y in zip(a.e, b.e)),
        tuple(block(x, y) for x, y in zip(a.f, b.f)),
        tuple(block(x, y) for x, y in zip(a.h, b.h)),
    )


def _columns(mat: Matrix) -> Dict[int, List[Tuple[int, Q]]]:
    cols: Dict[int, List[Tuple[int, Q]]] = {}
    for (r, c), v in mat.items():
        cols.setdefault(c, []).append((r, v))
    return cols


def _sort_sign(seq: List[int]) -> int:
    """Sign of the permutation sorting seq; 0 on duplicates."""
    s = list(seq)
    sign = 1
    for i in range(len(s)):
        for j in range(len(s) - 1 - i):
            if s[j] > s[j + 1]:
                s[j], s[j + 1] = s[j + 1], s[j]
                sign = -sign
            elif s[j] == s[j + 1]:
                return 0
    return sign


def _power(
    name: str, k: int, m: ExplicitModule, dim: int, combos: Callable, sign: Callable, cap: int
) -> ExplicitModule:
    """Degree-k power of m, of dimension dim, on the index tuples
    combos(range(m.dim), k): an operator replaces one factor at a time,
    and the sorted result carries sign(replaced tuple), a term of sign 0
    being dropped.  The cap is checked before any tuple is listed."""
    if dim > cap:
        raise ResourceError(f"module dimension {dim} exceeds cap {cap}")
    basis = list(combos(range(m.dim), k))
    index = {mono: i for i, mono in enumerate(basis)}

    def induced(mat: Matrix) -> Matrix:
        cols = _columns(mat)
        out: Matrix = {}
        for ci, mono in enumerate(basis):
            for pos, u in enumerate(mono):
                for v, val in cols.get(u, ()):
                    new = list(mono)
                    new[pos] = v
                    sg = sign(new)
                    if sg == 0:
                        continue
                    key = (index[tuple(sorted(new))], ci)
                    out[key] = out.get(key, Q(0)) + sg * val
        return {kk: v for kk, v in out.items() if v != 0}

    weights = tuple(
        tuple(sum(m.basis_weights[u][i] for u in mono) for i in range(m.rd.rank))
        for mono in basis
    )
    return ExplicitModule(
        m.rd,
        f"{name}({k},{m.label})",
        dim,
        weights,
        tuple(induced(x) for x in m.e),
        tuple(induced(x) for x in m.f),
        tuple(induced(x) for x in m.h),
    )


def sym(k: int, m: ExplicitModule, cap: int = DEFAULT_MODULE_DIM_CAP) -> ExplicitModule:
    if k < 0:
        raise ValidationError("sym degree must be >= 0")
    return _power(
        "sym", k, m, comb(m.dim + k - 1, k), combinations_with_replacement, lambda seq: 1, cap
    )


def ext(k: int, m: ExplicitModule, cap: int = DEFAULT_MODULE_DIM_CAP) -> ExplicitModule:
    if k < 0 or k > m.dim:
        raise ValidationError("ext degree out of range")
    return _power("ext", k, m, comb(m.dim, k), combinations, _sort_sign, cap)


# ---------------------------------------------------------------- parser

_TOKEN_NAMES = {"natural", "dual", "tensor", "sum", "sym", "ext"}


def _tokenize(expr: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            out.append(expr[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(expr) and expr[j].isalpha():
                j += 1
            out.append(expr[i:j])
            i = j
        else:
            raise ValidationError(f"bad character {ch!r} in module expression")
    return out


def build_module(rd: RootDatum, expr: str, cap: int = DEFAULT_MODULE_DIM_CAP) -> ExplicitModule:
    """Parse expressions like sum(natural(4),ext(2,natural(4)))."""
    toks = _tokenize(expr)
    pos = 0

    def peek() -> Optional[str]:
        return toks[pos] if pos < len(toks) else None

    def eat(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ValidationError("unexpected end of module expression")
        t = toks[pos]
        if expected is not None and t != expected:
            raise ValidationError(f"expected {expected!r}, got {t!r}")
        pos += 1
        return t

    def parse() -> ExplicitModule:
        name = eat()
        if name not in _TOKEN_NAMES:
            raise ValidationError(f"unknown construction {name!r}")
        eat("(")
        if name == "natural":
            n = int(eat())
            eat(")")
            if n != rd.rank + 1:
                raise ValidationError(
                    f"natural({n}) does not match rank {rd.rank} datum"
                )
            return natural(rd)
        if name == "dual":
            inner = parse()
            eat(")")
            return dual(inner)
        if name in ("sym", "ext"):
            k = int(eat())
            eat(",")
            inner = parse()
            eat(")")
            return (sym if name == "sym" else ext)(k, inner, cap=cap)
        terms = [parse()]
        while peek() == ",":
            eat(",")
            terms.append(parse())
        eat(")")
        out = terms[0]
        for t in terms[1:]:
            out = tensor(out, t, cap=cap) if name == "tensor" else direct_sum(out, t)
        if out.dim > cap:
            raise ResourceError(f"module dimension {out.dim} exceeds cap {cap}")
        return out

    mod = parse()
    if pos != len(toks):
        raise ValidationError("trailing input in module expression")
    return mod


def check_brackets(m: ExplicitModule) -> None:
    """Assert the defining relations hold on this module."""
    r = m.rd.rank
    for i in range(r):
        for j in range(r):
            cij = m.rd.cartan[i][j]
            assert mat_commutator(m.h[i], m.e[j]) == mat_scale(m.e[j], Q(cij))
            assert mat_commutator(m.h[i], m.f[j]) == mat_scale(m.f[j], Q(-cij))
            assert mat_commutator(m.e[i], m.f[j]) == (m.h[i] if i == j else {})
    for idx, w in enumerate(m.basis_weights):
        for i in range(r):
            col = [v for (rr, cc), v in m.h[i].items() if cc == idx and rr != idx]
            assert not col, "h is not diagonal on the weight basis"
            assert m.h[i].get((idx, idx), Q(0)) == w[i]


# ------------------------------------------------- Chevalley basis order


def chevalley_labels(rd: RootDatum) -> List[str]:
    n = rd.rank + 1
    labels = [f"e[{i},{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    labels += [f"f[{i},{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    labels += [f"h[{i}]" for i in range(1, n)]
    return labels


def chevalley_matrices(m: ExplicitModule) -> List[Matrix]:
    """Action matrices for the full Chevalley basis, in label order.

    e[i,j] represents E_{ij} = [E_{i,i+1}, E_{i+1,j}] and f[i,j]
    represents E_{ji} = [E_{j,i+1}-part commutators] built from the
    simple generators, so all structure constants are consistent.
    """
    n = m.rd.rank + 1
    upper: Dict[Tuple[int, int], Matrix] = {}
    lower: Dict[Tuple[int, int], Matrix] = {}
    for i in range(1, n):
        upper[(i, i + 1)] = m.e[i - 1]
        lower[(i, i + 1)] = m.f[i - 1]
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            upper[(i, j)] = mat_commutator(upper[(i, i + 1)], upper[(i + 1, j)])
            lower[(i, j)] = mat_commutator(lower[(i + 1, j)], lower[(i, i + 1)])
    out: List[Matrix] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(upper[(i, j)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(lower[(i, j)])
    out.extend(m.h)
    return out


def chevalley_weights(rd: RootDatum) -> List[Weight]:
    """Adjoint weights of the Chevalley basis elements, in label order."""
    n = rd.rank + 1
    nat = _natural_weights(rd, n)
    out = [
        tuple(a - b for a, b in zip(nat[i], nat[j]))
        for i in range(n)
        for j in range(n)
        if i < j
    ]
    out += [
        tuple(b - a for a, b in zip(nat[i], nat[j]))
        for i in range(n)
        for j in range(n)
        if i < j
    ]
    out += [tuple(0 for _ in range(rd.rank))] * rd.rank
    return out


def adjoint_module(rd: RootDatum) -> ExplicitModule:
    """sl_n acting on itself, coordinates in the Chevalley basis order,
    in closed form: the basis is E_pq (p != q) in label order, then
    h_k = E_kk - E_{k+1,k+1}, all indices 0-based.  By
    [E_pq, E_ij] = delta_qi E_pj - delta_jp E_iq, ad(E_pq) sends E_qj to
    E_pj for j != p, E_ip to -E_iq for i != q, and E_qp to E_pp - E_qq,
    whose h-coordinates are +-1 on h_p ... h_{q-1} (p < q) or on
    h_q ... h_{p-1} (p > q).  It sends h_k to -(eps_p - eps_q)(h_k) E_pq,
    and ad(h_k) is diagonal, (eps_i - eps_j)(h_k) on E_ij.  The table of
    these matrices is the module's chevalley; e, f, h are its simple
    entries."""
    n = rd.rank + 1
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    off_diagonal = upper + [(j, i) for i, j in upper]
    index = {key: k for k, key in enumerate(off_diagonal)}
    h0 = len(off_diagonal)
    one, minus_one = Q(1), Q(-1)

    def pairing(p: int, q: int, k: int) -> int:
        """(eps_p - eps_q)(h_k)."""
        return (p == k) - (p == k + 1) - (q == k) + (q == k + 1)

    table: List[Matrix] = []
    for p, q in off_diagonal:
        mat: Matrix = {}
        for j in range(n):
            if j != p and j != q:
                mat[(index[(p, j)], index[(q, j)])] = one
                mat[(index[(j, q)], index[(j, p)])] = minus_one
        sign = one if p < q else minus_one
        for k in range(min(p, q), max(p, q)):
            mat[(h0 + k, index[(q, p)])] = sign
        for k in range(rd.rank):
            c = pairing(p, q, k)
            if c:
                mat[(index[(p, q)], h0 + k)] = Q(-c)
        table.append(mat)
    for k in range(rd.rank):
        table.append(
            {
                (c, c): Q(v)
                for c, (i, j) in enumerate(off_diagonal)
                if (v := pairing(i, j, k))
            }
        )
    simple = [index[(i, i + 1)] for i in range(rd.rank)]
    ad = ExplicitModule(
        rd,
        "adjoint",
        h0 + rd.rank,
        tuple(chevalley_weights(rd)),
        tuple(table[c] for c in simple),
        tuple(table[len(upper) + c] for c in simple),
        tuple(table[h0:]),
    )
    ad.chevalley = tuple(table)  # fills the cache, so it is never rebuilt
    return ad


# ------------------------------------------------------------ operations


def _weight_blocks(m: ExplicitModule) -> Dict[Weight, List[int]]:
    blocks: Dict[Weight, List[int]] = {}
    for idx, w in enumerate(m.basis_weights):
        blocks.setdefault(w, []).append(idx)
    return blocks


def highest_weight_vectors(m: ExplicitModule) -> Dict[Weight, List[Sparse]]:
    """Basis of the joint kernel of the raising operators, one entry per
    dominant weight that actually carries highest weight vectors."""
    blocks = _weight_blocks(m)
    out: Dict[Weight, List[Sparse]] = {}
    order = sorted(blocks, key=lambda w: (sum(w), w), reverse=True)
    for chi in order:
        if any(c < 0 for c in chi):
            continue
        src = blocks[chi]
        space = RowSpace(len(src))
        for i in range(m.rd.rank):
            target = tuple(c + a for c, a in zip(chi, m.rd.cartan[i]))
            for t in blocks.get(target, []):
                space.add({j: m.e[i][(t, s)] for j, s in enumerate(src) if (t, s) in m.e[i]})
        kern = space.kernel()
        if kern:
            out[chi] = [{src[j]: val for j, val in k.items()} for k in kern]
    return out


class Coinvariants(NamedTuple):
    dim: int
    rep_indices: Tuple[int, ...]
    rep_weights: Tuple[Weight, ...]


def u_coinvariants(m: ExplicitModule) -> Coinvariants:
    """Quotient of the module by the span of all raising images.

    Images of the simple raising operators already span the images of
    every positive root vector, since each of those is an iterated
    commutator of simple ones.
    """
    span = RowSpace(m.dim)
    for i in range(m.rd.rank):
        cols = _columns(m.e[i])
        for c, entries in sorted(cols.items()):
            span.add(dict(entries))
    pivot_set = set(span.pivots)
    reps = tuple(i for i in range(m.dim) if i not in pivot_set)
    return Coinvariants(
        dim=m.dim - span.dim,
        rep_indices=reps,
        rep_weights=tuple(m.basis_weights[i] for i in reps),
    )


def orbit_tangent(m: ExplicitModule, x: Sequence) -> RowSpace:
    """The span g.x of all Chevalley basis images of x."""
    vec = _check_point(m, x)
    span = RowSpace(m.dim)
    for mat in m.chevalley:
        span.add(act(mat, vec))
    return span


def stabilizer_lie(m: ExplicitModule, x: Sequence) -> List[Sparse]:
    """Kernel of xi -> xi.x, as Chevalley coefficient vectors."""
    vec = _check_point(m, x)
    rows: Dict[int, Sparse] = {}
    for k, mat in enumerate(m.chevalley):
        for r, val in act(mat, vec).items():
            rows.setdefault(r, {})[k] = val
    return RowSpace(len(m.chevalley), rows.values()).kernel()


def _check_point(m: ExplicitModule, x: Sequence) -> Sparse:
    """x as a sparse vector, after checking its length."""
    if len(x) != m.dim:
        raise ValidationError(f"point has length {len(x)}, module dimension {m.dim}")
    return sparse(x)


# ------------------------------------------------------------ stabilizers


class DiagCongruence(NamedTuple):
    """Integer functional on weights plus a modulus.

    Modulus 0 demands the value vanish exactly (a torus factor);
    modulus d demands the value be divisible by d (a finite cyclic
    diagonalizable factor).
    """

    coeffs: Tuple[int, ...]
    modulus: int

    def passes(self, w: Weight) -> bool:
        val = sum(c * x for c, x in zip(self.coeffs, w))
        if self.modulus == 0:
            return val == 0
        return val % self.modulus == 0


class StabilizerSpec(NamedTuple):
    """Generators of an isotropy group: a Lie algebra part given by
    Chevalley coefficient vectors, and a diagonalizable part given by
    weight congruences."""

    lie_part: Tuple[Tuple[Q, ...], ...] = ()
    diag_part: Tuple[DiagCongruence, ...] = ()

    def passing(self, weights: Sequence[Weight]) -> List[int]:
        """Indices of the weights that pass every congruence."""
        return [
            i for i, w in enumerate(weights) if all(c.passes(w) for c in self.diag_part)
        ]


def unipotent_radical_spec(rd: RootDatum) -> StabilizerSpec:
    """Lie algebra of the standard maximal unipotent subgroup."""
    total = len(chevalley_labels(rd))
    n_upper = (rd.rank + 1) * rd.rank // 2
    vecs = []
    for k in range(n_upper):
        v = [Q(0)] * total
        v[k] = Q(1)
        vecs.append(tuple(v))
    return StabilizerSpec(lie_part=tuple(vecs))


def lie_matrix(m: ExplicitModule, coeffs: Sequence) -> Matrix:
    mats = m.chevalley
    if len(coeffs) != len(mats):
        raise ValidationError(
            f"stabilizer vector length {len(coeffs)} != {len(mats)} basis elements"
        )
    terms = [(c, mat) for c, mat in zip(coeffs, mats) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]  # shared with m.chevalley; callers only read it
    out: Matrix = {}
    for c, mat in terms:
        out = mat_add(out, mat_scale(mat, Q(c)))
    return out


def fixed_in_quotient(
    span: RowSpace, lie: Sequence[Matrix], passing: Sequence[int]
) -> List[Sparse]:
    """Fixed subspace of M / span under a stabilizer whose Lie part acts
    on M by the matrices lie, and whose diagonalizable part fixes the
    basis vectors passing (StabilizerSpec.passing) and no others.

    The span must be stable under the stabilizer (true for orbit
    tangents at the stabilized point); fixedness of a class means the
    Lie part maps a representative into the span and the class has a
    representative supported on passing coordinates.  The returned
    representatives are independent modulo the span, and are added to
    it; with an empty span they are a basis of the fixed subspace of M.
    """
    # One row per (Lie generator, coordinate) of the map sending the
    # passing basis vector j to its class modulo the span.
    rows: List[Sparse] = []
    for mat in lie:
        cols = _columns(mat)
        by_coord: Dict[int, Sparse] = {}
        for j, p in enumerate(passing):
            for r, val in span.reduce(dict(cols.get(p, ()))).items():
                by_coord.setdefault(r, {})[j] = val
        rows.extend(by_coord.values())
    w_basis = [
        {passing[j]: val for j, val in k.items()}
        for k in RowSpace(len(passing), rows).kernel()
    ]
    # s_triv_dim is the dimension of the part of the span supported on
    # passing weights.  A w supported there lies in span + (reps so far)
    # exactly when it lies in that part + (reps so far), so adding to the
    # whole span picks the classes independent modulo the span.
    passing_set = set(passing)
    off_passing = RowSpace(
        span.ncols,
        [{q: x for q, x in row.items() if q not in passing_set} for row in span.rows.values()],
    )
    s_triv_dim = span.dim - off_passing.dim
    reps = [w for w in w_basis if span.add(w)]
    assert len(reps) == len(w_basis) - s_triv_dim
    return reps


def isotypic_components(m: ExplicitModule) -> List[Tuple[Weight, List[Sparse]]]:
    """Decomposition into isotypic pieces: highest weight vectors closed
    under the lowering operators.  Each piece comes with the sparse
    reduced basis of its span, in pivot order."""
    comps = []
    total = 0
    for lam, vecs in highest_weight_vectors(m).items():
        space = RowSpace(m.dim, vecs)
        queue = list(vecs)
        while queue:
            v = queue.pop()
            for i in range(m.rd.rank):
                img = act(m.f[i], v)
                if space.add(img):
                    queue.append(img)
        comps.append((lam, [space.rows[pc] for pc in space.pivots]))
        total += space.dim
    assert total == m.dim, "module did not split into isotypic pieces"
    return comps
