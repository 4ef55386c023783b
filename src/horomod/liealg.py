"""Explicit sl_n modules as sparse rational matrices.

Chevalley conventions on the natural module of A_{n-1}: e_i is the
matrix unit E_{i,i+1}, f_i is E_{i+1,i}, h_i is E_{ii} - E_{i+1,i+1}
(1-based i).  Vectors are sparse {index: Fraction} dicts (linalg.Sparse)
and spans are linalg.RowSpaces; the functions here return those, and
only the CLI densifies, to print.  An operator is the map {column: its
nonzero entries as a sparse vector}, storing no zeros and no empty
column, so two operators are equal exactly when == says so, and applying
one to a vector reads only the columns in the vector's support.
Constructions: natural, dual, tensor, sum, sym, ext, all with
deterministic bases: tensor indices in row-major order, sym on sorted
monomials in lexicographic order, ext on strictly increasing index
tuples with Koszul signs.

The full Chevalley basis of sl_n is ordered: e[i,j] for i < j in
lexicographic order (e[i,j] acting as E_{ij}), then f[i,j] for i < j
(acting as E_{ji}), then h[i] for i = 1..n-1.  Stabilizer coefficient
vectors, sparse over this order, and adjoint module coordinates all use
it.  A module's table of Chevalley matrices comes from commutators of
its simple generators, except the adjoint module's, which is written
down in closed form from the brackets of matrix units.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, groupby
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from .linalg import RowSpace, Sparse, sparse
from .rootdata import RootDatum, Weight

Q = Fraction

Matrix = Dict[int, Sparse]

DEFAULT_MODULE_DIM_CAP = 2000


def _pruned(mat: Matrix) -> Matrix:
    """mat without its zero entries and empty columns."""
    out: Matrix = {}
    for c, col in mat.items():
        col = {r: x for r, x in col.items() if x}
        if col:
            out[c] = col
    return out


def act(mat: Matrix, vec: Sparse) -> Sparse:
    """mat applied to a sparse vector, as a sparse vector."""
    out: Sparse = {}
    for c, x in vec.items():
        if c in mat:
            for r, y in mat[c].items():
                v = out.get(r)
                out[r] = y * x if v is None else v + y * x
    return {r: v for r, v in out.items() if v}


def mat_combination(terms: Sequence[Tuple[Q, Matrix]]) -> Matrix:
    """The sum of s * mat over the (s, mat) terms."""
    out: Matrix = {}
    for s, mat in terms:
        for c, col in mat.items():
            acc = out.setdefault(c, {})
            for r, x in col.items():
                acc[r] = acc.get(r, 0) + s * x
    return _pruned(out)


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b], whose column c is a(b[c]) - b(a[c])."""
    out: Matrix = {}
    for c in a.keys() | b.keys():
        col = act(a, b[c]) if c in b else {}
        for r, x in (act(b, a[c]) if c in a else {}).items():
            v = col.get(r)
            col[r] = -x if v is None else v - x
        out[c] = col
    return _pruned(out)


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
    return tuple(tuple((j == i) - (j == i + 1) for i in range(rd.rank)) for j in range(n))


def natural(rd: RootDatum) -> ExplicitModule:
    n = rd.rank + 1
    e = tuple({i + 1: {i: Q(1)}} for i in range(rd.rank))
    f = tuple({i: {i + 1: Q(1)}} for i in range(rd.rank))
    h = tuple({i: {i: Q(1)}, i + 1: {i + 1: Q(-1)}} for i in range(rd.rank))
    return ExplicitModule(rd, f"natural({n})", n, _natural_weights(rd, n), e, f, h)


def dual(m: ExplicitModule) -> ExplicitModule:
    def neg_t(mat: Matrix) -> Matrix:
        out: Matrix = {}
        for c, col in mat.items():
            for r, v in col.items():
                out.setdefault(r, {})[c] = -v
        return out

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
        for c, col in ma.items():
            for j in range(b.dim):
                out[c * b.dim + j] = {r * b.dim + j: v for r, v in col.items()}
        for c, col in mb.items():
            for i in range(a.dim):
                target = out.setdefault(i * b.dim + c, {})
                for r, v in col.items():
                    key = i * b.dim + r
                    target[key] = target.get(key, 0) + v
        return _pruned(out)

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


def direct_sum(a: ExplicitModule, b: ExplicitModule, cap: int) -> ExplicitModule:
    if a.rd != b.rd:
        raise ValidationError("sum terms over different root data")
    dim = a.dim + b.dim
    if dim > cap:
        raise ResourceError(f"module dimension {dim} exceeds cap {cap}")

    def block(ma: Matrix, mb: Matrix) -> Matrix:
        out = dict(ma)
        for c, col in mb.items():
            out[c + a.dim] = {r + a.dim: v for r, v in col.items()}
        return out

    return ExplicitModule(
        a.rd,
        f"sum({a.label},{b.label})",
        dim,
        a.basis_weights + b.basis_weights,
        tuple(block(x, y) for x, y in zip(a.e, b.e)),
        tuple(block(x, y) for x, y in zip(a.f, b.f)),
        tuple(block(x, y) for x, y in zip(a.h, b.h)),
    )


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
    # containing[u]: the (tuple index, position) of each occurrence of u
    containing: Dict[int, List[Tuple[int, int]]] = {}
    for ci, mono in enumerate(basis):
        for pos, u in enumerate(mono):
            containing.setdefault(u, []).append((ci, pos))

    def induced(mat: Matrix) -> Matrix:
        out: Matrix = {}
        for u, col in mat.items():
            for ci, pos in containing.get(u, ()):
                target = out.setdefault(ci, {})
                for v, val in col.items():
                    new = list(basis[ci])
                    new[pos] = v
                    sg = sign(new)
                    if sg:
                        r = index[tuple(sorted(new))]
                        target[r] = target.get(r, 0) + sg * val
        return _pruned(out)

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
# Each level of nesting is one recursive call of the parser.
_MAX_DEPTH = 100


def _tokenize(expr: str) -> List[str]:
    """Runs of digits and runs of letters are tokens, and so is each of
    "(", ")" and ","; whitespace separates them."""
    out: List[str] = []
    for kind, run in groupby(expr, _char_kind):
        text = "".join(run)
        if kind in ("d", "a"):
            out.append(text)
        elif kind == "p":
            bad = [ch for ch in text if ch not in "(),"]
            if bad:
                raise ValidationError(f"bad character {bad[0]!r} in module expression")
            out.extend(text)
    return out


def _char_kind(ch: str) -> str:
    if ch.isdigit():
        return "d"
    if ch.isalpha():
        return "a"
    return "s" if ch.isspace() else "p"


def build_module(rd: RootDatum, expr: str, cap: int = DEFAULT_MODULE_DIM_CAP) -> ExplicitModule:
    """Parse expressions like sum(natural(4),ext(2,natural(4))).  The
    nesting depth is bounded before parsing, and the dimension of a sum
    or tensor product as each term is folded in."""
    toks = _tokenize(expr)
    depth = 0
    for t in toks:
        depth += (t == "(") - (t == ")")
        if depth > _MAX_DEPTH:
            raise ResourceError(f"module expression nests deeper than {_MAX_DEPTH}")
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

    def number() -> int:
        t = eat()
        try:
            return int(t)
        except ValueError:
            raise ValidationError(f"expected a number, got {t!r}")

    def parse() -> ExplicitModule:
        name = eat()
        if name not in _TOKEN_NAMES:
            raise ValidationError(f"unknown construction {name!r}")
        eat("(")
        if name == "natural":
            n = number()
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
            k = number()
            eat(",")
            inner = parse()
            eat(")")
            return (sym if name == "sym" else ext)(k, inner, cap=cap)
        fold = tensor if name == "tensor" else direct_sum
        out = parse()
        while peek() == ",":
            eat(",")
            out = fold(out, parse(), cap=cap)
        eat(")")
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
            assert mat_commutator(m.h[i], m.e[j]) == mat_combination([(Q(cij), m.e[j])])
            assert mat_commutator(m.h[i], m.f[j]) == mat_combination([(Q(-cij), m.f[j])])
            assert mat_commutator(m.e[i], m.f[j]) == (m.h[i] if i == j else {})
    for idx, w in enumerate(m.basis_weights):
        for i in range(r):
            col = m.h[i].get(idx, {})
            assert set(col) <= {idx}, "h is not diagonal on the weight basis"
            assert col.get(idx, 0) == w[i]


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
    represents E_{ji} = [E_{j,i+1}, E_{i+1,i}], commutators built from
    the simple generators, so all structure constants are consistent.
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
    keys = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return [upper[k] for k in keys] + [lower[k] for k in keys] + list(m.h)


def chevalley_weights(rd: RootDatum) -> List[Weight]:
    """Adjoint weights of the Chevalley basis elements, in label order."""
    n = rd.rank + 1
    nat = _natural_weights(rd, n)
    upper = [
        tuple(a - b for a, b in zip(nat[i], nat[j])) for i in range(n) for j in range(i + 1, n)
    ]
    return upper + [tuple(-c for c in w) for w in upper] + [(0,) * rd.rank] * rd.rank


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
                mat[index[(q, j)]] = {index[(p, j)]: one}
                mat[index[(j, p)]] = {index[(j, q)]: minus_one}
        sign = one if p < q else minus_one
        mat[index[(q, p)]] = {h0 + k: sign for k in range(min(p, q), max(p, q))}
        for k in range(rd.rank):
            c = pairing(p, q, k)
            if c:
                mat[h0 + k] = {index[(p, q)]: Q(-c)}
        table.append(mat)
    for k in range(rd.rank):
        table.append(
            {
                c: {c: Q(v)}
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
        # One row per (raising operator, image coordinate).
        rows: Dict[Tuple[int, int], Sparse] = {}
        for i, e in enumerate(m.e):
            for j, s in enumerate(src):
                for t, val in e.get(s, {}).items():
                    rows.setdefault((i, t), {})[j] = val
        kern = RowSpace(len(src), rows.values()).kernel()
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
    for e in m.e:
        for col in e.values():
            span.add(col)
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
    sparse Chevalley coefficient vectors (as stabilizer_lie returns
    them), and a diagonalizable part given by weight congruences."""

    lie_part: Tuple[Sparse, ...] = ()
    diag_part: Tuple[DiagCongruence, ...] = ()

    def passing(self, weights: Sequence[Weight]) -> List[int]:
        """Indices of the weights that pass every congruence."""
        return [
            i for i, w in enumerate(weights) if all(c.passes(w) for c in self.diag_part)
        ]


def unipotent_radical_spec(rd: RootDatum) -> StabilizerSpec:
    """Lie algebra of the standard maximal unipotent subgroup."""
    n_upper = (rd.rank + 1) * rd.rank // 2
    return StabilizerSpec(lie_part=tuple({k: Q(1)} for k in range(n_upper)))


def lie_matrix(m: ExplicitModule, coeffs: Sparse) -> Matrix:
    """The action of the sparse Chevalley coefficient vector coeffs."""
    mats = m.chevalley
    bad = [k for k in coeffs if not 0 <= k < len(mats)]
    if bad:
        raise ValidationError(
            f"stabilizer vector index {bad[0]} is outside the {len(mats)} basis elements"
        )
    if len(coeffs) == 1:
        (k, c), = coeffs.items()
        if c == 1:
            return mats[k]  # shared with m.chevalley; callers only read it
    return mat_combination([(Q(c), mats[k]) for k, c in coeffs.items()])


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
    # passing basis vector j to its class modulo the span; an empty
    # column of a generator adds nothing.
    position = {p: j for j, p in enumerate(passing)}
    rows: List[Sparse] = []
    for mat in lie:
        by_coord: Dict[int, Sparse] = {}
        for p, col in mat.items():
            if p in position:
                for r, val in span.reduce(col).items():
                    by_coord.setdefault(r, {})[position[p]] = val
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
