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
(acting as E_{ji}), then h[i] for i = 1..n-1.  _off_diagonal states this
order once; the labels, e, f and the Lie part of u are read off it.
Stabilizer coefficient vectors are sparse over this order.  A module is
its root datum, the weights of its basis and the action ops of every
element of this basis.  natural writes the matrix units down, and each
other construction induces the operators of its factors one by one.
Every fixed space comes from fixed_in_quotient: V^U is the fixed space
of the simple raising operators, and u is given by its r simple root
vectors, which generate it, so on a u-stable span they fix what u fixes.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, groupby
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceError, ValidationError
from .linalg import MAX_DIGITS, RowSpace, Sparse, clip, sparse
from .rootdata import RootDatum, Weight

Q = Fraction

Matrix = Dict[int, Sparse]

DEFAULT_MODULE_DIM_CAP = 2000


def _add(col: Sparse, r: int, x: Q) -> None:
    """col[r] += x, storing no zero."""
    old = col.get(r)
    total = x if old is None else old + x
    if total:
        col[r] = total
    elif old is not None:
        del col[r]


def _nonempty(mat: Matrix) -> Matrix:
    """mat without its empty columns."""
    return {c: col for c, col in mat.items() if col}


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
                _add(acc, r, s * x)
    return _nonempty(out)


def _off_diagonal(n: int) -> List[Tuple[int, int]]:
    """The (p, q) of the E_pq among the Chevalley basis, 0-based, in order."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return upper + [(j, i) for i, j in upper]


def _simple(n: int, step: int) -> List[int]:
    """Positions of the E_{p,p+step} in the Chevalley order: the simple
    raising e_i for step 1, the simple lowering f_i for step -1."""
    return [k for k, (p, q) in enumerate(_off_diagonal(n)) if q - p == step]


def chevalley_labels(rd: RootDatum) -> List[str]:
    n = rd.rank + 1
    labels = [f"{'ef'[p > q]}[{min(p, q) + 1},{max(p, q) + 1}]" for p, q in _off_diagonal(n)]
    return labels + [f"h[{i}]" for i in range(1, n)]


class ExplicitModule(NamedTuple):
    """A module given by the action of the whole Chevalley basis: ops[k]
    is the matrix of the k-th element in chevalley_labels order."""

    rd: RootDatum
    basis_weights: Tuple[Weight, ...]
    ops: Tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis_weights)

    @property
    def e(self) -> Tuple[Matrix, ...]:
        """The simple raising operators e_i = E_{i,i+1}."""
        return tuple(self.ops[k] for k in _simple(self.rd.rank + 1, 1))

    @property
    def f(self) -> Tuple[Matrix, ...]:
        """The simple lowering operators f_i = E_{i+1,i}."""
        return tuple(self.ops[k] for k in _simple(self.rd.rank + 1, -1))


def _natural_weights(rd: RootDatum, n: int) -> Tuple[Weight, ...]:
    return tuple(tuple((j == i) - (j == i + 1) for i in range(rd.rank)) for j in range(n))


def natural(rd: RootDatum) -> ExplicitModule:
    n = rd.rank + 1
    one = Q(1)
    ops = [{q: {p: one}} for p, q in _off_diagonal(n)]
    ops += [{k: {k: one}, k + 1: {k + 1: -one}} for k in range(rd.rank)]
    return ExplicitModule(rd, _natural_weights(rd, n), tuple(ops))


def dual(m: ExplicitModule) -> ExplicitModule:
    def neg_t(mat: Matrix) -> Matrix:
        out: Matrix = {}
        for c, col in mat.items():
            for r, v in col.items():
                out.setdefault(r, {})[c] = -v
        return out

    return ExplicitModule(
        m.rd, tuple(tuple(-c for c in w) for w in m.basis_weights), tuple(neg_t(x) for x in m.ops)
    )


def tensor(a: ExplicitModule, b: ExplicitModule) -> ExplicitModule:
    if a.rd != b.rd:
        raise ValidationError("tensor factors over different root data")

    da, db = a.dim, b.dim

    def both(ma: Matrix, mb: Matrix) -> Matrix:
        out: Matrix = {}
        for c, col in ma.items():
            for j in range(db):
                out[c * db + j] = {r * db + j: v for r, v in col.items()}
        for c, col in mb.items():
            for i in range(da):
                target = out.setdefault(i * db + c, {})
                for r, v in col.items():
                    _add(target, i * db + r, v)
        return _nonempty(out)

    weights = tuple(
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.basis_weights for wb in b.basis_weights
    )
    return ExplicitModule(a.rd, weights, tuple(both(x, y) for x, y in zip(a.ops, b.ops)))


def direct_sum(a: ExplicitModule, b: ExplicitModule) -> ExplicitModule:
    if a.rd != b.rd:
        raise ValidationError("sum terms over different root data")

    da = a.dim

    def block(ma: Matrix, mb: Matrix) -> Matrix:
        out = dict(ma)
        for c, col in mb.items():
            out[c + da] = {r + da: v for r, v in col.items()}
        return out

    return ExplicitModule(
        a.rd, a.basis_weights + b.basis_weights, tuple(block(x, y) for x, y in zip(a.ops, b.ops))
    )


def _power(name: str, k: int, m: ExplicitModule) -> ExplicitModule:
    """Degree-k power of m: sym on the sorted index tuples, ext on the
    strictly increasing ones.  An operator replaces one factor at a time,
    and the new factor moves from position pos to the position j among
    the others that bisection finds; in ext the term carries the Koszul
    sign (-1)^|pos - j|, and a repeated index drops it."""
    alternating = name == "ext"
    basis = list((combinations if alternating else combinations_with_replacement)(range(m.dim), k))
    index = {mono: i for i, mono in enumerate(basis)}
    # containing[u]: the (tuple index, position) of each occurrence of u
    containing: Dict[int, List[Tuple[int, int]]] = {}
    for ci, mono in enumerate(basis):
        for pos, u in enumerate(mono):
            containing.setdefault(u, []).append((ci, pos))

    def induced(mat: Matrix) -> Matrix:
        out: Matrix = {}
        for u, col in mat.items():
            terms = [(v, val, -val) for v, val in col.items()]
            for ci, pos in containing.get(u, ()):
                mono = basis[ci]
                target = out.setdefault(ci, {})
                for v, val, negated in terms:
                    b = bisect_left(mono, v)
                    if alternating:
                        if b != pos and b < k and mono[b] == v:
                            continue
                        if (pos - b + (b > pos)) & 1:  # j = b - (b > pos)
                            val = negated
                    if b > pos:
                        new = mono[:pos] + mono[pos + 1 : b] + (v,) + mono[b:]
                    else:
                        new = mono[:b] + (v,) + mono[b:pos] + mono[pos + 1 :]
                    _add(target, index[new], val)
        return _nonempty(out)

    weights = tuple(
        tuple(sum(m.basis_weights[u][i] for u in mono) for i in range(m.rd.rank))
        for mono in basis
    )
    return ExplicitModule(m.rd, weights, tuple(induced(x) for x in m.ops))


def sym(k: int, m: ExplicitModule) -> ExplicitModule:
    return _power("sym", k, m)


def ext(k: int, m: ExplicitModule) -> ExplicitModule:
    return _power("ext", k, m)


# ---------------------------------------------------------------- parser

_TOKEN_NAMES = {"natural", "dual", "tensor", "sum", "sym", "ext"}
# Each level of nesting is one recursive call of the parser.
_MAX_DEPTH = 100
# A dimension of more digits than the limit is reported by that limit.
_BIG = 10**MAX_DIGITS


def _binomial(n: int, k: int) -> int:
    """comb(n, k); or _BIG once (n/d)^d <= comb(n, k), d = min(k, n - k),
    passes it by bit length, so no binomial that big is multiplied out."""
    d = min(k, n - k)
    if d > 0 and ((n // d).bit_length() - 1) * d >= _BIG.bit_length():
        return _BIG
    return comb(n, k)


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
    """Parse expressions like sum(natural(4),ext(2,natural(4))), then
    build the module.  The nesting depth is bounded before parsing.  The
    parse folds dimensions, checking the cap on each sym and ext and on a
    sum or tensor product as each term is folded in, and once more on the
    whole expression, so nothing is built until it parses and fits."""
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
            raise ValidationError(f"expected {expected!r}, got {clip(t)!r}")
        pos += 1
        return t

    def number() -> int:
        t = eat()
        if t.isdecimal() and len(t) > MAX_DIGITS:
            raise ValidationError(
                f"number {clip(t)} is too long: {len(t)} digits, at most {MAX_DIGITS}"
            )
        try:
            return int(t)
        except ValueError:
            raise ValidationError(f"expected a number, got {clip(t)!r}")

    def fits(dim: int) -> int:
        if dim > cap:
            shown = dim if dim < _BIG else f"of more than {MAX_DIGITS} digits"
            raise ResourceError(f"module dimension {shown} exceeds cap {cap}")
        return dim

    def parse() -> Tuple[int, Callable[[], ExplicitModule]]:
        """The dimension of the next term, and a function that builds it."""
        name = eat()
        if name not in _TOKEN_NAMES:
            raise ValidationError(f"unknown construction {clip(name)!r}")
        eat("(")
        if name == "natural":
            n = number()
            eat(")")
            if n != rd.rank + 1:
                raise ValidationError(
                    f"natural({n}) does not match rank {rd.rank} datum"
                )
            return n, lambda: natural(rd)
        if name == "dual":
            dim, inner = parse()
            eat(")")
            return dim, lambda: dual(inner())
        if name in ("sym", "ext"):
            k = number()
            eat(",")
            dim, inner = parse()
            eat(")")
            if name == "sym":
                return fits(_binomial(dim + k - 1, k)), lambda: sym(k, inner())
            if k > dim:
                raise ValidationError("ext degree out of range")
            return fits(_binomial(dim, k)), lambda: ext(k, inner())
        is_tensor = name == "tensor"
        dim, first = parse()
        terms = [first]
        while peek() == ",":
            eat(",")
            d, term = parse()
            dim = fits(dim * d if is_tensor else dim + d)
            terms.append(term)
        eat(")")
        return dim, lambda: reduce(tensor if is_tensor else direct_sum, (t() for t in terms))

    dim, build = parse()
    if pos != len(toks):
        raise ValidationError("trailing input in module expression")
    fits(dim)
    return build()


# ------------------------------------------------------------ operations


def highest_weight_vectors(m: ExplicitModule) -> Dict[Weight, List[Sparse]]:
    """V^U, the fixed space of the simple raising operators, which
    generate u.  A highest weight vector has a dominant weight, and each
    e_i maps a weight space into one other, so every kernel vector lies in
    one weight space: they are grouped by the weight of their first
    coordinate, one entry per dominant weight carrying any."""
    dominant = [i for i, w in enumerate(m.basis_weights) if all(c >= 0 for c in w)]
    out: Dict[Weight, List[Sparse]] = {}
    for v in fixed_in_quotient(RowSpace(m.dim), m.e, dominant):
        out.setdefault(m.basis_weights[next(iter(v))], []).append(v)
    return {w: out[w] for w in sorted(out, key=lambda w: (sum(w), w), reverse=True)}


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
    for mat in m.ops:
        span.add(act(mat, vec))
    return span


def stabilizer_lie(m: ExplicitModule, x: Sequence) -> List[Sparse]:
    """Kernel of xi -> xi.x, as Chevalley coefficient vectors."""
    vec = _check_point(m, x)
    rows: Dict[int, Sparse] = {}
    for k, mat in enumerate(m.ops):
        for r, val in act(mat, vec).items():
            rows.setdefault(r, {})[k] = val
    return RowSpace(len(m.ops), rows.values()).kernel()


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
    """Lie algebra of the standard maximal unipotent subgroup, given by
    its simple root vectors e[i,i+1], which generate it.  Each span that
    t1 passes to fixed_in_quotient is u-stable, so they cut out the same
    fixed spaces as all the positive root vectors."""
    return StabilizerSpec(lie_part=tuple({k: Q(1)} for k in _simple(rd.rank + 1, 1)))


def lie_matrix(m: ExplicitModule, coeffs: Sparse) -> Matrix:
    """The action of the sparse Chevalley coefficient vector coeffs."""
    mats = m.ops
    bad = [k for k in coeffs if not 0 <= k < len(mats)]
    if bad:
        raise ValidationError(
            f"stabilizer vector index {bad[0]} is outside the {len(mats)} basis elements"
        )
    if len(coeffs) == 1:
        (k, c), = coeffs.items()
        if c == 1:
            return mats[k]  # shared with m.ops; callers only read it
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
    lowering = m.f
    for lam, vecs in highest_weight_vectors(m).items():
        space = RowSpace(m.dim, vecs)
        queue = list(vecs)
        while queue:
            v = queue.pop()
            for f in lowering:
                img = act(f, v)
                if space.add(img):
                    queue.append(img)
        comps.append((lam, [space.rows[pc] for pc in space.pivots]))
        total += space.dim
    assert total == m.dim, "module did not split into isotypic pieces"
    return comps
