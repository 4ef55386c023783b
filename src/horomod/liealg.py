"""Explicit sl_n modules as sparse integer matrices.

Chevalley conventions on the natural module of A_{n-1}: e_i is the
matrix unit E_{i,i+1}, f_i is E_{i+1,i}, h_i is E_{ii} - E_{i+1,i+1}
(1-based i).  Vectors are sparse {index: number} dicts (linalg.Sparse):
the Chevalley tables hold ints, a point read from integers holds ints,
and a vector holds a Fraction only where a value is not an integer: a
point entry read from p/q or a decimal, or a value read off a RowSpace.
Spans are linalg.RowSpaces; the functions here return those, and only
the CLI densifies, to print.  An operator is the map {column: its
nonzero entries as a sparse vector}, storing no zeros and no empty
column, so two operators are equal exactly when == says so, and applying
one to a vector reads only the columns in the vector's support.  act is
the one sum of sparse columns: lie_matrix forms each column with it.
The constructions are natural, dual, one block sum and one induction:
direct_sum places the operators of all its terms in blocks, and _induce
acts on sorted index tuples of a module by the Leibniz rule, with one
term per run of equal factors, times the run's length.  tensor induces
from the block sum of its factors on one index per factor, in
row-major order; power induces sym on sorted tuples and ext on strictly
increasing ones with Koszul signs, both in lexicographic order.

The full Chevalley basis of sl_n is ordered: e[i,j] for i < j in
lexicographic order (e[i,j] acting as E_{ij}), then f[i,j] for i < j
(acting as E_{ji}), then h[i] for i = 1..n-1.  _off_diagonal states this
order once; the labels, e, f and the Lie part of u are read off it.
Stabilizer coefficient vectors are sparse over this order.  A module is
its root datum, the weights of its basis and the action ops of this
basis; _module reads the weights off the diagonal h_k, so each
construction states only how the operators act.
Every fixed space comes from fixed_in_quotient: V^U is the fixed space
of the simple raising operators, and u is given by its r simple root
vectors, which generate it, so on a u-stable span they fix what u fixes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, combinations, combinations_with_replacement, groupby, product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DIM_CAP, ResourceError, ValidationError, binomial, check_size, clip
from .linalg import RowSpace, Sparse, read_rational, sparse, transpose
from .rootdata import RootDatum, Weight

Matrix = Dict[int, Sparse]

# Cap on the cost estimate of _check_point.  In process, at points of
# 1-12 long numerators or denominators, or of all short ones, on twelve
# modules of dimension 2-126 (the densest of them dim-21 and dim-45 A2
# and A3 modules, the sparsest the multicones A3-A6), the points at the
# cap run orbit-tangent, stabilizer and t1 each in 0.72 s at most.  At
# 138 random points of short entries with estimates of 1/5 of the cap
# to the cap, on the multicones A6-A9 and four other modules of
# dimension 210-231, the slowest t1 took 2.3 s (A8, support 97 of 510).
# With its own fill term, stabilizer at 320 points of both kinds, with
# estimates from 1/5 of the cap to the cap on those modules, took 0.84 s
# at most (dim-210 A20, support 51), and 0.13 s at most at the dense A8
# points it admits.  The flag points of the multicones A2-A11 are
# admitted.
_POINT_COST_CAP = 5 * 10**11


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


def _module(rd: RootDatum, dim: int, ops: Sequence[Matrix]) -> ExplicitModule:
    """The module of dim basis vectors acted on by ops, with weights the
    columns of the diagonals of the h_k, the last rank ops."""
    diagonals = [[h[j][j] if j in h else 0 for j in range(dim)] for h in ops[-rd.rank :]]
    return ExplicitModule(rd, tuple(zip(*diagonals)), tuple(ops))


def natural(rd: RootDatum) -> ExplicitModule:
    n = rd.rank + 1
    ops = [{q: {p: 1}} for p, q in _off_diagonal(n)]
    ops += [{k: {k: 1}, k + 1: {k + 1: -1}} for k in range(rd.rank)]
    return _module(rd, n, ops)


def dual(m: ExplicitModule) -> ExplicitModule:
    def neg_t(mat: Matrix) -> Matrix:
        return {r: {c: -v for c, v in row.items()} for r, row in transpose(mat).items()}

    return _module(m.rd, m.dim, [neg_t(x) for x in m.ops])


def direct_sum(*terms: ExplicitModule) -> ExplicitModule:
    """The sum of terms, over the one root datum build_module builds them
    on: each operator is the block sum of the terms' operators."""
    ops: List[Matrix] = [{} for _ in terms[0].ops]
    offset = 0
    for t in terms:
        for out, mat in zip(ops, t.ops):
            for c, col in mat.items():
                out[c + offset] = {r + offset: v for r, v in col.items()}
        offset += t.dim
    return _module(terms[0].rd, offset, ops)


def tensor(*factors: ExplicitModule) -> ExplicitModule:
    """The tensor product of factors, induced from their block sum on the
    tuples of one index per factor, in row-major order."""
    ends = list(accumulate(f.dim for f in factors))
    basis = product(*(range(end - f.dim, end) for f, end in zip(factors, ends)))
    return _induce(direct_sum(*factors), list(basis), False)


def power(name: str, k: int, m: ExplicitModule) -> ExplicitModule:
    """Degree-k power of m: sym on the sorted index tuples, ext on the
    strictly increasing ones, each in lexicographic order."""
    alternating = name == "ext"
    basis = (combinations if alternating else combinations_with_replacement)(range(m.dim), k)
    return _induce(m, list(basis), alternating)


def _induce(m: ExplicitModule, basis: List[Tuple[int, ...]], alternating: bool) -> ExplicitModule:
    """The module on basis, sorted index tuples of m, where each operator
    of m acts by the Leibniz rule: it replaces one factor at a time.  The
    copies of a repeated factor give one term, times their number: the
    new factor goes from the run's first position pos to the position j
    among the others that bisection finds.  An alternating term carries
    the Koszul sign (-1)^(pos - j), and a repeated index drops it.  Every
    replaced tuple must lie in basis."""
    index = {mono: i for i, mono in enumerate(basis)}
    # runs[u]: (tuple index, first position, length, other factors) per run of u
    runs: Dict[int, List[Tuple[int, int, int, Tuple[int, ...]]]] = {}
    for ci, mono in enumerate(basis):
        pos = 0
        for u, run in groupby(mono):
            length = len(list(run))
            runs.setdefault(u, []).append((ci, pos, length, mono[:pos] + mono[pos + 1 :]))
            pos += length

    def induced(mat: Matrix) -> Matrix:
        out: Matrix = {}
        for u, col in mat.items():
            for ci, pos, length, rest in runs.get(u, ()):
                target = out.setdefault(ci, {})
                for v, val in col.items():
                    j = bisect_left(rest, v)
                    if alternating:
                        if rest[j : j + 1] == (v,):
                            continue
                        if (pos - j) & 1:
                            val = -val
                    r = index[rest[:j] + (v,) + rest[j:]]
                    total = target.get(r, 0) + val * length
                    if total:
                        target[r] = total
                    else:
                        del target[r]
        return _nonempty(out)

    return _module(m.rd, len(basis), [induced(x) for x in m.ops])


# ---------------------------------------------------------------- parser

_TOKEN_NAMES = {"natural", "dual", "tensor", "sum", "sym", "ext"}
# Each level of nesting is one recursive call of the parser.
_MAX_DEPTH = 100


def _tokenize(expr: str) -> List[str]:
    """Runs of digits and runs of letters are tokens, and so is each of
    "(", ")" and ","; whitespace separates them.  Each character is
    keyed once: "0" for a digit, "a" for a letter, else itself."""
    out: List[str] = []
    for key, run in groupby(expr, lambda ch: "0" if ch.isdigit() else "a" if ch.isalpha() else ch):
        if key in ("0", "a"):
            out.append("".join(run))
        elif key in "(),":
            out.extend(run)
        elif not key.isspace():
            raise ValidationError(f"bad character {key!r} in module expression")
    return out


def build_module(rd: RootDatum, expr: str, cap: int = DIM_CAP) -> ExplicitModule:
    """Parse expressions like sum(natural(4),ext(2,natural(4))), then
    build the module.  The nesting depth is bounded before parsing.  The
    parse folds dimensions, checking the cap on each sym and ext and on a
    sum or tensor product as each term is folded in, and once more on the
    whole expression, so nothing is built until it parses and fits.  A
    number is a run of decimal digits, which linalg.read_rational reads."""
    toks = _tokenize(expr)
    depth = 0
    for t in toks:
        depth += (t == "(") - (t == ")")
        if depth > _MAX_DEPTH:
            raise ResourceError(f"module expression nests deeper than {_MAX_DEPTH}")
    toks.reverse()

    def eat(expected: Optional[str] = None) -> str:
        if not toks:
            raise ValidationError("unexpected end of module expression")
        t = toks.pop()
        if expected is not None and t != expected:
            raise ValidationError(f"expected {expected!r}, got {clip(t)!r}")
        return t

    def number() -> int:
        t = eat()
        if not t.isdecimal():
            raise ValidationError(f"expected a number, got {clip(t)!r}")
        return read_rational(t)

    def fits(dim: int) -> int:
        return check_size("module dimension", dim, cap)

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
            if name == "ext" and k > dim:
                raise ValidationError("ext degree out of range")
            n = dim + k - 1 if name == "sym" else dim
            return fits(binomial(n, k)), lambda: power(name, k, inner())
        is_tensor = name == "tensor"
        dim, first = parse()
        terms = [first]
        while toks[-1:] == [","]:
            eat(",")
            d, term = parse()
            dim = fits(dim * d if is_tensor else dim + d)
            terms.append(term)
        eat(")")
        return dim, lambda: (tensor if is_tensor else direct_sum)(*(t() for t in terms))

    dim, build = parse()
    if toks:
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


def u_coinvariants(m: ExplicitModule) -> Tuple[int, ...]:
    """The U-coinvariants: the basis indices off the pivots of the span
    of all raising images, whose images form a basis of the quotient.

    Images of the simple raising operators already span the images of
    every positive root vector, since each of those is an iterated
    commutator of simple ones.
    """
    span = RowSpace(m.dim)
    for e in m.e:
        for col in e.values():
            span.add(col)
    return tuple(i for i in range(m.dim) if i not in span.primitive)


def orbit_tangent(m: ExplicitModule, x: Sequence) -> RowSpace:
    """The span g.x of all Chevalley basis images of x."""
    vec = _check_point(m, x)
    span = RowSpace(m.dim)
    for mat in m.ops:
        span.add(act(mat, vec))
    return span


def stabilizer_lie(m: ExplicitModule, x: Sequence) -> List[Sparse]:
    """Kernel of xi -> xi.x, as Chevalley coefficient vectors."""
    vec = _check_point(m, x, stabilizer=True)
    rows = transpose({k: act(mat, vec) for k, mat in enumerate(m.ops)})
    return RowSpace(len(m.ops), rows.values()).kernel()


def _check_point(m: ExplicitModule, x: Sequence, stabilizer: bool = False) -> Sparse:
    """x as a sparse vector, after checking its length and the cost
    estimate of the eliminations at x against _POINT_COST_CAP.

    Cleared of denominators, the vectors those eliminations read have
    entries of about h bits, h the bits of the distinct denominators and
    of the distinct numerators of x together, and eliminating to rank
    rho = min(dim, ops) without fractions makes entries of up to rho*h
    bits, ops the Chevalley basis.  The orbit map has dim*ops entries and
    t1 reduces about dim more vectors of dim entries, so the digits cost
    dim*(dim+ops) products of that size, each costing (rho*h)^2.

    Short entries cost by the support s of x instead.  A Chevalley
    operator sends a basis vector to a few others, so the orbit vectors
    have about s nonzeros, and each of the dim+ops vectors the
    eliminations add clears up to rho pivots on rows that fill in with
    s as well: about rho*s^2 products per vector, each costing at least
    a 32-bit word squared.  The stabilizer eliminates the rows of the
    orbit map instead, which have ops columns, so there they fill in
    with min(s, ops).  The estimate is the sum of both costs, read off
    the point before any RowSpace is built."""
    if len(x) != m.dim:
        raise ValidationError(f"point has length {len(x)}, module dimension {m.dim}")
    vec = sparse(x)
    h = sum(q.bit_length() for q in {v.denominator for v in vec.values()} if q > 1)
    h += sum(p.bit_length() for p in {abs(v.numerator) for v in vec.values()})
    rho = min(m.dim, len(m.ops))
    s = min(len(vec), len(m.ops)) if stabilizer else len(vec)
    digits = m.dim * (rho * h) ** 2
    support = rho * (32 * s) ** 2
    if (m.dim + len(m.ops)) * (digits + support) > _POINT_COST_CAP:
        hint = (
            "shorten the numerators and denominators of the point"
            if digits >= support
            else "give the point fewer nonzero entries"
        )
        raise ResourceError(f"point cost estimate exceeds the cap {_POINT_COST_CAP}; {hint}")
    return vec


# ------------------------------------------------------------ stabilizers


def unipotent_radical_spec(rd: RootDatum) -> Tuple[Sparse, ...]:
    """Lie algebra of the standard maximal unipotent subgroup, given by
    its simple root vectors e[i,i+1] as sparse Chevalley coefficient
    vectors, which generate it.  Each span that t1 passes to
    fixed_in_quotient is u-stable, so they cut out the same fixed spaces
    as all the positive root vectors."""
    return tuple({k: 1} for k in _simple(rd.rank + 1, 1))


def lie_matrix(m: ExplicitModule, coeffs: Sparse) -> Matrix:
    """The action of the sparse Chevalley coefficient vector coeffs."""
    mats = m.ops
    columns = dict.fromkeys(c for k in coeffs for c in mats[k])
    out = {c: act({k: mats[k][c] for k in coeffs if c in mats[k]}, coeffs) for c in columns}
    return _nonempty(out)


def fixed_in_quotient(
    span: RowSpace, lie: Sequence[Matrix], passing: Sequence[int]
) -> List[Sparse]:
    """Fixed subspace of M / span under a stabilizer whose Lie part acts
    on M by the matrices lie, and whose diagonalizable part fixes the
    basis vectors passing, those of the weights it acts trivially on,
    and no others.

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
        images = {position[p]: span.reduce(col) for p, col in mat.items() if p in position}
        rows.extend(transpose(images).values())
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
        [{q: x for q, x in row.items() if q not in passing_set} for row in span.primitive.values()],
    )
    s_triv_dim = span.dim - off_passing.dim
    reps = [w for w in w_basis if span.add(w)]
    assert len(reps) == len(w_basis) - s_triv_dim
    return reps


def isotypic_components(m: ExplicitModule) -> List[Tuple[Weight, List[Sparse]]]:
    """Decomposition into isotypic pieces: highest weight vectors closed
    under the lowering operators.  Each piece comes with the sparse
    reduced basis of its span, in pivot order.  Every basis vector is a
    T-weight vector, its support inside one weight space: the span is
    the sum of its intersections with the weight spaces, which lie on
    disjoint coordinates, so each reduced row lies in one of them."""
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
        comps.append((lam, list(space.rows.values())))
        total += space.dim
    assert total == m.dim, "module did not split into isotypic pieces"
    return comps
