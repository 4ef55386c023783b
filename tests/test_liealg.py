from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ResourceError, ValidationError
from horomod import liealg as la
from horomod import repcalc, rootdata as rda
from horomod.linalg import RowSpace

A1 = rda.make_root_datum("A1")
A2 = rda.make_root_datum("A2")
A3 = rda.make_root_datum("A3")


def unit(dim, *pairs):
    v = [Q(0)] * dim
    for i, c in pairs:
        v[i] = Q(c)
    return tuple(v)


# ------------------------------------------- the commutator route, an oracle


def pruned(mat):
    """mat without its zero entries and empty columns."""
    out = {}
    for c, col in mat.items():
        col = {r: x for r, x in col.items() if x}
        if col:
            out[c] = col
    return out


def mat_commutator(a, b):
    """[a, b], whose column c is a(b[c]) - b(a[c])."""
    out = {}
    for c in a.keys() | b.keys():
        col = la.act(a, b[c]) if c in b else {}
        for r, x in (la.act(b, a[c]) if c in a else {}).items():
            v = col.get(r)
            col[r] = -x if v is None else v - x
        out[c] = col
    return pruned(out)


def chevalley_matrices(m):
    """The full Chevalley table from commutators of the simple generators
    alone: e[i,j] as E_{ij} = [E_{i,i+1}, E_{i+1,j}] and f[i,j] as
    E_{ji} = [E_{j,i+1}, E_{i+1,i}], in label order."""
    n = m.rd.rank + 1
    upper = {}
    lower = {}
    for i in range(1, n):
        upper[(i, i + 1)] = m.e[i - 1]
        lower[(i, i + 1)] = m.f[i - 1]
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            upper[(i, j)] = mat_commutator(upper[(i, i + 1)], upper[(i + 1, j)])
            lower[(i, j)] = mat_commutator(lower[(i + 1, j)], lower[(i, i + 1)])
    keys = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return [upper[k] for k in keys] + [lower[k] for k in keys] + list(m.ops[-m.rd.rank:])


def check_brackets(m):
    """Assert the defining relations hold on this module."""
    r = m.rd.rank
    h = m.ops[-r:]
    for i in range(r):
        for j in range(r):
            cij = m.rd.cartan[i][j]
            assert mat_commutator(h[i], m.e[j]) == la.mat_combination([(Q(cij), m.e[j])])
            assert mat_commutator(h[i], m.f[j]) == la.mat_combination([(Q(-cij), m.f[j])])
            assert mat_commutator(m.e[i], m.f[j]) == (h[i] if i == j else {})
    for idx, w in enumerate(m.basis_weights):
        for i in range(r):
            col = h[i].get(idx, {})
            assert set(col) <= {idx}, "h is not diagonal on the weight basis"
            assert col.get(idx, 0) == w[i]


def check_one_route(m):
    """m.ops is the commutator-built table, and the relations hold."""
    assert list(m.ops) == chevalley_matrices(m)
    check_brackets(m)


def _sort_sign(seq):
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


def sorted_power_ops(name, k, m):
    """The ops of sym^k m or ext^k m with each replaced tuple sorted in
    full, its sign (ext) from _sort_sign."""
    alternating = name == "ext"
    basis = list((combinations if alternating else combinations_with_replacement)(range(m.dim), k))
    index = {mono: i for i, mono in enumerate(basis)}
    ops = []
    for mat in m.ops:
        out = {}
        for ci, mono in enumerate(basis):
            for pos, u in enumerate(mono):
                for v, val in mat.get(u, {}).items():
                    new = list(mono)
                    new[pos] = v
                    sg = _sort_sign(new) if alternating else 1
                    if sg:
                        target = out.setdefault(ci, {})
                        r = index[tuple(sorted(new))]
                        target[r] = target.get(r, 0) + sg * val
        ops.append(pruned(out))
    return ops


def multicone(r):
    """The sum of the fundamental modules of A_r."""
    n = r + 1
    return "sum(" + ",".join([f"natural({n})"] + [f"ext({k},natural({n}))" for k in range(2, n)]) + ")"


def fixed_space(m, span, stab):
    """fixed_in_quotient of m modulo span under stab, as t1 calls it."""
    lie = [la.lie_matrix(m, c) for c in stab.lie_part]
    return la.fixed_in_quotient(span, lie, stab.passing(m.basis_weights))


def test_natural_shapes():
    m = la.natural(A3)
    assert m.dim == 4
    assert m.basis_weights[0] == (1, 0, 0)
    assert m.basis_weights[3] == (0, 0, -1)
    check_one_route(m)


def test_sym_square_a1():
    m = la.build_module(A1, "sym(2,natural(2))")
    assert m.dim == 3
    assert set(m.basis_weights) == {(2,), (0,), (-2,)}
    check_brackets(m)


def test_parser_rejects_garbage():
    with pytest.raises(ValidationError):
        la.build_module(A1, "spin(2)")
    with pytest.raises(ValidationError):
        la.build_module(A1, "natural(3)")
    with pytest.raises(ValidationError):
        la.build_module(A1, "sym(2,natural(2)))")
    with pytest.raises(ResourceError):
        la.build_module(A1, "sym(40,natural(2))", cap=10)
    for expr in ("sym(x,natural(2))", "natural()", "ext(,natural(2))", "natural(\u00b2)"):
        with pytest.raises(ValidationError, match="expected a number"):
            la.build_module(A1, expr)
    # The depth is counted on the tokens: no recursion for 1 200 levels.
    with pytest.raises(ResourceError, match="nests deeper"):
        la.build_module(A1, "dual(" * 1200 + "natural(2)" + ")" * 1200)
    with pytest.raises(ResourceError):
        la.build_module(A1, "sum(sym(6,natural(2)),sym(6,natural(2)))", cap=10)


EXPRS_A1 = [
    "natural(2)",
    "dual(natural(2))",
    "sym(3,natural(2))",
    "tensor(natural(2),natural(2))",
    "sum(natural(2),sym(2,natural(2)))",
]

EXPRS_A3 = [
    "natural(4)",
    "ext(2,natural(4))",
    "ext(3,natural(4))",
    "dual(ext(2,natural(4)))",
    "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))",
    "sym(2,ext(2,natural(4)))",
    "ext(2,sym(2,natural(4)))",
]


@pytest.mark.parametrize("expr", EXPRS_A1)
def test_brackets_a1(expr):
    check_one_route(la.build_module(A1, expr))


@pytest.mark.parametrize("expr", EXPRS_A3)
def test_brackets_a3(expr):
    check_one_route(la.build_module(A3, expr))


@pytest.mark.parametrize("rank", range(1, 8))
def test_multicone_table_matches_the_commutator_route(rank):
    rd = rda.make_root_datum(f"A{rank}")
    check_one_route(la.natural(rd))
    check_one_route(la.build_module(rd, multicone(rank)))


@pytest.mark.parametrize("n", range(2, 7))
def test_power_signs_match_a_full_sort(n):
    nat = la.natural(rda.make_root_datum(f"A{n - 1}"))
    for k in range(n + 1):
        assert list(la.ext(k, nat).ops) == sorted_power_ops("ext", k, nat)
    for k in range(4):
        assert list(la.sym(k, nat).ops) == sorted_power_ops("sym", k, nat)


def test_power_signs_match_a_full_sort_on_a_power_of_a_power():
    inner = la.sym(2, la.natural(A3))
    assert list(la.ext(2, inner).ops) == sorted_power_ops("ext", 2, inner)
    assert list(la.sym(2, inner).ops) == sorted_power_ops("sym", 2, inner)


def test_ext_signs():
    m = la.build_module(A3, "ext(2,natural(4))")
    # f3 sends e3 to e4, so on e3^e4 the only term is e4^e4 = 0
    idx = {mono: i for i, mono in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])}
    assert la.act(m.f[2], {idx[(2, 3)]: Q(1)}) == {}
    # f3 on e1^e3 gives e1^e4
    assert la.act(m.f[2], {idx[(0, 2)]: Q(1)}) == {idx[(0, 3)]: 1}


def hwv_by_weight_blocks(m):
    """Oracle: V^U weight block by weight block, dominant weights in
    descending (sum, weight) order, each the kernel of the rows of the
    simple raising operators on that block."""
    blocks = {}
    for idx, w in enumerate(m.basis_weights):
        blocks.setdefault(w, []).append(idx)
    out = {}
    for chi in sorted(blocks, key=lambda w: (sum(w), w), reverse=True):
        if any(c < 0 for c in chi):
            continue
        src = blocks[chi]
        rows = {}
        for i, e in enumerate(m.e):
            for j, s in enumerate(src):
                for t, val in e.get(s, {}).items():
                    rows.setdefault((i, t), {})[j] = val
        kern = RowSpace(len(src), rows.values()).kernel()
        if kern:
            out[chi] = [{src[j]: val for j, val in k.items()} for k in kern]
    return out


HWV_ORACLE_MODULES = (
    [(A3, "natural(4)")]
    + [(A1, expr) for expr in EXPRS_A1]
    + [(A3, expr) for expr in EXPRS_A3]
    + [(rda.make_root_datum(f"A{r}"), multicone(r)) for r in range(1, 8)]
)


@pytest.mark.parametrize(
    "rd,expr", HWV_ORACLE_MODULES, ids=[f"{rd.label}-{expr}" for rd, expr in HWV_ORACLE_MODULES]
)
def test_hwv_matches_the_weight_block_kernel(rd, expr):
    m = la.build_module(rd, expr)
    hw = la.highest_weight_vectors(m)
    want = hwv_by_weight_blocks(m)
    # Equal as dicts, in the same key order, each weight's vectors in order.
    assert list(hw.items()) == list(want.items())


def test_hwv_tensor_a1():
    m = la.build_module(A1, "tensor(natural(2),natural(2))")
    hw = la.highest_weight_vectors(m)
    assert sorted(hw) == [(0,), (2,)]
    assert len(hw[(2,)]) == 1 and len(hw[(0,)]) == 1


@pytest.mark.parametrize(
    "rd,expr",
    [
        (A2, "tensor(natural(3),natural(3))"),
        (A3, "tensor(natural(4),ext(2,natural(4)))"),
        (A1, "tensor(sym(2,natural(2)),sym(3,natural(2)))"),
    ],
)
def test_hwv_matches_tensor_decomposition(rd, expr):
    m = la.build_module(rd, expr)
    hw = la.highest_weight_vectors(m)
    inner = expr[len("tensor(") : -1]
    depth = 0
    for k, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            left, right = inner[:k], inner[k + 1 :]
            break
    ml, mr = la.build_module(rd, left), la.build_module(rd, right)
    toph = {w: vs for w, vs in la.highest_weight_vectors(ml).items()}
    lam = max(toph, key=lambda w: sum(w))
    mu = max(la.highest_weight_vectors(mr), key=lambda w: sum(w))
    dec = repcalc.tensor_decompose(rd, lam, mu)
    assert {w: len(vs) for w, vs in hw.items()} == dec


def test_coinvariants_sym_a1():
    for n in (1, 2, 5):
        m = la.build_module(A1, f"sym({n},natural(2))")
        co = la.u_coinvariants(m)
        assert co.dim == 1
        assert co.rep_weights == ((-n,),)


def test_coinvariants_natural_a3():
    co = la.u_coinvariants(la.natural(A3))
    assert co.dim == 1
    assert co.rep_weights == ((0, 0, -1),)
    assert co.rep_weights[0] == rda.lowest_weight(A3, (1, 0, 0))


def test_coinvariants_match_hwv_count():
    m = la.build_module(A1, "tensor(sym(2,natural(2)),sym(2,natural(2)))")
    hw = la.highest_weight_vectors(m)
    co = la.u_coinvariants(m)
    assert co.dim == sum(len(v) for v in hw.values())


def test_chevalley_dim():
    mats = la.natural(A3).ops
    assert len(mats) == 15
    assert len(la.chevalley_labels(A3)) == 15
    # e[1,3] acts as E_{13} on the natural module
    idx = la.chevalley_labels(A3).index("e[1,3]")
    assert mats[idx] == {2: {0: Q(1)}}


def test_adjoint_brackets_and_weights():
    for rd in (A1, A2, A3):
        ad = adjoint_module(rd)
        check_brackets(ad)
        assert ad.dim == (rd.rank + 1) ** 2 - 1
        hw = la.highest_weight_vectors(ad)
        theta = {1: (2,), 2: (1, 1), 3: (1, 0, 1)}[rd.rank]
        assert list(hw) == [theta]


def x0_slfour():
    m = la.build_module(A3, "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))")
    x0 = unit(14, (0, 1), (4, 1), (10, 1))
    return m, x0


def test_orbit_and_stabilizer_slfour():
    m, x0 = x0_slfour()
    assert la.orbit_tangent(m, x0).dim == 9
    stab = la.stabilizer_lie(m, x0)
    assert len(stab) == 6
    # the stabilizer is the full upper triangular nilradical
    labels = la.chevalley_labels(A3)
    assert all(all(vec.values()) for vec in stab)  # sparse: no stored zeros
    span = {labels[k] for vec in stab for k in vec}
    assert span == {"e[1,2]", "e[1,3]", "e[1,4]", "e[2,3]", "e[2,4]", "e[3,4]"}


def test_stabilizer_top_monomial():
    m = la.build_module(A1, "sym(3,natural(2))")
    x = unit(4, (0, 1))
    stab = la.stabilizer_lie(m, x)
    assert stab == [{0: 1}]


def test_fixed_subspace_congruence():
    # mod-n torus component on degree-n binary forms, Lie part e
    for n, expected in [(2, 1), (3, 1), (4, 1)]:
        m = la.build_module(A1, f"sym({n},natural(2))")
        stab = la.StabilizerSpec(
            lie_part=({0: Q(1)},),
            diag_part=(la.DiagCongruence((1,), n),),
        )
        fixed = fixed_space(m, RowSpace(m.dim), stab)
        assert len(fixed) == expected
        assert fixed[0] == {0: 1}


def test_fixed_in_quotient_binary_forms():
    expected = {1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 0}
    for n, want in expected.items():
        m = la.build_module(A1, f"sym({n},natural(2))")
        x = unit(m.dim, (0, 1))
        stab = la.StabilizerSpec(
            lie_part=({0: Q(1)},),
            diag_part=(la.DiagCongruence((1,), n),),
        )
        reps = fixed_space(m, la.orbit_tangent(m, x), stab)
        assert len(reps) == want, f"n={n}"
        if n in (2, 4):
            assert reps == [{2: 1}]


def test_fixed_in_quotient_slfour():
    m, x0 = x0_slfour()
    span = la.orbit_tangent(m, x0)
    named = RowSpace(14, [span.rows[pc] for pc in span.pivots])
    reps = fixed_space(m, span, la.unipotent_radical_spec(A3))
    assert len(reps) == 2
    # classes of e1^e4 (index 6) and e2^e3 (index 7) span the fixed space;
    # fixed_in_quotient has added the representatives to span
    wedges = [{6: 1}, {7: 1}]
    for w in wedges:
        named.add(w)
    assert span.dim == named.dim == 9 + 2
    assert all(span.contains(w) for w in wedges)
    assert all(named.contains(r) for r in reps)


def test_isotypic_components_sum():
    m, _ = x0_slfour()
    comps = la.isotypic_components(m)
    assert sorted((lam, len(rows)) for lam, rows in comps) == [
        ((0, 0, 1), 4),
        ((0, 1, 0), 6),
        ((1, 0, 0), 4),
    ]


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 4), st.integers(0, 3))
def test_sym_dim_formula(n, k):
    m = la.build_module(A1, f"sym({n},natural(2))")
    w = la.build_module(A1, f"sym({k},sym({n},natural(2)))") if k else None
    assert m.dim == n + 1
    if w is not None:
        assert w.dim == comb(n + k, k)


def test_power_cap_is_checked_before_listing_the_basis(monkeypatch):
    def unlisted(*args):
        raise AssertionError("basis listed before the cap check")

    monkeypatch.setattr(la, "combinations_with_replacement", unlisted)
    with pytest.raises(ResourceError):
        la.build_module(rda.make_root_datum("A19"), "sym(6,natural(20))", cap=10)


def test_binomial_is_exact_below_the_digit_limit():
    big = 10**4300
    for n, k in [(10, 3), (2000, 1000), (big, 1), (big - 1, 1), (big + 5, 5), (7 * 10**500, 9)]:
        got, want = la._binomial(n, k), comb(n, k)
        assert got == want or got == big < want
    # past it, (n/d)^d alone decides, for any size of n
    assert la._binomial(10**4300 + 1999, 1999) == big


def _bracket_coords(rd, x, y):
    """Oracle: coordinates of [X, Y] in the Chevalley basis order, from
    plain n x n matrix products, X and Y given as basis indices."""
    n = rd.rank + 1
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    off = upper + [(j, i) for i, j in upper]

    def dense(k):
        mat = [[0] * n for _ in range(n)]
        if k < len(off):
            p, q = off[k]
            mat[p][q] = 1
        else:
            i = k - len(off)
            mat[i][i], mat[i + 1][i + 1] = 1, -1
        return mat

    a, b = dense(x), dense(y)
    c = [
        [sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    coords = {k: Q(c[p][q]) for k, (p, q) in enumerate(off) if c[p][q]}
    partial = 0
    for i in range(rd.rank):
        partial += c[i][i]
        if partial:
            coords[len(off) + i] = Q(partial)
    return coords


def adjoint_module(rd):
    """Oracle: sl_n acting on itself, coordinates in the Chevalley basis
    order.  Column y of the x-th operator is _bracket_coords(rd, x, y);
    the weights are the roots eps_p - eps_q of the E_pq, then zeros."""
    n = rd.rank + 1
    dim = n * n - 1
    ops = tuple(
        {y: col for y in range(dim) if (col := _bracket_coords(rd, x, y))}
        for x in range(dim)
    )
    nat = la.natural(rd).basis_weights
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [tuple(a - b for a, b in zip(nat[p], nat[q])) for p, q in upper + [(j, i) for i, j in upper]]
    weights = tuple(roots) + ((0,) * rd.rank,) * rd.rank
    return la.ExplicitModule(rd, weights, ops)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_adjoint_table_is_the_bracket(rank):
    """The oracle's coordinates of [X, Y], read back through the natural
    module's operators, are the commutator of X and Y acting there."""
    rd = rda.make_root_datum(f"A{rank}")
    ad = adjoint_module(rd)
    nat = la.natural(rd)
    assert len(ad.ops) == ad.dim
    for x, mat in enumerate(ad.ops):
        for y in range(ad.dim):
            assert la.lie_matrix(nat, mat.get(y, {})) == mat_commutator(nat.ops[x], nat.ops[y])


@pytest.mark.parametrize("rank", range(1, 7))
def test_adjoint_table_matches_the_commutator_route(rank):
    rd = rda.make_root_datum(f"A{rank}")
    ad = adjoint_module(rd)
    # chevalley_matrices builds a table from the simple entries alone.
    assert list(ad.ops) == chevalley_matrices(ad)
    if rank <= 5:
        check_brackets(ad)


def test_lie_matrix_of_a_unit_vector_is_the_chevalley_matrix():
    m = la.build_module(A2, "sum(natural(3),ext(2,natural(3)))")
    mats = m.ops
    for k, mat in enumerate(mats):
        assert la.lie_matrix(m, {k: Q(1)}) is mat
    assert la.lie_matrix(m, {1: Q(3)}) == la.mat_combination([(Q(3), mats[1])])
    assert la.lie_matrix(m, {0: Q(2), 3: Q(-1)}) == la.mat_combination(
        [(Q(2), mats[0]), (Q(-1), mats[3])]
    )
    with pytest.raises(ValidationError, match="outside the 8 basis elements"):
        la.lie_matrix(m, {8: Q(1)})
