from fractions import Fraction as Q
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import MAX_DIGITS, ValidationError
from horomod.linalg import RowSpace, echelon, in_lattice, read_rational
from oracles import FractionRowSpace

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def matrices(draw, min_rows=0):
    """Small integer matrices, zeros frequent, with a zero row and
    repeated rows mixed in."""
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=min_rows, max_size=6))
    if rows and draw(st.booleans()):
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


def dense(vec, ncols):
    return tuple(vec.get(c, 0) for c in range(ncols))


def _basis(space):
    """The reduced rows, dense, in pivot order."""
    return [dense(row, space.ncols) for row in space.rows.values()]


def _times(row, vec):
    return sum(Q(a) * b for a, b in zip(row, vec))


@PROPERTY
@given(matrices(min_rows=1), st.randoms(use_true_random=False))
def test_rref_is_idempotent_and_ignores_row_order(mat, rnd):
    ncols, rows = mat
    space = RowSpace(ncols, rows)
    red, pivots = _basis(space), list(space.rows)
    again = RowSpace(ncols, red)
    assert (_basis(again), list(again.rows)) == (red, pivots)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    reordered = RowSpace(ncols, shuffled)
    assert (_basis(reordered), list(reordered.rows)) == (red, pivots)
    for row, pc in zip(red, pivots):
        assert row[pc] == 1 and all(x == 0 for x in row[:pc])
        assert all(other[pc] == 0 for other in red if other is not row)


@PROPERTY
@given(matrices())
def test_rank_nullity_and_kernel_is_annihilated(mat):
    ncols, rows = mat
    kern = RowSpace(ncols, rows).kernel()
    assert RowSpace(ncols, rows).dim + len(kern) == ncols
    assert all(_times(row, dense(k, ncols)) == 0 for row in rows for k in kern)
    assert RowSpace(ncols, kern).dim == len(kern)


@PROPERTY
@given(matrices(), st.lists(st.sampled_from([0, 1, -2]), min_size=6, max_size=6))
def test_dense_and_sparse_input_give_one_row_space(mat, probe):
    ncols, rows = mat
    from_dense = RowSpace(ncols, rows)
    from_sparse = RowSpace(ncols, [{c: x for c, x in enumerate(row) if x} for row in rows])
    assert from_dense.rows == from_sparse.rows
    assert list(from_dense.rows) == list(from_sparse.rows)
    assert _basis(from_dense) == _basis(from_sparse)
    vec = probe[:ncols]
    residual = from_dense.reduce(vec)
    assert residual == from_sparse.reduce({c: x for c, x in enumerate(vec) if x})
    assert all(x != 0 for x in residual.values())
    assert from_sparse.reduce(dict(enumerate(vec))) == residual


def test_rows_stay_reduced_and_sparse():
    space = RowSpace(4)
    assert space.add({3: 2, 1: 1})
    assert space.add([0, 1, 0, 0])
    assert not space.add({1: Q(5), 3: Q(-7)})
    assert not space.add([0, 0, 0, 0])
    assert list(space.rows) == [1, 3]
    assert space.rows == {1: {1: 1}, 3: {3: 1}}
    assert _basis(space) == [(0, 1, 0, 0), (0, 0, 0, 1)]
    assert space.kernel() == [{0: 1}, {2: 1}]


@PROPERTY
@given(matrices(min_rows=1))
def test_rows_read_before_an_add_are_read_again_after_it(mat):
    """rows is built on each read, so a read after an add is the reduced
    rows of the grown space."""
    ncols, rows = mat
    space = RowSpace(ncols, rows[:-1])
    space.rows
    space.add(rows[-1])
    assert space.rows == RowSpace(ncols, rows).rows


@PROPERTY
@given(matrices(min_rows=1), st.randoms(use_true_random=False))
def test_rows_are_keyed_in_increasing_pivot_order(mat, rnd):
    """Whatever order the rows are added in, rows lists the pivots in
    increasing order."""
    ncols, rows = mat
    rnd.shuffle(rows)
    space = RowSpace(ncols)
    for row in rows:
        space.add(row)
    assert list(space.rows) == sorted(space.primitive)


def test_integral_values_are_ints():
    """A reduced row, a kernel vector or a residual holds an int at each
    integral entry, not a Fraction of denominator one."""
    assert [type(x) for x in RowSpace(2, [[2, 3]]).rows[0].values()] == [int, Q]
    kernel = RowSpace(3, [[2, 4, 3]]).kernel()
    assert kernel == [{1: 1, 0: -2}, {2: 1, 0: Q(-3, 2)}]
    assert [type(x) for x in kernel[0].values()] == [int, int]
    residual = RowSpace(2, [[1, 0]]).reduce([Q(1, 2), 2])
    assert residual == {1: 2} and type(residual[1]) is int


def test_rref_and_rank_match_sympy():
    sympy = pytest.importorskip("sympy")

    @PROPERTY
    @given(matrices(min_rows=1))
    def check(mat):
        ncols, rows = mat
        red, pivots = sympy.Matrix(rows).rref()
        expected = [tuple(Q(int(x.p), int(x.q)) for x in red.row(i)) for i in range(len(pivots))]
        space = RowSpace(ncols, rows)
        assert (_basis(space), list(space.rows)) == (expected, list(pivots))
        assert space.dim == len(pivots)

    check()


@PROPERTY
@given(matrices())
def test_integer_rows_give_the_fraction_row_space(mat):
    """{col: int} rows, as channels.law_tangent feeds them, reduce exactly
    as the same rows given as Fractions, and every entry of the reduced
    rows is an exact int or Fraction, never a float (int / int would be
    one)."""
    ncols, rows = mat
    ints = RowSpace(ncols, [{c: x for c, x in enumerate(row) if x} for row in rows])
    fracs = RowSpace(ncols, [{c: Q(x) for c, x in enumerate(row) if x} for row in rows])
    assert list(ints.rows) == list(fracs.rows)
    assert ints.rows == fracs.rows
    assert all(type(x) in (int, Q) for row in ints.rows.values() for x in row.values())


# Two denominators of MAX_DIGITS digits, the longest a point may spell.
LONG = [Q(1, 10 ** (MAX_DIGITS - 1) + 7), Q(-3, 10**MAX_DIGITS - 1)]


@st.composite
def rational_matrices(draw):
    """Small matrices of integers and fractions, some with denominators
    of MAX_DIGITS digits, and a probe vector drawn the same way."""
    ncols = draw(st.integers(1, 6))
    pool = draw(st.sampled_from([
        [0, 0, 0, 1, -1, 2, -3],
        [0, 0, 1, -1, Q(1, 2), Q(-2, 3), Q(5, 6), 4],
        [0, 0, 0, 1, -2] + LONG,
    ]))
    entry = st.sampled_from(pool)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        scale = draw(st.sampled_from([2, -3, Q(1, 3)] + LONG))
        rows.append([scale * x for x in draw(st.sampled_from(rows))])
    return ncols, rows, draw(row)


@PROPERTY
@given(rational_matrices())
def test_integer_elimination_matches_the_fraction_oracle(mat):
    """pivots, reduced rows, residuals, membership and kernel equal those
    of Gauss-Jordan over Fraction; every stored row is a primitive
    integer row, positive at its pivot and 0 at every other pivot."""
    ncols, rows, probe = mat
    space, oracle = RowSpace(ncols, rows), FractionRowSpace(ncols, rows)
    assert list(space.rows) == oracle.pivots
    assert space.rows == oracle.rows
    assert space.kernel() == oracle.kernel()
    for vec in rows + [probe]:
        assert space.reduce(vec) == oracle.reduce(vec)
        assert (not space.reduce(vec)) == oracle.contains(vec)
    assert set(space.primitive) == set(space.rows)
    for pc, row in space.primitive.items():
        assert all(type(x) is int and x for x in row.values())
        assert row[pc] > 0 and gcd(*row.values()) == 1
        assert not set(row) & set(space.rows) - {pc}
    for sparse_vec in (space.reduce(probe), *space.rows.values(), *space.kernel()):
        assert all(type(x) in (int, Q) for x in sparse_vec.values())


def test_kernel_matches_sympy():
    """RowSpace.kernel gives sympy's nullspace basis, vector for vector."""
    sympy = pytest.importorskip("sympy")

    def exact(entries):
        return tuple(Q(int(x.p), int(x.q)) for x in entries)

    @PROPERTY
    @given(matrices(min_rows=1))
    def check(mat):
        ncols, rows = mat
        kern = [dense(k, ncols) for k in RowSpace(ncols, rows).kernel()]
        assert kern == [exact(v) for v in sympy.Matrix(rows).nullspace()]

    check()


@pytest.mark.parametrize(
    "text, value",
    [("3", Q(3)), ("-3/4", Q(-3, 4)), ("+6/4", Q(3, 2)), ("0.25", Q(1, 4)), ("-.5", Q(-1, 2)),
     ("5.", Q(5)), (" 7 ", Q(7)), ("9" * MAX_DIGITS, Q(10**MAX_DIGITS - 1)),
     ("1/" + "1" + "0" * (MAX_DIGITS - 1), Q(1, 10 ** (MAX_DIGITS - 1))),
     ("7", 7), ("-0", 0), (" +12 ", 12), ("4/2", Q(2)), ("0.5", Q(1, 2))],
)
def test_read_rational_reads_integers_fractions_and_decimals(text, value):
    """An integer spelling reads as an int; p/q and a decimal read as a
    Fraction, even where the value is integral."""
    x = read_rational(text)
    assert x == value
    assert type(x) is (Q if "/" in text or "." in text else int)


@pytest.mark.parametrize(
    "text", ["1e5", "1E-3", "2.5e1", "", "-", "1/", "/2", "1/2/3", "1.5/2", "0x10", "1_000", "inf", "nan", "1 /2"]
)
def test_read_rational_refuses_other_notation(text):
    with pytest.raises(ValidationError, match="expected an integer, p/q or a plain decimal"):
        read_rational(text)


def test_read_rational_bounds_each_run_of_digits():
    with pytest.raises(ValidationError, match=f"too long: {MAX_DIGITS + 1} digits, at most {MAX_DIGITS}"):
        read_rational("1/" + "3" * (MAX_DIGITS + 1))
    with pytest.raises(ValidationError, match="zero denominator"):
        read_rational("1/0")
    # Two runs at the limit make one exact decimal.
    x = read_rational("1" * MAX_DIGITS + "." + "1" * MAX_DIGITS)
    assert x.denominator == 10**MAX_DIGITS


# ------------------------------------------------ the integer-lattice rule


def _det(mat):
    """The determinant of a small square integer matrix, by expansion
    along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1 :] for row in mat[1:]]) for j, a in enumerate(mat[0]) if a)


def _divisor(rows, ncols):
    """The rank r of the integer rows and the gcd of their r x r minors.
    Of two lattices of one rank, one inside the other, the gcd is the
    index times the larger one's, so they are equal exactly when the
    two agree."""
    rows = [list(r) for r in rows]
    for r in range(min(len(rows), ncols), 0, -1):
        g = 0
        for rs in combinations(rows, r):
            for cs in combinations(range(ncols), r):
                g = gcd(g, _det([[row[c] for c in cs] for row in rs]))
        if g:
            return r, g
    return 0, 1


def _in_span(rows, v):
    """Whether v lies in the lattice of the integer rows, by minors."""
    return _divisor(rows, len(v)) == _divisor(list(rows) + [v], len(v))


@st.composite
def lattices(draw):
    """Up to four integer vectors of 1-3 entries in -3..3, zero vectors
    and repeats allowed, and a vector to test, of entries in -4..4."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    rows = draw(st.lists(vec, max_size=4))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return rows, draw(st.tuples(*[st.integers(-4, 4)] * n))


@PROPERTY
@given(lattices())
def test_echelon_rows_have_increasing_positive_pivots(lat):
    """What monoids._box_points and in_lattice rely on: pivots positive
    and strictly increasing, each row 0 before its pivot, spanning the
    rows' lattice, of their rank."""
    rows, v = lat
    basis = echelon(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    assert all(row[c] > 0 for row, c in zip(basis, pivots))
    assert len(basis) == RowSpace(len(v), rows).dim
    assert all(_in_span(rows, b) for b in basis)
    assert all(_in_span(basis, r) for r in rows)


@PROPERTY
@given(lattices())
def test_in_lattice_agrees_with_the_minors(lat):
    rows, v = lat
    assert in_lattice(echelon(rows), v) == _in_span(rows, v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices())
def test_in_lattice_finds_every_small_combination(lat):
    """Each integer combination of the rows with coefficients in -2..2
    lies in the lattice, found by brute force over the box."""
    rows, v = lat
    basis = echelon(rows)
    for coeffs in product(range(-2, 3), repeat=len(rows)):
        point = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(v))]
        assert in_lattice(basis, point)


def test_the_zero_lattice_has_no_echelon_rows():
    """Only zero rows, as at a point whose support weights are all 0,
    give the zero lattice: no rows, and only the zero vector in it."""
    assert echelon([]) == echelon([(0, 0), (0, 0)]) == []
    assert in_lattice([], (0, 0))
    assert not in_lattice([], (0, 1))


@pytest.mark.parametrize(
    "rows, inside, outside",
    [
        ([(3,)], [(0,), (-6,), (9,)], [(1,), (-2,)]),
        ([(2, 1), (0, 3)], [(2, 4), (4, -1), (0, 0)], [(1, 0), (0, 1), (2, 0)]),
        ([(4, 6), (6, 9)], [(2, 3), (-4, -6)], [(1, 1), (1, 2)]),
    ],
)
def test_in_lattice_by_hand(rows, inside, outside):
    basis = echelon(rows)
    assert all(in_lattice(basis, v) for v in inside)
    assert not any(in_lattice(basis, v) for v in outside)

