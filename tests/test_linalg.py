from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from horomod.errors import ValidationError
from horomod.linalg import MAX_DIGITS, RowSpace, dense, read_rational

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


def _times(row, vec):
    return sum(Q(a) * b for a, b in zip(row, vec))


@PROPERTY
@given(matrices(min_rows=1), st.randoms(use_true_random=False))
def test_rref_is_idempotent_and_ignores_row_order(mat, rnd):
    ncols, rows = mat
    space = RowSpace(ncols, rows)
    red, pivots = space.basis(), space.pivots
    again = RowSpace(ncols, red)
    assert (again.basis(), again.pivots) == (red, pivots)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    reordered = RowSpace(ncols, shuffled)
    assert (reordered.basis(), reordered.pivots) == (red, pivots)
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
    assert from_dense.pivots == from_sparse.pivots
    assert from_dense.basis() == from_sparse.basis()
    vec = probe[:ncols]
    residual = from_dense.reduce(vec)
    assert residual == from_sparse.reduce({c: x for c, x in enumerate(vec) if x})
    assert all(x != 0 for x in residual.values())
    assert from_dense.contains(vec) == (not residual) == from_sparse.contains(dict(enumerate(vec)))


def test_rows_stay_reduced_and_sparse():
    space = RowSpace(4)
    assert space.add({3: 2, 1: 1})
    assert space.add([0, 1, 0, 0])
    assert not space.add({1: Q(5), 3: Q(-7)})
    assert not space.add([0, 0, 0, 0])
    assert space.pivots == [1, 3]
    assert space.rows == {1: {1: 1}, 3: {3: 1}}
    assert space.basis() == [(0, 1, 0, 0), (0, 0, 0, 1)]
    assert space.kernel() == [{0: 1}, {2: 1}]


def test_rref_and_rank_match_sympy():
    sympy = pytest.importorskip("sympy")

    @PROPERTY
    @given(matrices(min_rows=1))
    def check(mat):
        ncols, rows = mat
        red, pivots = sympy.Matrix(rows).rref()
        expected = [tuple(Q(int(x.p), int(x.q)) for x in red.row(i)) for i in range(len(pivots))]
        space = RowSpace(ncols, rows)
        assert (space.basis(), space.pivots) == (expected, list(pivots))
        assert space.dim == len(pivots)

    check()


@PROPERTY
@given(matrices())
def test_integer_rows_give_the_fraction_row_space(mat):
    """{col: int} rows, as channels.law_tangent feeds them, reduce exactly
    as the same rows given as Fractions, and every stored entry is a
    Fraction (int / int would be a float)."""
    ncols, rows = mat
    ints = RowSpace(ncols, [{c: x for c, x in enumerate(row) if x} for row in rows])
    fracs = RowSpace(ncols, [{c: Q(x) for c, x in enumerate(row) if x} for row in rows])
    assert ints.pivots == fracs.pivots
    assert ints.rows == fracs.rows
    assert all(type(x) is Q for row in ints.rows.values() for x in row.values())


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
     ("1/" + "1" + "0" * (MAX_DIGITS - 1), Q(1, 10 ** (MAX_DIGITS - 1)))],
)
def test_read_rational_reads_integers_fractions_and_decimals(text, value):
    assert read_rational(text) == value


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
