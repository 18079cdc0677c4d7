"""Exact elimination on integer matrices.

The rank is the number of RREF pivots, and the kernel is read off the RREF
by the helpers below.  Two independent oracles are implemented locally too.  The one-step
Bareiss elimination gives the rank without forming a fraction.  The
textbook Gauss-Jordan on Fraction entries gives the reduced row echelon
form, which is unique, so the primitive integer RREF that RatMatrix.rref
returns must be that form with each row scaled to coprime integers by
this file's own `primitive`, entry for entry.  Rational matrices are drawn
as Fractions and each row is scaled to integers (`integer_rows`) before
rref: the row space, and so the RREF, stays the same.
"""

import random
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis.catalog import CATALOG
from mebasis.poly import coefficient_matrix
from mebasis.ratlinalg import RatMatrix, normalize_integer_vector
from mebasis.reduction import ProductGrid, reducible_products
from mebasis.restriction import custom_substitution, restrict_basis

F = Fraction


def primitive(v):
    """A rational vector scaled to coprime integers, first nonzero entry
    positive; the zero vector as integer zeros."""
    v = [F(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints) if g else tuple(ints)


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: integer rows
    with the same row space."""
    return [[int(x * d) for x in row] for row in rows
            for d in [lcm(*(F(x).denominator for x in row))]]


def rank(m):
    return len(m.rref()[1])


def kernel_with_free(m):
    """Canonical right kernel, one vector per free column, ascending.

    The vector for free column f solves the pivot variables with x_f = 1
    and every other free variable 0, scaled to coprime integers whose
    first nonzero entry is positive.  Row r of the primitive RREF is the
    Fraction RREF row times its pivot entry.
    """
    rrefm, pivots = m.rref()
    out = []
    for f in range(m.cols):
        if f not in pivots:
            v = [F(0)] * m.cols
            v[f] = F(1)
            for r, p in enumerate(pivots):
                v[p] = -F(rrefm.data[r][f], rrefm.data[r][p])
            out.append((f, primitive(v)))
    return out


def kernel_basis(m):
    return [v for _, v in kernel_with_free(m)]


def mul_vector(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in m.data)


def bareiss_rank(rows):
    """Fraction-free rank of an integer matrix, for cross-checking.

    One-step Bareiss: every intermediate entry is an integer minor of the
    input, and each division by the previous pivot is exact (asserted).
    """
    m = [[int(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    prev = 1
    row = 0
    for col in range(nc):
        piv = next((i for i in range(row, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, nr):
            for j in range(col + 1, nc):
                num = m[row][col] * m[i][j] - m[i][col] * m[row][j]
                assert num % prev == 0
                m[i][j] = num // prev
            m[i][col] = 0
        prev = m[row][col]
        row += 1
        if row == nr:
            break
    return row


def fraction_rref(rows, ncols):
    """Reduced row echelon form and pivots by Gauss-Jordan on Fractions."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], tuple(pivots)


# -- pinned examples -----------------------------------------------------

def test_rank_identity():
    assert rank(RatMatrix([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix([[0] * 4 for _ in range(3)])) == 0


def test_rank_proportional_rows():
    assert rank(RatMatrix([[1, 2], [2, 4], [3, 6]])) == 1


def test_rref_halves_pivot_row():
    rrefm, pivots = RatMatrix([[2, 4], [1, 2]]).rref()
    assert [list(r) for r in rrefm.data] == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_swaps_to_identity():
    rrefm, pivots = RatMatrix([[0, 1], [1, 0]]).rref()
    assert [list(r) for r in rrefm.data] == [[1, 0], [0, 1]]
    assert pivots == (0, 1)


def test_rref_rows_are_primitive_with_positive_pivots():
    # The Fraction RREF is [[1, 0, -1/2], [0, 1, 3/4]]; each row is scaled
    # to coprime integers with a positive pivot, never divided by it.
    rrefm, pivots = RatMatrix([[-4, 0, 2], [0, 8, 6], [-2, 4, 4]]).rref()
    assert rrefm.data == [(2, 0, -1), (0, 4, 3), (0, 0, 0)]
    assert pivots == (0, 1)


def test_kernel_difference_matrix():
    assert kernel_basis(RatMatrix([[1, -1]])) == [(1, 1)]


def test_kernel_one_row_two_columns():
    # Column 2 is twice column 1; the single kernel vector is (-2, 1) up
    # to the canonical scaling, which makes the first nonzero entry
    # positive: (2, -1).
    assert kernel_basis(RatMatrix([[1, 2]])) == [(2, -1)]


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel_basis(RatMatrix([[1, 0], [0, 1]])) == []


def test_kernel_with_free_columns():
    pairs = kernel_with_free(RatMatrix([[1, 2, 3]]))
    assert [f for f, _ in pairs] == [1, 2]
    assert [v for _, v in pairs] == [(2, -1, 0), (3, 0, -1)]


def test_normalize_removes_content_and_fixes_the_sign():
    assert normalize_integer_vector([6, 4]) == (3, 2)
    assert normalize_integer_vector([-2, 4]) == (1, -2)
    assert normalize_integer_vector([0, -5]) == (0, 1)
    assert normalize_integer_vector([0, 0]) == (0, 0)


def test_matrix_keeps_integer_entries():
    m = RatMatrix([[2, 4], [1, 3]])
    assert [[type(x) for x in row] for row in m.data] == [[int, int], [int, int]]
    assert all(type(x) is int for row in m.rref()[0].data for x in row)


@pytest.mark.parametrize("bad", [0.5, "1", None, complex(1, 0)])
def test_entry_that_is_not_an_int_is_a_type_error(bad):
    # Named by the row scaling that rref and normalize_integer_vector share;
    # an int subclass such as bool is still an int, and comes out as one.
    message = re.escape(f"entry {bad!r} is not an int")
    with pytest.raises(TypeError, match=message):
        RatMatrix([[1, 2], [3, bad]]).rref()
    with pytest.raises(TypeError, match=message):
        normalize_integer_vector([bad, 1])
    assert RatMatrix([[True, 2]]).rref()[0].data == [(1, 2)]
    assert all(type(x) is int for x in RatMatrix([[True, 3]]).rref()[0].data[0])
    assert all(type(x) is int for x in normalize_integer_vector([False, True]))


def test_a_fraction_entry_is_a_type_error():
    # Only ints are eliminated: a rational row is scaled by its caller.
    message = re.escape("entry Fraction(1, 2) is not an int")
    with pytest.raises(TypeError, match=message):
        RatMatrix([[1, F(1, 2)]]).rref()
    with pytest.raises(TypeError, match=message):
        normalize_integer_vector([F(1, 2)])


def test_a_repeated_row_is_still_type_checked():
    # 1.0 == 1, so the float row equals the row before it.
    with pytest.raises(TypeError, match="entry 1.0 is not an int"):
        RatMatrix([[1, 1], [1.0, 1]]).rref()


def test_an_empty_or_ragged_matrix_is_a_value_error():
    # The column count is read from the rows, so there must be some, of
    # one width.
    with pytest.raises(ValueError, match="^empty matrix$"):
        RatMatrix([])
    with pytest.raises(ValueError, match="^ragged rows$"):
        RatMatrix([[1, 2], [3]])


# -- properties ----------------------------------------------------------

small_fraction = st.fractions(
    min_value=-9, max_value=9, max_denominator=7)

matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.lists(
        st.lists(small_fraction, min_size=cols, max_size=cols),
        min_size=1, max_size=6))

int_matrices_6x6 = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6),
    min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_plus_nullity_is_column_count(rows):
    m = RatMatrix(integer_rows(rows))
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_are_annihilated(rows):
    m = RatMatrix(integer_rows(rows))
    for v in kernel_basis(m):
        assert all(x == 0 for x in mul_vector(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_equals_transpose_rank(rows):
    m = RatMatrix(integer_rows(rows))
    assert rank(m) == rank(RatMatrix(integer_rows(zip(*rows))))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_is_idempotent(rows):
    rrefm, pivots = RatMatrix(integer_rows(rows)).rref()
    again, pivots2 = rrefm.rref()
    assert again.data == rrefm.data
    assert pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(int_matrices_6x6)
def test_rank_agrees_with_bareiss_oracle(rows):
    assert rank(RatMatrix(rows)) == bareiss_rank(rows)


sparse_fraction = st.one_of(st.just(F(0)), small_fraction)


@st.composite
def rational_matrices(draw):
    """Dense, sparse or low-rank rational matrices, tall or wide, with some
    rows and columns forced to zero and at times a nonzero row repeated."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=10))
    entry = draw(st.sampled_from([small_fraction, sparse_fraction]))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=min(nrows, ncols) - 1))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)), F(0))
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(min_value=0, max_value=nrows - 1),
                          max_size=2)):
        rows[i] = [F(0)] * ncols
    for j in draw(st.sets(st.integers(min_value=0, max_value=ncols - 1),
                          max_size=2)):
        for row in rows:
            row[j] = F(0)
    # rref drops a repeated row before it makes the rows primitive.
    nonzero = [i for i, row in enumerate(rows) if any(row)]
    if nonzero and nrows > 1 and draw(st.booleans()):
        src = draw(st.sampled_from(nonzero))
        dst = draw(st.sampled_from([i for i in range(nrows) if i != src]))
        rows[dst] = list(rows[src])
    return rows


def primitive_fraction_rref(rows, ncols):
    """fraction_rref with every row scaled by primitive."""
    expected, pivots = fraction_rref(rows, ncols)
    return [primitive(row) for row in expected], pivots


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    rrefm, pivots = RatMatrix(integer_rows(rows)).rref()
    expected, expected_pivots = primitive_fraction_rref(rows, len(rows[0]))
    assert pivots == expected_pivots
    assert rrefm.data == expected
    assert (rrefm.rows, rrefm.cols) == (len(rows), len(rows[0]))
    assert all(type(x) is int for row in rrefm.data for x in row)


def test_rref_of_large_entries_matches_fraction_gauss_jordan():
    rows = [[F(10 ** 12 + i * j, 7 ** (i + 1)) for j in range(6)]
            for i in range(5)]
    rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
    rrefm, pivots = RatMatrix(integer_rows(rows)).rref()
    assert (rrefm.data, pivots) == primitive_fraction_rref(rows, 6)


nonzero_fraction = small_fraction.filter(bool)


@settings(max_examples=120, deadline=None)
@given(rational_matrices(), st.data())
def test_rref_does_not_depend_on_row_order_or_pivot_choice(rows, data):
    # Scaled copies of rows, zero rows and a shuffle change which row the
    # elimination picks as pivot row at each column, but not the unique
    # primitive RREF.
    rrefm, pivots = RatMatrix(integer_rows(rows)).rref()
    ncols = len(rows[0])
    copies = data.draw(st.lists(st.tuples(st.sampled_from(rows), nonzero_fraction),
                                max_size=3))
    zeros = data.draw(st.integers(min_value=0, max_value=2))
    variant = data.draw(st.permutations(
        rows + [[k * x for x in row] for row, k in copies] + [[F(0)] * ncols] * zeros))
    got, got_pivots = RatMatrix(integer_rows(variant)).rref()
    rank = len(pivots)
    assert got_pivots == pivots
    assert got.data[:rank] == rrefm.data[:rank]
    assert got.data[rank:] == [(0,) * ncols] * (len(variant) - rank)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_matrices(), int_matrices_6x6))
def test_rref_leaves_the_input_unchanged(rows):
    # The elimination rewrites its rows in place, on its own copies.
    rows = integer_rows(rows)
    m = RatMatrix(rows)
    before = list(m.data)
    m.rref()
    assert m.data == before
    assert [list(row) for row in m.data] == rows


PLANE_123 = Path(__file__).with_name("golden") / "plane_123.sub.json"


def test_rref_of_an_engine_matrix_matches_fraction_gauss_jordan():
    # The coefficient matrix the engine eliminates at bi-degree (4, 3) of
    # the generic plane normal to (1, 2, 3): 50 monomials by 45 products.
    rb = restrict_basis(CATALOG, custom_substitution(PLANE_123))
    polys = rb.as_dict()
    columns = [c for _, c in reducible_products((4, 3), polys, {}, ProductGrid(polys))]
    _, mat = coefficient_matrix(columns)
    assert (mat.rows, mat.cols) == (50, 45)
    expected = primitive_fraction_rref(mat.data, mat.cols)
    rrefm, pivots = mat.rref()
    assert len(pivots) == 33
    assert (rrefm.data, pivots) == expected
    shuffled = list(mat.data)
    random.Random(0).shuffle(shuffled)
    again, again_pivots = RatMatrix(shuffled).rref()
    assert (again.data, again_pivots) == expected
