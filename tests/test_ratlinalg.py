"""Exact linear algebra over the rationals.

The rank is the number of RREF pivots, and the kernel is read off the RREF
by the helpers below.  Two independent oracles are implemented locally too.  The one-step
Bareiss elimination gives the rank without forming a fraction.  The
textbook Gauss-Jordan on Fraction entries gives the reduced row echelon
form, which is unique, so the primitive integer RREF that RatMatrix.rref
returns must be that form with each row scaled by normalize_integer_vector,
entry for entry.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis.ratlinalg import (RatMatrix, matrix_from_columns,
                               normalize_integer_vector, rank_of_columns,
                               solve_columns)

F = Fraction


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
            out.append((f, normalize_integer_vector(v)))
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


def test_normalize_clears_denominators_and_content():
    assert normalize_integer_vector([F(1, 2), F(1, 3)]) == (3, 2)
    assert normalize_integer_vector([F(-2), F(4)]) == (1, -2)
    assert normalize_integer_vector([0, F(-1, 5)]) == (0, 1)
    assert normalize_integer_vector([0, 0]) == (0, 0)


def test_matrix_keeps_integer_entries():
    m = RatMatrix([[2, 4], [1, F(1, 2)]])
    assert [[type(x) for x in row] for row in m.data] == [[int, int], [int, F]]
    assert all(type(x) is int for row in m.rref()[0].data for x in row)


def test_matrix_from_columns_orientation():
    m = matrix_from_columns([(1, 2), (3, 4)], 2)
    assert [list(r) for r in m.data] == [[1, 3], [2, 4]]


def test_rank_of_columns_empty_is_zero():
    assert rank_of_columns([], 3) == 0


def test_solve_columns_in_span():
    cols = [(1, 0), (1, 1)]
    assert solve_columns(cols, (3, 2)) == [F(1), F(2)]


def test_solve_columns_out_of_span():
    assert solve_columns([(1, 0)], (0, 1)) is None


def test_solve_columns_prefers_zero_free_coefficients():
    # Columns 1 and 2 are equal; the particular solution puts the whole
    # weight on the pivot column and zero on the free one.
    assert solve_columns([(1, 0), (1, 0)], (2, 0)) == [F(2), F(0)]


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
    m = RatMatrix(rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_are_annihilated(rows):
    m = RatMatrix(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in mul_vector(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_equals_transpose_rank(rows):
    m = RatMatrix(rows)
    assert rank(m) == rank(RatMatrix(list(zip(*rows))))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_is_idempotent(rows):
    rrefm, pivots = RatMatrix(rows).rref()
    again, pivots2 = rrefm.rref()
    assert again.data == rrefm.data
    assert pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(int_matrices_6x6)
def test_rank_agrees_with_bareiss_oracle(rows):
    assert rank(RatMatrix(rows)) == bareiss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(int_matrices_6x6)
def test_rref_of_integers_equals_rref_of_the_same_fractions(rows):
    ints, int_pivots = RatMatrix(rows).rref()
    fracs, frac_pivots = RatMatrix([[F(x) for x in row] for row in rows]).rref()
    assert ints.data == fracs.data
    assert int_pivots == frac_pivots


@settings(max_examples=40, deadline=None)
@given(matrices, st.data())
def test_solve_columns_reconstructs_target(rows, data):
    m = RatMatrix(rows)
    cols = list(zip(*m.data))
    coeffs = data.draw(st.lists(small_fraction, min_size=m.cols,
                                max_size=m.cols))
    target = tuple(sum((cols[j][i] * coeffs[j] for j in range(m.cols)),
                       F(0)) for i in range(m.rows))
    sol = solve_columns(cols, target)
    assert sol is not None
    rebuilt = tuple(sum((cols[j][i] * sol[j] for j in range(m.cols)), F(0))
                    for i in range(m.rows))
    assert rebuilt == target


sparse_fraction = st.one_of(st.just(F(0)), small_fraction)


@st.composite
def rational_matrices(draw):
    """Dense, sparse or low-rank rational matrices, tall or wide, with some
    rows and columns forced to zero."""
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
    return rows


def primitive_fraction_rref(rows, ncols):
    """fraction_rref with every row scaled by normalize_integer_vector."""
    expected, pivots = fraction_rref(rows, ncols)
    return [normalize_integer_vector(row) for row in expected], pivots


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    rrefm, pivots = RatMatrix(rows).rref()
    expected, expected_pivots = primitive_fraction_rref(rows, len(rows[0]))
    assert pivots == expected_pivots
    assert rrefm.data == expected
    assert (rrefm.rows, rrefm.cols) == (len(rows), len(rows[0]))
    assert all(type(x) is int for row in rrefm.data for x in row)


def test_rref_of_large_entries_matches_fraction_gauss_jordan():
    rows = [[F(10 ** 12 + i * j, 7 ** (i + 1)) for j in range(6)]
            for i in range(5)]
    rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
    rrefm, pivots = RatMatrix(rows).rref()
    assert (rrefm.data, pivots) == primitive_fraction_rref(rows, 6)
