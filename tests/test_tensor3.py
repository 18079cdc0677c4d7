"""3x3 tensor algebra on plain tuples (catalog's dot, mul_vec and checks,
and the reference recipes' matrix functions) and the diagonal/off-diagonal
projectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis.catalog import dot, entry_table, is_symmetric, mul_vec
from mebasis.poly import MAG, STRESS, Polynomial, VarTable, parse_polynomial
from mebasis.restriction import fiber_substitution, generic_substitution

from recipes_reference import dbar, ddev, double_contract, matmul, outer, trace

F = Fraction

TABLE = VarTable([("m1", MAG), ("m2", MAG),
                  ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)])


def const_mat(rows):
    return tuple(tuple(Polynomial.constant(TABLE, F(x)) for x in row)
                 for row in rows)


def const_vec(entries):
    return tuple(Polynomial.constant(TABLE, F(x)) for x in entries)


def mat(rows):
    return tuple(tuple(row) for row in rows)


def flat(a):
    """The entries of a matrix, row by row."""
    return [x for row in a for x in row]


def var(name):
    return parse_polynomial(name, TABLE)


def identity():
    return const_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


ZERO = const_mat([[0] * 3] * 3)


def assert_reconstructs(a):
    """a = ddev(a) + dbar(a) + tr(a)/3 * id, entry by entry."""
    d, off, third = ddev(a), dbar(a), F(1, 3) * trace(a)
    for i in range(3):
        for j in range(3):
            assert d[i][j] + off[i][j] + (third if i == j else 0) == a[i][j]


# -- basics --------------------------------------------------------------

def test_identity_trace_is_three():
    assert trace(identity()) == Polynomial.constant(TABLE, 3)


def test_outer_entries_are_products():
    v = (var("m1"), var("m2"), Polynomial.zero(TABLE))
    m = outer(v)
    assert m[0][0] == var("m1") * var("m1")
    assert m[0][1] == var("m1") * var("m2")
    assert m[1][0] == m[0][1]
    assert not m[2][2]
    assert is_symmetric(m)


def test_double_contract_identity_with_itself():
    assert double_contract(identity(), identity()) == \
        Polynomial.constant(TABLE, 3)


def test_double_contract_unit_dyad():
    e1 = const_vec([1, 0, 0])
    assert double_contract(outer(e1), outer(e1)) == \
        Polynomial.constant(TABLE, 1)


def test_matmul_against_by_hand():
    a = const_mat([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    b = const_mat([[1, 0, 0], [3, 1, 0], [0, 0, 2]])
    prod = matmul(a, b)
    assert prod[0][0] == Polynomial.constant(TABLE, 7)
    assert prod[0][1] == Polynomial.constant(TABLE, 2)
    assert prod[2][2] == Polynomial.constant(TABLE, 2)


def test_mul_vec():
    a = const_mat([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    v = const_vec([1, 1, 1])
    out = mul_vec(a, v)
    assert [e.evaluate({}) for e in out] == [2, 3, 5]


# -- projectors ----------------------------------------------------------

def test_dbar_of_identity_is_zero():
    assert dbar(identity()) == ZERO


def test_ddev_of_identity_is_zero():
    assert ddev(identity()) == ZERO


def test_dbar_keeps_only_off_diagonal_of_plane_stress():
    sub = fiber_substitution("theta")
    off = dbar(sub.sigma)
    t = sub.table
    s12 = parse_polynomial("s3", t)
    for i in range(3):
        for j in range(3):
            expect = s12 if {i, j} == {0, 1} else Polynomial.zero(t)
            assert off[i][j] == expect


def test_ddev_of_plane_diagonal():
    s11, s22 = var("s1"), var("s2")
    a = ((s11, Polynomial.zero(TABLE), Polynomial.zero(TABLE)),
         (Polynomial.zero(TABLE), s22, Polynomial.zero(TABLE)),
         (Polynomial.zero(TABLE), Polynomial.zero(TABLE),
          Polynomial.zero(TABLE)))
    t3 = F(1, 3) * (s11 + s22)
    d = ddev(a)
    assert d[0][0] == s11 - t3
    assert d[1][1] == s22 - t3
    assert d[2][2] == -t3
    assert not trace(d)


def test_ddev_keeps_ints_when_the_trace_divides_by_three():
    d = ddev(((4, 1, 0), (1, 2, 0), (0, 0, 3)))
    assert d == ((1, 0, 0), (0, -1, 0), (0, 0, 0))
    assert all(type(x) is int for row in d for x in row)
    # Otherwise tr/3 is a Fraction, as for Fraction entries.
    d = ddev(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert d == ((F(2, 3), 0, 0), (0, F(-1, 3), 0), (0, 0, F(-1, 3)))
    assert type(d[0][0]) is F


def test_ddev_on_polynomials_divides_the_trace_by_three():
    s1, s2, s3 = (var(n) for n in ("s1", "s2", "s3"))
    z = s1 * 0
    d = ddev(((s1, s3, z), (s3, s2, z), (z, z, z)))
    third = F(1, 3) * (s1 + s2)
    assert d == ((s1 - third, z, z), (z, s2 - third, z), (z, z, -third))
    assert d[2][2].den == 3 and sorted(d[2][2].nums.values()) == [-1, -1]
    # A trace that 3 divides leaves no denominator: the result is in
    # lowest terms.
    d = ddev(((s1 * 3, z, z), (z, s2 * 3, z), (z, z, s3 * 3)))
    assert d[0][0] == 2 * s1 - s2 - s3
    assert all(e.den == 1 for row in d for e in row)


def test_split_identity():
    a = identity()
    assert ddev(a) == ZERO
    assert dbar(a) == ZERO
    assert trace(a) == Polynomial.constant(TABLE, 3)
    assert_reconstructs(a)


@pytest.mark.parametrize("fiber", ["theta", "alpha_prime", "gamma"])
def test_split_reconstructs_fiber_stress(fiber):
    sigma = fiber_substitution(fiber).sigma
    assert_reconstructs(sigma)
    assert not trace(ddev(sigma))
    for i in range(3):
        assert not dbar(sigma)[i][i]


def test_gamma_stress_trace_by_hand():
    # Summing the diagonal of the n = (1,1,1) plane-stress form gives
    # -2*(s1 + s2 + s3); in particular the trace does not vanish, which
    # is why tr(sigma) survives as a generator on that subspace.
    sub = fiber_substitution("gamma")
    t = sub.table
    total = (parse_polynomial("s1", t) + parse_polynomial("s2", t)
             + parse_polynomial("s3", t))
    assert trace(sub.sigma) == F(-2) * total


def test_projector_algebra_on_generic_symmetric_matrix():
    # The generic symmetric matrix covers every symmetric specialization,
    # so these identities hold symbolically once and for all.
    sub = generic_substitution()
    sigma = sub.sigma
    zero = mat([[Polynomial.zero(sub.table)] * 3] * 3)
    assert ddev(ddev(sigma)) == ddev(sigma)
    assert dbar(dbar(sigma)) == dbar(sigma)
    assert ddev(dbar(sigma)) == zero
    assert dbar(ddev(sigma)) == zero
    assert not trace(ddev(sigma))
    assert not double_contract(ddev(sigma), dbar(sigma))


# -- properties ----------------------------------------------------------

ints = st.integers(min_value=-9, max_value=9)
int_mats = st.lists(st.lists(ints, min_size=3, max_size=3),
                    min_size=3, max_size=3)


@settings(max_examples=50, deadline=None)
@given(int_mats, int_mats)
def test_projectors_are_orthogonal_idempotents(rows_a, rows_b):
    a, b = const_mat(rows_a), const_mat(rows_b)
    assert ddev(ddev(a)) == ddev(a)
    assert dbar(dbar(a)) == dbar(a)
    assert ddev(dbar(a)) == ZERO
    assert dbar(ddev(a)) == ZERO
    assert not trace(ddev(a))
    assert not double_contract(ddev(a), dbar(b))


@settings(max_examples=50, deadline=None)
@given(int_mats)
def test_split_reconstructs_symmetric_part(rows):
    sym = [[F(rows[i][j] + rows[j][i], 2) for j in range(3)]
           for i in range(3)]
    assert_reconstructs(const_mat(sym))


@settings(max_examples=50, deadline=None)
@given(int_mats, int_mats)
def test_double_contract_is_bilinear_trace_form(rows_a, rows_b):
    a, b_transposed = const_mat(rows_a), const_mat(zip(*rows_b))
    assert double_contract(a, const_mat(rows_b)) == trace(matmul(a, b_transposed))


# -- other exact rings ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(int_mats, int_mats, st.lists(ints, min_size=3, max_size=3))
def test_fraction_entries_agree_with_constant_polynomials(rows_a, rows_b, v):
    fa = mat([[F(x, 2) for x in row] for row in rows_a])
    fb = mat([[F(x) for x in row] for row in rows_b])
    fv = tuple(F(x, 3) for x in v)
    pa, pb = const_mat(fa), const_mat(fb)
    pv = const_vec(fv)
    assert entry_table(flat(fa)) is None and entry_table(fv) is None

    def values(m):
        return [[e.evaluate({}) for e in row] for row in m]

    assert [list(r) for r in matmul(fa, fb)] == values(matmul(pa, pb))
    assert [list(r) for r in ddev(fa)] == values(ddev(pa))
    assert [list(r) for r in dbar(fa)] == values(dbar(pa))
    assert list(mul_vec(fa, fv)) == [e.evaluate({}) for e in mul_vec(pa, pv)]
    assert dot(fv, fv) == dot(pv, pv).evaluate({})
    assert double_contract(fa, fb) == double_contract(pa, pb).evaluate({})


# Zero entries and zero polynomials come up often: every kernel multiplies
# them like any other entry.
small = st.one_of(st.just(0), ints)
MONOMIALS = (Polynomial.constant(TABLE, 1),) + tuple(var(n) for n in TABLE.names)
RING_ENTRIES = {
    "int": small,
    "fraction": st.builds(F, small, st.integers(1, 4)),
    "polynomial": st.builds(lambda c, x: c * x, small, st.sampled_from(MONOMIALS)),
}


def naive_sum(pairs):
    """The sum of x * y over the pairs, from Fraction(0), one pair at a time."""
    total = F(0)
    for x, y in pairs:
        total = total + x * y
    return total


@pytest.mark.parametrize("ring", RING_ENTRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernels_equal_naive_loops(ring, data):
    entry = RING_ENTRIES[ring]
    vec = st.tuples(entry, entry, entry)
    a, b = data.draw(st.tuples(vec, vec, vec)), data.draw(st.tuples(vec, vec, vec))
    u, v = data.draw(vec), data.draw(vec)
    r = range(3)
    assert matmul(a, b) == tuple(tuple(naive_sum((a[i][k], b[k][j]) for k in r)
                                       for j in r) for i in r)
    assert mul_vec(a, v) == tuple(naive_sum((a[i][k], v[k]) for k in r) for i in r)
    assert dot(u, v) == naive_sum(zip(u, v))
    assert double_contract(a, b) == naive_sum((a[i][j], b[i][j]) for i in r for j in r)


def test_entries_must_not_mix_rings_or_tables():
    other = VarTable([("m1", MAG)])
    z = Polynomial.zero(TABLE)
    with pytest.raises(ValueError, match="different variable tables"):
        entry_table([F(1), z, z])
    with pytest.raises(ValueError, match="different variable tables"):
        entry_table([z, Polynomial.zero(other), z])
    with pytest.raises(ValueError, match="different variable tables"):
        entry_table(flat([[z, z, z], [z, F(0), z], [z, z, z]]))
    with pytest.raises(ValueError, match="different kinds"):
        entry_table([z, 0, z])


# -- results of operands of one ring ------------------------------------

def ring_operands(ring):
    """A symmetric matrix, a second matrix and a vector over one ring, and
    the table their entries share."""
    if ring == "polynomial":
        m1, m2, s1, s2, s3 = (var(n) for n in TABLE.names)
        z = Polynomial.zero(TABLE)
        a = ((s1, s3, z), (s3, s2, s1), (z, s1, s2 + s3))
        b = ((m1, z, s2), (s3, m2, z), (s1, z, m1 + s3))
        return a, b, (m1, m2, m1 - m2), TABLE
    if ring == "integer polynomial":
        # Three times the polynomial operands: every trace divides by 3, so
        # ddev's thirds come out over denominator 1.
        a, b, v, table = ring_operands("polynomial")
        scaled = lambda e: 3 * e
        return (mat([[scaled(e) for e in row] for row in a]),
                mat([[scaled(e) for e in row] for row in b]),
                tuple(scaled(e) for e in v), table)
    num = int if ring == "int" else (lambda x: F(x, 2))
    a = mat([[num(x) for x in row] for row in ((4, 1, 0), (1, 2, -3), (0, -3, 5))])
    b = mat([[num(x) for x in row] for row in ((0, 7, 1), (2, 0, 0), (1, -1, 3))])
    return a, b, tuple(num(x) for x in (1, 0, -2)), None


@pytest.mark.parametrize("ring", ["polynomial", "int", "fraction", "integer polynomial"])
def test_ring_results_equal_constructor_built_ones(ring):
    # Every result is a 3x3 tuple of row tuples (or a 3-tuple) whose
    # entries pass the entry check on the operands' table: the checks a
    # tensor gets where it enters hold for computed ones without a rescan.
    a, b, v, table = ring_operands(ring)
    for out in (matmul(a, b), matmul(b, a), ddev(a), dbar(a), ddev(b), dbar(b),
                outer(v)):
        assert type(out) is tuple and len(out) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in out)
        assert entry_table(flat(out)) == table
    for out in (mul_vec(a, v), mul_vec(b, v)):
        assert type(out) is tuple and len(out) == 3
        assert entry_table(out) == table


def test_products_across_rings_do_not_mix_entries():
    # Every entry of a number matrix times a Polynomial one is a Polynomial,
    # even where all products were skipped; tables must agree.
    ints = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    a, _, v, _ = ring_operands("polynomial")
    assert entry_table(flat(matmul(ints, a))) == TABLE
    assert entry_table(mul_vec(ints, v)) == TABLE
    other = VarTable([("m1", MAG)])
    b = mat([[parse_polynomial("m1", other)] * 3] * 3)
    with pytest.raises(ValueError, match="different variable tables"):
        matmul(a, b)
    with pytest.raises(ValueError, match="different variable tables"):
        mul_vec(b, v)
