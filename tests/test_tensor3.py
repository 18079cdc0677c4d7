"""3x3 symbolic tensor algebra and the diagonal/off-diagonal projectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis.poly import MAG, STRESS, Polynomial, VarTable
from mebasis.restriction import fiber_substitution, generic_substitution
from mebasis.tensor3 import (PolyMat3, PolyVec3, dbar, ddev, double_contract,
                             outer)

F = Fraction

TABLE = VarTable([("m1", MAG), ("m2", MAG),
                  ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)])


def const_mat(rows):
    return PolyMat3([[Polynomial.constant(TABLE, F(x)) for x in row]
                     for row in rows])


def const_vec(entries):
    return PolyVec3([Polynomial.constant(TABLE, F(x)) for x in entries])


def var(name):
    return Polynomial.variable(TABLE, name)


def identity():
    return const_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


ZERO = const_mat([[0] * 3] * 3).entries


def assert_reconstructs(a):
    """a = ddev(a) + dbar(a) + tr(a)/3 * id, entry by entry."""
    d, off, third = ddev(a), dbar(a), F(1, 3) * a.trace()
    for i in range(3):
        for j in range(3):
            assert d[i][j] + off[i][j] + (third if i == j else 0) == a[i][j]


# -- basics --------------------------------------------------------------

def test_identity_trace_is_three():
    assert identity().trace() == Polynomial.constant(TABLE, 3)


def test_outer_entries_are_products():
    v = PolyVec3([var("m1"), var("m2"), Polynomial.zero(TABLE)])
    m = outer(v)
    assert m.entries[0][0] == var("m1") ** 2
    assert m.entries[0][1] == var("m1") * var("m2")
    assert m.entries[1][0] == m.entries[0][1]
    assert not m.entries[2][2]
    assert m.is_symmetric()


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
    prod = a @ b
    assert prod.entries[0][0] == Polynomial.constant(TABLE, 7)
    assert prod.entries[0][1] == Polynomial.constant(TABLE, 2)
    assert prod.entries[2][2] == Polynomial.constant(TABLE, 2)


def test_mul_vec():
    a = const_mat([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    v = const_vec([1, 1, 1])
    out = a.mul_vec(v)
    assert [e.evaluate({}) for e in out.entries] == [2, 3, 5]


# -- projectors ----------------------------------------------------------

def test_dbar_of_identity_is_zero():
    assert dbar(identity()).entries == ZERO


def test_ddev_of_identity_is_zero():
    assert ddev(identity()).entries == ZERO


def test_dbar_keeps_only_off_diagonal_of_plane_stress():
    sigma = fiber_substitution("theta").sigma
    off = dbar(sigma)
    t = sigma.table
    s12 = Polynomial.variable(t, "s3")
    for i in range(3):
        for j in range(3):
            expect = s12 if {i, j} == {0, 1} else Polynomial.zero(t)
            assert off.entries[i][j] == expect


def test_ddev_of_plane_diagonal():
    s11, s22 = var("s1"), var("s2")
    a = PolyMat3([[s11, Polynomial.zero(TABLE), Polynomial.zero(TABLE)],
                  [Polynomial.zero(TABLE), s22, Polynomial.zero(TABLE)],
                  [Polynomial.zero(TABLE), Polynomial.zero(TABLE),
                   Polynomial.zero(TABLE)]])
    t3 = F(1, 3) * (s11 + s22)
    d = ddev(a)
    assert d.entries[0][0] == s11 - t3
    assert d.entries[1][1] == s22 - t3
    assert d.entries[2][2] == -t3
    assert not d.trace()


def test_ddev_keeps_ints_when_the_trace_divides_by_three():
    d = ddev(PolyMat3([[4, 1, 0], [1, 2, 0], [0, 0, 3]]))
    assert d.entries == ((1, 0, 0), (0, -1, 0), (0, 0, 0))
    assert all(type(x) is int for row in d.entries for x in row)
    # Otherwise tr/3 is a Fraction, as for Fraction entries.
    d = ddev(PolyMat3([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert d.entries == ((F(2, 3), 0, 0), (0, F(-1, 3), 0), (0, 0, F(-1, 3)))
    assert type(d.entries[0][0]) is F


def test_ddev_on_polynomials_divides_the_trace_by_three():
    s1, s2, s3 = (var(n) for n in ("s1", "s2", "s3"))
    z = s1 * 0
    d = ddev(PolyMat3([[s1, s3, z], [s3, s2, z], [z, z, z]]))
    third = F(1, 3) * (s1 + s2)
    assert d.entries == ((s1 - third, z, z), (z, s2 - third, z), (z, z, -third))
    assert d.entries[2][2].den == 3 and sorted(d.entries[2][2].nums.values()) == [-1, -1]
    # A trace that 3 divides leaves no denominator: the result is in
    # lowest terms.
    d = ddev(PolyMat3([[s1 * 3, z, z], [z, s2 * 3, z], [z, z, s3 * 3]]))
    assert d.entries[0][0] == 2 * s1 - s2 - s3
    assert all(e.den == 1 for row in d.entries for e in row)


def test_split_identity():
    a = identity()
    assert ddev(a).entries == ZERO
    assert dbar(a).entries == ZERO
    assert a.trace() == Polynomial.constant(TABLE, 3)
    assert_reconstructs(a)


@pytest.mark.parametrize("fiber", ["theta", "alpha_prime", "gamma"])
def test_split_reconstructs_fiber_stress(fiber):
    sigma = fiber_substitution(fiber).sigma
    assert_reconstructs(sigma)
    assert not ddev(sigma).trace()
    for i in range(3):
        assert not dbar(sigma).entries[i][i]


def test_gamma_stress_trace_by_hand():
    # Summing the diagonal of the n = (1,1,1) plane-stress form gives
    # -2*(s1 + s2 + s3); in particular the trace does not vanish, which
    # is why tr(sigma) survives as a generator on that subspace.
    sub = fiber_substitution("gamma")
    t = sub.table
    total = (Polynomial.variable(t, "s1") + Polynomial.variable(t, "s2")
             + Polynomial.variable(t, "s3"))
    assert sub.sigma.trace() == F(-2) * total


def test_projector_algebra_on_generic_symmetric_matrix():
    # The generic symmetric matrix covers every symmetric specialization,
    # so these identities hold symbolically once and for all.
    sigma = generic_substitution().sigma
    zero = PolyMat3([[Polynomial.zero(sigma.table)] * 3] * 3).entries
    assert ddev(ddev(sigma)).entries == ddev(sigma).entries
    assert dbar(dbar(sigma)).entries == dbar(sigma).entries
    assert ddev(dbar(sigma)).entries == zero
    assert dbar(ddev(sigma)).entries == zero
    assert not ddev(sigma).trace()
    assert not double_contract(ddev(sigma), dbar(sigma))


# -- properties ----------------------------------------------------------

ints = st.integers(min_value=-9, max_value=9)
int_mats = st.lists(st.lists(ints, min_size=3, max_size=3),
                    min_size=3, max_size=3)


@settings(max_examples=50, deadline=None)
@given(int_mats, int_mats)
def test_projectors_are_orthogonal_idempotents(rows_a, rows_b):
    a, b = const_mat(rows_a), const_mat(rows_b)
    assert ddev(ddev(a)).entries == ddev(a).entries
    assert dbar(dbar(a)).entries == dbar(a).entries
    assert ddev(dbar(a)).entries == ZERO
    assert dbar(ddev(a)).entries == ZERO
    assert not ddev(a).trace()
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
    assert double_contract(a, const_mat(rows_b)) == (a @ b_transposed).trace()


# -- other exact rings ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(int_mats, int_mats, st.lists(ints, min_size=3, max_size=3))
def test_fraction_entries_agree_with_constant_polynomials(rows_a, rows_b, v):
    fa = PolyMat3([[F(x, 2) for x in row] for row in rows_a])
    fb = PolyMat3([[F(x) for x in row] for row in rows_b])
    fv = PolyVec3([F(x, 3) for x in v])
    pa, pb = const_mat(fa.entries), const_mat(fb.entries)
    pv = const_vec(fv.entries)
    assert fa.table is None and fv.table is None

    def values(m):
        return [[e.evaluate({}) for e in row] for row in m.entries]

    assert [list(r) for r in (fa @ fb).entries] == values(pa @ pb)
    assert [list(r) for r in ddev(fa).entries] == values(ddev(pa))
    assert [list(r) for r in dbar(fa).entries] == values(dbar(pa))
    assert list(fa.mul_vec(fv).entries) == [e.evaluate({})
                                            for e in pa.mul_vec(pv).entries]
    assert fv.dot(fv) == pv.dot(pv).evaluate({})
    assert double_contract(fa, fb) == double_contract(pa, pb).evaluate({})


class Counted:
    """A rational that counts the products it takes part in."""
    products = 0

    def __init__(self, value):
        self.value = F(value)

    def __bool__(self):
        return bool(self.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return Counted(self.value * other)
        Counted.products += 1
        return Counted(self.value * other.value)

    def __add__(self, other):
        return Counted(self.value + other.value)


def test_products_with_a_zero_factor_are_skipped():
    diag = PolyMat3([[Counted(x) for x in row]
                     for row in ((2, 0, 0), (0, 3, 0), (0, 0, 5))])
    Counted.products = 0
    prod = diag @ diag
    assert Counted.products == 3
    assert [prod[i][i].value for i in range(3)] == [4, 9, 25]
    assert not prod[0][1]
    Counted.products = 0
    assert double_contract(diag, diag).value == 38
    assert diag.mul_vec(PolyVec3([Counted(1), Counted(0), Counted(0)]))[0].value == 2
    assert Counted.products == 3 + 1


def test_entries_must_not_mix_rings_or_tables():
    other = VarTable([("m1", MAG)])
    z = Polynomial.zero(TABLE)
    with pytest.raises(ValueError, match="different variable tables"):
        PolyVec3([F(1), z, z])
    with pytest.raises(ValueError, match="different variable tables"):
        PolyVec3([z, Polynomial.zero(other), z])
    with pytest.raises(ValueError, match="different variable tables"):
        PolyMat3([[z, z, z], [z, F(0), z], [z, z, z]])
    with pytest.raises(ValueError, match="different kinds"):
        PolyVec3([z, 0, z])


# -- results built from validated operands -------------------------------

def ring_operands(ring):
    """A symmetric matrix, a second matrix and a vector over one ring, and
    the table their entries share."""
    if ring == "polynomial":
        m1, m2, s1, s2, s3 = (var(n) for n in TABLE.names)
        z = Polynomial.zero(TABLE)
        a = PolyMat3([[s1, s3, z], [s3, s2, s1], [z, s1, s2 + s3]])
        b = PolyMat3([[m1, z, s2], [s3, m2, z], [s1, z, m1 + s3]])
        return a, b, PolyVec3([m1, m2, m1 - m2]), TABLE
    if ring == "integer polynomial":
        # Three times the polynomial operands: every trace divides by 3, so
        # ddev's thirds come out over denominator 1.
        a, b, v, table = ring_operands("polynomial")
        scaled = lambda e: 3 * e
        return (PolyMat3([[scaled(e) for e in row] for row in a.entries]),
                PolyMat3([[scaled(e) for e in row] for row in b.entries]),
                PolyVec3([scaled(e) for e in v.entries]), table)
    num = int if ring == "int" else (lambda x: F(x, 2))
    a = PolyMat3([[num(x) for x in row] for row in ((4, 1, 0), (1, 2, -3), (0, -3, 5))])
    b = PolyMat3([[num(x) for x in row] for row in ((0, 7, 1), (2, 0, 0), (1, -1, 3))])
    return a, b, PolyVec3([num(x) for x in (1, 0, -2)]), None


@pytest.mark.parametrize("ring", ["polynomial", "int", "fraction", "integer polynomial"])
def test_ring_results_equal_constructor_built_ones(ring):
    a, b, v, table = ring_operands(ring)
    for out in (a @ b, b @ a, ddev(a), dbar(a), ddev(b), dbar(b), outer(v)):
        rebuilt = PolyMat3(out.entries)
        assert out == rebuilt
        assert out.table == rebuilt.table == table
    for out in (a.mul_vec(v), b.mul_vec(v)):
        rebuilt = PolyVec3(out.entries)
        assert out == rebuilt
        assert out.table == rebuilt.table == table


def test_products_across_rings_do_not_mix_entries():
    # Every entry of a number matrix times a Polynomial one is a Polynomial,
    # even where all products were skipped; tables must agree.
    ints = PolyMat3([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    a, _, v, _ = ring_operands("polynomial")
    assert (ints @ a).table == TABLE
    assert ints.mul_vec(v).table == TABLE
    other = VarTable([("m1", MAG)])
    b = PolyMat3([[Polynomial.variable(other, "m1")] * 3] * 3)
    with pytest.raises(ValueError, match="different variable tables"):
        a @ b
    with pytest.raises(ValueError, match="different variable tables"):
        b.mul_vec(v)
