"""Sparse exact polynomials, bi-grading, parsing, coefficient matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis.poly import (MAG, MAX_EXPONENT, STRESS, NotBiHomogeneousError,
                          ParseError, Polynomial, VarTable, ZeroPolynomialError,
                          coefficient_matrix, integer_product, integer_terms,
                          monomial_key, parse_polynomial)

F = Fraction


@pytest.fixture
def table():
    return VarTable([("m1", MAG), ("m2", MAG), ("s1", STRESS), ("s2", STRESS)])


@pytest.fixture
def vars4(table):
    return tuple(Polynomial.variable(table, n) for n in table.names)


# -- arithmetic ----------------------------------------------------------

def test_binomial_square(vars4):
    x, y, _, _ = vars4
    assert str((x + y) ** 2) == "m1^2 + 2*m1*m2 + m2^2"


def test_difference_of_squares(vars4):
    x, y, _, _ = vars4
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_subtraction_cancels_to_zero(vars4):
    x, _, _, _ = vars4
    assert not x - x


def test_truth_value_is_nonzero(table, vars4):
    x, _, _, _ = vars4
    assert x and Polynomial.constant(table, F(-1, 2))
    assert not (x - x) and not Polynomial.zero(table)


def test_scalar_staging(table, vars4):
    x, _, s, _ = vars4
    assert 2 * (F(1, 2) * x) == x
    assert str(F(1, 6) * (x * s)) == "1/6*m1*s1"
    assert (0 * (x + s)).terms == {} and ((x + s) * F(0)).terms == {}


def test_power_zero_is_one(table, vars4):
    x = vars4[0]
    assert x ** 0 == Polynomial.constant(table, 1)


def test_constants_render_bare(table):
    assert str(Polynomial.constant(table, F(3))) == "3"
    assert str(Polynomial.constant(table, F(1, 6))) == "1/6"
    assert str(Polynomial.zero(table)) == "0"


def test_cross_table_arithmetic_rejected(vars4):
    other = Polynomial.variable(VarTable([("m1", MAG)]), "m1")
    with pytest.raises(ValueError):
        vars4[0] + other


@pytest.mark.parametrize("c", [3, F(-2, 5), 0, 1, -1])
def test_scalar_product_is_the_constant_product(table, vars4, c):
    # Both orders go through one path: the scalar as a constant polynomial.
    x, y, s, _ = vars4
    const = Polynomial.constant(table, c)
    for p in (x * y * s + F(1, 3) * s, F(2, 7) * x, const + 4,
              Polynomial.zero(table)):
        assert c * p == p * c == const * p
        assert (p * c).terms == {m: c * v for m, v in p.terms.items() if c}
        assert all(type(v) is Fraction for v in (c * p).terms.values())


def test_cross_table_product_keeps_its_message(vars4):
    other = Polynomial.variable(VarTable([("m1", MAG)]), "m1")
    for a, b in ((vars4[0], other), (other, vars4[0])):
        with pytest.raises(ValueError, match="built on different variable tables"):
            a * b
    for bad in ("m1", 1.5):
        with pytest.raises(TypeError):
            vars4[0] * bad
        with pytest.raises(TypeError):
            bad * vars4[0]


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        VarTable([("a", MAG), ("a", STRESS)])


# -- bi-grading ----------------------------------------------------------

def test_bidegree_counts_kinds_separately(vars4):
    x, y, s, _ = vars4
    p = 2 * x ** 2 * s + y ** 2 * s
    assert p.bidegree() == (2, 1)
    assert sum(p.bidegree()) == 3


def test_mixed_bidegrees_raise(vars4):
    x, _, s, _ = vars4
    p = x + s
    with pytest.raises(NotBiHomogeneousError):
        p.bidegree()


def test_zero_has_no_bidegree(table):
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(table).bidegree()


def test_monomial_key_orders_by_total_degree_then_exponents():
    assert monomial_key((2, 0)) == (2, (2, 0))
    assert monomial_key((2, 0)) > monomial_key((1, 1)) > monomial_key((0, 2))
    assert monomial_key((0, 3)) > monomial_key((2, 0))


def test_sorted_monomials_descend(vars4):
    x, y, _, _ = vars4
    p = (x + y) ** 2
    assert p.sorted_monomials() == [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)]


# -- evaluation ----------------------------------------------------------

def test_evaluate_exact(vars4):
    x, y, _, _ = vars4
    p = (x + y) ** 2
    point = {"m1": F(1, 2), "m2": F(1, 3), "s1": F(0), "s2": F(0)}
    assert p.evaluate(point) == F(25, 36)


def test_evaluate_missing_variable_raises(vars4):
    x, y, _, _ = vars4
    with pytest.raises(ValueError, match="m2"):
        (x * y).evaluate({"m1": F(1)})
    with pytest.raises(ValueError, match="m1"):
        x.evaluate({})


def test_evaluate_at_polynomials_composes(table, vars4):
    # p(x, y) at x = m1 + s1, y = 2*m2 - 1/3 is the composed polynomial.
    x, y, s, _ = vars4
    p = F(3, 2) * x ** 2 * y - 4 * y ** 3 + 5
    fx, fy = x + s, 2 * y - F(1, 3)
    composed = F(3, 2) * fx ** 2 * fy - 4 * fy ** 3 + 5
    value = p.evaluate({"m1": fx, "m2": fy})
    assert value == composed
    assert value.table == table
    # Extra assignments are ignored, and a rational point still gives a
    # Fraction through the composition.
    point = {"m1": F(1, 2), "m2": F(-2), "s1": F(3), "s2": F(7)}
    assert p.evaluate({**point, "m1": fx, "m2": fy}) == composed
    assert value.evaluate(point) == p.evaluate(
        {"m1": fx.evaluate(point), "m2": fy.evaluate(point)})


def test_evaluate_constant_ignores_point(table):
    p = Polynomial.constant(table, F(7, 3))
    assert p.evaluate({n: F(5) for n in table.names}) == F(7, 3)
    assert p.evaluate({}) == F(7, 3)
    assert Polynomial.zero(table).evaluate({}) == 0


# -- coefficient matrices ------------------------------------------------

def columns(*polys):
    """The integer columns (d, numerators) of polynomials."""
    return [integer_terms(p.table, p.terms) for p in polys]


def test_coefficient_matrix_two_by_two(table, vars4):
    x, y, _, _ = vars4
    keys, mat = coefficient_matrix(table, columns(x ** 2 + y ** 2, x ** 2 - y ** 2))
    assert [table.unpack(k) for k in keys] == [(2, 0, 0, 0), (0, 2, 0, 0)]
    assert [list(r) for r in mat.data] == [[1, 1], [1, -1]]


def test_coefficient_matrix_proportional_columns(table, vars4):
    x = vars4[0]
    keys, mat = coefficient_matrix(table, columns(x ** 2, 2 * x ** 2))
    assert [table.unpack(k) for k in keys] == [(2, 0, 0, 0)]
    assert [list(r) for r in mat.data] == [[1, 2]]
    # Column 2 is twice column 1.
    assert mat.rref()[1] == (0,)
    assert [list(r) for r in mat.rref()[0].data] == [[1, 2]]


def test_coefficient_matrix_rejects_mixed_bidegrees(table, vars4):
    x, _, s, _ = vars4
    with pytest.raises(ValueError):
        coefficient_matrix(table, columns(x ** 2, s))


def test_coefficient_matrix_rejects_a_non_bihomogeneous_polynomial(table, vars4):
    x, _, s, _ = vars4
    with pytest.raises(NotBiHomogeneousError):
        coefficient_matrix(table, columns(x ** 2 + s))


def test_coefficient_matrix_rejects_zero(table, vars4):
    x = vars4[0]
    with pytest.raises(ZeroPolynomialError):
        coefficient_matrix(table, columns(x - x))


# -- parsing -------------------------------------------------------------

def test_parse_matches_construction(table, vars4):
    x, y, s, _ = vars4
    assert parse_polynomial("2*m1^2*s1 + m2^2*s1", table) == \
        2 * x ** 2 * s + y ** 2 * s


def test_parse_unary_minus_chain(table, vars4):
    _, _, s1, s2 = vars4
    assert parse_polynomial("-s1 - s2", table) == -s1 - s2
    assert parse_polynomial("--s1", table) == s1


def test_parse_rational_literal(table, vars4):
    x = vars4[0]
    assert parse_polynomial("1/6*m1", table) == F(1, 6) * x


def test_parse_parenthesized_power(table, vars4):
    x, y, _, _ = vars4
    assert parse_polynomial("(m1 + m2)^3", table) == (x + y) ** 3


def test_parse_rejects_implicit_multiplication(table):
    with pytest.raises(ParseError, match="position 2"):
        parse_polynomial("2 m1", table)


def test_parse_rejects_negative_exponent(table):
    with pytest.raises(ParseError, match="nonnegative"):
        parse_polynomial("m1^-1", table)


def test_parse_rejects_unknown_variable(table):
    with pytest.raises(ParseError, match="'q'"):
        parse_polynomial("m1 + q", table)


def test_parse_rejects_zero_denominator(table):
    with pytest.raises(ParseError, match="denominator"):
        parse_polynomial("1/0", table)


def test_parse_rejects_trailing_garbage(table):
    with pytest.raises(ParseError):
        parse_polynomial("m1 +", table)


@pytest.mark.parametrize("text", ["(" * 400 + "m1" + ")" * 400,
                                  "-" * 2000 + "m1"], ids=["parens", "minus"])
def test_parse_rejects_deep_nesting(table, text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_polynomial(text, table)


@pytest.mark.parametrize("text", ["2^99999999", "m1^1001", "(3/2)^999",
                                  "((m1 + m2 + s1)^20)^20", "(m1 + s2)^1000"])
def test_parse_rejects_oversized_powers(table, text):
    with pytest.raises(ParseError, match="power too large"):
        parse_polynomial(text, table)


@pytest.mark.parametrize("text", ["9" * 5000, "1/" + "7" * 301, "m1^" + "2" * 400],
                         ids=["integer", "denominator", "exponent"])
def test_parse_rejects_overlong_literals(table, text):
    # 5000 digits used to escape as the interpreter's ValueError on
    # integer string conversion.
    with pytest.raises(ParseError, match="literal too long"):
        parse_polynomial(text, table)


def test_parse_rejects_oversized_products(table):
    # 16 factors of 300 digits used to parse, and then raised the
    # interpreter's ValueError when the coefficient was printed.
    with pytest.raises(ParseError, match="product too large"):
        parse_polynomial("*".join(["9" * 300] * 16) + "*m1", table)
    with pytest.raises(ParseError, match="product too large"):
        parse_polynomial("*".join(["m1"] * 1001), table)


def test_parse_allows_powers_up_to_the_bounds(table, vars4):
    x = vars4[0]
    # 2 has bit length 2; m1 has degree 1 and coefficient 1.
    assert parse_polynomial("2^500", table) == Polynomial.constant(table, 2 ** 500)
    assert parse_polynomial("m1^1000", table) == x ** 1000
    assert len(parse_polynomial("(m1 + m2 + s1)^43", table).terms) == 990
    assert not parse_polynomial("0^99999999", table)
    assert parse_polynomial("9" * 300, table) == Polynomial.constant(table, 10 ** 300 - 1)
    assert parse_polynomial("*".join(["m1"] * 1000), table) == x ** 1000


# -- properties ----------------------------------------------------------

_TABLE = VarTable([("m1", MAG), ("m2", MAG), ("s1", STRESS), ("s2", STRESS)])

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
    lambda c: c != 0)
exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * 4)


@st.composite
def polynomials(draw):
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=5))
    p = Polynomial.zero(_TABLE)
    one = Polynomial.constant(_TABLE, 1)
    for exps, c in terms:
        mono = one
        for name, e in zip(_TABLE.names, exps):
            mono = mono * Polynomial.variable(_TABLE, name) ** e
        p = p + c * mono
    return p


@st.composite
def bihomogeneous(draw):
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    p = Polynomial.zero(_TABLE)
    one = Polynomial.constant(_TABLE, 1)
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=a))
        j = draw(st.integers(min_value=0, max_value=b))
        c = draw(coeffs)
        mono = one
        for name, e in zip(_TABLE.names, (i, a - i, j, b - j)):
            mono = mono * Polynomial.variable(_TABLE, name) ** e
        p = p + c * mono
    return p, (a, b)


@settings(max_examples=50, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=50, deadline=None)
@given(polynomials())
def test_additive_and_multiplicative_identities(p):
    zero = Polynomial.zero(_TABLE)
    one = Polynomial.constant(_TABLE, 1)
    assert p + zero == p
    assert p * one == p
    assert not p - p
    assert not p * zero


@settings(max_examples=50, deadline=None)
@given(bihomogeneous(), bihomogeneous())
def test_bidegree_adds_under_multiplication(pa, qb):
    p, (a1, b1) = pa
    q, (a2, b2) = qb
    prod = p * q
    if not p or not q:
        assert not prod
    else:
        assert prod.bidegree() == (a1 + a2, b1 + b2)


@settings(max_examples=50, deadline=None)
@given(polynomials())
def test_parser_round_trips_str(p):
    assert parse_polynomial(str(p), _TABLE) == p


@settings(max_examples=50, deadline=None)
@given(polynomials(), polynomials(), st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=4, max_size=4))
def test_evaluate_is_a_ring_morphism(p, q, vals):
    point = dict(zip(_TABLE.names, vals))
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(max_examples=50, deadline=None)
@given(st.lists(bihomogeneous(), min_size=1, max_size=4))
def test_coefficient_matrix_reconstructs_polynomials(items):
    a, b = items[0][1]
    polys = [p for p, _ in items if p and p.bidegree() == (a, b)]
    if not polys:
        return
    cols = columns(*polys)
    keys, mat = coefficient_matrix(_TABLE, cols)
    one = Polynomial.constant(_TABLE, 1)
    for j, p in enumerate(polys):
        rebuilt = Polynomial.zero(_TABLE)
        for i, key in enumerate(keys):
            exps = _TABLE.unpack(key)
            mono = one
            for name, e in zip(_TABLE.names, exps):
                mono = mono * Polynomial.variable(_TABLE, name) ** e
            rebuilt = rebuilt + Fraction(mat.data[i][j], cols[j][0]) * mono
        assert rebuilt == p


# -- packed monomials ----------------------------------------------------

# Kinds interleaved, so that no run of slots belongs to one kind.
_MIXED = VarTable([("s1", STRESS), ("m1", MAG), ("s2", STRESS), ("m2", MAG),
                   ("s3", STRESS)])
mixed_exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * 5)


@st.composite
def mixed_polynomials(draw):
    terms = draw(st.dictionaries(mixed_exponents, coeffs, max_size=6))
    return Polynomial(_MIXED, terms)


@settings(max_examples=200, deadline=None)
@given(mixed_polynomials(), mixed_polynomials())
def test_packed_integer_product_matches_polynomial_product(p, q):
    da, a = integer_terms(_MIXED, p.terms)
    db, b = integer_terms(_MIXED, q.terms)
    prod = integer_product(a, b)
    assert all(prod.values())
    assert {_MIXED.unpack(k): Fraction(v, da * db) for k, v in prod.items()} == \
        (p * q).terms


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_exponents, min_size=1, max_size=12))
def test_packed_keys_sort_as_monomial_key_within_a_bidegree(monos):
    for m in monos:
        key = _MIXED.pack(m)
        assert _MIXED.unpack(key) == m
        assert _MIXED.packed_bidegree(key) == _MIXED.monomial_bidegree(m)
    for bd in {_MIXED.monomial_bidegree(m) for m in monos}:
        same = [m for m in monos if _MIXED.monomial_bidegree(m) == bd]
        assert sorted(map(_MIXED.pack, same)) == \
            [_MIXED.pack(m) for m in sorted(same, key=monomial_key)]


def test_pack_refuses_what_does_not_fit_a_slot():
    top = MAX_EXPONENT
    assert _MIXED.unpack(_MIXED.pack((0, top, 0, 0, 0))) == (0, top, 0, 0, 0)
    # One exponent too large, a mag degree too large from exponents that
    # each fit, and a negative exponent: none may carry into a neighbour.
    for exps in [(top + 1, 0, 0, 0, 0), (0, top, 0, 1, 0), (1, 0, -1, 0, 0)]:
        with pytest.raises(ValueError, match="does not fit"):
            _MIXED.pack(exps)


# -- multiplication against a schoolbook reference -------------------------

def schoolbook_product(p, q):
    """Term map of p*q by the textbook double loop on Fraction coefficients."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


# Few distinct monomials, so products of general operands collide and
# often cancel.
small_exponents = st.tuples(*(st.integers(min_value=0, max_value=1),) * 4)


@st.composite
def shaped_polynomials(draw):
    shape = draw(st.sampled_from(["zero", "constant", "single", "general"]))
    if shape == "zero":
        return Polynomial.zero(_TABLE)
    if shape == "constant":
        return Polynomial.constant(_TABLE, draw(coeffs))
    if shape == "single":
        return Polynomial(_TABLE, {draw(exponents): draw(coeffs)})
    terms = draw(st.dictionaries(small_exponents, coeffs, min_size=2,
                                 max_size=6))
    return Polynomial(_TABLE, terms)


@settings(max_examples=300, deadline=None)
@given(shaped_polynomials(), shaped_polynomials())
def test_product_matches_schoolbook_reference(p, q):
    expected = schoolbook_product(p, q)
    for prod in (p * q, q * p):
        assert prod.table == _TABLE
        assert prod.terms == expected
        assert all(type(c) is Fraction and c != 0
                   for c in prod.terms.values())


def test_product_cancellation_leaves_no_zero_terms(vars4):
    x, y, s, _ = vars4
    half = Polynomial.constant(x.table, F(1, 2))
    prod = (half * x + F(1, 3) * y) * (x - F(2, 3) * y) * s
    assert prod.terms == schoolbook_product((half * x + F(1, 3) * y) * s,
                                            x - F(2, 3) * y)
    assert ((x + y) * (x - y) - x * x + y * y).terms == {}
