"""Sparse exact polynomials, bi-grading, parsing, coefficient matrices."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis import poly
from mebasis.poly import (MAG, MAX_EXPONENT, STRESS, NotBiHomogeneousError,
                          ParseError, Polynomial, VarTable, ZeroPolynomialError,
                          coefficient_matrix, integer_product, monomial_key,
                          parse_polynomial)
from mebasis.verify import NAME_TABLE

F = Fraction


def power(p, n):
    """p to the nth power, by n repeated products."""
    result = Polynomial.constant(p.table, 1)
    for _ in range(n):
        result = result * p
    return result


def from_terms(table, terms):
    """The polynomial with the given {exponent tuple: coefficient} terms,
    built with the public ring only: the sum of constant(c) * x^e."""
    xs = [parse_polynomial(name, table) for name in table.names]
    p = Polynomial.zero(table)
    for mono, c in terms.items():
        assert len(mono) == len(xs)
        term = Polynomial.constant(table, F(c))
        for x, e in zip(xs, mono):
            term = term * power(x, e)
        p = p + term
    return p


def key_of(table, exps):
    """The packed key of the monomial with exponent vector exps."""
    ((key, _),) = from_terms(table, {tuple(exps): 1}).nums.items()
    return key


@pytest.fixture
def table():
    return VarTable([("m1", MAG), ("m2", MAG), ("s1", STRESS), ("s2", STRESS)])


@pytest.fixture
def vars4(table):
    return tuple(parse_polynomial(n, table) for n in table.names)


# -- arithmetic ----------------------------------------------------------

def test_binomial_square(vars4):
    x, y, _, _ = vars4
    assert str((x + y) * (x + y)) == "m1^2 + 2*m1*m2 + m2^2"


def test_difference_of_squares(vars4):
    x, y, _, _ = vars4
    assert (x + y) * (x - y) == x * x - y * y


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


def test_constants_render_bare(table):
    assert str(Polynomial.constant(table, F(3))) == "3"
    assert str(Polynomial.constant(table, F(1, 6))) == "1/6"
    assert str(Polynomial.zero(table)) == "0"


def test_cross_table_arithmetic_rejected(vars4):
    other = parse_polynomial("m1", VarTable([("m1", MAG)]))
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
    other = parse_polynomial("m1", VarTable([("m1", MAG)]))
    for a, b in ((vars4[0], other), (other, vars4[0])):
        with pytest.raises(ValueError, match="built on different variable tables"):
            a * b
    for bad in ("m1", 1.5):
        with pytest.raises(TypeError):
            vars4[0] * bad
        with pytest.raises(TypeError):
            bad * vars4[0]


def test_a_zero_operand_is_the_product(table, vars4):
    x, y, s, _ = vars4
    p = x * y - F(1, 3) * s
    zero = Polynomial.zero(table)
    for product in (p * zero, zero * p, p * 0, 0 * p, p * F(0), zero * zero):
        assert product == zero and product.den == 1 and product.nums == {}
    # A zero on another table is refused before it is returned.
    other = Polynomial.zero(VarTable([("m1", MAG)]))
    for a, b in ((p, other), (other, p), (zero, other), (other, zero)):
        with pytest.raises(ValueError, match="polynomials built on different variable tables"):
            a * b


@pytest.mark.parametrize("table", [
    NAME_TABLE,
    VarTable([("m1", MAG), ("m2", MAG), ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)]),
    VarTable([("s1", STRESS), ("m1", MAG), ("s2", STRESS)]),
], ids=["verify-names", "plane", "interleaved"])
def test_variable_key_is_the_packed_unit_vector(table):
    for i, (name, kind) in enumerate(zip(table.names, table.kinds)):
        unit = [0] * len(table.names)
        unit[i] = 1
        x = parse_polynomial(name, table)
        ((key, c),) = x.nums.items()
        assert x.den == 1 and c == 1
        # unpack reads the exponent slots and bidegree() the two degree
        # slots: together, every bit of the key.
        assert table.unpack(key) == tuple(unit)
        assert x.bidegree() == ((1, 0) if kind == MAG else (0, 1))


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        VarTable([("a", MAG), ("a", STRESS)])


# -- bi-grading ----------------------------------------------------------

def test_bidegree_counts_kinds_separately(vars4):
    x, y, s, _ = vars4
    p = 2 * x * x * s + y * y * s
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
    p = (x + y) * (x + y)
    assert p.sorted_monomials() == [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)]


# -- evaluation ----------------------------------------------------------

def test_evaluate_exact(vars4):
    x, y, _, _ = vars4
    p = (x + y) * (x + y)
    point = {"m1": F(1, 2), "m2": F(1, 3), "s1": F(0), "s2": F(0)}
    assert p.evaluate(point) == F(25, 36)


def test_evaluate_missing_variable_raises(vars4):
    x, y, _, _ = vars4
    with pytest.raises(ValueError, match="m2"):
        (x * y).evaluate({"m1": F(1)})
    with pytest.raises(ValueError, match="m1"):
        x.evaluate({})


def test_evaluate_is_an_int_where_the_value_is_whole(vars4):
    x, y, _, _ = vars4
    p = F(1, 2) * x * y + F(1, 3) * y
    whole = p.evaluate({"m1": 2, "m2": 3})
    assert whole == 4 and type(whole) is int
    whole = p.evaluate({"m1": F(2, 3), "m2": F(3, 2)})
    assert whole == 1 and type(whole) is int
    part = p.evaluate({"m1": 1, "m2": 1})
    assert part == F(5, 6) and type(part) is F
    part = p.evaluate({"m1": F(1, 2), "m2": 3})
    assert part == F(7, 4) and type(part) is F
    assert type(Polynomial.zero(p.table).evaluate({})) is int


def test_evaluate_constant_ignores_point(table):
    p = Polynomial.constant(table, F(7, 3))
    assert p.evaluate({n: F(5) for n in table.names}) == F(7, 3)
    assert p.evaluate({}) == F(7, 3)
    assert Polynomial.zero(table).evaluate({}) == 0


# -- coefficient matrices ------------------------------------------------

def test_coefficient_matrix_two_by_two(table, vars4):
    x, y, _, _ = vars4
    keys, mat = coefficient_matrix([x * x + y * y, x * x - y * y])
    assert [table.unpack(k) for k in keys] == [(2, 0, 0, 0), (0, 2, 0, 0)]
    assert [list(r) for r in mat.data] == [[1, 1], [1, -1]]


def test_coefficient_matrix_proportional_columns(table, vars4):
    x = vars4[0]
    keys, mat = coefficient_matrix([x * x, 2 * x * x])
    assert [table.unpack(k) for k in keys] == [(2, 0, 0, 0)]
    assert [list(r) for r in mat.data] == [[1, 2]]
    # Column 2 is twice column 1.
    assert mat.rref()[1] == (0,)
    assert [list(r) for r in mat.rref()[0].data] == [[1, 2]]


def test_coefficient_matrix_rejects_mixed_bidegrees(vars4):
    x, _, s, _ = vars4
    with pytest.raises(ValueError):
        coefficient_matrix([x * x, s])


def test_coefficient_matrix_rejects_a_non_bihomogeneous_polynomial(vars4):
    x, _, s, _ = vars4
    with pytest.raises(NotBiHomogeneousError):
        coefficient_matrix([x * x + s])


def test_coefficient_matrix_names_a_mixed_column_that_is_not_first(vars4):
    x, _, s, _ = vars4
    with pytest.raises(NotBiHomogeneousError):
        coefficient_matrix([x * x, x * x + s])


def test_coefficient_matrix_rejects_zero(vars4):
    x = vars4[0]
    with pytest.raises(ZeroPolynomialError):
        coefficient_matrix([x - x])


def test_coefficient_matrix_rejects_columns_on_different_tables(table, vars4):
    # The matrix reads every column with the first column's slot layout: m2
    # on this table packs like m1 on the fixture's, so without the check
    # m1^2 and m2^2 would share a row.
    x = vars4[0]
    other = VarTable([("m2", MAG), ("m1", MAG), ("s1", STRESS), ("s2", STRESS)])
    y = parse_polynomial("m2", other)
    assert (x * x).nums.keys() == (y * y).nums.keys()
    with pytest.raises(ValueError, match="^polynomials built on different variable tables$"):
        coefficient_matrix([x * x, y * y])


# -- parsing -------------------------------------------------------------

def test_parse_matches_construction(table, vars4):
    x, y, s, _ = vars4
    assert parse_polynomial("2*m1^2*s1 + m2^2*s1", table) == \
        2 * x * x * s + y * y * s
    assert parse_polynomial("m1*m2^0*2/3", table) == F(2, 3) * x
    # One literal may scale one parenthesized sum.
    assert parse_polynomial("3/4*(m1*s1 - 2*s1*m2)", table) == F(3, 4) * (x * s - 2 * y * s)
    assert parse_polynomial("2*(m1 - m2)", table) == 2 * x - 2 * y
    assert parse_polynomial("(m1*s1)", table) == x * s
    assert not parse_polynomial("0*(m1 + m2)", table)


def test_parse_unary_minus_chain(table, vars4):
    x, _, s1, s2 = vars4
    assert parse_polynomial("-s1 - s2", table) == -s1 - s2
    assert parse_polynomial("--s1", table) == s1
    assert parse_polynomial("s1 + -1*m1 - +-m1", table) == s1
    # The signs before a term are read in a loop, not by recursion.
    assert parse_polynomial("-" * 100_000 + "m1", table) == x
    assert parse_polynomial("-" * 99_999 + "m1", table) == -x


def test_parse_rational_literal(table, vars4):
    x = vars4[0]
    assert parse_polynomial("1/6*m1", table) == F(1, 6) * x


@pytest.mark.parametrize("text, message", [
    ("(m1 + m2)^2", "unexpected '^' (at position 9)"),
    ("((m1))", "unexpected '(' (at position 1)"),
    ("2*3*m1", "a term holds at most one literal (at position 2)"),
    ("(m1 + m2)*(m1 - m2)", "unexpected '*' (at position 9)"),
    ("-(m1 + m2)", "unexpected '(' (at position 1)"),
    ("2*(m1 + m2) + s1", "unexpected '+' (at position 12)"),
], ids=["power-of-a-sum", "nesting", "two-literals", "product-of-sums", "signed-group",
        "sum-after-group"])
def test_parse_refuses_what_the_flat_grammar_lacks(table, text, message):
    # A term is one monomial times at most one literal, and one rational may
    # scale one parenthesized sum: nothing else groups.
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, table)
    assert str(info.value) == message


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


@pytest.mark.parametrize("text, position", [("s1/2", 2), ("(s1)/3", 4)])
def test_parse_rejects_a_slash_after_a_non_literal(table, text, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, table)
    assert str(info.value) == \
        f"'/' is only allowed between integer literals (at position {position})"


def test_parse_rejects_trailing_garbage(table):
    with pytest.raises(ParseError):
        parse_polynomial("m1 +", table)


@pytest.mark.parametrize("text", ["(" * 400 + "m1" + ")" * 400], ids=["parens"])
def test_parse_rejects_deep_nesting(table, text):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, table)
    assert str(info.value) == "unexpected '(' (at position 1)"


# Only a variable takes an exponent, and a term's total degree is at most
# MAX_EXPONENT.
OVERSIZED_POWERS = {
    "2^99999999": "unexpected '^' (at position 1)",
    "m1^1001": f"total degree above {MAX_EXPONENT} (at position 0)",
    "(3/2)^999": "unexpected '^' (at position 5)",
    "((m1 + m2 + s1)^20)^20": "unexpected '(' (at position 1)",
    "(m1 + s2)^1000": "unexpected '^' (at position 9)",
}


@pytest.mark.parametrize("text", OVERSIZED_POWERS)
def test_parse_rejects_oversized_powers(table, text):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, table)
    assert str(info.value) == OVERSIZED_POWERS[text]


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
    with pytest.raises(ParseError) as info:
        parse_polynomial("*".join(["9" * 300] * 16) + "*m1", table)
    assert str(info.value) == "a term holds at most one literal (at position 301)"
    with pytest.raises(ParseError) as info:
        parse_polynomial("*".join(["m1"] * 1001), table)
    assert str(info.value) == f"total degree above {MAX_EXPONENT} (at position 765)"


def test_parse_refuses_a_product_of_wide_factors_unbuilt(table, monkeypatch):
    # A sum holds any number of terms, and the parser multiplies none of
    # them: a product of two sums is refused at its '*'.
    wide = "(" + " + ".join(f"m1^{i}*m2^{j}" for i in range(32) for j in range(32)) + ")"
    calls = []
    kernel = poly.integer_product

    def counted(a, b):
        calls.append(len(a) * len(b))
        return kernel(a, b)

    monkeypatch.setattr(poly, "integer_product", counted)
    assert len(parse_polynomial(wide, table).nums) == 1024
    with pytest.raises(ParseError) as info:
        parse_polynomial(f"{wide}*{wide}", table)
    assert str(info.value) == f"unexpected '*' (at position {len(wide)})"
    assert calls == []


def test_parse_allows_powers_up_to_the_bounds(table, vars4):
    x, _, s, _ = vars4
    top = power(x, MAX_EXPONENT)
    assert parse_polynomial("m1^255", table) == top
    assert parse_polynomial("*".join(["m1"] * 255), table) == top
    assert parse_polynomial("m1^200*s1^55", table) == power(x, 200) * power(s, 55)
    assert parse_polynomial("m1^0", table) == Polynomial.constant(table, 1)
    assert not parse_polynomial("0*m1^255", table)
    assert parse_polynomial("9" * 300, table) == Polynomial.constant(table, 10 ** 300 - 1)
    assert parse_polynomial("1/" + "9" * 300 + "*m1", table) == F(1, 10 ** 300 - 1) * x


def test_parse_refuses_a_total_degree_past_a_packed_slot(table):
    # Refused at the factor that passes MAX_EXPONENT, before its key can
    # carry into the next slot.
    for text, position in [("m1^256", 0), ("m1^200*s2^56", 7),
                           ("*".join(["m1"] * 256), 765), ("m1^255*s1^0*m2", 12),
                           ("s1 + m1^" + "9" * 300, 5)]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, table)
        assert str(info.value) == \
            f"total degree above {MAX_EXPONENT} (at position {position})", text


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
            mono = mono * power(parse_polynomial(name, _TABLE), e)
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
            mono = mono * power(parse_polynomial(name, _TABLE), e)
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
    keys, mat = coefficient_matrix(polys)
    one = Polynomial.constant(_TABLE, 1)
    for j, p in enumerate(polys):
        rebuilt = Polynomial.zero(_TABLE)
        for i, key in enumerate(keys):
            exps = _TABLE.unpack(key)
            mono = one
            for name, e in zip(_TABLE.names, exps):
                mono = mono * power(parse_polynomial(name, _TABLE), e)
            rebuilt = rebuilt + Fraction(mat.data[i][j], p.den) * mono
        assert rebuilt == p


# -- packed monomials ----------------------------------------------------

# Kinds interleaved, so that no run of slots belongs to one kind.
_MIXED = VarTable([("s1", STRESS), ("m1", MAG), ("s2", STRESS), ("m2", MAG),
                   ("s3", STRESS)])
mixed_exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * 5)


def kind_degrees(table, exps):
    """(mag degree, stress degree) of an exponent vector, summed by kind."""
    a = sum(e for e, kind in zip(exps, table.kinds) if kind == MAG)
    return (a, sum(exps) - a)


@st.composite
def mixed_polynomials(draw):
    terms = draw(st.dictionaries(mixed_exponents, coeffs, max_size=6))
    return from_terms(_MIXED, terms)


@settings(max_examples=200, deadline=None)
@given(mixed_polynomials(), mixed_polynomials())
def test_packed_integer_product_matches_polynomial_product(p, q):
    da, a = p.den, p.nums
    db, b = q.den, q.nums
    prod = integer_product(a, b)
    assert all(prod.values())
    assert {_MIXED.unpack(k): Fraction(v, da * db) for k, v in prod.items()} == \
        (p * q).terms


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_exponents, min_size=1, max_size=12))
def test_packed_keys_sort_as_monomial_key_within_a_bidegree(monos):
    for m in monos:
        key = key_of(_MIXED, m)
        assert _MIXED.unpack(key) == m
        assert _MIXED.packed_bidegree(key) == kind_degrees(_MIXED, m)
    for bd in {kind_degrees(_MIXED, m) for m in monos}:
        same = [m for m in monos if kind_degrees(_MIXED, m) == bd]
        assert sorted(key_of(_MIXED, m) for m in same) == \
            [key_of(_MIXED, m) for m in sorted(same, key=monomial_key)]


# -- the integer form: numerators over one denominator ---------------------

def in_lowest_terms(p):
    """den > 0, no zero numerator, and gcd(den, *nums) == 1 (den == 1 for zero)."""
    return p.den > 0 and all(p.nums.values()) and gcd(p.den, *p.nums.values()) == 1


@settings(max_examples=200, deadline=None)
@given(mixed_polynomials(), mixed_polynomials(), coeffs, st.integers(-5, 5),
       st.integers(0, 3))
def test_every_result_is_in_lowest_terms(p, q, c, k, n):
    results = [p, q, p + q, p - q, q - p, -p, p * q, p + c, c - p, p * c, c * p,
               p * k, k * p, p + k, k - p, p - p, p * 0, power(p, n)]
    for r in results:
        assert in_lowest_terms(r), r
        assert from_terms(_MIXED, r.terms) == r
        assert {_MIXED.unpack(k): F(v, r.den) for k, v in r.nums.items()} == r.terms


@settings(max_examples=200, deadline=None)
@given(mixed_polynomials(), st.integers(-30, 30).filter(bool))
def test_division_by_an_int_is_the_product_by_its_inverse(p, k):
    q = p / k
    want = p * Polynomial.constant(_MIXED, F(1, k))
    assert (q.table, q.den, q.nums) == (want.table, want.den, want.nums)
    assert in_lowest_terms(q)


def test_division_of_zero_and_its_refusals():
    zero = Polynomial.zero(_MIXED)
    for k in (1, -1, 3, -6):
        q = zero / k
        assert (q.den, q.nums) == (1, {}) and q == zero
    p = parse_polynomial("1/2*m1 - 3*s1", _MIXED)
    assert p / -3 == parse_polynomial("-1/6*m1 + s1", _MIXED)
    with pytest.raises(ZeroDivisionError):
        p / 0
    for k in (F(1, 3), 3.0, "3", p):
        with pytest.raises(TypeError):
            p / k


def test_a_product_past_the_top_degree_is_refused_without_a_carry():
    def parse(text):
        return parse_polynomial(text, _MIXED)

    with pytest.raises(ValueError, match=f"total degree above {MAX_EXPONENT}"):
        parse("m1^200") * parse("m1^56")
    with pytest.raises(ValueError, match=f"total degree above {MAX_EXPONENT}"):
        parse("m1^128 + s1") * parse("s1^128 + 1")
    # At the top degree every slot still holds its own value.
    for p in (parse("m1^200") * parse("m1^55"), parse("m1^128") * parse("s1^127"),
              parse("s1^254") * parse("m1")):
        ((key, c),) = p.nums.items()
        mono = _MIXED.unpack(key)
        assert c == 1 and sum(mono) == MAX_EXPONENT
        assert key_of(_MIXED, mono) == key
        assert p.bidegree() == kind_degrees(_MIXED, mono)
    assert (parse("m1^200") * parse("m1^55")).terms == {(0, MAX_EXPONENT, 0, 0, 0): 1}


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
        return from_terms(_TABLE, {draw(exponents): draw(coeffs)})
    terms = draw(st.dictionaries(small_exponents, coeffs, min_size=2,
                                 max_size=6))
    return from_terms(_TABLE, terms)


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
