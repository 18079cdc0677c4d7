"""The 30-invariant catalog: order, bi-degrees, recipes, cubic symmetry."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mebasis.catalog import (CATALOG, CATALOG_INDEX, CATALOG_NAMES, ROWS,
                             evaluate_all, read_name)
from mebasis.poly import MAG, Polynomial, VarTable, parse_polynomial
from mebasis.restriction import (BUILTIN_DOCUMENTS, custom_substitution,
                                 fiber_substitution, generic_substitution,
                                 restrict_basis)

import recipes_reference

F = Fraction

EXPECTED_ORDER = (
    "I010", "I002", "I020", "I003", "I012", "I030", "I004", "I022", "I014",
    "I200", "I201", "I210", "I202a", "I202b", "I211", "I220", "I203",
    "I212a", "I212b", "I221", "I204", "I213", "I222", "I400", "I401",
    "I410", "I402", "I411", "I600", "I601",
)

THETA_ZEROS = ("I003", "I004", "I014", "I202b", "I203", "I212b", "I204",
               "I222", "I401", "I402", "I411", "I600")

# Quarter turns about the three cube axes; together they generate the
# rotational symmetry group of the cube, so invariance under these three
# maps implies invariance under the whole group.
QUARTER_TURNS = (
    ((1, 0, 0), (0, 0, -1), (0, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (-1, 0, 0)),
    ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
)


def test_catalog_has_thirty_entries_in_fixed_order():
    assert len(CATALOG) == 30
    assert CATALOG_NAMES == EXPECTED_ORDER
    assert len(set(CATALOG_NAMES)) == 30
    assert all(CATALOG_INDEX[n] == i for i, n in enumerate(CATALOG_NAMES))


def test_declared_bidegrees_follow_the_digit_convention():
    # The three digits of a name count magnetization degree, diagonal
    # stress degree and off-diagonal stress degree; the bi-degree is
    # therefore (first digit, second + third).
    for defn in CATALOG:
        a, b, c = (int(d) for d in defn.name[1:4])
        assert defn.bidegree == (a, b + c), defn.name


def test_labels_follow_the_name():
    # I_{abc} from the three digits, with a suffix a or b as a superscript.
    for defn in CATALOG:
        digits, suffix = defn.name[1:4], defn.name[4:]
        expected = f"I_{{{digits}}}^{{{suffix}}}" if suffix else f"I_{{{digits}}}"
        assert defn.label == expected, defn.name


# The degree of each factor in magnetization, diagonal stress and
# off-diagonal stress, the three digits of a name.
FACTOR_DEGREES = {
    "s": (0, 1, 0), "sd": (0, 1, 0), "sb": (0, 0, 1),
    "sb^2": (0, 0, 2), "bar(sb^2)": (0, 0, 2), "dev(sb^2)": (0, 0, 2),
    "m": (1, 0, 0), "mb": (2, 0, 0), "md": (2, 0, 0),
}


def test_every_name_agrees_with_its_factors():
    # README "Naming": the digits of Iabc are what the factors add up to.
    assert tuple(name for name, _ in ROWS) == EXPECTED_ORDER
    for name, factors in ROWS:
        degrees = zip(*(FACTOR_DEGREES[f] for f in factors))
        assert "".join(str(sum(d)) for d in degrees) == name[1:4], name


@pytest.mark.parametrize("name", ["I20", "I202c", "J010", "I0100"])
def test_read_name_refuses_what_is_not_iabc(name):
    with pytest.raises(ValueError, match=repr(name)):
        read_name(name)


def test_generic_trace_and_magnetization_square():
    sub = generic_substitution()
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    t = sub.table
    v = lambda n: parse_polynomial(n, t)
    assert values["I010"] == v("s11") + v("s22") + v("s33")
    assert values["I200"] == v("m1") * v("m1") + v("m2") * v("m2") + v("m3") * v("m3")


def test_generic_off_diagonal_square():
    sub = generic_substitution()
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    t = sub.table
    v = lambda n: parse_polynomial(n, t)
    assert values["I002"] == \
        2 * (v("s12") * v("s12") + v("s13") * v("s13") + v("s23") * v("s23"))


def test_no_generic_invariant_vanishes():
    sub = generic_substitution()
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    assert [n for n, p in values.items() if not p] == []


def test_generic_invariants_are_bihomogeneous_with_declared_bidegree():
    sub = generic_substitution()
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    for defn in CATALOG:
        p = values[defn.name]
        assert p.bidegree() == defn.bidegree, defn.name


def test_theta_restriction_kills_exactly_twelve():
    sub = fiber_substitution("theta")
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    zeros = tuple(n for n, p in values.items() if not p)
    assert zeros == THETA_ZEROS


def test_theta_kills_cubic_off_diagonal_trace():
    sub = fiber_substitution("theta")
    assert not evaluate_all(CATALOG, sub.sigma, sub.m)["I003"]


@pytest.mark.parametrize("fiber", ["alpha_prime", "gamma"])
def test_other_fibers_kill_nothing(fiber):
    sub = fiber_substitution(fiber)
    values = evaluate_all(CATALOG, sub.sigma, sub.m)
    assert [n for n, p in values.items() if not p] == []


def test_recipes_reject_non_symmetric_stress():
    table = VarTable([])
    c = lambda x: Polynomial.constant(table, F(x))
    skew = ((c(0), c(1), c(0)), (c(0), c(0), c(0)), (c(0), c(0), c(0)))
    m = (c(1), c(0), c(0))
    with pytest.raises(ValueError, match="symmetric"):
        evaluate_all(CATALOG, skew, m)


def _unchecked(sigma_rows, m_entries):
    """sigma and m as the spot-check builds them, plain tuples that nothing
    has checked: evaluate_all must check them itself."""
    return tuple(tuple(row) for row in sigma_rows), tuple(m_entries)


def test_evaluate_all_checks_arguments_built_unchecked():
    with pytest.raises(ValueError, match="symmetric"):
        evaluate_all(CATALOG, *_unchecked([[3, 6, 0], [0, 3, 0], [0, 0, 0]], [3, 0, 0]))
    a, b = VarTable([("m1", MAG)]), VarTable([("m2", MAG)])
    za, zb = Polynomial.zero(a), Polynomial.zero(b)
    with pytest.raises(ValueError, match="different variable tables"):
        evaluate_all(CATALOG, *_unchecked([[za] * 3] * 3, [zb] * 3))
    with pytest.raises(ValueError, match="different variable tables"):
        evaluate_all(CATALOG, *_unchecked([[za] * 3] * 3, [za, zb, za]))
    with pytest.raises(ValueError, match="different kinds"):
        evaluate_all(CATALOG, *_unchecked([[za] * 3] * 3, [0, 0, 0]))


@pytest.mark.parametrize("sigma_rows, m_entries", [
    ([[3, 0, 0], [0, 3, 0]], [3, 0, 0]),
    ([[3, 0, 0], [0, 3, 0], [0, 0, 3], [0, 0, 0]], [3, 0, 0]),
    ([[3, 0, 0, 0], [0, 3, 0], [0, 0, 3]], [3, 0, 0]),
    ([[3, 0, 0], [0, 3], [0, 0, 3]], [3, 0, 0]),
    ([[3, 0, 0], [0, 3, 0], [0, 0, 3]], [3, 0]),
    ([[3, 0, 0], [0, 3, 0], [0, 0, 3]], [3, 0, 0, 0]),
], ids=["sigma-2-rows", "sigma-4-rows", "row-of-4", "row-of-2", "m-of-2", "m-of-4"])
def test_evaluate_all_rejects_misshaped_arguments(sigma_rows, m_entries):
    with pytest.raises(ValueError, match="3x3 stress tensor and a 3-entry"):
        evaluate_all(CATALOG, *_unchecked(sigma_rows, m_entries))


# -- Fraction entries ----------------------------------------------------

# Rationals with zero drawn often, so that zero entries, a zero matrix and a
# zero vector all come up.
rationals = st.one_of(st.just(F(0)),
                      st.fractions(min_value=-20, max_value=20, max_denominator=9))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6),
       st.lists(rationals, min_size=3, max_size=3))
@example([F(0)] * 6, [F(0)] * 3)
@example([F(0)] * 6, [F(1), F(-2), F(3, 4)])
@example([F(1), F(0), F(-2), F(5, 3), F(0), F(0)], [F(0)] * 3)
def test_fraction_entries_match_constant_polynomials(upper, m_entries):
    # The recipes run on plain Fraction arrays (numeric values at a
    # rational point) and on constant Polynomial arrays give the same
    # value, and the Fraction route returns Fractions even where
    # everything is zero.
    (a, b, c, d, e, f) = upper
    sigma_rows = [[a, b, c], [b, d, e], [c, e, f]]
    expected = _constant_values(sigma_rows, m_entries)
    values = evaluate_all(CATALOG, *_unchecked(sigma_rows, m_entries))
    assert values == expected
    assert all(type(v) is Fraction for v in values.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=6, max_size=6),
       st.lists(st.integers(-20, 20), min_size=3, max_size=3))
@example([0] * 6, [0] * 3)
def test_int_entries_divisible_by_three_give_ints(upper, m_entries):
    # The spot-check's integer points: entries that are multiples of 3 keep
    # each tr/3 whole, so every value is an int, equal to the Fraction one.
    (a, b, c, d, e, f) = (3 * x for x in upper)
    m_entries = [3 * x for x in m_entries]
    sigma_rows = [[a, b, c], [b, d, e], [c, e, f]]
    values = evaluate_all(CATALOG, *_unchecked(sigma_rows, m_entries))
    assert values == _constant_values(sigma_rows, m_entries)
    assert all(type(v) is int for v in values.values())


def test_one_point_costs_216_multiplications(monkeypatch):
    # recipes.evaluate forms only the entries that some trace reads and
    # multiplies no structural zero: on the generic substitution, whose
    # entries are distinct variables, no factor of a product is zero.  The
    # reference recipes, 20 full matrix products and 28 full contractions,
    # make 804.
    sub = generic_substitution()
    factors, mul = [], Polynomial.__mul__

    def counted(a, b):
        if isinstance(b, Polynomial):
            factors.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    evaluate_all(CATALOG, sub.sigma, sub.m)
    assert len(factors) == 216 <= 280
    assert all(a and b for a, b in factors)
    factors.clear()
    recipes_reference.evaluate(sub.sigma, sub.m)
    assert len(factors) == 804


# -- cubic symmetry ------------------------------------------------------

def _constant_values(sigma_rows, m_entries):
    table = VarTable([])
    c = lambda x: Polynomial.constant(table, F(x))
    sigma = tuple(tuple(c(x) for x in row) for row in sigma_rows)
    m = tuple(c(x) for x in m_entries)
    values = evaluate_all(CATALOG, sigma, m)
    return {n: p.evaluate({}) for n, p in values.items()}


def _rotate(r, sigma_rows, m_entries):
    rs = [[sum(F(r[i][k]) * sigma_rows[k][l] * F(r[j][l])
               for k in range(3) for l in range(3))
           for j in range(3)] for i in range(3)]
    rm = [sum(F(r[i][k]) * m_entries[k] for k in range(3)) for i in range(3)]
    return rs, rm


def test_all_invariants_survive_quarter_turns_at_random_points():
    rng = random.Random(20230817)
    for _ in range(5):
        sigma = [[F(rng.randint(-30, 30), rng.randint(1, 10))
                  for _ in range(3)] for _ in range(3)]
        sigma = [[(sigma[i][j] + sigma[j][i]) / 2 for j in range(3)]
                 for i in range(3)]
        m = [F(rng.randint(-30, 30), rng.randint(1, 10)) for _ in range(3)]
        base = _constant_values(sigma, m)
        for r in QUARTER_TURNS:
            rs, rm = _rotate(r, sigma, m)
            assert _constant_values(rs, rm) == base


def _signed_permutation_document(perm, signs):
    """The generic substitution document under x -> (e_i x_perm(i)):
    sigma'_ij = e_i e_j s_perm(i)perm(j) and m'_i = e_i m_perm(i)."""
    def signed(sign, name):
        return name if sign > 0 else f"-{name}"

    sigma = {f"{i + 1}{j + 1}": signed(signs[i] * signs[j],
                                       "s{}{}".format(*sorted((perm[i] + 1, perm[j] + 1))))
             for i in range(3) for j in range(i, 3)}
    m = [signed(signs[i], f"m{perm[i] + 1}") for i in range(3)]
    return {**BUILTIN_DOCUMENTS["generic"], "name": "generic", "sigma": sigma, "m": m}


def test_every_invariant_is_exactly_invariant_under_the_48_signed_permutations():
    # The full cubic group: each generic restriction is the same polynomial
    # on the transformed document, with no point drawn.
    base = restrict_basis(CATALOG, generic_substitution())
    assert not base.vanished
    elements = list(product(permutations(range(3)), product((1, -1), repeat=3)))
    assert len(elements) == 48
    for perm, signs in elements:
        sub = custom_substitution(_signed_permutation_document(perm, signs))
        assert restrict_basis(CATALOG, sub).entries == base.entries, (perm, signs)


def test_quarter_turns_are_proper_rotations():
    for r in QUARTER_TURNS:
        det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
               - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
               + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        assert det == 1
        rt_r = [[sum(r[k][i] * r[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert rt_r == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
