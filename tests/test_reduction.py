"""Relation discovery and reduced generating sets on the three fibers."""

from fractions import Fraction
from pathlib import Path

import pytest

from mebasis import poly
from mebasis.catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from mebasis.cli import union_payload
from mebasis.reduction import (PINNED_GENERATORS, POLICIES,
                               PolicyConflictError, ProductGrid, Relation,
                               RelationIntegrityError, _eliminate, deglex_key,
                               partition_bidegrees, reduce_basis, reducible_products)
from mebasis.restriction import (FIBERS, custom_substitution, generic_substitution,
                                 restrict_basis)
from mebasis.verify import load_published, spotcheck_relations

F = Fraction

TABLE3 = {
    "theta": ("I010", "I002", "I020", "I200", "I201", "I210", "I400"),
    "alpha_prime": ("I010", "I002", "I020", "I003", "I030", "I200", "I201",
                    "I210", "I202a", "I211", "I220", "I400", "I401", "I410",
                    "I600"),
    "gamma": ("I010", "I020", "I030", "I200", "I210", "I220", "I410",
              "I600"),
}

RELATION_COUNTS = {"theta": 11, "alpha_prime": 15, "gamma": 22}
VANISHED_COUNTS = {"theta": 12, "alpha_prime": 0, "gamma": 0}
SYZYGY_COUNTS = {"theta": 0, "alpha_prime": 8, "gamma": 0}


# -- orderings and enumeration -------------------------------------------

def test_deglex_orders_by_total_then_mag_degree():
    assert deglex_key((0, 2)) < deglex_key((2, 0))
    assert deglex_key((0, 3)) > deglex_key((2, 0))
    assert sorted([(2, 0), (0, 2), (1, 1)], key=deglex_key) == \
        [(0, 2), (1, 1), (2, 0)]


def deglex_grid():
    """Every bi-degree of total degree 1..7 and mag degree at most 6, the
    catalog's range, in deglex order."""
    return [(a, k - a) for k in range(1, 8) for a in range(min(6, k) + 1)]


def test_bidegree_grid_walks_deglex(reductions):
    assert deglex_grid()[:9] == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                                 (0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(a <= 6 and a + b <= 7 for a, b in deglex_grid())
    # reduce_basis walks the bi-degrees where an invariant survives, in
    # deglex order: a generator joins the product grid only after every
    # bi-degree it could not divide.
    for result in reductions.values():
        walked = [rep.bidegree for rep in result.reports]
        assert walked == [bd for bd in deglex_grid() if bd in walked] == \
            [bd for bd, _ in partition_bidegrees(result.basis)]


def test_partition_groups_by_bidegree(theta_basis):
    part = dict(partition_bidegrees(theta_basis))
    assert part[(0, 1)] == ("I010",)
    assert part[(0, 2)] == ("I002", "I020")
    assert part[(2, 1)] == ("I201", "I210")
    total = sum(len(names) for names in part.values())
    assert total == len(theta_basis.entries)


def products(rb, target):
    polys = rb.as_dict()
    return reducible_products(target, polys, {}, ProductGrid(polys))


def test_reducible_products_smallest_cases(theta_basis):
    assert [f for f, _ in products(theta_basis, (0, 2))] == [("I010", "I010")]
    assert products(theta_basis, (0, 1)) == []
    assert [f for f, _ in products(theta_basis, (4, 0))] == [("I200", "I200")]
    assert [f for f, _ in products(theta_basis, (2, 1))] == [("I010", "I200")]


def test_reducible_products_multiply_correctly(theta_basis):
    ((factors, product),) = products(theta_basis, (0, 2))
    i010 = theta_basis.as_dict()["I010"]
    assert product == i010 * i010
    assert product.bidegree() == (0, 2)


@pytest.mark.parametrize("fiber", ["theta", "gamma"])
def test_shared_prefix_table_builds_every_product_exactly(bases, fiber):
    # One table and one survivor dict over the whole grid, on a grid of
    # every survivor: every product is its factors multiplied out, and the
    # table, a memo, ends up holding exactly the products built and their
    # proper prefixes of two or more factors, each its chained product.
    rb = bases[fiber]
    restricted = rb.as_dict()
    polys = rb.as_dict()
    prefixes = {}
    built = {}
    grid = ProductGrid(polys)

    def chain(factors):
        chained = restricted[factors[0]]
        for name in factors[1:]:
            chained = chained * restricted[name]
        return chained

    for bd in deglex_grid():
        for factors, product in reducible_products(bd, polys, prefixes, grid):
            assert product == chain(factors)
            assert all(product.nums.values())
            built[factors] = product
    assert set(prefixes) == {f[:k] for f in built for k in range(2, len(f) + 1)}
    for f, product in prefixes.items():
        assert product == chain(f)
        assert f not in built or product is built[f]


def test_enumerate_products_has_two_or_more_factors(theta_basis):
    # I002 and I020 lie at (0, 2) themselves; only I010^2 is a product there.
    polys = theta_basis.as_dict()
    products = reducible_products((0, 2), polys, {}, ProductGrid(polys))
    assert [f for f, _ in products] == [("I010", "I010")]


def test_reducible_products_on_a_candidate_grid_use_only_its_names(theta_basis):
    # The generating-set certificate passes a grid of its candidate names
    # with the full survivor dict: only multisets of candidates are listed,
    # each the same product as on the grid of every survivor.
    polys = theta_basis.as_dict()
    names = ("I010", "I020", "I201")
    every, full = ProductGrid(polys), {}
    grid, table = ProductGrid(names), {}
    for bd in deglex_grid():
        want = [(f, p) for f, p in reducible_products(bd, polys, full, every)
                if set(f) <= set(names)]
        assert reducible_products(bd, polys, table, grid) == want
    assert len(full) > len(table) > 0


def test_product_grid_builds_only_the_bidegrees_looked_up(theta_basis):
    # A look-up builds its own bi-degree and those below it that it reads,
    # and nothing else.
    grid = ProductGrid(theta_basis.as_dict())
    assert grid[0, 2] == (("I002",), ("I010", "I010"), ("I020",))
    assert set(grid) == {(0, 0), (0, 1), (0, 2)}


# -- relations at a single bi-degree -------------------------------------

@pytest.fixture(scope="module")
def table_order(bases):
    return {fiber: reduce_basis(bases[fiber], policy="table-order")
            for fiber in ("theta", "gamma")}


def relations_at(result, bidegree):
    """The syzygies, then the solved relations, found at one bi-degree."""
    return [r for r in result.syzygies + result.relations
            if r.bidegree == bidegree]


def test_theta_degree_three_stress_relations(theta_basis, table_order):
    rels = relations_at(table_order["theta"], (0, 3))
    assert [r.solved_str() for r in rels] == [
        "I012 = 1/6*(I002*I010)",
        "I030 = 1/18*(-2*I010^3 + 9*I010*I020)",
    ]
    for r in rels:
        assert not r.substitute(dict(theta_basis.entries))


def test_gamma_degree_two_stress_relation(table_order):
    # Table order keeps the earlier catalog column at (0,2) and solves for
    # I020; the paper-policy reduce keeps I020 and solves for I002 instead
    # (same one-dimensional kernel, different presentation).
    rels = relations_at(table_order["gamma"], (0, 2))
    assert [r.solved_str() for r in rels] == \
        ["I020 = 1/12*(-I010^2 + 6*I002)"]


def test_theta_pure_magnetic_degree_has_no_relations(table_order):
    assert relations_at(table_order["theta"], (2, 0)) == []


def test_theta_pure_syzygies_at_degree_six(theta_basis, table_order):
    # No invariant survives at (4, 2), so reduce_basis does not walk it; the
    # products of theta's generators there still carry two syzygies.
    result = table_order["theta"]
    polys = theta_basis.as_dict()
    prods = reducible_products((4, 2), polys, {}, ProductGrid(result.generators))
    kept, syzygies, rels = _eliminate((4, 2), polys, prods, (), ())
    assert (kept, rels) == ((), [])
    assert len(syzygies) == 2
    assert all(r.solved_for is None for r in syzygies)
    eqs = {r.equation_str() for r in syzygies}
    assert "I002*I400 - I201^2 = 0" in eqs


# -- the relation self-check --------------------------------------------

def test_selfcheck_catches_a_product_under_the_wrong_label(theta_basis, monkeypatch):
    # Swapping two product polynomials only permutes two matrix columns, so
    # the kernel vectors still satisfy A*v = 0; re-multiplying the named
    # factors shows that the relations at (0, 3), over I002*I010 and I010^3,
    # now name the wrong products.
    import mebasis.reduction as reduction
    original = reduction.reducible_products

    def swapped(target, *shared):
        prods = original(target, *shared)
        if target == (0, 3):
            (f0, p0), (f1, p1) = prods[:2]
            prods[:2] = [(f0, p1), (f1, p0)]
        return prods

    monkeypatch.setattr(reduction, "reducible_products", swapped)
    with pytest.raises(RelationIntegrityError, match=r"^relation at \(0, 3\) does not"):
        reduce_basis(theta_basis)


def test_selfcheck_does_not_read_the_engines_survivor_forms(theta_basis, monkeypatch):
    # Swapping the engine's polynomials of I012 and I030 at (0, 3) only
    # relabels two matrix columns; the self-check multiplies from its own
    # survivor dict, so the relation read for the wrong label fails there.
    import mebasis.reduction as reduction
    original = reduction._eliminate

    def swapped(bd, polys, *rest):
        if bd == (0, 3):
            polys = dict(polys, I012=polys["I030"], I030=polys["I012"])
        return original(bd, polys, *rest)

    monkeypatch.setattr(reduction, "_eliminate", swapped)
    with pytest.raises(RelationIntegrityError, match=r"^relation at \(0, 3\) does not"):
        reduce_basis(theta_basis, policy="table-order")


def test_selfcheck_owns_its_survivor_dict(theta_basis, monkeypatch):
    # As above, but the swap is made in the very dict the engine is given:
    # a self-check that read the engine's dict would pass the wrong label.
    import mebasis.reduction as reduction
    original = reduction._eliminate

    def swapped(bd, polys, *rest):
        if bd == (0, 3):
            polys["I012"], polys["I030"] = polys["I030"], polys["I012"]
        return original(bd, polys, *rest)

    monkeypatch.setattr(reduction, "_eliminate", swapped)
    with pytest.raises(RelationIntegrityError, match=r"^relation at \(0, 3\) does not"):
        reduce_basis(theta_basis, policy="table-order")


def test_selfcheck_does_not_read_the_engines_product_table(theta_basis, monkeypatch):
    # The engine keeps I010^2 for the products that extend it; a wrong
    # polynomial put in its place right after it is stored makes the
    # engine's I010^3 column at (0, 3) wrong.  The self-check multiplies
    # from its own table, so the relations read there fail it.
    import mebasis.reduction as reduction
    original = reduction.reducible_products
    key = ("I010", "I010")
    tampered = []

    def tamper(target, polys, table, *rest):
        prods = original(target, polys, table, *rest)
        if key in table and not tampered:
            table[key] = polys["I002"]
            tampered.append(target)
        return prods

    monkeypatch.setattr(reduction, "reducible_products", tamper)
    with pytest.raises(RelationIntegrityError, match=r"^relation at \(0, 3\) does not"):
        reduce_basis(theta_basis, policy="table-order")
    assert tampered == [(0, 2)]


def test_selfcheck_catches_a_wrong_coefficient(theta_basis, monkeypatch):
    import mebasis.reduction as reduction
    original = reduction.normalize_integer_vector

    def perturbed(v):
        ints = original(v)
        return ints[:-1] + (ints[-1] + 1,)

    monkeypatch.setattr(reduction, "normalize_integer_vector", perturbed)
    with pytest.raises(RelationIntegrityError, match="does not substitute to zero"):
        reduce_basis(theta_basis)


# -- multiplications ------------------------------------------------------

PRODUCT_COLUMNS = {"theta": 48, "alpha_prime": 103, "gamma": 45, "<123>": 107,
                   "generic 3D": 124}


def restricted(bases, basis):
    if basis == "<123>":
        plane = Path(__file__).with_name("golden") / "plane_123.sub.json"
        return restrict_basis(CATALOG, custom_substitution(plane))
    if basis == "generic 3D":
        return restrict_basis(CATALOG, generic_substitution())
    return bases[basis]


@pytest.mark.parametrize("basis", sorted(PRODUCT_COLUMNS))
def test_each_product_is_one_multiplication(bases, monkeypatch, basis):
    # At table-order the engine multiplies each product column once, its
    # prefix being a generator or a product it kept; the self-check
    # multiplies each factor tuple its relations name, and each prefix of
    # one, at most once.
    import mebasis.reduction as reduction
    rb = restricted(bases, basis)
    calls, owner = {}, ["engine"]
    kernel, check = poly.integer_product, reduction._check_relations

    def counted(a, b):
        calls[owner[0]] += 1
        return kernel(a, b)

    def checking(*args):
        owner[0] = "check"
        try:
            return check(*args)
        finally:
            owner[0] = "engine"

    monkeypatch.setattr(poly, "integer_product", counted)
    monkeypatch.setattr(reduction, "_check_relations", checking)
    calls.update(engine=0, check=0)
    result = reduce_basis(rb, policy="table-order")
    assert calls["engine"] == PRODUCT_COLUMNS[basis] == \
        sum(rep.n_products for rep in result.reports)
    named = {f for rel in result.relations + result.syzygies
             for f, _ in rel.terms if len(f) > 1}
    assert calls["check"] <= len({f[:k] for f in named for k in range(2, len(f) + 1)})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("basis", sorted(PRODUCT_COLUMNS))
def test_each_product_column_is_one_multiplication_under_every_policy(
        bases, monkeypatch, basis, policy):
    # Outside the self-check, _product multiplies once per product column
    # under every policy, the paper one included: its multiply calls are
    # the reports' n_products.  (Counting poly.integer_product instead would
    # also count the plane check's products, 8 on alpha_prime and 12 on
    # gamma, each time fiber_substitution loads a built-in document: once
    # per process.)
    import mebasis.reduction as reduction
    rb = restricted(bases, basis)
    calls, multiply, check = [], reduction.multiply, reduction._check_relations
    checking = []

    def counted(p, q):
        if not checking:
            calls.append(1)
        return multiply(p, q)

    def checked(*args):
        checking.append(1)
        try:
            return check(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(reduction, "multiply", counted)
    monkeypatch.setattr(reduction, "_check_relations", checked)
    result = reduce_basis(rb, policy=policy)
    assert len(calls) == sum(rep.n_products for rep in result.reports)


def full_walk(rb, effective):
    """The generators, solved_for names and (bi-degree, rank, kept) per
    survivor bi-degree of a deglex walk over the catalog's whole range whose
    product columns multiply every survivor, generator or not.  The
    bi-degrees without a survivor add only syzygies, so they are skipped."""
    pinned = PINNED_GENERATORS[rb.substitution.name] if effective == "paper" else None
    partition = dict(partition_bidegrees(rb))
    polys, table = rb.as_dict(), {}
    grid = ProductGrid(polys)
    generators, solved, reports = [], [], []
    for bd in deglex_grid():
        invs = partition.get(bd, ())
        if not invs:
            continue
        if pinned is not None:
            order = (tuple(n for n in invs if n in pinned)
                     + tuple(n for n in invs if n not in pinned))
        else:
            order = invs[::-1] if effective == "reverse-table-order" else invs
        prods = reducible_products(bd, polys, table, grid)
        kept, syz, rels = _eliminate(bd, polys, prods, invs, order)
        generators.extend(kept)
        solved.extend(rel.solved_for for rel in rels)
        reports.append((bd, len(prods) + len(invs) - len(syz) - len(rels), kept))
    return tuple(sorted(generators, key=CATALOG_INDEX.__getitem__)), solved, reports


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("basis", sorted(PRODUCT_COLUMNS))
def test_survivor_walk_keeps_the_result_of_the_full_walk(bases, basis, policy):
    # Products of generators span what products of every survivor span, so
    # the walk over survivor bi-degrees keeps the same names, solves for the
    # same names and finds the same rank at each of them.
    rb = restricted(bases, basis)
    result = reduce_basis(rb, policy=policy)
    assert full_walk(rb, result.effective_policy) == (
        result.generators, [rel.solved_for for rel in result.relations],
        [(rep.bidegree, rep.rank, rep.kept) for rep in result.reports])


# -- full reduction ------------------------------------------------------

@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_generator_names_match_published_table(reductions, fiber):
    assert reductions[fiber].generators == TABLE3[fiber]


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_counts_partition_the_catalog(reductions, fiber):
    result = reductions[fiber]
    assert len(result.relations) == RELATION_COUNTS[fiber]
    assert len(result.vanished) == VANISHED_COUNTS[fiber]
    assert len(result.generators) + len(result.relations) + \
        len(result.vanished) == 30
    assert len(result.syzygies) == SYZYGY_COUNTS[fiber]


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_each_eliminated_invariant_is_solved_once(reductions, fiber):
    result = reductions[fiber]
    solved = [r.solved_for for r in result.relations]
    assert None not in solved
    assert len(set(solved)) == len(solved)
    expected = set(CATALOG_NAMES) - set(result.generators) - \
        set(result.vanished)
    assert set(solved) == expected


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_relations_substitute_to_zero(bases, reductions, fiber):
    polys = dict(bases[fiber].entries)
    for rel in reductions[fiber].relations:
        assert not rel.substitute(polys), rel.solved_str()
    for rel in reductions[fiber].syzygies:
        assert not rel.substitute(polys), rel.equation_str()


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_every_catalog_name_is_accounted_for_once(reductions, fiber):
    result = reductions[fiber]
    names = (list(result.generators) + [r.solved_for for r in result.relations]
             + list(result.vanished))
    assert sorted(names) == sorted(CATALOG_NAMES)


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_relations_vanish_at_random_points(bases, reductions, fiber):
    rels = reductions[fiber].relations
    outcomes = spotcheck_relations(rels, bases[fiber], trials=20, seed=7)
    assert all(o.ok for o in outcomes)


def test_solved_relation_presentations(reductions):
    by_name = {r.solved_for: r.solved_str()
               for r in reductions["theta"].relations}
    assert by_name["I601"] == "I601 = 1/18*(-4*I200^2*I201 + 9*I201*I400)"
    by_name = {r.solved_for: r.solved_str()
               for r in reductions["gamma"].relations}
    assert by_name["I400"] == "I400 = 1/2*(I200^2)"
    assert by_name["I002"] == "I002 = 1/6*(I010^2 + 12*I020)"
    by_name = {r.solved_for: r.solved_str()
               for r in reductions["alpha_prime"].relations}
    assert by_name["I601"] == ("I601 = 1/18*(I010*I200*I400 - 3*I010*I600 "
                               "- 4*I200^2*I201 + 6*I200*I410 + 6*I201*I400 "
                               "- 3*I210*I400)")


def test_relation_terms_are_canonical(reductions):
    from math import gcd
    for result in reductions.values():
        for rel in result.relations + result.syzygies:
            coeffs = [c for _, c in rel.terms]
            assert all(isinstance(c, int) and c != 0 for c in coeffs)
            g = 0
            for c in coeffs:
                g = gcd(g, abs(c))
            assert g == 1
            if rel.solved_for is None:
                assert coeffs[0] > 0
            else:
                solved = dict(rel.terms)[(rel.solved_for,)]
                assert solved > 0
            for factors, _ in rel.terms:
                assert tuple(sorted(factors)) == factors


def test_generators_listed_in_catalog_order(reductions):
    for result in reductions.values():
        idx = [CATALOG_INDEX[n] for n in result.generators]
        assert idx == sorted(idx)


def test_reports_cover_only_nontrivial_bidegrees(reductions):
    for result in reductions.values():
        for rep in result.reports:
            assert rep.n_columns > 0
            assert rep.n_columns == rep.n_products + rep.n_invariants
            assert rep.rank + rep.kernel_dim == rep.n_columns
        keys = [deglex_key(rep.bidegree) for rep in result.reports]
        assert keys == sorted(keys)


def test_reduction_is_deterministic(bases):
    first = reduce_basis(bases["gamma"])
    second = reduce_basis(bases["gamma"])
    assert first == second



# -- changes of parametrization -------------------------------------------

# One plane normal n per orbit class of the cubic group, with an integer
# basis (u, v) of the plane.
PLANES = {
    "001": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "011": ((0, 1, 1), (1, 0, 0), (0, 1, -1)),
    "111": ((1, 1, 1), (1, -1, 0), (0, 1, -1)),
    "123": ((1, 2, 3), (2, -1, 0), (0, 3, -2)),
}


def signed_permutation(x):
    return (-x[2], x[0], -x[1])


CHANGES = {
    "swap u and v": lambda n, u, v: (n, v, u),
    "shear v to u + v": lambda n, u, v: (n, u, tuple(a + b for a, b in zip(u, v))),
    "signed axis permutation": lambda n, u, v: tuple(map(signed_permutation, (n, u, v))),
}


def linear(pairs) -> str:
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{x}" for c, x in pairs if c)
    return text.removeprefix("+ ") or "0"


def plane_basis(n, u, v):
    """The restriction to m = m1*u + m2*v and
    sigma = s1*u(x)u + s2*v(x)v + s3*(u(x)v + v(x)u)."""
    doc = {
        "name": "plane",
        "variables": [["m1", "mag"], ["m2", "mag"],
                      ["s1", "stress"], ["s2", "stress"], ["s3", "stress"]],
        "sigma": {f"{i + 1}{j + 1}": linear([(u[i] * u[j], "s1"), (v[i] * v[j], "s2"),
                                             (u[i] * v[j] + v[i] * u[j], "s3")])
                  for i in range(3) for j in range(i, 3)},
        "m": [linear([(u[i], "m1"), (v[i], "m2")]) for i in range(3)],
        "normal": list(n),
    }
    return restrict_basis(CATALOG, custom_substitution(doc))


def plane_reduction(n, u, v):
    """The table-order reduction of plane_basis(n, u, v), as comparable parts."""
    result = reduce_basis(plane_basis(n, u, v), policy="table-order")
    return (result.generators,
            [rel.equation_str() for rel in result.relations],
            [syz.equation_str() for syz in result.syzygies],
            result.vanished,
            [(rep.bidegree, rep.n_products, rep.rank, rep.kept, rep.eliminated,
              rep.n_syzygies) for rep in result.reports])


@pytest.mark.parametrize("plane", PLANES)
def test_reduction_does_not_depend_on_the_parametrization(plane):
    n, u, v = PLANES[plane]
    want = plane_reduction(n, u, v)
    for change, move in CHANGES.items():
        assert plane_reduction(*move(n, u, v)) == want, change


def assert_normal_forms(result):
    """Every factor of every relation and syzygy is a generator, apart from
    the name a relation is solved for."""
    gens = set(result.generators)
    for rel in result.relations + result.syzygies:
        for factors, _ in rel.terms:
            if factors != (rel.solved_for,):
                assert gens.issuperset(factors), rel.equation_str()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("basis", [*sorted(PRODUCT_COLUMNS), *PLANES])
def test_relations_are_normal_forms(bases, basis, policy):
    # The product columns are products of generators alone.  Each plane
    # class is checked under every change of its parametrization.
    if basis in PLANES:
        n, u, v = PLANES[basis]
        for move in [lambda *x: x, *CHANGES.values()]:
            assert_normal_forms(reduce_basis(plane_basis(*move(n, u, v)), policy=policy))
    else:
        assert_normal_forms(reduce_basis(restricted(bases, basis), policy=policy))

def test_every_solved_relation_has_a_positive_lead(bases):
    # solved_form reads the lead as it stands: every relation the engine
    # solves (3 fibers, <123> and generic 3D, under each policy) and every
    # shipped one writes its solved-for term with a positive coefficient.
    relations = [rel for basis in PRODUCT_COLUMNS for policy in POLICIES
                 for rel in reduce_basis(restricted(bases, basis), policy=policy).relations]
    relations += [rel for fiber in FIBERS for _, rel in load_published(fiber)]
    assert all(rel.solved_for for rel in relations) and len(relations) > 48
    for rel in relations:
        (lead,) = [c for f, c in rel.terms if f == (rel.solved_for,)]
        assert lead > 0 and rel.solved_form()[0] == lead, rel.equation_str()


# -- selection policies --------------------------------------------------

def test_policy_names():
    assert POLICIES == ("paper", "table-order", "reverse-table-order")
    assert set(PINNED_GENERATORS) == set(TABLE3)
    assert PINNED_GENERATORS == TABLE3


@pytest.mark.parametrize("fiber", sorted(TABLE3))
def test_policies_agree_on_cardinality(bases, fiber):
    sizes = {policy: len(reduce_basis(bases[fiber], policy=policy).generators)
             for policy in POLICIES}
    assert len(set(sizes.values())) == 1, sizes


def test_theta_table_order_matches_paper_policy(bases):
    paper = reduce_basis(bases["theta"], policy="paper")
    table = reduce_basis(bases["theta"], policy="table-order")
    assert paper.generators == table.generators
    assert paper.effective_policy == "paper"
    assert table.effective_policy == "table-order"


def test_paper_policy_falls_back_for_unpinned_substitutions(bases, monkeypatch):
    import mebasis.reduction as reduction
    monkeypatch.setattr(reduction, "PINNED_GENERATORS",
                        {k: v for k, v in PINNED_GENERATORS.items()
                         if k != "gamma"})
    result = reduce_basis(bases["gamma"], policy="paper")
    assert result.policy == "paper"
    assert result.effective_policy == "table-order"
    assert len(result.generators) == 8


def test_bogus_pinned_list_raises_conflict(bases, monkeypatch):
    import mebasis.reduction as reduction
    bad = dict(PINNED_GENERATORS)
    bad["theta"] = tuple(n for n in bad["theta"] if n != "I400")
    monkeypatch.setattr(reduction, "PINNED_GENERATORS", bad)
    with pytest.raises(PolicyConflictError, match=r"does not span .* \(also kept: I400\)$"):
        reduce_basis(bases["theta"], policy="paper")


def test_redundant_pinned_list_raises_conflict(bases, monkeypatch):
    # I012 = 1/6*I002*I010 on theta, so keeping it as well is redundant.
    import mebasis.reduction as reduction
    bad = dict(PINNED_GENERATORS)
    bad["theta"] = bad["theta"] + ("I012",)
    monkeypatch.setattr(reduction, "PINNED_GENERATORS", bad)
    with pytest.raises(PolicyConflictError, match=r"redundant invariant \(not a pivot: I012\)$"):
        reduce_basis(bases["theta"], policy="paper")


def test_unknown_policy_rejected(bases):
    with pytest.raises(ValueError, match="policy"):
        reduce_basis(bases["theta"], policy="milkman")


# -- union of the published sets -----------------------------------------

def test_union_of_generating_sets():
    report = union_payload("paper")["result"]
    assert report["theta_included_in_alpha_prime"]
    assert report["gamma_included_in_alpha_prime"]
    assert report["cardinal"] == 15
    assert report["union"] == list(TABLE3["alpha_prime"])


def test_gamma_brings_a_generator_theta_lacks(reductions):
    assert "I600" in reductions["gamma"].generators
    assert "I600" not in reductions["theta"].generators


# -- relation objects ----------------------------------------------------

def test_relation_evaluate_and_strings():
    rel = Relation((0, 2), ((("I002",), 1), (("I010", "I010"), -2)),
                   solved_for="I002")
    assert rel.equation_str() == "I002 - 2*I010^2 = 0"
    assert rel.solved_str() == "I002 = 2*I010^2"
    # Over rationals substitute gives the value of the left-hand side.
    assert rel.substitute({"I002": F(8), "I010": F(2)}) == 0
    assert rel.substitute({"I002": F(9), "I010": F(2)}) == 1
    assert rel.substitute({"I002": F(1, 2), "I010": F(1, 2)}) == 0
    assert rel.substitute({"I002": F(-1), "I010": F(1, 3)}) == F(-11, 9)
    assert isinstance(rel.substitute({"I002": F(9), "I010": F(2)}), Fraction)


def test_relation_solved_str_requires_target():
    rel = Relation((0, 2), ((("I010", "I010"), 1),))
    with pytest.raises(ValueError):
        rel.solved_str()
