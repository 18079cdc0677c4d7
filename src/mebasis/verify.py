"""Verification oracles.

Three checks; the spot-check alone shares no code with the reduction engine:

  verify_published      exact symbolic substitution of relation lists
                        shipped as data (data/published_relations.json)
                        into the restricted Polynomials; their products
                        are Polynomial products, which share
                        poly.integer_product with the engine,
  verify_generating_set spanning and minimality certificates for a
                        candidate set, one RREF per bi-degree, on the
                        engine's reducible_products, coefficient_matrix
                        and RatMatrix.rref: a check of the chosen set,
                        not of that code,
  spotcheck_relations   seeded random integer points, with every
                        invariant value recomputed through the compiled
                        recipes (catalog.evaluate_all) on int matrices
                        rather than read off the restricted polynomials:
                        the route independent of the engine, sharing
                        neither its polynomials nor integer_product.

Both relation checks sum one expression.  A shipped relation lhs = rhs,
rhs in poly's flat grammar (such as 1/18*(9*I020*I010 - 2*I010^3)), is
parsed once, at load, into a reduction.Relation solved for lhs,
D * lhs - sum of c * (product of invariant names) = 0, with D and each c
the parsed rhs's den and numerators.  Relation.substitute sums it on the
restricted polynomials for the symbolic check, divided by D there to give
the residual lhs - rhs, and on the int values at each point for the
numeric one, tested for zero as it is (D >= 1).  The engine builds
Relations but never substitutes into them: its self-check is its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from .poly import MAG, Polynomial, VarTable, coefficient_matrix, parse_polynomial
from .reduction import ProductGrid, Relation, partition_bidegrees, reducible_products
from .restriction import RestrictedBasis, Substitution
from . import catalog as catalog_mod

# Called by nothing; perfbench/tracing.py looks this name up in this module.
solve_columns = None

DATA_PATH = Path(__file__).with_name("data") / "published_relations.json"

# Invariant names double as variables when parsing relation right-hand
# sides; the kind tag is irrelevant there.
NAME_TABLE = VarTable((n, MAG) for n in CATALOG_NAMES)


def published_relation(lhs: str, rhs: str) -> Relation:
    """lhs = rhs, rhs a polynomial in invariant names, as the Relation
    D * lhs - sum of c * (product of the factor names) = 0 solved for lhs,
    with D and each c the parsed rhs's den and numerators: coprime, D > 0.
    ValueError for an lhs outside the catalog or one that rhs names as a
    bare term: the Relation would hold two (lhs,) terms."""
    if lhs not in CATALOG_INDEX:
        raise ValueError(f"unknown invariant name {lhs!r}")
    p = parse_polynomial(rhs, NAME_TABLE)
    names, unpack = NAME_TABLE.names, NAME_TABLE.unpack
    terms = [((lhs,), p.den)]
    terms += [(tuple(sorted(n for n, e in zip(names, unpack(k)) for _ in range(e))), -c)
              for k, c in p.nums.items()]
    if any(factors == (lhs,) for factors, _ in terms[1:]):
        raise ValueError(f"the right-hand side of {lhs} names {lhs} as a bare term")
    return Relation(CATALOG[CATALOG_INDEX[lhs]].bidegree, tuple(terms), lhs)


def load_published(fiber: str) -> tuple[tuple[str, Relation], ...]:
    """The relation list shipped with the package for one fiber, as
    (source label, relation) pairs in file order."""
    data = json.loads(DATA_PATH.read_text())
    rels = tuple((r["source"], published_relation(r["lhs"], r["rhs"]))
                 for r in data["relations"] if r["fiber"] == fiber)
    if not rels:
        raise ValueError(f"no relation list for fiber {fiber!r}")
    return rels


def _name_values(rb: RestrictedBasis) -> dict[str, Polynomial]:
    zero = Polynomial.zero(rb.substitution.table)
    values = {name: zero for name in CATALOG_NAMES}
    values.update(rb.as_dict())
    return values


def verify_published(rel: Relation, rb: RestrictedBasis) -> Polynomial:
    """The residual lhs - rhs of a relation solved for lhs, with the
    restricted polynomials substituted: zero exactly when the relation
    holds on rb."""
    return rel.substitute(_name_values(rb)) / rel.solved_form()[0]


def numeric_invariants(sub: Substitution, point: Mapping[str, Fraction | int]
                       ) -> dict[str, Fraction | int]:
    """All 30 invariant values at one point, exact, recomputed through the
    compiled recipes on the matrix and vector of (sigma, m) there.  Each
    entry of sigma and m is evaluated in integer arithmetic over its
    denominator: an int where it is whole, an exact Fraction otherwise, so
    at the spot-check's integer points the recipes run on ints on every
    integer-coefficient substitution.  The 6 distinct entries of sigma are
    evaluated and mirrored (a loaded sigma holds one Polynomial for ij and
    ji); sigma and m are plain tuples, checked once per point by
    evaluate_all."""
    s = sub.sigma
    s00, s01, s02, s11, s12, s22 = [e.evaluate(point) for e in (*s[0], *s[1][1:], s[2][2])]
    sigma = ((s00, s01, s02), (s01, s11, s12), (s02, s12, s22))
    m = tuple([e.evaluate(point) for e in sub.m])
    return catalog_mod.evaluate_all(CATALOG, sigma, m)


class SpotcheckOutcome(NamedTuple):
    ok: bool
    trials: int
    seed: int
    failed_trial: int | None = None


def random_point(table: VarTable, rng: random.Random) -> dict[str, int]:
    """Integer point with every coordinate 3 * k, k uniform in [-100, 100].

    Each coordinate takes 201 values, so a nonzero residual of degree d
    vanishes at a drawn point with probability at most d/201
    (Schwartz-Zippel).  The factor 3 keeps the tr/3 of ddev an int on
    integer-coefficient substitutions.
    """
    return {name: 3 * rng.randint(-100, 100) for name in table.names}


def spotcheck_relations(rels: Sequence[Relation], rb: RestrictedBasis,
                        trials: int = 100, seed: int = 0) -> list[SpotcheckOutcome]:
    """Evaluate relation residuals at seeded random integer points.

    Exact evaluation over one shared stream of random_point draws: each
    point's invariant values are computed once for all relations, and a
    relation is no longer evaluated after its first failing trial.  A pass
    means the residual was zero at every sampled point and at least one
    point gave a nonzero value to an invariant the relation names; a
    relation that no point tested fails with failed_trial None.  trials
    must be at least 1, or nothing would be evaluated.  The seed must be at
    least 0: random.Random draws the same stream for -s as for s.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    table = rb.substitution.table
    named = [{f for factors, _ in rel.terms for f in factors} for rel in rels]
    untested = set(range(len(rels)))
    failed_at: dict[int, int] = {}
    for t in range(trials):
        if len(failed_at) == len(rels):
            break
        values = numeric_invariants(rb.substitution, random_point(table, rng))
        for i, rel in enumerate(rels):
            if i not in failed_at and rel.substitute(values) != 0:
                failed_at[i] = t
        if untested:
            nonzero = {n for n, v in values.items() if v}
            untested = {i for i in untested if named[i].isdisjoint(nonzero)}
    return [SpotcheckOutcome(i not in failed_at and i not in untested, trials, seed,
                             failed_at.get(i))
            for i in range(len(rels))]


@dataclass(frozen=True)
class GeneratingSetReport:
    names: tuple[str, ...]
    spanning_ok: bool
    spanning_failures: tuple[str, ...]
    minimal: bool
    redundant: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.spanning_ok and self.minimal


def verify_generating_set(names: Sequence[str], rb: RestrictedBasis) -> GeneratingSetReport:
    """Spanning and minimality certificates for a candidate survivor set:
    every outsider (a survivor not in the set) must lie in the span of free
    monomials in the members at its bi-degree, and no member in that of
    the others.  One RREF per bi-degree has the columns: products P of two
    or more members (none has a factor of that degree), members, outsiders.
    An outsider is spanned unless it meets a row with an outsider pivot;
    the free member columns' rows span the members' kernel modulo P, so a
    member is redundant when its column is free or its pivot row meets
    one.  A name given twice raises ValueError.
    """
    surviving = dict(rb.entries)
    for i, n in enumerate(names):
        if n not in surviving:
            raise ValueError(f"{n!r} is not a surviving invariant of this basis")
        if n in names[:i]:
            raise ValueError(f"{n!r} is named more than once in the candidate set")
    partition = partition_bidegrees(rb)
    grid, table = ProductGrid(names), {}
    failed: set[str] = set()  # unspanned outsiders and redundant members
    for bd, invs in partition:
        prods = [c for _, c in reducible_products(bd, surviving, table, grid)]
        members = [n for n in invs if n in names]
        outsiders = [n for n in invs if n not in names]
        rrefm, pivots = coefficient_matrix(
            prods + [surviving[n] for n in members + outsiders])[1].rref()
        pivot_row = dict(zip(pivots, rrefm.data))
        m0, o0 = len(prods), len(prods) + len(members)
        failed.update(n for j, n in enumerate(outsiders, o0)
                      if any(row[j] for p, row in pivot_row.items() if p >= o0))
        free = [j for j in range(m0, o0) if j not in pivot_row]
        failed.update(n for j, n in enumerate(members, m0)
                      if j in free or any(pivot_row[j][f] for f in free))
    unspanned = tuple(n for n, _ in rb.entries if n in failed and n not in names)
    redundant = tuple(n for n in names if n in failed)
    return GeneratingSetReport(tuple(names), not unspanned, unspanned, not redundant, redundant)
