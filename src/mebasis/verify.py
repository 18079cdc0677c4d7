"""Verification oracles.

Three checks; the spot-check alone shares no code with the reduction engine:

  verify_published      exact symbolic substitution of relation lists
                        shipped as data (data/published_relations.json)
                        into the restricted Polynomials; their products
                        are Polynomial products, which share
                        poly.integer_product with the engine,
  verify_generating_set spanning and minimality certificates for a
                        candidate survivor set, checked for every survivor
                        by one RREF per question over free monomials in
                        the candidate names; it shares the engine's
                        product builder (reduction.enumerate_products, on
                        the restricted Polynomials), its integer
                        coefficient matrix (poly.coefficient_matrix) and
                        RatMatrix.rref, so it is a check of the chosen
                        set, not of that code,
  spotcheck_relations   seeded random rational points, each scaled to an
                        integer point of the same plane, with every
                        invariant value recomputed through the tensor
                        recipes on int matrices rather than read off the
                        restricted polynomials: the route independent of
                        the engine, sharing neither its polynomials nor
                        integer_product.

Both relation checks sum one expression.  A shipped relation lhs = rhs is
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
from math import lcm
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from .poly import MAG, Polynomial, VarTable, coefficient_matrix, parse_polynomial
# Unused here; perfbench/tracing.py wraps this name in this module.
from .ratlinalg import solve_columns  # noqa: F401
from .reduction import Relation, enumerate_products
from .restriction import RestrictedBasis, Substitution
from . import catalog as catalog_mod

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
    lead = rel.solved_form()[0]
    residual = rel.substitute(_name_values(rb))
    return residual if lead == 1 else Fraction(1, lead) * residual


def numeric_invariants(sub: Substitution, point: Mapping[str, Fraction | int]
                       ) -> dict[str, Fraction | int]:
    """All 30 invariant values at one rational point, exact, recomputed
    through the tensor recipes on the matrix and vector of (sigma, m)
    there.  Each entry of sigma and m is an int where it is whole and an
    exact Fraction otherwise, and at an integer point it is evaluated in
    integer arithmetic, so the recipes run on ints wherever the point
    makes the entries whole.  sigma and m are plain tuples, checked once
    per point by evaluate_all."""
    sigma = tuple([tuple([e.evaluate(point) for e in row]) for row in sub.sigma])
    m = tuple([e.evaluate(point) for e in sub.m])
    return catalog_mod.evaluate_all(CATALOG, sigma, m)


class SpotcheckOutcome(NamedTuple):
    ok: bool
    trials: int
    seed: int
    failed_trial: int | None = None


def random_point(table: VarTable, rng: random.Random) -> dict[str, Fraction]:
    """Rational point with numerators in [-100, 100], denominators in [1, 100]."""
    return {name: Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for name in table.names}


def integer_point(table: VarTable, point: Mapping[str, Fraction]) -> dict[str, int]:
    """The point with its stress variables scaled by 3 * the lcm of their
    denominators, and its magnetization variables by 3 * the lcm of
    theirs: integer coordinates, each a multiple of 3.

    A substitution is linear and kind-preserving, so this scales sigma by
    lambda and m by mu and stays on its plane; an invariant of bi-degree
    (a, b) scales by mu^a * lambda^b, and so does a bi-homogeneous
    relation's residual, which is zero exactly where it was.  The factor 3
    keeps the tr/3 of ddev an int on integer-coefficient substitutions.
    """
    scale = {kind: 3 * lcm(*(point[n].denominator
                             for n, k in zip(table.names, table.kinds) if k == kind))
             for kind in set(table.kinds)}
    return {n: point[n].numerator * (scale[k] // point[n].denominator)
            for n, k in zip(table.names, table.kinds)}


def spotcheck_relations(rels: Sequence[Relation], rb: RestrictedBasis,
                        trials: int = 100, seed: int = 0) -> list[SpotcheckOutcome]:
    """Evaluate relation residuals at seeded random rational points.

    Exact evaluation over one shared stream of points: each random point is
    moved to its integer_point, its invariant values are computed once for
    all relations, and a relation is no longer evaluated after its first
    failing trial.  A pass means the residual was zero at every sampled
    point and at least one point gave a nonzero value to an invariant the
    relation names; a relation that no point tested fails with
    failed_trial None.  trials must be at least 1, or nothing would be
    evaluated.  The seed must be at least 0: random.Random draws the same
    stream for -s as for s.
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
        point = integer_point(table, random_point(table, rng))
        values = numeric_invariants(rb.substitution, point)
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


def _in_span(target: Polynomial, columns: Sequence[Polynomial]) -> bool:
    """Whether target is a linear combination of columns: the target's
    column, placed last, is not a pivot of their joint RREF."""
    return len(columns) not in coefficient_matrix([*columns, target])[1].rref()[1]


def verify_generating_set(names: Sequence[str], rb: RestrictedBasis) -> GeneratingSetReport:
    """Spanning and minimality certificates for a candidate survivor set.

    Spanning: every surviving invariant outside the set must lie in the
    span of free monomials in the set's names at its own bi-degree.
    Minimality: no member may lie in the span of free monomials in the
    other members at its bi-degree (dropping it would break spanning).
    Every survivor is checked.  A name given twice raises ValueError: the
    minimality test drops every copy of the member it tests.
    """
    surviving = dict(rb.entries)
    for i, n in enumerate(names):
        if n not in surviving:
            raise ValueError(f"{n!r} is not a surviving invariant of this basis")
        if n in names[:i]:
            raise ValueError(f"{n!r} is named more than once in the candidate set")
    prefixes: dict = {}
    info = [(n, surviving[n].bidegree()) for n in names]

    def in_span(name: str, items) -> bool:
        bd = surviving[name].bidegree()
        cols = [c for _, c in enumerate_products(items, bd, 1, surviving, prefixes)]
        return _in_span(surviving[name], cols)

    spanning_failures = [name for name, _ in rb.entries
                         if name not in names and not in_span(name, info)]
    redundant = [g for g in names
                 if in_span(g, [item for item in info if item[0] != g])]

    return GeneratingSetReport(tuple(names), not spanning_failures,
                               tuple(spanning_failures), not redundant,
                               tuple(redundant))
