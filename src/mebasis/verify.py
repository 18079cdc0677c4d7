"""Verification oracles.

Three checks, two of which avoid the reduction engine's own code paths:

  verify_published      exact symbolic substitution of relation lists
                        shipped as data (data/published_relations.json),
  verify_generating_set spanning and minimality certificates for a
                        candidate survivor set, checked for every survivor
                        by one RREF per question over free monomials in
                        the candidate names; it shares the engine's
                        product builder (reduction.enumerate_products),
                        its integer coefficient matrix
                        (poly.coefficient_matrix) and RatMatrix.rref, so it
                        is a check of the chosen set, not of that code,
  spotcheck_relations   seeded random rational points, with every invariant
                        value recomputed through the tensor recipes on plain
                        Fraction matrices rather than read off the
                        restricted polynomials.

Both relation checks evaluate one expression, the relation's substitute():
on the restricted polynomials for the symbolic check, on the Fraction
values at each point for the numeric one.  A shipped relation's right-hand
side is evaluated by Polynomial.evaluate, which the engine never calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from .catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from .poly import MAG, Polynomial, VarTable, coefficient_matrix, parse_polynomial
# Unused here; perfbench/tracing.py wraps this name in this module.
from .ratlinalg import solve_columns  # noqa: F401
from .reduction import Relation, enumerate_products, integer_forms
from .restriction import RestrictedBasis, Substitution
from .tensor3 import PolyMat3, PolyVec3
from . import catalog as catalog_mod

DATA_PATH = Path(__file__).with_name("data") / "published_relations.json"

# Invariant names double as variables when parsing relation right-hand
# sides; the kind tag is irrelevant there.
NAME_TABLE = VarTable((n, MAG) for n in CATALOG_NAMES)


@dataclass(frozen=True)
class PublishedRelation:
    """lhs = rhs, rhs a polynomial in invariant names (parsed once, on use)."""
    fiber: str
    lhs: str
    rhs: str
    source: str

    @cached_property
    def rhs_poly(self) -> Polynomial:
        return parse_polynomial(self.rhs, NAME_TABLE)

    def substitute(self, values: Mapping[str, Fraction | Polynomial]
                   ) -> Fraction | Polynomial:
        """lhs - rhs with every invariant name replaced by its value:
        rationals, or Polynomials on one table.  An lhs outside the
        catalog raises ValueError."""
        if self.lhs not in CATALOG_INDEX:
            raise ValueError(f"unknown invariant name {self.lhs!r}")
        return values[self.lhs] - self.rhs_poly.evaluate(values)


def load_published(fiber: str) -> tuple[PublishedRelation, ...]:
    """The relation list shipped with the package for one fiber."""
    data = json.loads(DATA_PATH.read_text())
    rels = tuple(PublishedRelation(r["fiber"], r["lhs"], r["rhs"], r["source"])
                 for r in data["relations"] if r["fiber"] == fiber)
    if not rels:
        raise ValueError(f"no relation list for fiber {fiber!r}")
    return rels


def _name_values(rb: RestrictedBasis) -> dict[str, Polynomial]:
    zero = Polynomial.zero(rb.substitution.table)
    values = {name: zero for name in CATALOG_NAMES}
    values.update(rb.as_dict())
    return values


@dataclass(frozen=True)
class VerifyOutcome:
    relation: PublishedRelation
    ok: bool
    residual: Polynomial | None

    def residual_str(self) -> str:
        return "0" if self.ok else str(self.residual)


def verify_published(rel: PublishedRelation, rb: RestrictedBasis) -> VerifyOutcome:
    """Exact check that restricted(lhs) - rhs(restricted values) is zero."""
    residual = rel.substitute(_name_values(rb))
    ok = not residual
    return VerifyOutcome(rel, ok, None if ok else residual)


def numeric_invariants(sub: Substitution,
                       point: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """All 30 invariant values at one rational point, recomputed through the
    tensor recipes on the Fraction matrix and vector of (sigma, m) there."""
    sigma = PolyMat3([[e.evaluate(point) for e in row] for row in sub.sigma.entries])
    m = PolyVec3([e.evaluate(point) for e in sub.m.entries])
    return catalog_mod.evaluate_all(CATALOG, sigma, m)


@dataclass(frozen=True)
class SpotcheckOutcome:
    ok: bool
    trials: int
    seed: int
    failed_trial: int | None = None


def random_point(table: VarTable, rng: random.Random) -> dict[str, Fraction]:
    """Rational point with numerators in [-100, 100], denominators in [1, 100]."""
    return {name: Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for name in table.names}


def spotcheck_relations(rels: Sequence[PublishedRelation | Relation],
                        rb: RestrictedBasis,
                        trials: int = 100, seed: int = 0) -> list[SpotcheckOutcome]:
    """Evaluate relation residuals at seeded random rational points.

    Exact rational evaluation over one shared stream of points: each
    point's invariant values are computed once for all relations, and a
    relation is no longer evaluated after its first failing trial.  A pass
    means the residual was zero at every sampled point.
    """
    rng = random.Random(seed)
    failed_at: dict[int, int] = {}
    for t in range(trials):
        if len(failed_at) == len(rels):
            break
        point = random_point(rb.substitution.table, rng)
        values = numeric_invariants(rb.substitution, point)
        for i, rel in enumerate(rels):
            if i not in failed_at and rel.substitute(values) != 0:
                failed_at[i] = t
    return [SpotcheckOutcome(i not in failed_at, trials, seed, failed_at.get(i))
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


def _in_span(table: VarTable, target: tuple[int, Mapping[int, int]],
             columns: Sequence[tuple[int, Mapping[int, int]]]) -> bool:
    """Whether target is a linear combination of columns (integer
    polynomials on table): the target's column, placed last, is not a pivot
    of their joint RREF."""
    return len(columns) not in coefficient_matrix(table, [*columns, target])[1].rref()[1]


def verify_generating_set(names: Sequence[str], rb: RestrictedBasis) -> GeneratingSetReport:
    """Spanning and minimality certificates for a candidate survivor set.

    Spanning: every surviving invariant outside the set must lie in the
    span of free monomials in the set's names at its own bi-degree.
    Minimality: no member may lie in the span of free monomials in the
    other members at its bi-degree (dropping it would break spanning).
    Every survivor is checked.
    """
    surviving = dict(rb.entries)
    for n in names:
        if n not in surviving:
            raise ValueError(f"{n!r} is not a surviving invariant of this basis")
    table = rb.substitution.table
    ints = integer_forms(rb)
    prefixes: dict = {}
    info = [(n, surviving[n].bidegree()) for n in names]

    def in_span(name: str, items) -> bool:
        bd = surviving[name].bidegree()
        cols = [c for _, c in enumerate_products(items, bd, 1, ints, prefixes)]
        return _in_span(table, ints[name], cols)

    spanning_failures = [name for name, _ in rb.entries
                         if name not in names and not in_span(name, info)]
    redundant = [g for g in names
                 if in_span(g, [item for item in info if item[0] != g])]

    return GeneratingSetReport(tuple(names), not spanning_failures,
                               tuple(spanning_failures), not redundant,
                               tuple(redundant))
