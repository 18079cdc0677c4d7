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
                        product builder (reduction.enumerate_products),
                        its integer coefficient matrix
                        (poly.coefficient_matrix) and RatMatrix.rref, so it
                        is a check of the chosen set, not of that code,
  spotcheck_relations   seeded random rational points, each scaled to an
                        integer point of the same plane, with every
                        invariant value recomputed through the tensor
                        recipes on int matrices rather than read off the
                        restricted polynomials: the route independent of
                        the engine, sharing neither its polynomials nor
                        integer_product.

Both relation checks evaluate one expression, the relation's scaled
residual D * (lhs - rhs): divided by D (substitute()) on the restricted
polynomials for the symbolic check, tested for zero as it is on the int
values at each point for the numeric one (D >= 1).  A shipped relation is
parsed once into an integer-keyed form, D * rhs = sum of c * (product of
invariant names), read off the parsed Polynomial's den and nums, and
scaled_residual() sums D * lhs - sum c * prod itself, with none of the
engine's code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from .poly import MAG, Polynomial, VarTable, coefficient_matrix, parse_polynomial
# Unused here; perfbench/tracing.py wraps this name in this module.
from .ratlinalg import solve_columns  # noqa: F401
from .reduction import Relation, enumerate_products, integer_forms
from .restriction import RestrictedBasis, Substitution
from .tensor3 import Entry, PolyMat3, PolyVec3, _built
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

    @cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[tuple[str, ...], int], ...]]:
        """(D, terms): D * rhs = sum of c * (product of the factor names)
        over terms (factors, c), with D and each c the parsed rhs's den and
        numerators.  A name appears once per power in its factors."""
        p = self.rhs_poly
        names, unpack = NAME_TABLE.names, NAME_TABLE.unpack
        return p.den, tuple((tuple(n for n, e in zip(names, unpack(k)) for _ in range(e)), c)
                            for k, c in p.nums.items())

    def scaled_residual(self, values: Mapping[str, Entry]) -> Entry:
        """D * (lhs - rhs) with every invariant name replaced by its value:
        ints or Fractions, or Polynomials on one table.  An lhs outside
        the catalog raises ValueError."""
        if self.lhs not in CATALOG_INDEX:
            raise ValueError(f"unknown invariant name {self.lhs!r}")
        d, terms = self.integer_form
        total = d * values[self.lhs]
        for factors, c in terms:
            prod = c
            for f in factors:
                prod = prod * values[f]
            total = total - prod
        return total

    def substitute(self, values: Mapping[str, Entry]) -> Entry:
        """lhs - rhs with every invariant name replaced by its value: the
        scaled residual divided by D."""
        d = self.integer_form[0]
        total = self.scaled_residual(values)
        return total if d == 1 else Fraction(1, d) * total


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


class VerifyOutcome(NamedTuple):
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


def _value(p: Polynomial, point: Mapping[str, Fraction | int]) -> Fraction | int:
    """p at a point, exact: p's integer numerators summed at the point and
    divided by its denominator once; an int where the value is whole, a
    Fraction otherwise.  A variable that occurs in p and has no value
    raises ValueError, as in Polynomial.evaluate."""
    names, unpack = p.table.names, p.table.unpack
    total = 0
    for k, v in p.nums.items():
        for name, e in zip(names, unpack(k)):
            if e:
                if name not in point:
                    raise ValueError(f"no value for variable {name!r}")
                v = v * point[name] ** e
        total = total + v
    n, d = total.numerator, total.denominator * p.den
    return n // d if not n % d else Fraction(n, d)


def numeric_invariants(sub: Substitution, point: Mapping[str, Fraction | int]
                       ) -> dict[str, Fraction | int]:
    """All 30 invariant values at one rational point, exact, recomputed
    through the tensor recipes on the matrix and vector of (sigma, m)
    there.  Each entry of sigma and m is an int where it is whole and an
    exact Fraction otherwise, and at an integer point it is evaluated in
    integer arithmetic, so the recipes run on ints wherever the point
    makes the entries whole.  sigma and m are built unchecked:
    evaluate_all checks them, once per point."""
    sigma = _built(PolyMat3, tuple([tuple([_value(e, point) for e in row])
                                    for row in sub.sigma.entries]))
    m = _built(PolyVec3, tuple([_value(e, point) for e in sub.m.entries]))
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


def spotcheck_relations(rels: Sequence[PublishedRelation | Relation],
                        rb: RestrictedBasis,
                        trials: int = 100, seed: int = 0) -> list[SpotcheckOutcome]:
    """Evaluate relation residuals at seeded random rational points.

    Exact evaluation over one shared stream of points: each random point is
    moved to its integer_point, its invariant values are computed once for
    all relations, and a relation is no longer evaluated after its first
    failing trial.  A pass means the residual was zero at every sampled
    point.  trials must be at least 1, or nothing would be evaluated.  The
    seed must be at least 0: random.Random draws the same stream for -s as
    for s.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    table = rb.substitution.table
    # A shipped relation's residual is zero exactly where D times it is.
    residuals = [rel.scaled_residual if isinstance(rel, PublishedRelation)
                 else rel.substitute for rel in rels]
    failed_at: dict[int, int] = {}
    for t in range(trials):
        if len(failed_at) == len(rels):
            break
        point = integer_point(table, random_point(table, rng))
        values = numeric_invariants(rb.substitution, point)
        for i, residual in enumerate(residuals):
            if i not in failed_at and residual(values) != 0:
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
    Every survivor is checked.  A name given twice raises ValueError: the
    minimality test drops every copy of the member it tests.
    """
    surviving = dict(rb.entries)
    for i, n in enumerate(names):
        if n not in surviving:
            raise ValueError(f"{n!r} is not a surviving invariant of this basis")
        if n in names[:i]:
            raise ValueError(f"{n!r} is named more than once in the candidate set")
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
