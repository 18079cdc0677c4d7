"""Bi-graded reduction of a restricted invariant basis.

The engine walks the bi-degrees (a, b) where an invariant survives, in
degree-lexicographic order (total degree first, then magnetization
degree).  At each it assembles one column per reducible product (a
multiset of two or more generators, kept at earlier bi-degrees, whose
bi-degrees sum to the target) and one column per surviving invariant of
that exact bi-degree, builds the integer coefficient matrix over the
shared monomials, and runs one exact elimination (RREF) on it.  Every
eliminated survivor is, by induction over the walk, a polynomial in the
generators of lower bi-degree, so the products of generators span what
the products of all survivors would: the kept sets are the ones those
products give, and every relation is a normal form in the generators.

A ProductGrid enumerates the multisets by bi-degree from names alone:
those at bd are those at bd - deg s that end at or before s, each
extended by s.  reduce_basis starts it with no name; the names kept at a
bi-degree join its pool after that bi-degree's elimination, and the
grid's entry there, built before them, is dropped, to be rebuilt with
them.  No other entry can miss a generator: lookups only go down, so an
entry below the current target holds names of lower bi-degree, all kept
before it was built.
One builder, _product, makes every product, for the engine's columns,
the self-check and verify.verify_generating_set: one poly.multiply of its
prefix (all factors but the last, names sorted), a survivor or a product
in its caller's table, by its last factor.  The table is a memo: it keeps
every product built, and a product found there is not built again.
reduce_basis builds one grid, and gives the engine and the self-check one
survivor dict (rb.as_dict()) and one table each, for that call only.
Each column holds its polynomial's numerators, the polynomial times its
denominator; the RREF pivots do not depend on such scaling, and relations
read from the RREF multiply it back in.

The selection policy is a column order: the products come first, then the
invariants in the order the policy prefers them.  The invariants whose
columns are pivots are the kept ones.  A free product column gives a
syzygy between products of lower-degree generators; it is reported but
eliminates nothing.  A free invariant column is eliminated, and its RREF
entries express it over the pivot columns: a relation in solved form,
scaled to coprime integer coefficients.  The RREF is the primitive
integer one (ratlinalg), so a free column f is read without a Fraction:
with L the lcm of the pivots R[r][p] of the rows where f has an entry, the
free column contributes L * d_f and each such pivot column p
-R[r][f] * (L / R[r][p]) * d_p.  Every relation and syzygy is
checked exactly before it is reported, by one pass of _check_relations
per bi-degree over what the elimination returned: it multiplies the
factor tuples they name, each once per reduce_basis call, from the
check's own dict and table, never from the engine's dict, table or
matrix, and the sum of coefficient times product must vanish as integer
numerators over one common denominator.
"""

from __future__ import annotations

from bisect import insort
from math import lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .catalog import CATALOG, CATALOG_INDEX
from .poly import Polynomial, coefficient_matrix, multiply, product_str, signed_sum
from .ratlinalg import normalize_integer_vector
from .restriction import RestrictedBasis, fiber_substitution

if TYPE_CHECKING:
    from fractions import Fraction

# Called by nothing; perfbench/tracing.py looks both names up in this module.
rank_of_columns = solve_columns = None

POLICIES = ("paper", "table-order", "reverse-table-order")

# Pinned survivor lists for the built-in fibers under the default policy,
# used only for a substitution equal to that fiber's own (a custom file
# merely named like a fiber does not get them).  Validated on every run:
# the engine checks that each pinned set spans the restricted basis at
# every bi-degree and contains no redundant member, and fails loudly
# otherwise.
PINNED_GENERATORS: Mapping[str, tuple[str, ...]] = {
    "theta": ("I010", "I002", "I020", "I200", "I201", "I210", "I400"),
    "alpha_prime": ("I010", "I002", "I020", "I003", "I030", "I200", "I201",
                    "I210", "I202a", "I211", "I220", "I400", "I401", "I410",
                    "I600"),
    "gamma": ("I010", "I020", "I030", "I200", "I210", "I220", "I410", "I600"),
}


class ReductionError(Exception):
    pass


class PolicyConflictError(ReductionError):
    """A selection policy asked for a keep set that cannot work."""


class RelationIntegrityError(ReductionError):
    """A relation failed exact re-substitution; indicates a bug, never input."""


def deglex_key(bidegree: tuple[int, int]) -> tuple[int, int, int]:
    a, b = bidegree
    return (a + b, a, b)


def _bidegree(name: str) -> tuple[int, int]:
    """The bi-degree of a survivor, from its catalog entry (restrict_basis
    checks that the restriction keeps it)."""
    return CATALOG[CATALOG_INDEX[name]].bidegree


class Relation(NamedTuple):
    """An exact linear relation sum_k c_k * prod_k = 0.

    terms maps sorted factor-name tuples to coprime integer coefficients.
    When solved_for is set, that invariant appears in exactly one term, as a
    bare factor with positive coefficient, and solved_str renders the
    relation solved for it.
    """
    bidegree: tuple[int, int]
    terms: tuple[tuple[tuple[str, ...], int], ...]
    solved_for: str | None = None

    def substitute(self, values: Mapping[str, Fraction | Polynomial]
                   ) -> Fraction | Polynomial:
        """sum_k c_k * prod_k with every name replaced by its value: rationals,
        or Polynomials on one table."""
        total = 0
        for factors, coeff in self.terms:
            prod = coeff
            for f in factors:
                prod = prod * values[f]
            total = total + prod
        return total

    def equation_str(self, *, product=product_str) -> str:
        """The relation as text, "sum_k c_k*prod_k = 0"; product renders each
        factor tuple.  A report passes one memo of product_str to this and
        to solved_str, so each of its distinct products is rendered once."""
        return signed_sum((c, product(f)) for f, c in self.terms) + " = 0"

    def solved_form(self) -> tuple[int, list[tuple[tuple[str, ...], int]]]:
        """(lead, rhs): solved_for = rhs / lead, with lead the solved-for
        term's coefficient (positive, as the class requires) and rhs the
        other terms with their signs flipped to the right-hand side."""
        lead = dict(self.terms).get((self.solved_for,))
        if not lead:
            raise ValueError(f"relation has no solved-for term {self.solved_for!r}")
        return lead, [(f, -c) for f, c in self.terms if f != (self.solved_for,)]

    def solved_str(self, *, product=product_str) -> str:
        """The relation solved for solved_for, "name = rhs" or
        "name = 1/lead*(rhs)"; product renders each factor tuple, as in
        equation_str."""
        lead, rhs = self.solved_form()
        body = signed_sum((c, product(f)) for f, c in rhs)
        if lead == 1:
            return f"{self.solved_for} = {body}"
        return f"{self.solved_for} = 1/{lead}*({body})"


class BidegreeReport(NamedTuple):
    bidegree: tuple[int, int]
    n_products: int
    n_invariants: int
    rank: int
    kernel_dim: int
    kept: tuple[str, ...]
    eliminated: tuple[str, ...]
    n_syzygies: int

    @property
    def n_columns(self) -> int:
        return self.n_products + self.n_invariants


class ReductionResult(NamedTuple):
    basis: RestrictedBasis
    policy: str
    effective_policy: str
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    syzygies: tuple[Relation, ...]
    vanished: tuple[str, ...]
    reports: tuple[BidegreeReport, ...]


def partition_bidegrees(rb: RestrictedBasis) -> list[tuple[tuple[int, int], tuple[str, ...]]]:
    """Surviving invariant names grouped by bi-degree, deglex ascending."""
    groups: dict[tuple[int, int], list[str]] = {}
    for name, _ in rb.entries:
        groups.setdefault(_bidegree(name), []).append(name)
    return [(bd, tuple(groups[bd])) for bd in sorted(groups, key=deglex_key)]


class ProductGrid(dict):
    """bd -> the multisets of names summing to bd, sorted, each bi-degree
    built on its first look-up from catalog bi-degrees alone: those at
    bd - deg s ending at or before s, extended by s.  One per reduction or
    certificate."""

    def __init__(self, names: Iterable[str]):
        super().__init__({(0, 0): ((),)})
        self.pool = sorted((n, _bidegree(n)) for n in names)

    def __missing__(self, bd: tuple[int, int]) -> tuple[tuple[str, ...], ...]:
        a, b = bd
        sets = []
        for name, (da, db) in self.pool:
            if da <= a and db <= b:
                sets.extend(m + (name,) for m in self[a - da, b - db] if m[-1:] <= (name,))
        self[bd] = tuple(sorted(sets))
        return self[bd]


def _product(factors: tuple[str, ...], polys: Mapping[str, Polynomial],
             table: dict) -> Polynomial:
    """The product of the two or more survivors named by factors (sorted),
    out of polys: read from table, or its prefix (all factors but the
    last; a survivor, or a product built the same way) times its last
    factor, kept in table."""
    prod = table.get(factors)
    if prod is None:
        head = factors[:-1]
        got = polys[head[0]] if len(head) == 1 else _product(head, polys, table)
        prod = table[factors] = multiply(got, polys[factors[-1]])
    return prod


def reducible_products(target: tuple[int, int], polys: Mapping[str, Polynomial],
                       table: dict[tuple[str, ...], Polynomial], grid: ProductGrid
                       ) -> list[tuple[tuple[str, ...], Polynomial]]:
    """The multisets of two or more names in grid whose bi-degrees sum to
    target, in lexicographic order, each with its _product out of polys and
    table.  With one polys and table, each product is multiplied at most
    once: table keeps it.
    Products of nonzero polynomials never vanish: each is a usable column.
    reduce_basis calls this once per target (perfbench/tracing.py wraps
    it there), and verify.verify_generating_set once per bi-degree, on a
    grid of its candidate names."""
    return [(fs, _product(fs, polys, table)) for fs in grid[target] if len(fs) > 1]


def _relation(bd: tuple[int, int], raw_terms: Sequence[tuple[tuple[str, ...], int]],
              solved_for: str | None = None) -> Relation:
    """The relation over nonzero raw terms, scaled to coprime integers with
    its first term positive."""
    labels, coeffs = zip(*raw_terms)
    return Relation(bd, tuple(zip(labels, normalize_integer_vector(coeffs))), solved_for)


def _check_relations(rels: Sequence[Relation], polys: Mapping[str, Polynomial],
                     table: dict) -> None:
    """Raise RelationIntegrityError on the first of rels, all of one
    bi-degree, that exact re-multiplication does not confirm.

    _product multiplies each term's factors out of the check's own
    survivor dict and table, never the engine's dict, table or matrix;
    over one reduce_basis call, each factor tuple once (the table is its
    memo).  c_k * prod_k must sum to 0 as integer numerators (nums) over
    one common denominator (the lcm of the products' den).
    """
    for rel in rels:
        prods = [(polys[f[0]] if len(f) == 1 else _product(f, polys, table), c)
                 for f, c in rel.terms]
        den = lcm(*(prod.den for prod, _ in prods))
        residual: dict[int, int] = {}
        for prod, c in prods:
            scale = c * (den // prod.den)
            for m, v in prod.nums.items():
                residual[m] = residual.get(m, 0) + scale * v
        if any(residual.values()):
            raise RelationIntegrityError(f"relation at {rel.bidegree} does not "
                                         f"substitute to zero: {rel.equation_str()}")


def _eliminate(bd: tuple[int, int], polys: Mapping[str, Polynomial],
               prods: Sequence[tuple[tuple[str, ...], Polynomial]],
               invs: Sequence[str], order: Sequence[str]
               ) -> tuple[tuple[str, ...], list[Relation], list[Relation]]:
    """One exact elimination at bi-degree bd.

    The columns are the products, then the invariants invs (catalog
    order, their polynomials in polys) arranged in the policy order
    `order`, each column holding the numerators of its polynomial, which
    are its den d times its coefficients.  A single RREF gives everything:
    the pivot invariant columns, which are the kept names (returned in
    catalog order); a syzygy for every free product column; and, for every
    invariant whose column is not a pivot, its relation solved over the
    pivot columns, read from that column's entries in the primitive RREF
    (in catalog order of the solved-for names), in integers with the lcm
    L of the pivots it meets as the module docstring says: column f is d_f
    times its polynomial, and row r is the Fraction RREF row times its
    pivot R[r][p].  Nothing here checks a relation; _check_relations does.
    """
    n_prods = len(prods)
    labels = [factors for factors, _ in prods] + [(n,) for n in order]
    columns = [c for _, c in prods] + [polys[n] for n in order]
    dens = [c.den for c in columns]
    _, mat = coefficient_matrix(columns)
    rrefm, pivots = mat.rref()
    rows = rrefm.data
    pivot_set = set(pivots)
    # Column -> its position with the invariants in catalog order.
    catalog_pos = list(range(n_prods)) + [n_prods + invs.index(n) for n in order]

    def over_pivots(f: int) -> tuple[int, list[tuple[int, int]]]:
        """(L * d_f, terms): L * d_f * column f = sum of c * column p over the
        terms (p, -c), p ascending."""
        hits = [(r, p) for r, p in enumerate(pivots) if rows[r][f]]
        scale = lcm(*(rows[r][p] for r, p in hits))
        return scale * dens[f], [(p, -rows[r][f] * (scale // rows[r][p]) * dens[p])
                                 for r, p in hits]

    syzygies = []
    for f in range(n_prods):
        if f not in pivot_set:
            own, terms = over_pivots(f)
            raw = [(labels[p], c) for p, c in terms]
            syzygies.append(_relation(bd, raw + [(labels[f], own)]))

    column = {name: n_prods + k for k, name in enumerate(order)}
    relations = []
    for name in invs:
        f = column[name]
        if f in pivot_set:
            continue
        own, terms = over_pivots(f)
        terms.sort(key=lambda t: catalog_pos[t[0]])
        raw = [((name,), own)] + [(labels[p], c) for p, c in terms]
        relations.append(_relation(bd, raw, name))
    kept = tuple(n for n in invs if column[n] in pivot_set)
    return kept, syzygies, relations


def reduce_basis(rb: RestrictedBasis, policy: str = "paper") -> ReductionResult:
    """Run the full reduction: returns generators, solved relations,
    syzygies and one account per bi-degree where an invariant survives.

    policy "paper" uses the pinned survivor lists for substitutions equal
    to a built-in fiber (validated, never trusted) and falls back to
    "table-order" for any other substitution, whatever its name.
    "table-order" keeps the earliest catalog entry not already spanned;
    "reverse-table-order" walks the catalog backwards.
    Each policy is a column order: the pivot columns of one RREF are the
    kept names.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    pinned = None
    effective = policy
    if policy == "paper":
        name = rb.substitution.name
        if name in PINNED_GENERATORS and rb.substitution == fiber_substitution(name):
            pinned = PINNED_GENERATORS[name]
        else:
            effective = "table-order"

    # For this call only: one ProductGrid over the generators kept so far;
    # the engine's dict and table; the check's.
    polys, prefixes = rb.as_dict(), {}
    check_polys, checked = rb.as_dict(), {}
    grid = ProductGrid(())
    generators: list[str] = []
    relations: list[Relation] = []
    syzygies: list[Relation] = []
    reports: list[BidegreeReport] = []

    for bd, invs in partition_bidegrees(rb):
        prods = reducible_products(bd, polys, prefixes, grid)
        if pinned is not None:
            want = tuple(n for n in invs if n in pinned)
            order = want + tuple(n for n in invs if n not in pinned)
        elif effective == "reverse-table-order":
            order = invs[::-1]
        else:
            order = invs
        kept, syz_here, rels = _eliminate(bd, polys, prods, invs, order)
        _check_relations(syz_here + rels, check_polys, checked)
        if pinned is not None and kept != want:
            redundant = [n for n in want if n not in kept]
            problem = (f"contains a redundant invariant (not a pivot: {', '.join(redundant)})"
                       if redundant else "does not span the restricted invariants there "
                       f"(also kept: {', '.join(n for n in kept if n not in want)})")
            raise PolicyConflictError(f"keep set {want} at bi-degree {bd} {problem}")
        for n in kept:
            insort(grid.pool, (n, bd))
        del grid[bd]

        kernel_dim = len(syz_here) + len(rels)
        generators.extend(kept)
        relations.extend(rels)
        syzygies.extend(syz_here)
        reports.append(BidegreeReport(bd, len(prods), len(invs),
                                      len(prods) + len(invs) - kernel_dim,
                                      kernel_dim, kept,
                                      tuple(rel.solved_for for rel in rels),
                                      len(syz_here)))

    return ReductionResult(
        basis=rb,
        policy=policy,
        effective_policy=effective,
        generators=tuple(sorted(generators, key=CATALOG_INDEX.__getitem__)),
        relations=tuple(relations),
        syzygies=tuple(syzygies),
        vanished=rb.vanished,
        reports=tuple(reports),
    )
