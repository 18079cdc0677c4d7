"""The 30 fundamental cubic invariants of a symmetric stress tensor and a
magnetization vector.

Shorthand used in the formula strings (s is the stress tensor, m the
magnetization vector):

  sb = dbar(s)            off-diagonal part of s
  sd = ddev(s)            diagonal part of the deviator of s
  mb = dbar(m o m)        off-diagonal part of the dyadic m o m
  md = ddev(m o m)        diagonal deviator part of m o m
  bar(x), dev(x)          the same projectors applied to x

dbar zeroes the diagonal; ddev keeps the diagonal of the deviator,
subtracting tr/3 from each diagonal entry.

Catalog order is fixed and load-bearing: selection policies and every
reported name list follow it.  A row of ROWS is a name and its factors:
read_name reads the bi-degree and LaTeX label from the name, and the
formula comes from the factors.  tests/test_recipes.py compiles the rows,
through the tensor recipes of tests/recipes_reference.py, into the
straight-line program recipes.evaluate, which evaluate_all runs after
checking its arguments once (restriction.custom_substitution checks what
it loads).  A 3-vector is a 3-tuple and a 3x3 matrix a 3-tuple of rows,
with Polynomial entries (substitutions) or plain numbers, ints or
Fractions (spot-check values).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import recipes
from .poly import Polynomial, VarTable, product_str

Entry = Union[Polynomial, Fraction, int]
Vec3 = tuple[Entry, Entry, Entry]
Mat3 = tuple[Vec3, Vec3, Vec3]


def entry_table(entries: Iterable[Entry]) -> VarTable | None:
    """The VarTable shared by polynomial entries; None for plain numbers.
    ValueError unless the entries are all numbers or all Polynomials on
    one table."""
    kinds = {e.table if isinstance(e, Polynomial) else None for e in entries}
    if len(kinds) != 1:
        raise ValueError("entries of different kinds or built on different variable tables")
    return kinds.pop()


def dot(u: Vec3, v: Vec3) -> Entry:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def mul_vec(a: Mat3, v: Vec3) -> Vec3:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    v0, v1, v2 = v
    return (a00 * v0 + a01 * v1 + a02 * v2, a10 * v0 + a11 * v1 + a12 * v2,
            a20 * v0 + a21 * v1 + a22 * v2)


def is_symmetric(a: Mat3) -> bool:
    return a[0][1] == a[1][0] and a[0][2] == a[2][0] and a[1][2] == a[2][1]


class InvariantDef(NamedTuple):
    name: str
    label: str
    formula: str
    bidegree: tuple[int, int]


def read_name(name: str) -> tuple[tuple[int, int], str]:
    """The bi-degree (a, b + c) and LaTeX label I_{abc}, or I_{abc}^{x}, of
    a name Iabc with an optional suffix x, a or b; ValueError otherwise."""
    digits, suffix = name[1:4], name[4:]
    if not (name[:1] == "I" and len(digits) == 3 and digits.isascii()
            and digits.isdigit() and suffix in ("", "a", "b")):
        raise ValueError(f"cannot read invariant name {name!r} as Iabc, Iabca or Iabcb")
    label = "I_{%s}" % digits + ("^{%s}" % suffix if suffix else "")
    return (int(digits[0]), int(digits[1]) + int(digits[2])), label


# Each row is a name and its factors: the invariant is the trace of the
# product of the factors (of the one factor, for I010), except I200, which
# is dot(m,m).  The product is formed left to right and the last factor
# enters only the trace, tr(x @ y) = x : y, as every part is symmetric.
ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("I010", ("s",)),
    ("I002", ("sb", "sb")),
    ("I020", ("sd", "sd")),
    ("I003", ("sb", "sb", "sb")),
    ("I012", ("sb", "sb", "sd")),
    ("I030", ("sd", "sd", "sd")),
    ("I004", ("bar(sb^2)", "bar(sb^2)")),
    ("I022", ("sb", "sd", "sb", "sd")),
    ("I014", ("sb", "bar(sb^2)", "sb", "sd")),
    ("I200", ("m", "m")),
    ("I201", ("mb", "sb")),
    ("I210", ("md", "sd")),
    ("I202a", ("md", "sb^2")),
    ("I202b", ("mb", "bar(sb^2)")),
    ("I211", ("mb", "sb", "sd")),
    ("I220", ("md", "sd", "sd")),
    ("I203", ("mb", "bar(sb^2)", "sb")),
    ("I212a", ("md", "dev(sb^2)", "sd")),
    ("I212b", ("mb", "bar(sb^2)", "sd")),
    ("I221", ("mb", "sd", "sb", "sd")),
    ("I204", ("md", "sb", "bar(sb^2)", "sb")),
    ("I213", ("mb", "dev(sb^2)", "sb", "sd")),
    ("I222", ("mb", "sd", "bar(sb^2)", "sd")),
    ("I400", ("mb", "mb")),
    ("I401", ("mb", "sb", "mb")),
    ("I410", ("mb", "sd", "mb")),
    ("I402", ("mb", "bar(sb^2)", "mb")),
    ("I411", ("mb", "sd", "sb", "mb")),
    ("I600", ("mb", "mb", "mb")),
    ("I601", ("md", "mb", "md", "sb")),
)


def build_catalog() -> tuple[InvariantDef, ...]:
    defs = []
    for name, factors in ROWS:
        formula = "dot(m,m)" if factors == ("m", "m") else f"tr({product_str(factors)})"
        bidegree, label = read_name(name)
        defs.append(InvariantDef(name, label, formula, bidegree))
    return tuple(defs)


CATALOG: tuple[InvariantDef, ...] = build_catalog()
CATALOG_NAMES: tuple[str, ...] = tuple(defn.name for defn in CATALOG)
CATALOG_INDEX: Mapping[str, int] = {name: i for i, name in enumerate(CATALOG_NAMES)}


def evaluate_all(catalog: Sequence[InvariantDef], sigma: Mat3,
                 m: Vec3) -> dict[str, Entry]:
    """Evaluate every catalog entry on one (sigma, m) through
    recipes.evaluate, which forms each entry of a part or leading product
    that some trace reads once, and multiplies no structural zero.

    The entries may be Polynomials or plain numbers (ints or Fractions);
    the values are of the same kind, ints when every entry is an int and
    every trace that ddev divides is a multiple of 3.
    The result preserves catalog order.  ValueError when sigma is not 3x3
    or m has not 3 entries, the entries mix kinds or tables, or sigma is
    not symmetric: the one check of the arguments.
    """
    if len(sigma) != 3 or any(len(row) != 3 for row in sigma) or len(m) != 3:
        raise ValueError("need a 3x3 stress tensor and a 3-entry magnetization")
    entry_table((*sigma[0], *sigma[1], *sigma[2], *m))
    if not is_symmetric(sigma):
        raise ValueError("stress tensor must be symmetric")
    values = recipes.evaluate(sigma, m)
    return {defn.name: values[defn.name] for defn in catalog}
