"""The 30 fundamental cubic invariants of a symmetric stress tensor and a
magnetization vector, as executable tensor recipes.

Shorthand used in the formula strings (s is the stress tensor, m the
magnetization vector):

  sb = dbar(s)            off-diagonal part of s
  sd = ddev(s)            diagonal part of the deviator of s
  mb = dbar(m o m)        off-diagonal part of the dyadic m o m
  md = ddev(m o m)        diagonal deviator part of m o m
  bar(x), dev(x)          the same projectors applied to x

Catalog order is fixed and load-bearing: selection policies and every
reported name list follow it.  A row of ROWS is a name and its factors:
read_name reads the bi-degree and LaTeX label from the name, and the
formula, the recipe and SHARED_PRODUCTS all come from the factors.

The recipes run on plain tuples: a 3-vector is a 3-tuple, a 3x3 matrix a
3-tuple of rows, with Polynomial entries (substitutions) or plain
numbers, ints or Fractions (spot-check values).  In every ring each
entry of a product is one sum of products of unpacked entries, zeros
included: a number times a polynomial matrix gives polynomials, and
polynomials on different tables raise ValueError.  Nothing here checks
operands: evaluate_all checks shape, one entry_table and symmetry once,
and restriction.custom_substitution checks what it loads.  The two
projectors:

  dbar(a)  zeroes the diagonal (keeps the off-diagonal part),
  ddev(a)  keeps the diagonal of the deviator (subtracts tr(a)/3 from each
           diagonal entry, zeroes the off-diagonal part); an int trace
           divisible by 3 is divided as an int, so int entries stay ints.

Entry by entry a = ddev(a) + dbar(a) + tr(a)/3 on the diagonal, and both
maps are idempotent and mutually annihilating.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .poly import Polynomial, VarTable, product_str

Entry = Union[Polynomial, Fraction, int]
Vec3 = tuple[Entry, Entry, Entry]
Mat3 = tuple[Vec3, Vec3, Vec3]
# The parts and shared products of one point, keyed by their factors.
Products = Mapping[tuple[str, ...], Union[Mat3, Vec3]]


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


def matmul(a: Mat3, b: Mat3) -> Mat3:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22))


def trace(a: Mat3) -> Entry:
    return a[0][0] + a[1][1] + a[2][2]


def is_symmetric(a: Mat3) -> bool:
    return a[0][1] == a[1][0] and a[0][2] == a[2][0] and a[1][2] == a[2][1]


def outer(v: Vec3) -> Mat3:
    return tuple([tuple([x * y for y in v]) for x in v])


def double_contract(a: Mat3, b: Mat3) -> Entry:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (a00 * b00 + a01 * b01 + a02 * b02 + a10 * b10 + a11 * b11 + a12 * b12
            + a20 * b20 + a21 * b21 + a22 * b22)


def dbar(a: Mat3) -> Mat3:
    z = a[0][0] * 0
    return ((z, a[0][1], a[0][2]), (a[1][0], z, a[1][2]), (a[2][0], a[2][1], z))


def ddev(a: Mat3) -> Mat3:
    z = a[0][0] * 0
    tr = trace(a)
    third = tr // 3 if isinstance(tr, int) and not tr % 3 else Fraction(1, 3) * tr
    return ((a[0][0] - third, z, z), (z, a[1][1] - third, z),
            (z, z, a[2][2] - third))


class InvariantDef(NamedTuple):
    name: str
    label: str
    formula: str
    bidegree: tuple[int, int]
    recipe: Callable[[Products], Entry]


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

# The products of two or more leading factors that the recipes read, each
# listed after its own leading factors; sb*sb is the part sb^2.
SHARED_PRODUCTS: tuple[tuple[str, ...], ...] = tuple(dict.fromkeys(
    factors[:k] for _, factors in ROWS for k in range(2, len(factors))
    if factors[:k] != ("sb", "sb")))


def _recipe(factors: tuple[str, ...]) -> Callable[[Products], Entry]:
    """The value of the row with these factors, read off evaluate_all's
    parts and shared products."""
    if factors == ("m", "m"):
        return lambda p: dot(p[("m",)], p[("m",)])
    if len(factors) == 1:
        return lambda p: trace(p[factors])
    head, last = factors[:-1], factors[-1:]
    return lambda p: double_contract(p[head], p[last])


def build_catalog() -> tuple[InvariantDef, ...]:
    defs = []
    for name, factors in ROWS:
        formula = "dot(m,m)" if factors == ("m", "m") else f"tr({product_str(factors)})"
        bidegree, label = read_name(name)
        defs.append(InvariantDef(name, label, formula, bidegree, _recipe(factors)))
    return tuple(defs)


CATALOG: tuple[InvariantDef, ...] = build_catalog()
CATALOG_NAMES: tuple[str, ...] = tuple(defn.name for defn in CATALOG)
CATALOG_INDEX: Mapping[str, int] = {name: i for i, name in enumerate(CATALOG_NAMES)}


def evaluate_all(catalog: Sequence[InvariantDef], sigma: Mat3,
                 m: Vec3) -> dict[str, Entry]:
    """Evaluate every catalog entry on one (sigma, m), sharing the parts
    and the products of SHARED_PRODUCTS, each formed once.

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
    sb, mm = dbar(sigma), outer(m)
    sb2 = matmul(sb, sb)
    p = {("s",): sigma, ("m",): m, ("sb",): sb, ("sd",): ddev(sigma), ("mb",): dbar(mm),
         ("md",): ddev(mm), ("sb^2",): sb2, ("sb", "sb"): sb2, ("bar(sb^2)",): dbar(sb2),
         ("dev(sb^2)",): ddev(sb2)}
    for key in SHARED_PRODUCTS:
        p[key] = matmul(p[key[:-1]], p[key[-1:]])
    return {defn.name: defn.recipe(p) for defn in catalog}
