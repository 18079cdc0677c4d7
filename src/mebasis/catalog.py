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
reported name list follow it.  A row states a name, a formula and a
recipe; read_name reads the bi-degree and LaTeX label from the name.

The recipes run on plain tuples: a 3-vector is a 3-tuple, a 3x3 matrix a
3-tuple of rows, with Polynomial entries (substitutions) or plain
numbers, ints or Fractions (spot-check values).  In every ring each
entry of a product is one sum of products of unpacked entries, zeros
included: a number times a polynomial matrix gives polynomials, and
polynomials on different tables raise ValueError.  Nothing here checks
operands: TensorParts (so evaluate_all) checks shape, one entry_table
and symmetry once, and restriction.validate_substitution checks a
substitution.  The two projectors:

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

from .poly import Polynomial, VarTable

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


class TensorParts:
    """Shared building blocks for evaluating the catalog on one (sigma, m).

    The one check of its arguments: sigma is 3x3 and m has 3 entries, the
    entries are of one kind, on one table, and sigma is symmetric.
    """

    def __init__(self, sigma: Mat3, m: Vec3):
        if len(sigma) != 3 or any(len(row) != 3 for row in sigma) or len(m) != 3:
            raise ValueError("need a 3x3 stress tensor and a 3-entry magnetization")
        entry_table((*sigma[0], *sigma[1], *sigma[2], *m))
        if not is_symmetric(sigma):
            raise ValueError("stress tensor must be symmetric")
        self.m = m
        self.tr = trace(sigma)
        self.sd = ddev(sigma)
        self.sb = dbar(sigma)
        self.sb2 = matmul(self.sb, self.sb)
        self.sb2_bar = dbar(self.sb2)
        self.sb2_dev = ddev(self.sb2)
        mm = outer(m)
        self.mb = dbar(mm)
        self.md = ddev(mm)
        # Prefixes that several recipes share.
        self.mb_sb = matmul(self.mb, self.sb)
        self.mb_sb2_bar = matmul(self.mb, self.sb2_bar)
        self.mb_sd = matmul(self.mb, self.sd)
        self.mb_sd_sb = matmul(self.mb_sd, self.sb)


def _tr(*mats: Mat3) -> Entry:
    """tr(mats[0] @ ... @ mats[-1]); the last product forms only its trace.

    The last factor is always a symmetric part, so tr(a @ b) = a : b^T = a : b.
    """
    prod = mats[0]
    for x in mats[1:-1]:
        prod = matmul(prod, x)
    return double_contract(prod, mats[-1])


class InvariantDef(NamedTuple):
    name: str
    label: str
    formula: str
    bidegree: tuple[int, int]
    recipe: Callable[[TensorParts], Entry]


def read_name(name: str) -> tuple[tuple[int, int], str]:
    """The bi-degree (a, b + c) and LaTeX label I_{abc}, or I_{abc}^{x}, of
    a name Iabc with an optional suffix x, a or b; ValueError otherwise."""
    digits, suffix = name[1:4], name[4:]
    if not (name[:1] == "I" and len(digits) == 3 and digits.isascii()
            and digits.isdigit() and suffix in ("", "a", "b")):
        raise ValueError(f"cannot read invariant name {name!r} as Iabc, Iabca or Iabcb")
    label = "I_{%s}" % digits + ("^{%s}" % suffix if suffix else "")
    return (int(digits[0]), int(digits[1]) + int(digits[2])), label


def build_catalog() -> tuple[InvariantDef, ...]:
    defs = []
    for name, formula, recipe in (
        ("I010", "tr(s)", lambda p: p.tr),
        ("I002", "tr(sb^2)", lambda p: _tr(p.sb, p.sb)),
        ("I020", "tr(sd^2)", lambda p: _tr(p.sd, p.sd)),
        ("I003", "tr(sb^3)", lambda p: _tr(p.sb2, p.sb)),
        ("I012", "tr(sb^2*sd)", lambda p: _tr(p.sb2, p.sd)),
        ("I030", "tr(sd^3)", lambda p: _tr(p.sd, p.sd, p.sd)),
        ("I004", "tr(bar(sb^2)^2)", lambda p: _tr(p.sb2_bar, p.sb2_bar)),
        ("I022", "tr(sb*sd*sb*sd)", lambda p: _tr(p.sb, p.sd, p.sb, p.sd)),
        ("I014", "tr(sb*bar(sb^2)*sb*sd)", lambda p: _tr(p.sb, p.sb2_bar, p.sb, p.sd)),
        ("I200", "dot(m,m)", lambda p: dot(p.m, p.m)),
        ("I201", "tr(mb*sb)", lambda p: _tr(p.mb, p.sb)),
        ("I210", "tr(md*sd)", lambda p: _tr(p.md, p.sd)),
        ("I202a", "tr(md*sb^2)", lambda p: _tr(p.md, p.sb2)),
        ("I202b", "tr(mb*bar(sb^2))", lambda p: _tr(p.mb, p.sb2_bar)),
        ("I211", "tr(mb*sb*sd)", lambda p: _tr(p.mb_sb, p.sd)),
        ("I220", "tr(md*sd^2)", lambda p: _tr(p.md, p.sd, p.sd)),
        ("I203", "tr(mb*bar(sb^2)*sb)", lambda p: _tr(p.mb_sb2_bar, p.sb)),
        ("I212a", "tr(md*dev(sb^2)*sd)", lambda p: _tr(p.md, p.sb2_dev, p.sd)),
        ("I212b", "tr(mb*bar(sb^2)*sd)", lambda p: _tr(p.mb_sb2_bar, p.sd)),
        ("I221", "tr(mb*sd*sb*sd)", lambda p: _tr(p.mb_sd_sb, p.sd)),
        ("I204", "tr(md*sb*bar(sb^2)*sb)", lambda p: _tr(p.md, p.sb, p.sb2_bar, p.sb)),
        ("I213", "tr(mb*dev(sb^2)*sb*sd)", lambda p: _tr(p.mb, p.sb2_dev, p.sb, p.sd)),
        ("I222", "tr(mb*sd*bar(sb^2)*sd)", lambda p: _tr(p.mb_sd, p.sb2_bar, p.sd)),
        ("I400", "tr(mb^2)", lambda p: _tr(p.mb, p.mb)),
        ("I401", "tr(mb*sb*mb)", lambda p: _tr(p.mb_sb, p.mb)),
        ("I410", "tr(mb*sd*mb)", lambda p: _tr(p.mb_sd, p.mb)),
        ("I402", "tr(mb*bar(sb^2)*mb)", lambda p: _tr(p.mb_sb2_bar, p.mb)),
        ("I411", "tr(mb*sd*sb*mb)", lambda p: _tr(p.mb_sd_sb, p.mb)),
        ("I600", "tr(mb^3)", lambda p: _tr(p.mb, p.mb, p.mb)),
        ("I601", "tr(md*mb*md*sb)", lambda p: _tr(p.md, p.mb, p.md, p.sb)),
    ):
        bidegree, label = read_name(name)
        defs.append(InvariantDef(name, label, formula, bidegree, recipe))
    return tuple(defs)


CATALOG: tuple[InvariantDef, ...] = build_catalog()
CATALOG_NAMES: tuple[str, ...] = tuple(defn.name for defn in CATALOG)
CATALOG_INDEX: Mapping[str, int] = {name: i for i, name in enumerate(CATALOG_NAMES)}


def evaluate_all(catalog: Sequence[InvariantDef], sigma: Mat3,
                 m: Vec3) -> dict[str, Entry]:
    """Evaluate every catalog entry on one (sigma, m), sharing the parts.

    The entries may be Polynomials or plain numbers (ints or Fractions);
    the values are of the same kind, ints when every entry is an int and
    every trace that ddev divides is a multiple of 3.
    The result preserves catalog order.  ValueError when sigma is not 3x3
    or m has not 3 entries, the entries mix kinds or tables, or sigma is
    not symmetric.
    """
    parts = TensorParts(sigma, m)
    return {defn.name: defn.recipe(parts) for defn in catalog}
