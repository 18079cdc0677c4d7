"""3-vectors and 3x3 matrices over an exact commutative ring.

The entries are Polynomials (restriction of the catalog to a substitution)
or plain numbers, ints or Fractions (numeric spot-check values at one
point, all ints at the spot-check's integer points); one set of recipes
serves both.  Every sum starts from the ring's own zero (x * 0),
products with a zero factor are skipped, and Polynomial entries must share
one VarTable.

Holds only what the catalog recipes and the substitution checks use:
products, traces, dyads, a symmetry test and the two diagonal/off-diagonal
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
from typing import Iterable, Union

from .poly import Polynomial, VarTable

Entry = Union[Polynomial, Fraction, int]


def _table(entries: Iterable[Entry]) -> VarTable | None:
    """The VarTable shared by Polynomial entries; None for plain numbers."""
    tables = {e.table if isinstance(e, Polynomial) else None for e in entries}
    if len(tables) != 1:
        raise ValueError("entries built on different variable tables")
    return tables.pop()


def _sum_products(zero: Entry, pairs: Iterable[tuple[Entry, Entry]]) -> Entry:
    """zero + sum of x * y over the pairs, skipping pairs with a zero factor."""
    total = zero
    for x, y in pairs:
        if x and y:
            total = total + x * y
    return total


class PolyVec3:
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Entry]):
        entries = tuple(entries)
        if len(entries) != 3:
            raise ValueError("need exactly 3 entries")
        _table(entries)
        self.entries = entries

    @property
    def table(self) -> VarTable | None:
        return _table(self.entries)

    def __getitem__(self, i: int) -> Entry:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyVec3) and self.entries == other.entries

    __hash__ = None

    def dot(self, other: "PolyVec3") -> Entry:
        return _sum_products(self.entries[0] * 0, zip(self.entries, other.entries))

    def __repr__(self) -> str:
        return "PolyVec3(%s)" % ", ".join(str(e) for e in self.entries)


class PolyMat3:
    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 entry grid")
        _table(e for r in rows for e in r)
        self.entries = rows

    @property
    def table(self) -> VarTable | None:
        return _table(e for r in self.entries for e in r)

    def __getitem__(self, i: int) -> tuple[Entry, ...]:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyMat3) and self.entries == other.entries

    __hash__ = None

    def zero(self) -> Entry:
        return self.entries[0][0] * 0

    def __matmul__(self, other: "PolyMat3") -> "PolyMat3":
        a, b, z = self.entries, other.entries, self.zero()
        return PolyMat3([[_sum_products(z, ((a[i][k], b[k][j]) for k in range(3)))
                          for j in range(3)] for i in range(3)])

    def trace(self) -> Entry:
        e = self.entries
        return e[0][0] + e[1][1] + e[2][2]

    def is_symmetric(self) -> bool:
        e = self.entries
        return e[0][1] == e[1][0] and e[0][2] == e[2][0] and e[1][2] == e[2][1]

    def mul_vec(self, v: PolyVec3) -> PolyVec3:
        z = self.zero()
        return PolyVec3([_sum_products(z, zip(self.entries[i], v.entries))
                         for i in range(3)])

    def __repr__(self) -> str:
        return "PolyMat3(%s)" % "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries)


def outer(v: PolyVec3) -> PolyMat3:
    return PolyMat3([[v[i] * v[j] for j in range(3)] for i in range(3)])


def double_contract(a: PolyMat3, b: PolyMat3) -> Entry:
    return _sum_products(a.zero(), ((a[i][j], b[i][j])
                                    for i in range(3) for j in range(3)))


def dbar(a: PolyMat3) -> PolyMat3:
    z = a.zero()
    return PolyMat3([[z if i == j else a[i][j] for j in range(3)] for i in range(3)])


def ddev(a: PolyMat3) -> PolyMat3:
    z = a.zero()
    tr = a.trace()
    third = tr // 3 if isinstance(tr, int) and not tr % 3 else Fraction(1, 3) * tr
    return PolyMat3([[a[i][i] - third if i == j else z
                      for j in range(3)] for i in range(3)])
