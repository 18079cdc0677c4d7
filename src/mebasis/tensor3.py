"""3-vectors and 3x3 matrices over an exact commutative ring.

The entries are of one of two kinds: Polynomials (substitutions and the
restriction of the catalog to them), or plain numbers, ints or Fractions
(numeric spot-check values at one point, all ints at the spot-check's
integer points); one set of recipes serves both.  Every sum starts from
the ring's own zero (x * 0) and runs as a plain loop over zipped rows,
skipping products with a zero factor.

Entries are validated where a vector or matrix enters from outside: the
public PolyVec3(...) and PolyMat3(...) constructors, and the .table
property, check that they are all plain numbers or all Polynomials on one
VarTable.  The results of @, mul_vec, outer, dbar and ddev are computed
from operands checked that way and are built without a second scan
(_built); so are the spot-check's arguments of catalog.evaluate_all,
which checks its arguments once.  The two-operand ones start their sums
from the sum of both operands' zeros, so a number times a polynomial
matrix gives polynomials only, and polynomials on different tables raise
ValueError.

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
    """The VarTable shared by polynomial entries; None for plain numbers.
    The entries must be all numbers or all Polynomials on one table."""
    kinds = {e.table if isinstance(e, Polynomial) else None for e in entries}
    if len(kinds) != 1:
        raise ValueError("entries of different kinds or built on different "
                         "variable tables")
    return kinds.pop()


def _built(cls, entries):
    """A PolyVec3 or PolyMat3 on entries (a tuple, or a tuple of row tuples)
    computed from validated operands, or checked later by
    catalog.evaluate_all, without checking them here."""
    obj = object.__new__(cls)
    obj.entries = entries
    return obj


def _dot(total: Entry, xs: Iterable[Entry], ys: Iterable[Entry]) -> Entry:
    """total + sum of x * y over zip(xs, ys), skipping pairs with a zero factor."""
    for x, y in zip(xs, ys):
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
        return _dot(self.entries[0] * 0, self.entries, other.entries)

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
        z = self.zero() + other.zero()
        cols = tuple(zip(*other.entries))
        return _built(PolyMat3, tuple([tuple([_dot(z, row, col) for col in cols])
                                       for row in self.entries]))

    def trace(self) -> Entry:
        e = self.entries
        return e[0][0] + e[1][1] + e[2][2]

    def is_symmetric(self) -> bool:
        e = self.entries
        return e[0][1] == e[1][0] and e[0][2] == e[2][0] and e[1][2] == e[2][1]

    def mul_vec(self, v: PolyVec3) -> PolyVec3:
        z = self.zero() + v.entries[0] * 0
        return _built(PolyVec3, tuple([_dot(z, row, v.entries) for row in self.entries]))

    def __repr__(self) -> str:
        return "PolyMat3(%s)" % "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries)


def outer(v: PolyVec3) -> PolyMat3:
    e = v.entries
    return _built(PolyMat3, tuple([tuple([x * y for y in e]) for x in e]))


def double_contract(a: PolyMat3, b: PolyMat3) -> Entry:
    total = a.zero()
    for ra, rb in zip(a.entries, b.entries):
        total = _dot(total, ra, rb)
    return total


def dbar(a: PolyMat3) -> PolyMat3:
    z = a.zero()
    e = a.entries
    return _built(PolyMat3, ((z, e[0][1], e[0][2]), (e[1][0], z, e[1][2]),
                             (e[2][0], e[2][1], z)))


def ddev(a: PolyMat3) -> PolyMat3:
    z = a.zero()
    tr = a.trace()
    third = tr // 3 if isinstance(tr, int) and not tr % 3 else Fraction(1, 3) * tr
    e = a.entries
    return _built(PolyMat3, ((e[0][0] - third, z, z), (z, e[1][1] - third, z),
                             (z, z, e[2][2] - third)))
