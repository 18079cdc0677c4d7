"""Exact elimination on integer matrices.

Small matrices only (tens of rows and columns), of int entries: a
coefficient matrix holds the integer numerators of its columns.  `rref`
returns the primitive integer RREF: the reduced row echelon form (over the
rationals) with each nonzero row scaled to coprime integers and a positive
pivot, without dividing by the pivots.  The reduced row echelon form is
unique up to the scale of each row, so this form is unique too: each row
is the row Gauss-Jordan on Fractions gives, scaled to coprime integers.

Elimination runs on integers, in two phases (RatMatrix.rref): a forward
pass over the live rows only, then back-substitution over the rank rows.
Downstream code reads the primitive RREF and its pivot columns (whose
count is the rank), and scales relations with normalize_integer_vector,
which shares rref's row scaling.
"""

from __future__ import annotations

from itertools import chain, islice
from math import gcd
from typing import Iterable, Sequence

_INT = frozenset((int,))


def _primitive(row: Sequence[int]) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row stays
    zero).

    Every entry must be an int; any other raises TypeError naming it, and
    an int subclass such as bool comes out as an int.  A row of exact ints,
    as the engine builds them, is told apart by one pass over its entry
    types and taken as it is.
    """
    if not set(map(type, row)) <= _INT:
        for x in row:
            if not isinstance(x, int):
                raise TypeError(f"entry {x!r} is not an int")
        row = list(map(int, row))
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def normalize_integer_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Scale an integer vector to coprime integers, first nonzero entry > 0.

    The zero vector is returned unchanged.
    """
    ints = _primitive(v)
    if next((x for x in ints if x), 0) < 0:
        return tuple(-x for x in ints)
    return tuple(ints)


class RatMatrix:
    """Dense matrix of ints, row-major, with at least one row."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = [tuple(row) for row in rows]
        widths = {len(r) for r in data}
        if len(widths) != 1:
            raise ValueError("ragged rows" if widths else "empty matrix")
        self.data = data
        self.rows = len(data)
        self.cols = widths.pop()

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Primitive integer RREF and the tuple of pivot columns.

        Row r of the result is the r-th row of the reduced row echelon form
        scaled to coprime integers with a positive pivot, so entry
        [r][c] / [r][pivots[r]] is the Fraction RREF entry; the rows past
        the rank are integer zeros.

        Forward pass: repeats of an earlier row are dropped, the distinct
        rows made primitive, and zero rows dropped.  A repeat adds nothing to
        the row space, and the engine's matrices repeat many rows: the
        largest of the generic 3D reduction has 408 rows, 78 of them
        distinct.  For each column c, the pivot row is the live row with the
        smallest |entry| at c (the first such row on a tie) and leaves the
        live set; every other live row with an entry at c becomes
        a*row - b*prow on the columns right of c (live rows are zero at and
        left of c), divided by its gcd, and is dropped once zero.
        Back-substitution: bottom-up, each pivot column is cleared from the
        rank rows above its pivot row.  The RREF is unique, so the choice of
        pivot row does not change the result; the smallest pivot keeps the
        multipliers, and so the entries, small.  Rows are rewritten in place
        on copies; the matrix itself is left unchanged.
        """
        ncols = self.cols
        # _primitive, which checks entry types, runs once per distinct row;
        # a repeated row keeps the place of its first copy.  A repeat is
        # type-checked too, since a row of floats equals, and hashes as, a
        # row of ints.
        distinct = dict.fromkeys(self.data)
        if (len(distinct) < self.rows
                and not set(map(type, chain.from_iterable(self.data))) <= _INT):
            for row in self.data:
                _primitive(row)
        live = [row for row in map(_primitive, distinct) if any(row)]
        echelon: list[list[int]] = []
        pivots: list[int] = []
        for c in range(ncols):
            if not live:
                break
            k, best = -1, 0
            for i, row in enumerate(live):
                x = abs(row[c])
                if x and (not best or x < best):
                    k, best = i, x
                    if x == 1:
                        break
            if k < 0:
                continue
            prow = live.pop(k)
            pv, ptail = prow[c], prow[c + 1:]
            n = 0
            for row in live:
                f = row[c]
                if f:
                    g = gcd(pv, f)
                    a, b = pv // g, f // g
                    tail = [a * x - b * y for x, y in zip(islice(row, c + 1, None), ptail)]
                    g = gcd(*tail)
                    if not g:
                        continue
                    row[c] = 0
                    row[c + 1:] = [x // g for x in tail] if g > 1 else tail
                live[n] = row
                n += 1
            del live[n:]
            echelon.append(prow)
            pivots.append(c)
        for i in range(len(echelon) - 1, 0, -1):
            p, prow = pivots[i], echelon[i]
            pv, ptail = prow[p], prow[p + 1:]
            for row in islice(echelon, i):
                f = row[p]
                if not f:
                    continue
                g = gcd(pv, f)
                a, b = pv // g, f // g
                if a != 1:
                    row[:p] = [a * x for x in islice(row, p)]
                row[p] = 0
                row[p + 1:] = [a * x - b * y for x, y in zip(islice(row, p + 1, None), ptail)]
                g = gcd(*row)
                if g > 1:
                    row[:] = [x // g for x in row]
        # Every row is primitive: made so by _primitive or divided by its
        # gcd when last rewritten.
        out = [tuple(row) if row[p] > 0 else tuple(-x for x in row)
               for row, p in zip(echelon, pivots)]
        out += [(0,) * ncols] * (self.rows - len(out))
        return RatMatrix(out), tuple(pivots)
