"""Exact dense linear algebra over the rationals.

Small matrices only (tens of rows and columns).  Entries are stored as
`fractions.Fraction` or `int` (a coefficient matrix holds integer columns),
and elimination runs on integers: `rref` scales each row with a
denominator to integers by the lcm of its denominators, and runs
fraction-free Gauss-Jordan (Bareiss 1968) with each rewritten row divided
by the gcd of its entries so that entries stay small.  It returns the
primitive integer RREF: the reduced row echelon form with each nonzero row
scaled to coprime integers and a positive pivot, without dividing by the
pivots.  The reduced row echelon form is unique up to the scale of each
row, so this form is unique too: each row is normalize_integer_vector of
the row Gauss-Jordan on Fractions gives.  Downstream code reads the
primitive RREF and its pivot columns (whose count is the rank), and scales
relations with normalize_integer_vector, which shares rref's row scaling.

matrix_from_columns, rank_of_columns and solve_columns have no caller in
the package.  They are kept only because the benchmark tracer
(perfbench/tracing.py) wraps them, and they go with the next change to the
benchmark.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _primitive(row: Sequence[Fraction | int]) -> list[int]:
    """A rational row scaled to integers by the lcm of its denominators,
    then divided by the gcd of its entries (a zero row stays zero)."""
    den = lcm(*(x.denominator for x in row))
    ints = ([x.numerator * (den // x.denominator) for x in row] if den > 1
            else [x.numerator for x in row])
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def normalize_integer_vector(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero entry > 0.

    The zero vector is returned unchanged (as integer zeros).
    """
    ints = _primitive(v)
    if next((x for x in ints if x), 0) < 0:
        return tuple(-x for x in ints)
    return tuple(ints)


class RatMatrix:
    """Dense matrix of Fractions or ints, row-major."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Sequence[Fraction | int]], cols: int | None = None):
        data = [tuple(row) for row in rows]
        widths = {len(r) for r in data}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self.data = data
        self.rows = len(data)
        if data:
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise ValueError("cols does not match row width")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Primitive integer RREF and the tuple of pivot columns.

        Row r of the result is the r-th row of the reduced row echelon form
        scaled to coprime integers with a positive pivot, so entry
        [r][c] / [r][pivots[r]] is the Fraction RREF entry; the rows past
        the rank are integer zeros.  Pivot selection is the first nonzero
        entry scanning rows downward, columns left to right.  Deterministic
        by construction.
        """
        m = [_primitive(row) for row in self.data]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == len(m):
                break
            pr = next((i for i in range(r, len(m)) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            pv = prow[c]
            for i, row in enumerate(m):
                f = row[c]
                if i == r or not f:
                    continue
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
        # Every row is primitive already: made so by _primitive or divided
        # by its gcd when last rewritten.
        out = [tuple(m[i]) if m[i][p] > 0 else tuple(-x for x in m[i])
               for i, p in enumerate(pivots)]
        out += [(0,) * self.cols] * (len(m) - r)
        return RatMatrix(out, self.cols), tuple(pivots)


def matrix_from_columns(columns: Sequence[Sequence[Fraction | int]], nrows: int) -> RatMatrix:
    return RatMatrix([[Fraction(col[i]) for col in columns] for i in range(nrows)],
                     cols=len(columns))


def rank_of_columns(columns: Sequence[Sequence[Fraction | int]], nrows: int) -> int:
    if not columns:
        return 0
    return len(matrix_from_columns(columns, nrows).rref()[1])


def solve_columns(columns: Sequence[Sequence[Fraction | int]],
                  target: Sequence[Fraction | int]) -> list[Fraction] | None:
    """Express target as a linear combination of the given columns.

    Returns the coefficient list with every free coefficient set to zero
    (the RREF particular solution), or None when target is outside the span.
    """
    nrows = len(target)
    for col in columns:
        if len(col) != nrows:
            raise ValueError("column length does not match target length")
    aug = RatMatrix(
        [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(nrows)],
        cols=len(columns) + 1,
    )
    rrefm, pivots = aug.rref()
    n = len(columns)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = Fraction(rrefm.data[r][n], rrefm.data[r][p])
    return x
