"""Sparse multivariate polynomials over exact rationals, bi-graded by
variable kind.

Every variable in a VarTable is tagged either magnetization ("mag") or
stress ("stress"); the bi-degree of a monomial is (degree in mag variables,
degree in stress variables).  The zero polynomial has no bi-degree, and
asking for the bi-degree of a non-bi-homogeneous polynomial is an error:
everything downstream works on bi-homogeneous pieces and mixing them up
silently would corrupt the reduction matrices.

The canonical monomial order used for printing and for coefficient-matrix
rows is graded lexicographic on the exponent vector (total degree first,
then the exponent tuple), highest first.  The printer and the parser round
trip: parse_polynomial(str(p), p.table) == p.

A Polynomial holds integer numerators keyed by packed monomial over one
positive denominator, in lowest terms: the coefficient of monomial k is
nums[k] / den.  A product is one integer_product of the numerators, a sum
one pass over a common denominator.  terms, the same polynomial keyed by
exponent tuple with Fraction coefficients, is computed when read.  A
coefficient-matrix column is a Polynomial's nums as they are.

A packed monomial is one int made of SLOT_BITS-bit slots, most significant
first: the total degree, the mag degree, then the exponent of each
variable in table order.  Keys are built by the parser (a term's key is
the sum of e times each factor's unit key, which the table holds) and by
products, and read by VarTable.unpack, VarTable.packed_bidegree and
Polynomial.__mul__ (the total degree, from the top slot).  Multiplying two
monomials adds their packed ints, which carries nothing from slot to slot
as long as the total degree of the product is at most MAX_EXPONENT;
Polynomial.__mul__ refuses a product that would build a larger one, and
the parser a term that would; reduction.reduce_basis builds products of
catalog bi-degrees only, of total degree at most 7.  Within one bi-degree
the ints sort as monomial_key sorts the exponent tuples, and the top two
slots are the bi-degree.
"""

from __future__ import annotations

import re
from itertools import groupby
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .ratlinalg import RatMatrix

if TYPE_CHECKING:
    from fractions import Fraction

MAG = "mag"
STRESS = "stress"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Width of one slot of a packed monomial, and the largest degree or
# exponent a slot holds.
SLOT_BITS = 8
MAX_EXPONENT = (1 << SLOT_BITS) - 1


class PolyError(Exception):
    pass


class NotBiHomogeneousError(PolyError):
    pass


class ZeroPolynomialError(PolyError):
    pass


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarTable:
    """Ordered variable list, each variable tagged mag or stress.

    The order fixes the exponent-vector layout of every monomial built on
    the table, and the slots of its packed form.  Tables compare by value
    (names and kinds).
    """

    __slots__ = ("names", "kinds", "_shifts", "_degree_shift", "_total_shift", "_units")

    def __init__(self, variables: Iterable[tuple[str, str]]):
        pairs = tuple(variables)
        names = tuple(name for name, _ in pairs)
        kinds = tuple(kind for _, kind in pairs)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        for kind in kinds:
            if kind not in (MAG, STRESS):
                raise ValueError(f"unknown variable kind {kind!r}")
        self.names = names
        self.kinds = kinds
        self._shifts = tuple(SLOT_BITS * i for i in reversed(range(len(names))))
        self._degree_shift = SLOT_BITS * len(names)
        self._total_shift = self._degree_shift + SLOT_BITS
        # Each variable's packed unit key: total 1, mag 0 or 1, its own slot 1.
        self._units = {name: 1 << self._total_shift | (k == MAG) << self._degree_shift | 1 << s
                       for name, k, s in zip(names, kinds, self._shifts)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VarTable)
                and self.names == other.names and self.kinds == other.kinds)

    def __hash__(self) -> int:
        return hash((self.names, self.kinds))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{k}" for n, k in zip(self.names, self.kinds))
        return f"VarTable({body})"

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed monomial."""
        return tuple([key >> s & MAX_EXPONENT for s in self._shifts])

    def packed_bidegree(self, key: int) -> tuple[int, int]:
        """The (mag, stress) bi-degree of a packed monomial, from its top
        two slots."""
        top = key >> self._degree_shift
        a = top & MAX_EXPONENT
        return (a, (top >> SLOT_BITS) - a)


def monomial_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded lexicographic sort key: total degree, then exponent vector."""
    return (sum(exponents), exponents)


class Polynomial:
    """Immutable sparse polynomial: integer numerators nums, keyed by packed
    monomial, over one denominator den.

    Always in lowest terms: den > 0, no numerator is zero, and
    gcd(den, *nums.values()) == 1, so the zero polynomial has den 1 and
    equal polynomials have equal fields.
    """

    __slots__ = ("table", "den", "nums")

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A new map from exponent tuple to nonzero Fraction coefficient."""
        from fractions import Fraction
        unpack, den = self.table.unpack, self.den
        return {unpack(k): Fraction(v, den) for k, v in self.nums.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return _lowest(table, 1, {})

    @classmethod
    def constant(cls, table: VarTable, value: Fraction | int) -> "Polynomial":
        # The packed key of the constant monomial is 0.
        return _lowest(table, value.denominator, {0: value.numerator} if value else {})

    # -- predicates and degrees -----------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def bidegree(self) -> tuple[int, int]:
        """Common (mag, stress) bi-degree of every term.

        Raises ZeroPolynomialError on the zero polynomial and
        NotBiHomogeneousError when terms disagree.
        """
        if not self.nums:
            raise ZeroPolynomialError("the zero polynomial has no bi-degree")
        degs = {self.table.packed_bidegree(k) for k in self.nums}
        if len(degs) > 1:
            raise NotBiHomogeneousError(f"mixed bi-degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("polynomials built on different variable tables")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.table, other)
        from numbers import Rational  # a Fraction, say: checked after int
        if isinstance(other, Rational):
            return Polynomial.constant(self.table, other)
        return None

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the two denominators."""
        if not other.nums:
            return self
        if not self.nums and sign == 1:
            # Sums start from zero: share the immutable operand, uncopied.
            return other
        da, db = self.den, other.den
        den = lcm(da, db)
        nums = (dict(self.nums) if den == da
                else {k: v * (den // da) for k, v in self.nums.items()})
        scale = sign * (den // db)
        for k, v in other.nums.items():
            s = nums.get(k, 0) + scale * v
            if s:
                nums[k] = s
            else:
                del nums[k]
        return _lowest(self.table, den, nums)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _lowest(self.table, self.den,
                                  {k: -v for k, v in self.nums.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return other if a else self  # the zero operand, on the checked table
        # The top slot of a packed key is its total degree: the product's
        # degree is the sum of the operands' highest ones.
        shift = self.table._total_shift
        if (max(a) >> shift) + (max(b) >> shift) > MAX_EXPONENT:
            raise ValueError(f"product of total degree above {MAX_EXPONENT}, "
                             "the largest a packed monomial holds")
        return multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, k) -> "Polynomial":
        """self / k for a nonzero int k: exact, in lowest terms."""
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            raise ZeroDivisionError("polynomial division by zero")
        nums = self.nums if k > 0 else {m: -v for m, v in self.nums.items()}
        return _lowest(self.table, self.den * abs(k), nums)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial) and self.table == other.table
                and self.den == other.den and self.nums == other.nums)

    __hash__ = None  # mutable term map inside

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction | int:
        """Exact value at a rational point: the integer numerators summed at
        the point and divided by den once; an int where the value is whole,
        a Fraction otherwise.  Every variable that occurs in a term must be
        assigned, or ValueError is raised; extra assignments are ignored."""
        names, unpack = self.table.names, self.table.unpack
        total = 0
        for k, v in self.nums.items():
            for name, e in zip(names, unpack(k)):
                if e:
                    if name not in point:
                        raise ValueError(f"no value for variable {name!r}")
                    v = v * point[name] ** e
            total = total + v
        n, d = total.numerator, total.denominator * self.den
        if not n % d:
            return n // d
        from fractions import Fraction
        return Fraction(n, d)

    # -- printing --------------------------------------------------------

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        return sorted(map(self.table.unpack, self.nums), key=monomial_key, reverse=True)

    def __str__(self) -> str:
        terms = self.terms
        return signed_sum((terms[mono], product_str(
            [n for n, e in zip(self.table.names, mono) for _ in range(e)]))
            for mono in self.sorted_monomials())

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _lowest(table: VarTable, den: int, nums: dict[int, int]) -> Polynomial:
    """The Polynomial nums / den (den > 0, no zero numerator) in lowest
    terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    p = object.__new__(Polynomial)
    p.table = table
    p.den = den
    p.nums = nums
    return p


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q unchecked (Polynomial.__mul__ checks, then calls this): one
    table, and deg p + deg q <= MAX_EXPONENT."""
    return _lowest(p.table, p.den * q.den, integer_product(p.nums, q.nums))


def integer_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two integer term maps keyed by packed monomial, with
    cancelled terms dropped.  The caller keeps the total degree of the
    product within MAX_EXPONENT."""
    acc: dict[int, int] = {}
    bl = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bl:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def product_str(factors: Sequence[str], power=_power, sep: str = "*") -> str:
    """A product of factor names with equal neighbours run-length grouped:
    power(name, e) renders each group and sep joins them."""
    return sep.join(power(name, len(list(run))) for name, run in groupby(factors))


def signed_sum(terms: Iterable[tuple[Fraction | int, str]], sep: str = "*") -> str:
    """The sum of coefficient * body over (coefficient, body) pairs.

    The first term carries a bare '-' when negative, later ones '+ ' or
    '- '; a coefficient of magnitude 1 is elided unless the body is empty,
    and sep joins any other coefficient to its body.  The empty sum is "0".
    """
    parts: list[str] = []
    for coeff, body in terms:
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}{sep}{body}"
        if parts:
            text = ("+ " if coeff > 0 else "- ") + text
        elif coeff < 0:
            text = "-" + text
        parts.append(text)
    return " ".join(parts) or "0"


def coefficient_matrix(columns: Sequence[Polynomial]) -> tuple[list[int], RatMatrix]:
    """Row monomials as packed keys (VarTable.unpack reads them) and the
    integer coefficient matrix of nonzero bi-homogeneous polynomials on one
    table.

    All columns must share one bi-degree.  Rows follow the canonical
    monomial order (graded lex, highest first: descending packed keys);
    column j holds the numerators nums of columns[j], that is den_j times
    its coefficient vector: the polynomial is
    sum_i A[i][j] * monomial_i / den_j.  Scaling a column moves no pivot of
    the RREF, and a reader of the RREF multiplies by den_j to get back to
    the polynomials.  The matrix is built from its nonzeros: a row starts
    as zeros, and each column writes only its own terms.
    """
    if not columns:
        raise ValueError("need at least one polynomial")
    table = columns[0].table
    if any(p.table is not table and p.table != table for p in columns):
        raise ValueError("polynomials built on different variable tables")
    maps = [p.nums for p in columns]
    if not all(maps):
        raise ZeroPolynomialError("the zero polynomial has no bi-degree")
    n, rows = len(maps), {}
    for j, nums in enumerate(maps):
        for k, c in nums.items():
            row = rows.get(k)
            if row is None:
                rows[k] = row = [0] * n
            row[j] = c
    keys = sorted(rows, reverse=True)
    # The bi-degree is the top of a packed key, so the largest and the
    # smallest key share it only when every key does.
    if table.packed_bidegree(keys[0]) != table.packed_bidegree(keys[-1]):
        # bidegree() names the first mixed polynomial; failing that, the
        # columns are bi-homogeneous of different bi-degrees.
        degs = sorted({p.bidegree() for p in columns})
        raise ValueError(f"polynomials of mixed bi-degree {degs}")
    # One bi-degree: the packed ints sort as monomial_key sorts the tuples.
    return keys, RatMatrix([rows[k] for k in keys])


# -- parser --------------------------------------------------------------
#
# expr     := (rational '*')? '(' sum ')' | sum
# sum      := sign* term (sign+ term)*
# term     := factor ('*' factor)*, holding at most one rational
# factor   := rational | identifier ('^' uint)?
# rational := uint ('/' uint)?
# sign     := '+' | '-'
#
# No implicit multiplication, no nesting, and no power or product of a
# sum: each term of the text is one monomial times at most one literal, so
# the length of the text bounds the work.  A literal has at most
# MAX_LITERAL_DIGITS digits, and a term's total degree is at most
# MAX_EXPONENT, the most a packed monomial holds.
MAX_LITERAL_DIGITS = 300

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int" and len(m.group()) > MAX_LITERAL_DIGITS:
            raise ParseError("integer literal too long", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _rational(tokens: list[tuple[str, str, int]], i: int) -> tuple[int, int, int]:
    """The rational literal that starts at the int token tokens[i], as
    (numerator, denominator, index of the token after it)."""
    if tokens[i + 1][1] != "/":
        return int(tokens[i][1]), 1, i + 1
    kind, value, pos = tokens[i + 2]
    if kind != "int":
        raise ParseError("denominator must be an integer literal", pos)
    den = int(value)
    if not den:
        raise ParseError("zero denominator", pos)
    return int(tokens[i][1]), den, i + 3


def parse_polynomial(text: str, table: VarTable) -> Polynomial:
    """Parse an expression in the grammar above into a Polynomial, in one
    pass over its tokens: each term's packed key is the sum of its factors'
    unit keys, and its numerator is taken over the lcm of the literals'
    denominators."""
    tokens = _tokenize(text)
    scale, scale_den, i = 1, 1, 0  # the outer rational, before a '('
    if tokens[0][1] == "(":
        i = 1
    elif tokens[0][0] == "int":
        num, den, j = _rational(tokens, 0)
        if tokens[j][1] == "*" and tokens[j + 1][1] == "(":
            scale, scale_den, i = num, den, j + 2
    grouped = i > 0
    terms = []
    while True:
        sign = 1
        while tokens[i][1] in ("+", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        key, num, den, literal = 0, 1, 1, False
        while True:
            kind, value, pos = tokens[i]
            if kind == "int":
                if literal:
                    raise ParseError("a term holds at most one literal", pos)
                num, den, i = _rational(tokens, i)
                literal = True
            elif kind == "name":
                unit = table._units.get(value)
                if unit is None:
                    raise ParseError(f"unknown variable {value!r}", pos)
                e, i = 1, i + 1
                if tokens[i][1] == "^":
                    ekind, evalue, epos = tokens[i + 1]
                    if ekind != "int":
                        raise ParseError("exponent must be a nonnegative integer", epos)
                    e, i = int(evalue), i + 2
                key += e * unit
                if key >> table._total_shift > MAX_EXPONENT:
                    raise ParseError(f"total degree above {MAX_EXPONENT}", pos)
            else:
                raise ParseError(f"unexpected {value!r}" if value else
                                 "unexpected end of input", pos)
            if tokens[i][1] != "*":
                break
            i += 1
        terms.append((key, sign * scale * num, den))
        if tokens[i][1] not in ("+", "-"):
            break
    kind, value, pos = tokens[i]
    if grouped:
        if value != ")":
            raise ParseError("expected ')'", pos)
        kind, value, pos = tokens[i + 1]
    if kind != "end":
        if value == "/":
            raise ParseError("'/' is only allowed between integer literals", pos)
        raise ParseError(f"unexpected {value!r}", pos)
    common = lcm(*(den for _, _, den in terms))
    nums: dict[int, int] = {}
    for key, num, den in terms:
        s = nums.get(key, 0) + num * (common // den)
        if s:
            nums[key] = s
        else:
            nums.pop(key, None)
    return _lowest(table, common * scale_den, nums)
