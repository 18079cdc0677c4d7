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
variable in table order.  Keys are built by Polynomial.variable (a unit
key from the table's slot shifts) and by products, and read by
VarTable.unpack, VarTable.packed_bidegree, Polynomial.__mul__ and _degree
(the total degree, from the top slot).  Multiplying two monomials adds
their packed ints, which carries nothing from slot to slot as long as the
total degree of the product is at most MAX_EXPONENT; Polynomial.__mul__
refuses a product that would build a larger one, and the parser an
expression that would; reduction.reduce_basis builds products of catalog
bi-degrees only, of total degree at most 7.  Within one bi-degree the
ints sort as monomial_key sorts the exponent tuples, and the top two
slots are the bi-degree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .ratlinalg import RatMatrix

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

    __slots__ = ("names", "kinds", "_index", "_is_mag", "_shifts", "_degree_shift",
                 "_total_shift")

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
        self._index = {name: i for i, name in enumerate(names)}
        self._is_mag = tuple(k == MAG for k in kinds)
        self._shifts = tuple(SLOT_BITS * i for i in reversed(range(len(names))))
        self._degree_shift = SLOT_BITS * len(names)
        self._total_shift = self._degree_shift + SLOT_BITS

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VarTable)
                and self.names == other.names and self.kinds == other.kinds)

    def __hash__(self) -> int:
        return hash((self.names, self.kinds))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{k}" for n, k in zip(self.names, self.kinds))
        return f"VarTable({body})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

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

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        i = table.index(name)  # the unit vector's slots: total 1, mag 0 or 1, x_i 1
        key = 1 << table._total_shift | table._is_mag[i] << table._degree_shift
        return _lowest(table, 1, {key | 1 << table._shifts[i]: 1})

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
        if isinstance(other, (int, Fraction)):
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

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.table, 1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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
        return n // d if not n % d else Fraction(n, d)

    # -- printing --------------------------------------------------------

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=monomial_key, reverse=True)

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
# expr    := term (('+' | '-') term)*
# term    := factor ('*' factor)*
# factor  := '-' factor | base
# base    := atom ('^' uint)?
# atom    := rational | identifier | '(' expr ')'
# rational:= uint ('/' uint)?
#
# No implicit multiplication; '/' only between integer literals.

# What one literal, product or power may build: a short text such as
# "2^99999999", "((s1 + s2 + s3)^64)^64" or thirty factors (s1 + ... + s6)
# is refused instead of exhausting time and memory, and no coefficient
# grows past what str() can print.  The bounds (a product or power keeps at
# most MAX_POWER_TERMS terms) are far above anything a substitution or a
# relation needs; the total degree is bounded by MAX_EXPONENT, the most a
# packed monomial holds.
MAX_LITERAL_DIGITS = 300
MAX_SIZE = 1000
MAX_POWER_TERMS = 1000


def _degree(p: Polynomial) -> int:
    """The total degree of p (0 for the zero polynomial), from the top slot
    of its highest packed monomial."""
    return max(p.nums) >> p.table._total_shift if p.nums else 0


def _size(p: Polynomial) -> int:
    """The largest bit length of p's numerators and denominator."""
    return max(map(int.bit_length, (p.den, *p.nums.values())))


def _power_too_large(p: Polynomial, n: int) -> bool:
    """Whether p ** n may exceed MAX_EXPONENT in degree, MAX_SIZE bits or
    MAX_POWER_TERMS terms."""
    if n < 2 or not p.nums:
        return False
    return (n * _degree(p) > MAX_EXPONENT or n * _size(p) > MAX_SIZE
            or comb(n + len(p.nums) - 1, n) > MAX_POWER_TERMS)


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


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            if value == "/":
                raise ParseError("'/' is only allowed between integer literals", pos)
            raise ParseError(f"unexpected {value!r}", pos)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                q = self.factor()
                if (_degree(p) + _degree(q) > MAX_EXPONENT
                        or len(p.nums) * len(q.nums) > MAX_POWER_TERMS ** 2):
                    raise ParseError("product too large", pos)
                p = p * q
                if _size(p) > MAX_SIZE or len(p.nums) > MAX_POWER_TERMS:
                    raise ParseError("product too large", pos)
            else:
                return p

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        return self.base()

    def base(self) -> Polynomial:
        p = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            nkind, nvalue, npos = self.advance()
            if nkind != "int":
                raise ParseError("exponent must be a nonnegative integer", npos)
            n = int(nvalue)
            if _power_too_large(p, n):
                raise ParseError("power too large", npos)
            p = p ** n
        return p

    def atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "int":
            num = int(value)
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "/":
                self.advance()
                dkind, dvalue, dpos = self.advance()
                if dkind != "int":
                    raise ParseError("denominator must be an integer literal", dpos)
                den = int(dvalue)
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return Polynomial.constant(self.table, Fraction(num, den))
            return Polynomial.constant(self.table, num)
        if kind == "name":
            if value not in self.table.names:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.table, value)
        if kind == "op" and value == "(":
            p = self.expr()
            ckind, cvalue, cpos = self.advance()
            if not (ckind == "op" and cvalue == ")"):
                raise ParseError("expected ')'", cpos)
            return p
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_polynomial(text: str, table: VarTable) -> Polynomial:
    """Parse an expression in the grammar above into a Polynomial."""
    parser = _Parser(text, table)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
