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

A Polynomial keys its terms by exponent tuple.  The integer form
(d, numerators) of a term map, where each coefficient is numerators[k] / d,
keys them by packed monomial instead (integer_terms, integer_product), and
coefficient matrices are built from that form, as integer columns.
IntegerPolynomial is the ring of int-coefficient polynomials keyed the
same way, on which restriction evaluates the catalog recipes.  A
packed monomial is one int made of SLOT_BITS-bit slots, most significant
first: the mag degree, the stress degree, then the exponent of each
variable in table order.  Only VarTable.pack, unpack and packed_bidegree
know this layout.  Multiplying two monomials adds their packed ints, which
carries nothing from slot to slot as long as every degree of the product is
at most MAX_EXPONENT; packing refuses any larger exponent, and
reduction.reduce_basis refuses bounds that would build one.  Within one
bi-degree the ints sort as monomial_key sorts the exponent tuples, and the
top two slots are the bi-degree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from math import comb, lcm
from operator import add
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

    __slots__ = ("names", "kinds", "_index", "_is_mag", "_shifts", "_degree_shift")

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

    def __len__(self) -> int:
        return len(self.names)

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

    def monomial_bidegree(self, exponents: Sequence[int]) -> tuple[int, int]:
        a = sum(e for e, is_mag in zip(exponents, self._is_mag) if is_mag)
        return (a, sum(exponents) - a)

    def pack(self, exponents: Sequence[int]) -> int:
        """The packed monomial of an exponent vector (layout in the module
        docstring).  Raises ValueError for a negative exponent, or for a
        degree above MAX_EXPONENT, which would not fit its slot."""
        a = b = key = 0
        for e, is_mag in zip(exponents, self._is_mag):
            if e < 0:
                break
            if is_mag:
                a += e
            else:
                b += e
            key = key << SLOT_BITS | e
        else:
            if a <= MAX_EXPONENT and b <= MAX_EXPONENT:
                return (a << SLOT_BITS | b) << self._degree_shift | key
        raise ValueError(f"exponent vector {tuple(exponents)!r} does not fit "
                         f"{SLOT_BITS}-bit slots")

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed monomial."""
        return tuple([key >> s & MAX_EXPONENT for s in self._shifts])

    def packed_bidegree(self, key: int) -> tuple[int, int]:
        """The (mag, stress) bi-degree of a packed monomial, from its top
        two slots."""
        top = key >> self._degree_shift
        return (top >> SLOT_BITS, top & MAX_EXPONENT)


def monomial_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded lexicographic sort key: total degree, then exponent vector."""
    return (sum(exponents), exponents)


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable,
                 terms: Mapping[tuple[int, ...], Fraction | int]):
        width = len(table)
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != width or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r}")
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self.table = table
        self.terms = clean

    @classmethod
    def _wrap(cls, table: VarTable, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """A polynomial on a term map already known to be clean (valid
        exponent tuples, nonzero Fraction coefficients), without re-checking."""
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VarTable, value: Fraction | int) -> "Polynomial":
        return cls(table, {(0,) * len(table): Fraction(value)})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return cls(table, {tuple(exps): Fraction(1)})

    # -- predicates and degrees -----------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def bidegree(self) -> tuple[int, int]:
        """Common (mag, stress) bi-degree of every term.

        Raises ZeroPolynomialError on the zero polynomial and
        NotBiHomogeneousError when terms disagree.
        """
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no bi-degree")
        degs = {self.table.monomial_bidegree(m) for m in self.terms}
        if len(degs) > 1:
            raise NotBiHomogeneousError(f"mixed bi-degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.table, other)
        if isinstance(other, Polynomial):
            if self.table != other.table:
                raise ValueError("polynomials built on different variable tables")
            return other
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms[mono] + c if mono in terms else c
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return Polynomial._wrap(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if not a or not b:
            return Polynomial._wrap(self.table, {})
        if len(b) == 1:
            # A single term (a scalar too) shifts every monomial of the other
            # operand by one exponent vector: nothing collides or cancels.
            ((mb, cb),) = b.items()
            if any(mb):
                return Polynomial._wrap(self.table, {tuple(map(add, m, mb)): c * cb
                                                     for m, c in a.items()})
            return Polynomial._wrap(self.table, {m: c * cb for m, c in a.items()})
        # Multiply integer numerators over each operand's common denominator
        # and build one Fraction per output term.  The monomials stay tuples:
        # packing them here costs more than it saves.
        da = lcm(*(c.denominator for c in a.values()))
        db = lcm(*(c.denominator for c in b.values()))
        bl = [(m, c.numerator * (db // c.denominator)) for m, c in b.items()]
        acc: dict[tuple[int, ...], int] = {}
        for m1, c1 in a.items():
            v1 = c1.numerator * (da // c1.denominator)
            for m2, v2 in bl:
                mono = tuple(map(add, m1, m2))
                acc[mono] = acc.get(mono, 0) + v1 * v2
        den = da * db
        return Polynomial._wrap(self.table, {m: Fraction(v, den)
                                             for m, v in acc.items() if v})

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
        return (isinstance(other, Polynomial)
                and self.table == other.table and self.terms == other.terms)

    __hash__ = None  # mutable term map inside

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction | int | Polynomial]
                 ) -> Fraction | Polynomial:
        """Exact value at a point.

        The coordinates may be rationals, giving a Fraction, or Polynomials
        on one table, giving the composed Polynomial (a Fraction if self is
        constant).  Every variable that actually occurs in a term must be
        assigned; extra assignments are ignored.
        """
        powers: dict[tuple[int, int], Fraction | int | Polynomial] = {}
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            v = coeff
            for i, e in enumerate(mono):
                if not e:
                    continue
                if (i, e) not in powers:
                    name = self.table.names[i]
                    if name not in point:
                        raise ValueError(f"no value for variable {name!r}")
                    powers[i, e] = point[name] ** e
                v = v * powers[i, e]
            total = total + v
        return total

    # -- printing --------------------------------------------------------

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=monomial_key, reverse=True)

    def __str__(self) -> str:
        return signed_sum((self.terms[mono], product_str(
            [n for n, e in zip(self.table.names, mono) for _ in range(e)]))
            for mono in self.sorted_monomials())

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def integer_terms(table: VarTable, terms: Mapping[tuple[int, ...], Fraction]
                  ) -> tuple[int, dict[int, int]]:
    """(d, numerators) for a term map on table, keyed by packed monomial:
    the coefficient of monomial k is numerators[k] / d, over the lcm d of
    the denominators (1 for the empty map)."""
    d = lcm(*(c.denominator for c in terms.values()))
    pack = table.pack
    return d, {pack(m): c.numerator * (d // c.denominator) for m, c in terms.items()}


def integer_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two integer term maps keyed by packed monomial, with
    cancelled terms dropped.  The caller keeps every degree of the product
    within MAX_EXPONENT."""
    acc: dict[int, int] = {}
    bl = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bl:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc


class IntegerPolynomial:
    """Immutable sparse polynomial with int coefficients, its terms keyed by
    packed monomial: the ring restriction evaluates the catalog recipes on.

    It has +, - and * (with another on one table, or with an int), unary
    minus, truth (nonzero), equality and exact_div; every product is one
    integer_product.  scaled and divided convert from and to Polynomial.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[int, int]):
        self.table = table
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _wrap(cls, table: VarTable, terms: dict[int, int]) -> "IntegerPolynomial":
        """On a term map already known to have nonzero int coefficients."""
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    @classmethod
    def scaled(cls, p: Polynomial, scale: int) -> "IntegerPolynomial":
        """scale * p, for a scale that every denominator of p divides;
        ValueError otherwise."""
        pack = p.table.pack
        terms = {}
        for mono, c in p.terms.items():
            q, r = divmod(scale, c.denominator)
            if r:
                raise ValueError(f"scale {scale} leaves the coefficient {c} fractional")
            terms[pack(mono)] = c.numerator * q
        return cls._wrap(p.table, terms)

    def divided(self, scale: int) -> Polynomial:
        """self / scale as a Polynomial, for a positive int scale."""
        unpack = self.table.unpack
        return Polynomial._wrap(self.table, {unpack(k): Fraction(c, scale)
                                             for k, c in self.terms.items()})

    def _operand(self, other) -> Mapping[int, int] | None:
        """other's term map: an int is a constant (packed key 0)."""
        if isinstance(other, IntegerPolynomial):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("polynomials built on different variable tables")
            return other.terms
        if isinstance(other, int):
            return {0: other} if other else {}
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> "IntegerPolynomial":
        b = self._operand(other)
        if b is None:
            return NotImplemented
        if not self.terms and type(other) is IntegerPolynomial:
            # Sums start from zero: share the immutable operand, uncopied.
            return other
        terms = dict(self.terms)
        for k, c in b.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                del terms[k]
        return IntegerPolynomial._wrap(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "IntegerPolynomial":
        return IntegerPolynomial._wrap(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "IntegerPolynomial":
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntegerPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "IntegerPolynomial":
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return IntegerPolynomial._wrap(self.table, integer_product(self.terms, b))

    __rmul__ = __mul__

    def exact_div(self, n: int) -> "IntegerPolynomial":
        """self / n, for an int n that divides every coefficient; ValueError
        otherwise."""
        terms = {}
        for k, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ValueError(f"{n} does not divide the coefficient {c}")
            terms[k] = q
        return IntegerPolynomial._wrap(self.table, terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntegerPolynomial)
                and self.table == other.table and self.terms == other.terms)

    __hash__ = None  # mutable term map inside

    def __repr__(self) -> str:
        return f"IntegerPolynomial({self.divided(1)})"


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


def coefficient_matrix(table: VarTable,
                       columns: Sequence[tuple[int, Mapping[int, int]]]
                       ) -> tuple[list[int], RatMatrix]:
    """Row monomials as packed keys (VarTable.unpack reads them) and the
    integer coefficient matrix of bi-homogeneous polynomials on table, each
    (d, numerators) keyed by packed monomial with nonzero numerators, as
    integer_terms gives them.

    All columns must share one bi-degree.  Rows follow the canonical
    monomial order (graded lex, highest first: descending packed keys);
    column j holds the numerators of columns[j], that is d_j times its
    coefficient vector: the polynomial is sum_i A[i][j] * monomial_i / d_j.
    Scaling a column moves no pivot of the RREF, and a reader of the RREF
    multiplies by d_j to get back to the polynomials.
    """
    if not columns:
        raise ValueError("need at least one polynomial")
    maps = [nums for _, nums in columns]
    if not all(maps):
        raise ZeroPolynomialError("the zero polynomial has no bi-degree")
    keys = sorted({k for nums in maps for k in nums}, reverse=True)
    # The bi-degree is the top of a packed key, so the largest and the
    # smallest key share it only when every key does.
    if table.packed_bidegree(keys[0]) != table.packed_bidegree(keys[-1]):
        # Name the culprit as bidegree() would: one mixed polynomial, or
        # bi-homogeneous polynomials of different bi-degrees.
        per_column = [{table.packed_bidegree(k) for k in nums} for nums in maps]
        for degs in per_column:
            if len(degs) > 1:
                raise NotBiHomogeneousError(f"mixed bi-degrees {sorted(degs)}")
        degs = sorted({d for degs in per_column for d in degs})
        raise ValueError(f"polynomials of mixed bi-degree {degs}")
    # One bi-degree: the packed ints sort as monomial_key sorts the tuples.
    rows = [tuple(nums.get(k, 0) for nums in maps) for k in keys]
    return keys, RatMatrix(rows, len(maps))


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
# "2^99999999" or "((s1 + s2 + s3)^64)^64" is refused instead of exhausting
# time and memory, and no coefficient grows past what str() can print.  The
# bounds are far above anything a substitution or a relation needs.
MAX_LITERAL_DIGITS = 300
MAX_SIZE = 1000
MAX_POWER_TERMS = 1000


def _size(p: Polynomial) -> int:
    """The largest total degree, coefficient numerator bit length or
    denominator bit length among p's terms (0 for the zero polynomial)."""
    return max((max(sum(m), c.numerator.bit_length(), c.denominator.bit_length())
                for m, c in p.terms.items()), default=0)


def _power_too_large(p: Polynomial, n: int) -> bool:
    """Whether p ** n may exceed MAX_SIZE or MAX_POWER_TERMS terms."""
    if n < 2 or not p.terms:
        return False
    return (n * _size(p) > MAX_SIZE
            or comb(n + len(p.terms) - 1, n) > MAX_POWER_TERMS)


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
                p = p * self.factor()
                if _size(p) > MAX_SIZE:
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
