"""The catalog recipes as 3x3 tensor algebra on plain tuples: the reference
that mebasis.recipes is generated from (tests/test_recipes.py traces it)
and checked against.

A 3-vector is a 3-tuple and a 3x3 matrix a 3-tuple of rows, with
Polynomial entries or plain numbers, ints or Fractions.  In every ring
each entry of a product is one sum of products of unpacked entries, zeros
included: a number times a polynomial matrix gives polynomials, and
polynomials on different tables raise ValueError.  Nothing here checks
operands.  The two projectors:

  dbar(a)  zeroes the diagonal (keeps the off-diagonal part),
  ddev(a)  keeps the diagonal of the deviator (subtracts tr(a)/3 from each
           diagonal entry, zeroes the off-diagonal part); an int trace
           divisible by 3 is divided as an int, so int entries stay ints.

Entry by entry a = ddev(a) + dbar(a) + tr(a)/3 on the diagonal, and both
maps are idempotent and mutually annihilating.
"""

from fractions import Fraction

from mebasis.catalog import ROWS, dot


def matmul(a, b):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22))


def trace(a):
    return a[0][0] + a[1][1] + a[2][2]


def outer(v):
    return tuple([tuple([x * y for y in v]) for x in v])


def double_contract(a, b):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (a00 * b00 + a01 * b01 + a02 * b02 + a10 * b10 + a11 * b11 + a12 * b12
            + a20 * b20 + a21 * b21 + a22 * b22)


def dbar(a):
    z = a[0][0] * 0
    return ((z, a[0][1], a[0][2]), (a[1][0], z, a[1][2]), (a[2][0], a[2][1], z))


def ddev(a):
    z = a[0][0] * 0
    tr = trace(a)
    third = tr // 3 if isinstance(tr, int) and not tr % 3 else Fraction(1, 3) * tr
    return ((a[0][0] - third, z, z), (z, a[1][1] - third, z),
            (z, z, a[2][2] - third))


# The products of two or more leading factors that the rows read, each
# listed after its own leading factors; sb*sb is the part sb^2.
SHARED_PRODUCTS = tuple(dict.fromkeys(
    factors[:k] for _, factors in ROWS for k in range(2, len(factors))
    if factors[:k] != ("sb", "sb")))


def products(sigma, m):
    """The parts of (sigma, m) and every shared product, keyed by their
    factors, each formed once: 20 matrix products, sb@sb among them."""
    sb, mm = dbar(sigma), outer(m)
    sb2 = matmul(sb, sb)
    p = {("s",): sigma, ("m",): m, ("sb",): sb, ("sd",): ddev(sigma), ("mb",): dbar(mm),
         ("md",): ddev(mm), ("sb^2",): sb2, ("sb", "sb"): sb2, ("bar(sb^2)",): dbar(sb2),
         ("dev(sb^2)",): ddev(sb2)}
    for key in SHARED_PRODUCTS:
        p[key] = matmul(p[key[:-1]], p[key[-1:]])
    return p


def value(factors, p):
    """The invariant of a row: dot(m,m) for I200, the trace of its one
    factor for I010, else its leading product contracted with its last
    factor, tr(x @ y) = x : y, as every part is symmetric."""
    if factors == ("m", "m"):
        return dot(p[("m",)], p[("m",)])
    if len(factors) == 1:
        return trace(p[factors])
    return double_contract(p[factors[:-1]], p[factors[-1:]])


def evaluate(sigma, m):
    """Every catalog value on one (sigma, m), in catalog order."""
    p = products(sigma, m)
    return {name: value(factors, p) for name, factors in ROWS}
