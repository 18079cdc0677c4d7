"""The generator of src/mebasis/recipes.py, and its checks.

The generator runs the reference recipes of recipes_reference.py once on
symbols: every part and shared product of a symbolic symmetric sigma and
m.  A structural zero (the off-diagonal of ddev, the diagonal of dbar) is
the int 0, which absorbs a product and drops out of a sum, so no product
with a known zero is recorded.  Equal operations on equal operands (up to
order) give one node.  Walking back from the 30 values keeps the nodes
that some value reads, and each is emitted once, as flat code: one
assignment per node read more than once or by a product, one sum per
value.  Rewrite the module after a change to catalog.ROWS or to the
reference with

    PYTHONPATH=src python tests/test_recipes.py
"""

import sys
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebasis import recipes
from mebasis.catalog import CATALOG_NAMES, ROWS
from mebasis.poly import MAG, STRESS, Polynomial, VarTable, parse_polynomial

import recipes_reference as reference

MODULE = Path(recipes.__file__)
WIDTH = 99

# Identifier stems of the parts, for the names of matrix entries.
CODES = {"s": "s", "m": "m", "sb": "sb", "sd": "sd", "mb": "mb", "md": "md",
         "sb^2": "sb2", "bar(sb^2)": "sb2b", "dev(sb^2)": "sb2d"}

HEADER = '''\
# Generated by tests/test_recipes.py from mebasis.catalog.ROWS; do not edit.
# Regenerate with: PYTHONPATH=src python tests/test_recipes.py
"""The 30 catalog recipes as one straight-line program: evaluate(sigma, m)
forms only the entries of the parts and leading products that some trace
reads, and multiplies no structural zero.  It reads the upper triangle of
sigma and checks nothing: catalog.evaluate_all does."""


def _third(t):
    """t / 3 as the reference's Fraction(1, 3) * t gives it, in t's ring;
    only an int that 3 does not divide makes a Fraction."""
    if not isinstance(t, int):
        return t / 3
    if not t % 3:
        return t // 3
    from fractions import Fraction
    return Fraction(t, 3)


def evaluate(sigma, m):
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = sigma
    m0, m1, m2 = m
'''


def _is_zero(x):
    return type(x) is int and x == 0


class Node:
    """One value of the traced program: an input, the product of two nodes
    ("*"), a signed sum ("+", args (sign, node) pairs) or ddev's tr/3
    ("third")."""

    def __init__(self, program, op, args, name=None):
        self.program, self.op, self.args, self.name = program, op, args, name
        self.id = len(program.nodes)

    def __mul__(self, other):
        if _is_zero(other):
            return 0
        if not isinstance(other, Node):
            raise TypeError(f"cannot trace a product with {other!r}")
        return self.program.node("*", (self, other))

    def __rmul__(self, other):
        if _is_zero(other):
            return 0
        if other == Fraction(1, 3):
            return self.program.node("third", (self,))
        raise TypeError(f"cannot trace a product with {other!r}")

    def __add__(self, other):
        return self if _is_zero(other) else self.program.node("+", ((1, self), (1, other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self if _is_zero(other) else self.program.node("+", ((1, self), (-1, other)))


class Program:
    """The traced nodes in creation order, one per distinct operation."""

    def __init__(self):
        self.nodes, self.by_key = [], {}

    def input(self, name):
        node = Node(self, "input", (), name)
        self.nodes.append(node)
        return node

    def node(self, op, args):
        if op == "+":
            key = (op, tuple(sorted((sign, a.id) for sign, a in args)))
        else:
            key = (op, tuple(sorted(a.id for a in args)))
        if key not in self.by_key:
            self.by_key[key] = Node(self, op, args)
            self.nodes.append(self.by_key[key])
        return self.by_key[key]


def _operands(node):
    return [a for _, a in node.args] if node.op == "+" else list(node.args)


def trace_reference():
    """The reference recipes run on symbols: the program, the value of each
    row by name and the parts and shared products by factors."""
    program = Program()
    upper = {(i, j): program.input(f"s{i}{j}") for i in range(3) for j in range(i, 3)}
    sigma = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(3)) for i in range(3))
    m = tuple(program.input(f"m{i}") for i in range(3))
    p = reference.products(sigma, m)
    return program, {name: reference.value(factors, p) for name, factors in ROWS}, p


def _wrap(head, pieces, tail=""):
    """head, the pieces joined and tail, over as many lines as WIDTH needs."""
    line = head + "".join(pieces) + tail
    if len(line) <= WIDTH:
        return [line]
    lines, current = [], head + "(" + pieces[0]
    for piece in pieces[1:]:
        if len(current) + len(piece) + 1 > WIDTH:
            lines.append(current)
            current = " " * (len(head) + 1) + piece.lstrip()
        else:
            current += piece
    return lines + [current + ")" + tail]


def render():
    """The source of mebasis/recipes.py, traced from the reference as it
    stands (a test may trace a planted fault)."""
    program, values, parts = trace_reference()
    uses, users, stack = {}, {}, list(values.values())
    live = {v.id for v in stack}
    while stack:
        node = stack.pop()
        for a in _operands(node):
            uses[a.id] = uses.get(a.id, 0) + 1
            users[a.id] = node
            if a.id not in live:
                live.add(a.id)
                stack.append(a)
    # A value that nothing else reads is written in the returned dict; a
    # product or sum read once, by a sum, is written inside that sum.
    returned = {}
    for name, v in values.items():
        if v.name is None:
            v.name = name
            if v.id not in uses:
                returned[v.id] = v
    inlined = {i for i in live if uses.get(i) == 1 and users[i].op == "+"
               and program.nodes[i].op in ("*", "+") and program.nodes[i].name is None}
    for key, entries in parts.items():
        stem = "_".join(CODES[f] for f in key)
        for i, row in enumerate(entries):
            for j, e in enumerate(row if isinstance(row, tuple) else ()):
                if isinstance(e, Node) and e.name is None and e.id in live \
                        and e.id not in inlined:
                    e.name = f"{stem}_{i}{j}"
    spare = count()

    def text(node):
        if node.id in inlined and node.op == "*":
            return " * ".join(a.name for a in node.args)
        return node.name

    def terms(node, sign=1):
        for s, a in node.args:
            if a.id in inlined and a.op == "+":
                yield from terms(a, sign * s)
            else:
                yield sign * s, text(a)

    def pieces(node):
        if node.op == "*":
            return [" * ".join(a.name for a in node.args)]
        if node.op == "third":
            return [f"_third({node.args[0].name})"]
        (sign, first), *rest = terms(node)
        return [("-" if sign < 0 else "") + first] + [
            (" - " if sign < 0 else " + ") + t for sign, t in rest]

    lines, written = HEADER.splitlines(), inlined | set(returned)
    for node in program.nodes:
        if node.id in live and node.op != "input" and node.id not in written:
            node.name = node.name or f"t{next(spare)}"
            lines += _wrap(f"    {node.name} = ", pieces(node))
    lines.append("    return {")
    for name, v in values.items():
        if returned.pop(v.id, None):
            lines += _wrap(f'        "{name}": ', pieces(v), ",")
        else:
            lines.append(f'        "{name}": {v.name},')
    return "\n".join(lines + ["    }"]) + "\n"


# -- checks -----------------------------------------------------------------

def test_committed_module_is_the_generator_output():
    assert MODULE.read_text() == render()


TABLE = VarTable([("m1", MAG), ("m2", MAG), ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)])
MONOMIALS = (Polynomial.constant(TABLE, 1),) + tuple(
    parse_polynomial(n, TABLE) for n in TABLE.names)
# Entries of one ring each, zero drawn often; multiples of 3 keep some int
# traces whole, so ints and Fractions both come out of the int ring.
small = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-3, 3).map(lambda k: 3 * k))
RINGS = {
    "int": small,
    "fraction": st.builds(Fraction, small, st.integers(1, 4)),
    "polynomial": st.builds(lambda c, x, d, y: c * x + d * y, small, st.sampled_from(MONOMIALS),
                            small, st.sampled_from(MONOMIALS)),
}


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_evaluator_equals_the_reference(ring, data):
    a, b, c, d, e, f, *m = data.draw(st.tuples(*[RINGS[ring]] * 9))
    sigma = ((a, b, c), (b, d, e), (c, e, f))
    got, want = recipes.evaluate(sigma, tuple(m)), reference.evaluate(sigma, tuple(m))
    assert tuple(got) == CATALOG_NAMES
    assert got == want
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


if __name__ == "__main__":
    MODULE.write_text(render())
    print(f"wrote {MODULE}", file=sys.stderr)
