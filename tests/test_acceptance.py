"""Acceptance gate: eight binding criteria, all exact (zero tolerance).

Each test prints one labeled pass/fail line (run with -s to see them all;
a plain -v run shows the same verdicts as test outcomes).  Every check
here is exact rational arithmetic; no criterion uses a numeric tolerance.

Deliberately out of scope: published parameter-count tables for model
families built on these generators.  Their counting convention lives in
prior work on the model side and is not part of this library's contract;
see the README note on scope.
"""

import io
import random
from fractions import Fraction

from mebasis.catalog import CATALOG, evaluate_all
from mebasis.cli import union_payload, write_reduce_json
from mebasis.poly import MAG, STRESS, Polynomial, VarTable
from mebasis.ratlinalg import RatMatrix
from mebasis.reduction import POLICIES, reduce_basis
from mebasis.restriction import (FIBERS, fiber_substitution,
                                 generic_substitution, restrict_basis)
from mebasis.verify import (load_published, verify_generating_set,
                            verify_published)

from recipes_reference import dbar, ddev, trace

F = Fraction

TABLE3 = {
    "theta": ("I010", "I002", "I020", "I200", "I201", "I210", "I400"),
    "alpha_prime": ("I010", "I002", "I020", "I003", "I030", "I200", "I201",
                    "I210", "I202a", "I211", "I220", "I400", "I401", "I410",
                    "I600"),
    "gamma": ("I010", "I020", "I030", "I200", "I210", "I220", "I410",
              "I600"),
}

THETA_ZEROS = {"I003", "I004", "I014", "I202b", "I203", "I212b", "I204",
               "I222", "I401", "I402", "I411", "I600"}

RELATION_COUNTS = {"theta": 11, "alpha_prime": 15, "gamma": 22}


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_acceptance_1_generator_cardinalities(reductions):
    got = {fiber: reductions[fiber].generators for fiber in FIBERS}
    ok = got == TABLE3 and tuple(len(got[f]) for f in FIBERS) == (7, 15, 8)
    report(1, ok, "generator sets are exactly the published 7/15/8 names")


def test_acceptance_2_vanishing_lists(bases):
    theta = set(bases["theta"].vanished)
    ok = (theta == THETA_ZEROS
          and bases["alpha_prime"].vanished == ()
          and bases["gamma"].vanished == ())
    report(2, ok, "plane-stress restriction kills exactly the 12 named "
                  "invariants; the other two subspaces kill none")


def test_acceptance_3_relation_counts(reductions):
    ok = True
    for fiber in FIBERS:
        result = reductions[fiber]
        ok = ok and len(result.relations) == RELATION_COUNTS[fiber]
        ok = ok and len(result.generators) + len(result.relations) + \
            len(result.vanished) == 30
    report(3, ok, "11/15/22 independent relations; generators + relations "
                  "+ vanished = 30 on every subspace")


def test_acceptance_4_published_relations(bases):
    shipped = [(fiber, source, rel) for fiber in FIBERS
               for source, rel in load_published(fiber)]
    failed = [source for fiber, source, rel in shipped
              if verify_published(rel, bases[fiber])]
    ok = len(shipped) == 48 and not failed
    report(4, ok, f"{len(shipped) - len(failed)}/{len(shipped)} published "
                  f"relations substitute to the zero polynomial")


def test_acceptance_5_certificates(bases):
    ok = True
    for fiber in FIBERS:
        cert = verify_generating_set(TABLE3[fiber], bases[fiber])
        ok = ok and cert.spanning_ok and cert.minimal
    report(5, ok, "all three published sets span their restricted algebra "
                  "and lose spanning when any member is dropped")


def test_acceptance_6_union_property():
    union = union_payload("paper")["result"]
    ok = (union["theta_included_in_alpha_prime"]
          and union["gamma_included_in_alpha_prime"]
          and union["cardinal"] == 15
          and union["union"] == list(TABLE3["alpha_prime"]))
    report(6, ok, "both outer generating sets embed in the middle one; "
                  "union cardinal 15")


def _ring_and_grading_hold(rng):
    table = VarTable([("m1", MAG), ("m2", MAG),
                      ("s1", STRESS), ("s2", STRESS)])
    one = Polynomial.constant(table, 1)

    def rand_poly(bidegree=None):
        p = Polynomial.zero(table)
        for _ in range(rng.randint(1, 4)):
            if bidegree is None:
                exps = [rng.randint(0, 3) for _ in range(4)]
            else:
                a, b = bidegree
                i, j = rng.randint(0, a), rng.randint(0, b)
                exps = [i, a - i, j, b - j]
            mono = one
            for name, e in zip(table.names, exps):
                mono = mono * Polynomial.variable(table, name) ** e
            p = p + F(rng.randint(-9, 9)) * mono
        return p

    for _ in range(25):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        if not (p + q == q + p and p * q == q * p
                and (p + q) + r == p + (q + r)
                and (p * q) * r == p * (q * r)
                and p * (q + r) == p * q + p * r):
            return False
        da = (rng.randint(0, 3), rng.randint(0, 3))
        db = (rng.randint(0, 3), rng.randint(0, 3))
        g, h = rand_poly(da), rand_poly(db)
        prod = g * h
        if not g or not h:
            if prod:
                return False
        elif prod.bidegree() != (da[0] + db[0], da[1] + db[1]):
            return False
    return True


def _projector_algebra_holds():
    sub = generic_substitution()
    sigma = sub.sigma
    zero = ((Polynomial.zero(sub.table),) * 3,) * 3
    d, off, third = ddev(sigma), dbar(sigma), F(1, 3) * trace(sigma)
    rebuilt = all(d[i][j] + off[i][j] + (third if i == j else 0) == sigma[i][j]
                  for i in range(3) for j in range(3))
    return (ddev(ddev(sigma)) == ddev(sigma)
            and dbar(dbar(sigma)) == dbar(sigma)
            and ddev(dbar(sigma)) == zero
            and dbar(ddev(sigma)) == zero
            and rebuilt)


def _octahedral_invariance_holds(rng):
    turns = (((1, 0, 0), (0, 0, -1), (0, 1, 0)),
             ((0, 0, 1), (0, 1, 0), (-1, 0, 0)),
             ((0, -1, 0), (1, 0, 0), (0, 0, 1)))
    table = VarTable([])
    c = lambda x: Polynomial.constant(table, F(x))

    def values(sigma_rows, m_entries):
        sigma = tuple(tuple(c(x) for x in row) for row in sigma_rows)
        m = tuple(c(x) for x in m_entries)
        out = evaluate_all(CATALOG, sigma, m)
        return {n: p.evaluate({}) for n, p in out.items()}

    for _ in range(3):
        raw = [[F(rng.randint(-20, 20), rng.randint(1, 9))
                for _ in range(3)] for _ in range(3)]
        sigma = [[(raw[i][j] + raw[j][i]) / 2 for j in range(3)]
                 for i in range(3)]
        m = [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
        base = values(sigma, m)
        for r in turns:
            rs = [[sum(F(r[i][k]) * sigma[k][l] * F(r[j][l])
                       for k in range(3) for l in range(3))
                   for j in range(3)] for i in range(3)]
            rm = [sum(F(r[i][k]) * m[k] for k in range(3))
                  for i in range(3)]
            if values(rs, rm) != base:
                return False
    return True


def _exact_kernels_hold(rng):
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]]
        width = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-9, 9) for _ in range(width)])
        # One kernel vector per free column of the RREF: x_f = 1, the
        # pivot variables solved, every other free variable 0.  Row r of
        # the primitive RREF is the Fraction RREF row times its pivot.
        rrefm, pivots = RatMatrix(rows).rref()
        kernel = []
        for f in range(width):
            if f not in pivots:
                v = [F(0)] * width
                v[f] = F(1)
                for r, p in enumerate(pivots):
                    v[p] = -F(rrefm.data[r][f], rrefm.data[r][p])
                kernel.append(v)
        rank = len(pivots)
        if (len(kernel) != width - rank
                or len(RatMatrix(list(zip(*rows))).rref()[1]) != rank):
            return False
        for v in kernel:
            if any(sum(x * y for x, y in zip(row, v)) for row in rows):
                return False
    return True


def test_acceptance_7_property_suites():
    rng = random.Random(12021)
    ok = (_ring_and_grading_hold(rng)
          and _projector_algebra_holds()
          and _octahedral_invariance_holds(rng)
          and _exact_kernels_hold(rng))
    report(7, ok, "ring axioms, bi-degree additivity, projector algebra, "
                  "quarter-turn invariance of all 30, exact kernels")


def test_acceptance_8_deterministic_json():
    ok = True
    for fiber in FIBERS:
        for policy in POLICIES:
            outputs = []
            for _ in range(2):
                rb = restrict_basis(CATALOG, fiber_substitution(fiber))
                result = reduce_basis(rb, policy=policy)
                buf = io.StringIO()
                write_reduce_json(result, buf)
                outputs.append(buf.getvalue())
            ok = ok and outputs[0] == outputs[1]
    report(8, ok, "repeated pipeline runs render byte-identical JSON for "
                  "every subspace and policy")
