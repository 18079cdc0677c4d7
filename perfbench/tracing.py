"""Spans and counts around calls into each layer of mebasis, for traced passes.

The wrappers live in the benchmark, not in the program.  A function is
patched where it is called: `from x import y` binds y into the calling
module, so e.g. the CLI's reduce_basis is `mebasis.cli.reduce_basis`.
Methods are patched on their class.  Wrappers are installed only for a
traced pass and removed after it; untimed code never sees them.

A span is (name, start, end, parent span index or None, operation id).
Spans stay in memory until the run ends.  Polynomial multiplication is
counted only, without spans: it is called about 10^5 times per operation.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter

# Spans whose inclusive time is reported as "<name>_s".
TIMED_SPANS = ("restriction.restrict", "restriction.load", "catalog.evaluate",
               "reduction.reduce", "reduction.products", "reduction.coefmat",
               "reduction.selfcheck", "ratlinalg.rref", "verify.symbolic",
               "verify.spotcheck", "verify.certify")


def _count_reports(counts, args, result):
    for rep in result.reports:
        counts["bidegrees"] += 1
        counts["product_pivots"] += rep.rank - len(rep.kept)
        counts["report_products"] += rep.n_products


def _count_products(counts, args, result):
    counts["products_built"] += len(result)


def _count_coefmat(counts, args, result):
    mat = result[1]
    counts["coefmat_cells"] += mat.rows * mat.cols


def _count_rref(counts, args, result):
    counts["rref_cells"] += args[0].rows * args[0].cols


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def _count_mul(self, fn):
        from mebasis.poly import Polynomial

        @functools.wraps(fn)
        def wrapper(a, b):
            self.counts["mul_calls"] += 1
            self.counts["mul_term_pairs"] += len(a.terms) * (
                len(b.terms) if isinstance(b, Polynomial) else 1)
            return fn(a, b)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from mebasis import catalog, cli, reduction, verify
        from mebasis.poly import Polynomial
        from mebasis.ratlinalg import RatMatrix

        table = [
            (cli, "custom_substitution", "restriction.load", None),
            (cli, "restrict_basis", "restriction.restrict", None),
            (catalog, "evaluate_all", "catalog.evaluate", None),
            (cli, "reduce_basis", "reduction.reduce", _count_reports),
            (reduction, "reduce_basis", "reduction.reduce", _count_reports),
            (reduction, "reducible_products", "reduction.products", _count_products),
            (reduction, "coefficient_matrix", "reduction.coefmat", _count_coefmat),
            (reduction.Relation, "substitute", "reduction.selfcheck", None),
            (reduction, "rank_of_columns", "ratlinalg.rank", None),
            (reduction, "solve_columns", "ratlinalg.solve", None),
            (verify, "solve_columns", "ratlinalg.solve", None),
            (RatMatrix, "rref", "ratlinalg.rref", _count_rref),
            (cli, "verify_published", "verify.symbolic", None),
            (cli, "spotcheck_relations", "verify.spotcheck", None),
            (verify, "numeric_invariants", "verify.point", None),
            (verify, "verify_generating_set", "verify.certify", None),
        ]
        saved = []
        try:
            for owner, attr, name, count in table:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            for attr in ("__mul__", "__rmul__"):
                original = vars(Polynomial)[attr]
                saved.append((Polynomial, attr, original))
                setattr(Polynomial, attr, self._count_mul(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(path, ops, passes) -> None:
    """One JSON object per line; parent indexes the spans of the same pass."""
    with open(path, "w") as fh:
        for p, spans in passes:
            for name, start, end, parent, op in spans:
                fh.write(json.dumps({"pass": p, "op": ops[op].name, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(spans, counts, cli_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are inclusive span times, except cli.self_s: the time of each
    command-line operation not covered by a top-level layer span.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    in_reduce = [False] * len(spans)
    reduce_rrefs = 0
    cli_self = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
            in_reduce[i] = in_reduce[parent] or spans[parent][0] == "reduction.reduce"
        if name == "ratlinalg.rref" and in_reduce[i]:
            reduce_rrefs += 1
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name == "op" and op in cli_ops:
            cli_self += end - start - child_time[i]

    m: dict[str, float] = {"cli.self_s": cli_self}
    for name in TIMED_SPANS:
        m[name + "_s"] = total[name]
    m.update({
        "restriction.restrict_calls": calls["restriction.restrict"],
        "catalog.evaluate_calls": calls["catalog.evaluate"],
        "reduction.reduce_calls": calls["reduction.reduce"],
        "reduction.products_built": counts["products_built"],
        "reduction.targets_visited": calls["reduction.products"],
        "reduction.bidegrees": counts["bidegrees"],
        "reduction.product_pivot_ratio": (
            counts["product_pivots"] / counts["report_products"]
            if counts["report_products"] else 0.0),
        "reduction.coefmat_cells": counts["coefmat_cells"],
        "reduction.selfcheck_calls": calls["reduction.selfcheck"],
        "ratlinalg.rref_calls": calls["ratlinalg.rref"],
        "ratlinalg.rref_cells": counts["rref_cells"],
        "ratlinalg.rank_calls": calls["ratlinalg.rank"],
        "ratlinalg.solve_calls": calls["ratlinalg.solve"],
        "ratlinalg.rref_per_bidegree": (reduce_rrefs / counts["bidegrees"]
                                        if counts["bidegrees"] else 0.0),
        "poly.mul_calls": counts["mul_calls"],
        "poly.mul_term_pairs": counts["mul_term_pairs"],
        "verify.points": calls["verify.point"],
    })
    return m
