"""Command-line interface.

Subcommands: catalog, reduce, verify, union.  Output is deterministic for
a given command line: repeated runs produce byte-identical bytes, so JSON
reports are diffable and safe to pin in CI.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error: a ReductionError (e.g. a pinned keep set that conflicts) or a file
the program reads that it cannot read ("error: cannot read <file>:
<reason>"), 4 standard output, --help and --version included, could not
be written (a closed pipe, a full disk, an encoding that cannot hold the
text).  main lifts the interpreter's 4300-digit limit on writing an int
as text, so any coefficient prints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import __version__
from .catalog import CATALOG, CATALOG_INDEX, CATALOG_NAMES
from .poly import MAX_EXPONENT, product_str, signed_sum
from .reduction import (DEFAULT_BOUNDS, POLICIES, Relation, ReductionError,
                        ReductionResult, partition_bidegrees, reduce_basis,
                        unexplored)
from .restriction import (FIBERS, RestrictedBasis, SubstitutionError,
                          custom_substitution, fiber_substitution,
                          generic_substitution, restrict_basis)
from .verify import load_published, spotcheck_relations, verify_published

_FIBER_HELP = " | ".join((*FIBERS, "custom:PATH"))

# How many pieces of JSON text write_json collects before it writes them:
# one chunk of a report is held in memory at a time, never the whole text.
JSON_CHUNK = 4096


class UsageError(Exception):
    pass


def _load_basis(fiber: str) -> RestrictedBasis:
    if fiber in FIBERS:
        sub = fiber_substitution(fiber)
    elif fiber.startswith("custom:"):
        path = fiber[len("custom:"):]
        if not path:
            raise UsageError("custom: needs a file path, as in custom:PATH")
        try:
            sub = custom_substitution(path)
        except SubstitutionError as exc:
            raise UsageError(str(exc)) from exc
    else:
        raise UsageError(f"unknown fiber {fiber!r}; expected {_FIBER_HELP}")
    return restrict_basis(CATALOG, sub)


def _bounds(args) -> tuple[int, int]:
    """--dmax and --alpha-max, refused when they explore no bi-degree or
    exceed the degree a packed monomial holds (whether they cover every
    survivor is checked once the basis is loaded)."""
    if args.dmax < 1:
        raise UsageError(f"--dmax must be at least 1, got {args.dmax}")
    if args.dmax > MAX_EXPONENT:
        raise UsageError(f"--dmax must be at most {MAX_EXPONENT}, got {args.dmax}")
    if args.alpha_max < 0:
        raise UsageError(f"--alpha-max must be at least 0, got {args.alpha_max}")
    return (args.dmax, args.alpha_max)


def latex_name(name: str) -> str:
    if name == "I010":
        return r"\operatorname{tr}\boldsymbol{\sigma}"
    return CATALOG[CATALOG_INDEX[name]].label


def _latex_power(name: str, e: int) -> str:
    base = "(%s)" % latex_name(name) if name == "I010" and e > 1 else latex_name(name)
    return base if e == 1 else "%s^{%d}" % (base, e)


def latex_product(factors: Sequence[str]) -> str:
    return product_str(factors, _latex_power, r"\,")


def latex_relation(rel: Relation) -> str:
    """A solved relation as one row of a LaTeX align environment."""
    lead, rhs = rel.solved_form()
    body = signed_sum(((c, latex_product(f)) for f, c in rhs), r"\,")
    lhs = latex_name(rel.solved_for)
    if lead == 1:
        return f"{lhs} &= {body}"
    return r"%s &= \frac{1}{%d}\left( %s \right)" % (lhs, lead, body)


def _relation_payload(rel: Relation) -> dict:
    entry = {
        "bidegree": list(rel.bidegree),
        "terms": [{"factors": list(f), "coefficient": str(c)} for f, c in rel.terms],
        "equation": rel.equation_str(),
    }
    if rel.solved_for is not None:
        entry["solved_for"] = rel.solved_for
        entry["solved"] = rel.solved_str()
    return entry


def _tool_payload() -> dict:
    return {"name": "mebasis", "version": __version__}


def write_json(value, stream) -> None:
    """Write value (dicts with str keys, lists, str, int, bool, None) and a
    newline to stream, as json.dumps(value, indent=2) writes it, without the
    pure-Python encoder that an indent selects; one write per JSON_CHUNK
    pieces, so only one chunk of the text is held at a time."""
    parts: list[str] = []
    _emit_json(value, "\n", "", parts, stream)
    parts.append("\n")
    stream.write("".join(parts))


def _emit_json(value, newline: str, lead: str, parts: list[str], stream) -> None:
    """Append lead and value's JSON text to parts, one line at most per piece
    (newline starts its lines); tested on entry and on return, so after
    every piece, parts is written to stream and cleared at JSON_CHUNK."""
    if len(parts) >= JSON_CHUNK:
        stream.write("".join(parts))
        parts.clear()
    if isinstance(value, str):
        parts.append(lead + encode_basestring_ascii(value))
    elif value is None:
        parts.append(lead + "null")
    elif value is True:
        parts.append(lead + "true")
    elif value is False:
        parts.append(lead + "false")
    elif isinstance(value, int):
        parts.append(lead + int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            parts.append(lead + "[]")
        else:
            parts.append(lead + "[")
            inner = newline + "  "
            sep = inner
            for item in value:
                _emit_json(item, inner, sep, parts, stream)
                sep = "," + inner
            parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append(lead + "{}")
        else:
            parts.append(lead + "{")
            inner = newline + "  "
            sep = inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {key!r}")
                _emit_json(item, inner, sep + encode_basestring_ascii(key) + ": ", parts, stream)
                sep = "," + inner
            parts.append(newline + "}")
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable here")
    if len(parts) >= JSON_CHUNK:
        stream.write("".join(parts))
        parts.clear()


# -- catalog -------------------------------------------------------------

def _run_catalog(args) -> int:
    if args.format == "latex":
        # The table lists CATALOG alone: no restriction to print.
        lines = [r"\begin{tabular}{llll}",
                 r"name & label & bi-degree & formula \\ \hline"]
        for d in CATALOG:
            lines.append(r"%s & $%s$ & $(%d,%d)$ & \verb|%s| \\"
                         % (d.name, d.label, d.bidegree[0], d.bidegree[1], d.formula))
        lines.append(r"\end{tabular}")
        print("\n".join(lines))
        return 0
    polys = restrict_basis(CATALOG, generic_substitution()).as_dict()
    if args.format == "json":
        payload = {
            "tool": _tool_payload(),
            "legend": ("sb = offdiagonal part of s; sd = diagonal deviator of s; "
                       "mb, md = the same projectors applied to the dyadic m o m"),
            "invariants": [
                {"name": d.name, "label": d.label, "formula": d.formula,
                 "bidegree": list(d.bidegree), "generic": str(polys[d.name])}
                for d in CATALOG
            ],
        }
        write_json(payload, sys.stdout)
    else:
        print(f"catalog: {len(CATALOG)} invariants")
        for d in CATALOG:
            print(f"  {d.name:<6} ({d.bidegree[0]},{d.bidegree[1]})  {d.formula}")
            print(f"         = {polys[d.name]}")
    return 0


# -- reduce --------------------------------------------------------------

def reduce_payload(result: ReductionResult) -> dict:
    return {
        "tool": _tool_payload(),
        "config": {
            "substitution": result.basis.substitution.name,
            "policy": result.policy,
            "effective_policy": result.effective_policy,
            "max_total_degree": result.bounds[0],
            "max_mag_degree": result.bounds[1],
        },
        "result": {
            "vanished": list(result.vanished),
            "generators": list(result.generators),
            "relations": [_relation_payload(r) for r in result.relations],
            "syzygies": [_relation_payload(r) for r in result.syzygies],
            "per_bidegree": [
                {"bidegree": list(rep.bidegree), "products": rep.n_products,
                 "invariants": rep.n_invariants, "columns": rep.n_columns,
                 "rank": rep.rank, "kernel_dim": rep.kernel_dim,
                 "kept": list(rep.kept), "eliminated": list(rep.eliminated),
                 "syzygies": rep.n_syzygies}
                for rep in result.reports
            ],
            "counts": {
                "generators": len(result.generators),
                "relations": len(result.relations),
                "vanished": len(result.vanished),
            },
        },
    }


def render_reduce_text(result: ReductionResult) -> str:
    lines = []
    lines.append(f"substitution: {result.basis.substitution.name}")
    lines.append(f"policy: {result.policy} (effective: {result.effective_policy})")
    lines.append(f"bounds: total degree <= {result.bounds[0]}, "
                 f"mag degree <= {result.bounds[1]}")
    lines.append("")
    lines.append(f"vanished ({len(result.vanished)}): "
                 + (", ".join(result.vanished) if result.vanished else "none"))
    lines.append(f"generators ({len(result.generators)}): "
                 + ", ".join(result.generators))
    lines.append(f"relations ({len(result.relations)}):")
    for rel in result.relations:
        lines.append(f"  {rel.solved_str()}")
    if result.syzygies:
        lines.append(f"product syzygies ({len(result.syzygies)}):")
        for rel in result.syzygies:
            lines.append(f"  {rel.equation_str()}")
    lines.append("")
    lines.append("per bi-degree (products + invariants = columns; rank; kernel):")
    for rep in result.reports:
        kept = ", ".join(rep.kept) if rep.kept else "-"
        elim = ", ".join(rep.eliminated) if rep.eliminated else "-"
        lines.append(f"  ({rep.bidegree[0]},{rep.bidegree[1]}): "
                     f"{rep.n_products}+{rep.n_invariants}={rep.n_columns} "
                     f"rank {rep.rank} kernel {rep.kernel_dim} "
                     f"syzygies {rep.n_syzygies} | kept: {kept} | eliminated: {elim}")
    return "\n".join(lines)


def render_reduce_latex(result: ReductionResult) -> str:
    gens = ",\\quad ".join("$%s$" % latex_name(n) for n in result.generators)
    body = " \\\\\n".join(latex_relation(rel) for rel in result.relations)
    return "\n".join([r"% generators", gens, r"% relations", r"\begin{align*}", body,
                      r"\end{align*}"])


def _run_reduce(args) -> int:
    bounds = _bounds(args)
    rb = _load_basis(args.fiber)
    missed = unexplored(rb, bounds)
    if missed is not None:
        # Name every flag short of covering all survivors, so one fix works.
        bds = [bd for bd, _ in partition_bidegrees(rb)]
        short = [f"{flag} to at least {need}" for flag, need, got in
                 (("--dmax", max(map(sum, bds)), bounds[0]),
                  ("--alpha-max", max(a for a, _ in bds), bounds[1]))
                 if need > got]
        raise UsageError(f"the bounds leave {missed[0]} at bi-degree {missed[1]} "
                         f"unexplored; raise {' and '.join(short)}")
    result = reduce_basis(rb, bounds=bounds, policy=args.policy,  # LaTeX prints no syzygy
                          survivors_only=args.format == "latex")
    if args.format == "json":
        write_json(reduce_payload(result), sys.stdout)
    elif args.format == "latex":
        print(render_reduce_latex(result))
    else:
        print(render_reduce_text(result))
    return 0


# -- verify --------------------------------------------------------------

def verify_payload(fiber: str, rb: RestrictedBasis, trials: int, seed: int) -> dict:
    pairs = load_published(fiber)
    entries = []
    n_fail = 0
    spots = spotcheck_relations([rel for _, rel in pairs], rb, trials=trials, seed=seed)
    for (source, rel), spot in zip(pairs, spots):
        residual = verify_published(rel, rb)
        entry = {
            "source": source,
            "lhs": rel.solved_for,
            "symbolic": "fail" if residual else "pass",
            "numeric": "pass" if spot.ok else "fail",
        }
        if residual:
            entry["residual"] = str(residual)
        if residual or not spot.ok:
            n_fail += 1
        entries.append(entry)
    return {
        "tool": _tool_payload(),
        "config": {"substitution": rb.substitution.name, "trials": trials,
                   "seed": seed},
        "result": {
            "relations": entries,
            "counts": {"total": len(entries),
                       "passed": len(entries) - n_fail,
                       "failed": n_fail},
        },
    }


def _run_verify(args) -> int:
    if args.fiber not in FIBERS:
        raise UsageError(f"verify needs a built-in fiber ({', '.join(FIBERS)}); "
                         f"no published relation list exists for {args.fiber!r}")
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    rb = _load_basis(args.fiber)
    payload = verify_payload(args.fiber, rb, args.trials, args.seed)
    failed = payload["result"]["counts"]["failed"]
    if args.format == "json":
        write_json(payload, sys.stdout)
    elif args.format == "latex":
        lines = [r"\begin{tabular}{llll}",
                 r"source & invariant & symbolic & numeric \\ \hline"]
        for e in payload["result"]["relations"]:
            lines.append(r"%s & $%s$ & %s & %s \\"
                         % (e["source"], latex_name(e["lhs"]), e["symbolic"],
                            e["numeric"]))
        lines.append(r"\end{tabular}")
        print("\n".join(lines))
    else:
        for e in payload["result"]["relations"]:
            status = "PASS" if e["symbolic"] == "pass" and e["numeric"] == "pass" else "FAIL"
            print(f"{status}  {e['source']}  {e['lhs']}  "
                  f"(symbolic {e['symbolic']}, numeric {e['numeric']})")
            if "residual" in e:
                print(f"      residual: {e['residual']}")
        c = payload["result"]["counts"]
        print(f"{c['passed']}/{c['total']} relations verified")
    return 0 if failed == 0 else 1


# -- union ---------------------------------------------------------------

def union_payload(policy: str) -> dict:
    """Each fiber's generators, their inclusions in alpha_prime's, their union;
    no syzygy, so each reduce_basis walks the survivors' bi-degrees alone."""
    gens = {fiber: reduce_basis(_load_basis(fiber), policy=policy,
                                survivors_only=True).generators
            for fiber in FIBERS}
    alpha = set(gens["alpha_prime"])
    every = alpha.union(gens["theta"], gens["gamma"])
    union = [n for n in CATALOG_NAMES if n in every]
    return {
        "tool": _tool_payload(),
        "config": {"policy": policy, "max_total_degree": DEFAULT_BOUNDS[0],
                   "max_mag_degree": DEFAULT_BOUNDS[1]},
        "result": {
            "generators": {fiber: list(g) for fiber, g in gens.items()},
            "theta_included_in_alpha_prime": alpha.issuperset(gens["theta"]),
            "gamma_included_in_alpha_prime": alpha.issuperset(gens["gamma"]),
            "union": union,
            "cardinal": len(union),
        },
    }


def _run_union(args) -> int:
    payload = union_payload(args.policy)
    r = payload["result"]
    ok = r["theta_included_in_alpha_prime"] and r["gamma_included_in_alpha_prime"]
    if args.format == "json":
        write_json(payload, sys.stdout)
    elif args.format == "latex":
        print(",\\quad ".join("$%s$" % latex_name(n) for n in r["union"]))
    else:
        for fiber in FIBERS:
            gens = r["generators"][fiber]
            print(f"{fiber}: {len(gens)} generators: {', '.join(gens)}")
        print(f"theta subset of alpha_prime: {r['theta_included_in_alpha_prime']}")
        print(f"gamma subset of alpha_prime: {r['gamma_included_in_alpha_prime']}")
        print(f"union ({r['cardinal']}): {', '.join(r['union'])}")
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mebasis",
        description="Exact cubic magneto-elastic invariants on in-plane "
                    "load subspaces.")
    parser.add_argument("--version", action="version",
                        version=f"mebasis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")

    p_cat = sub.add_parser("catalog", help="dump the 30-invariant catalog")
    add_format(p_cat)
    p_cat.set_defaults(func=_run_catalog)

    p_red = sub.add_parser("reduce", help="reduce a restricted basis")
    p_red.add_argument("--fiber", required=True, help=_FIBER_HELP)
    p_red.add_argument("--policy", choices=POLICIES, default="paper")
    p_red.add_argument("--dmax", type=int, default=DEFAULT_BOUNDS[0],
                       help="max total degree of explored bi-degrees")
    p_red.add_argument("--alpha-max", type=int, default=DEFAULT_BOUNDS[1],
                       help="max magnetization degree of explored bi-degrees")
    add_format(p_red)
    p_red.set_defaults(func=_run_reduce)

    p_ver = sub.add_parser("verify",
                           help="check the shipped relation lists against "
                                "exact restriction")
    p_ver.add_argument("--fiber", required=True, help=" | ".join(FIBERS))
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    add_format(p_ver)
    p_ver.set_defaults(func=_run_verify)

    p_uni = sub.add_parser("union",
                           help="survivor sets of all three fibers and their "
                                "union")
    p_uni.add_argument("--policy", choices=POLICIES, default="paper")
    add_format(p_uni)
    p_uni.set_defaults(func=_run_union)

    return parser


def _detach_stdout() -> None:
    """Point stdout's descriptor, if it has one, at the null device, so the
    interpreter's last flush of what stdout still buffers cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # before CPython 3.10.7
        return _run(argv)
    # A command may print ints of any length; the caller's limit is restored.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    shown, code = io.StringIO(), None
    try:
        with contextlib.redirect_stdout(shown):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 after the --help or --version text
        code = int(exc.code or 0)
    try:
        if code is None:
            code = args.func(args)
        sys.stdout.write(shown.getvalue())
        sys.stdout.flush()  # a write failure is raised here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if exc.filename is not None:  # a file the program reads, not stdout
            print(f"error: cannot read {exc.filename}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 3
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _detach_stdout()
        return 4
    except UnicodeEncodeError as exc:  # stdout's encoding cannot hold the text
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        _detach_stdout()
        return 4


if __name__ == "__main__":
    sys.exit(main())
