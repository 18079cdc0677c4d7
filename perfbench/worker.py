"""Worker process of the benchmark: set-up, then the passes of one workload.

    python3 perfbench/worker.py probe --workload W --seed S --workdir D --out F
    python3 perfbench/worker.py run --workload W --seed S --workdir D --out F \
        --passes N --trace 0|1

Run from the root of a checkout: the program is imported from its src/.
`probe` times set-up in a fresh process (import mebasis.cli, restrict the
catalog onto the workload's substitutions) and exits.  `run` does the same
set-up and one untimed warm-up operation, then runs the passes and writes
raw samples to F as JSON.  With --trace 1 the passes alternate untraced
and traced, and the spans go to .perfbench/trace/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"


def setup(w: workloads.Workload) -> dict:
    """Import the program and restrict the catalog onto the workload's
    substitutions; returns the restricted bases by (kind, argument)."""
    sys.path.insert(0, str(SRC))
    import mebasis.cli
    from mebasis.catalog import CATALOG
    from mebasis.restriction import (custom_substitution, fiber_substitution,
                                     generic_substitution, restrict_basis)

    if not Path(mebasis.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"mebasis was imported from {mebasis.cli.__file__}, "
                         f"not from {SRC}")
    load = {"fiber": fiber_substitution, "custom": custom_substitution,
            "generic": lambda _: generic_substitution()}
    return {(kind, arg): restrict_basis(CATALOG, load[kind](arg))
            for kind, arg in w.substitutions}


def run_op(op: workloads.Op, bases: dict) -> tuple[int, str, float]:
    """Exit code, output text and seconds of one operation.

    A command-line operation is timed around main(argv), rendering
    included.  A library operation is timed around the call only; its
    result is rendered to text afterwards for the check and the digest.
    """
    from mebasis import cli, reduction, verify

    if op.argv is not None:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
        return code, buf.getvalue(), perf_counter() - start
    if op.check == "generic":
        start = perf_counter()
        r = reduction.reduce_basis(bases["generic", None])
        seconds = perf_counter() - start
        text = json.dumps({"generators": list(r.generators),
                           "relations": [x.equation_str() for x in r.relations],
                           "syzygies": [x.equation_str() for x in r.syzygies],
                           "vanished": list(r.vanished)})
        return 0, text, seconds
    if op.check == "certify":
        fiber = op.params["fiber"]
        start = perf_counter()
        rep = verify.verify_generating_set(checks.GENERATORS[fiber],
                                           bases["fiber", fiber])
        seconds = perf_counter() - start
        return 0, json.dumps(dataclasses.asdict(rep)), seconds
    raise ValueError(f"no library call for check {op.check!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    w = workloads.build(args.workload, args.seed, args.workdir)
    start = perf_counter()
    bases = setup(w)
    setup_s = perf_counter() - start
    if args.mode == "probe":
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        run_op(next(op for op in w.ops if op.name == w.warmup), bases)
    except Exception:  # the passes run the same operation and count the failure
        traceback.print_exc()
    tracer = tracing.Tracer()
    cli_ops = {i for i, op in enumerate(w.ops) if op.argv is not None}
    samples, layers, traced_spans = [], [], []
    for p in range(args.passes):
        traced = bool(args.trace) and p % 2 == 1
        tracer.reset()
        with tracer.installed() if traced else contextlib.nullcontext():
            for i, op in enumerate(w.ops):
                gc.collect()
                tracer.op = i
                sample = {"op": op.name, "pass": p, "traced": traced,
                          "seconds": None, "digest": None, "problems": []}
                try:
                    with tracer.span("op") if traced else contextlib.nullcontext():
                        code, text, seconds = run_op(op, bases)
                    sample["seconds"] = seconds
                    sample["digest"] = hashlib.sha256(text.encode()).hexdigest()
                    if code != 0:
                        sample["problems"].append(f"exit code {code}, expected 0")
                    sample["problems"] += checks.CHECKS[op.check](text, **op.params)
                    if traced and op.check == "verify":
                        points = sum(1 for s in tracer.spans
                                     if s[0] == "verify.point" and s[4] == i)
                        if points != op.params["trials"]:
                            sample["problems"].append(
                                f"{points} numeric points evaluated, "
                                f"expected {op.params['trials']}")
                except Exception:  # any failure of one operation is counted, not fatal
                    sample["problems"].append(traceback.format_exc())
                for problem in sample["problems"]:
                    print(f"{op.name} (pass {p}): {problem}", file=sys.stderr)
                samples.append(sample)
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans, tracer.counts, cli_ops))
            traced_spans.append((p, tracer.spans))

    result = {"setup_s": setup_s, "samples": samples, "layers": layers,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if traced_spans:
        trace_dir = ROOT / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(path, w.ops, traced_spans)
        result["trace_file"] = str(path.relative_to(ROOT))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
