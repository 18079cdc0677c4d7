"""Runs one workload of the mebasis benchmark and prints its metrics.

    python3 perfbench/run.py --workload builtin-reduce --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program under test is src/mebasis
there.  One client in a closed loop: a worker process runs the workload's
operations one after another, each only after the previous one returned.
The lines before the last describe the run for a reader; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
DEADLINE_S = 170


class ChildFailed(Exception):
    pass


def child(mode: str, args, workdir: Path, extra: list[str], deadline: float) -> dict:
    out = workdir / f"{mode}-result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--out", str(out)] + extra
    # A fixed hash seed removes one source of run-to-run variation.  Workers
    # write bytecode caches, as an installed package has them, so set-up
    # times the same import whatever the caller's environment says.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.CalledProcessError as exc:
        raise ChildFailed(f"worker {mode} exited with code {exc.returncode}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {mode} did not finish in time") from exc
    return json.loads(out.read_text())


def median_pass(samples: list[dict]) -> float:
    """Wall time of the median pass, assembled per operation: the sum over
    the pass's operations of each operation's median latency."""
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s["seconds"])
    return sum(statistics.median(v) for v in by_op.values())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that has at least ten samples beyond it, and
    which percentile that is.  Below 21 samples no such percentile lies
    above the median, and the upper median is reported instead."""
    xs = sorted(values)
    k = max(len(xs) - 10, len(xs) // 2 + 1)
    return xs[k - 1], 100.0 * k / len(xs)


def count_failures(samples: list[dict]) -> int:
    """An operation fails on a wrong exit code, a failed check, an
    exception, or output that differs from its first run in this process."""
    first: dict[str, str] = {}
    failed = 0
    for s in samples:
        ref = first.setdefault(s["op"], s["digest"])
        if s["problems"] or s["seconds"] is None or s["digest"] != ref:
            failed += 1
            if not s["problems"] and s["digest"] != ref:
                print(f"{s['op']} (pass {s['pass']}): output differs from pass 0",
                      file=sys.stderr)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "mebasis" / "cli.py").is_file():
        print("error: run from the root of a mebasis checkout "
              "(src/mebasis/cli.py not found)", file=sys.stderr)
        return 2

    w = workloads.build(args.workload, args.seed, Path("."))
    passes = w.passes(args.seconds)
    if args.trace:
        # Half untraced, half traced, alternating; the ratio is the overhead.
        passes = 2 * max(1, passes // 2)
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        workloads.write_inputs(args.workload, args.seed, workdir)
        setup = []
        if not args.trace:
            child("probe", args, workdir, [], deadline)  # fills the bytecode cache
            setup = [child("probe", args, workdir, [], deadline)["setup_s"]
                     for _ in range(SETUP_PROBES)]
        res = child("run", args, workdir,
                    ["--passes", str(passes), "--trace", str(args.trace)], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = res["samples"]
    failed = count_failures(samples)
    timed = [s for s in samples if not s["traced"] and s["seconds"] is not None]
    wall = median_pass(timed)
    print(f"workload {args.workload}, seed {args.seed}: {len(w.ops)} operations "
          f"per pass, {passes} passes, one client in a closed loop")
    print(f"fail_ratio     {failed}/{len(samples)} = {failed / len(samples):.4g}")

    if args.trace:
        traced = [s for s in samples if s["traced"] and s["seconds"] is not None]
        # median_low: the value of one traced pass, so counts stay whole.
        metrics = {name: statistics.median_low(m[name] for m in res["layers"])
                   for name in res["layers"][0]}
        metrics["trace.overhead_ratio"] = median_pass(traced) / wall
        units = {name: ("s" if name.endswith("_s")
                        else "ratio" if name.endswith(("_ratio", "_per_bidegree"))
                        else "count") for name in metrics}
        print(f"spans written to {res['trace_file']}")
        for name, value in metrics.items():
            print(f"{name:32} {value:.6g} {units[name]}")
    else:
        lat = [s["seconds"] for s in timed]
        tail_value, tail_pct = tail(lat)
        metrics = {
            "wall_s": wall,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["rss_kb"] / 1024,
            "success_ratio": 1 - failed / len(samples),
        }
        units = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "success_ratio": "ratio"}
        notes = {"wall_s": "median pass",
                 "op_p50_s": f"n={len(lat)}",
                 "op_tail_s": f"p{tail_pct:.1f}, n={len(lat)}",
                 "setup_s": f"median of {len(setup)} fresh processes",
                 "peak_rss_mb": "worker process",
                 "success_ratio": "1 - fail_ratio"}
        for name, value in metrics.items():
            print(f"{name:14} {value:.6g} {units[name]}  ({notes[name]})")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
