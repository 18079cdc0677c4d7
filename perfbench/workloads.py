"""The benchmark's workloads: the operation list of one pass, made from the seed.

A pass is a fixed list of operations; a run repeats it.  An operation is
either one call of the command line (`mebasis.cli.main(argv)`) or one
library call that has no command-line route.  Everything here depends on
the workload name and the seed only, so the parent process and the
worker build the same list.  This module imports nothing from mebasis.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIBERS = ("theta", "alpha_prime", "gamma")
POLICIES = ("paper", "table-order", "reverse-table-order")
VERIFY_TRIALS = 100

# One plane normal per orbit class of the cubic group, with an integer
# basis (u, v) of the plane.  The seed applies one signed permutation to
# all three vectors, so every seed gives a different input with the same
# arithmetic cost: the restricted polynomials are equal up to the symmetry.
PLANE_CLASSES = {
    "001": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "011": ((0, 1, 1), (1, 0, 0), (0, 1, -1)),
    "111": ((1, 1, 1), (1, -1, 0), (0, 1, -1)),
    "123": ((1, 2, 3), (2, -1, 0), (0, 3, -2)),
}


@dataclass
class Op:
    """One operation.  argv is a command line; None means a library call.

    check names the output check in checks.py; params feed it.
    """
    name: str
    check: str
    params: dict = field(default_factory=dict)
    argv: list[str] | None = None


@dataclass
class Workload:
    # Median pass time at the seed commit on a 2-core machine.  With
    # --seconds it fixes the pass count, so every run of a workload does
    # the same work and, at that speed, measures at most --seconds.
    nominal_pass_s: float
    # The op run once, untimed, before the passes: the one that grows the
    # heap most, so that the first pass pays no more for fresh memory.
    warmup: str
    ops: list[Op]
    # Substitutions restricted at set-up: ("fiber", name), ("custom", path)
    # or ("generic", None).
    substitutions: list[tuple[str, str | None]]

    def passes(self, seconds: float) -> int:
        return max(2, int(seconds // self.nominal_pass_s))


def signed_permutation(rng: random.Random):
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return lambda x: tuple(signs[i] * x[perm[i]] for i in range(3))


def _linear(pairs) -> str:
    terms = [f"{c}*{name}" for c, name in pairs if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def plane_document(name: str, n, u, v) -> dict:
    """Substitution file for m = m1*u + m2*v and
    sigma = s1*u(x)u + s2*v(x)v + s3*(u(x)v + v(x)u) on the plane normal to n."""
    sigma = {f"{i + 1}{j + 1}": _linear([(u[i] * u[j], "s1"), (v[i] * v[j], "s2"),
                                         (u[i] * v[j] + v[i] * u[j], "s3")])
             for i in range(3) for j in range(i, 3)}
    return {
        "name": name,
        "variables": [["m1", "mag"], ["m2", "mag"],
                      ["s1", "stress"], ["s2", "stress"], ["s3", "stress"]],
        "sigma": sigma,
        "m": [_linear([(u[i], "m1"), (v[i], "m2")]) for i in range(3)],
        "normal": list(n),
    }


def planes(seed: int) -> dict[str, tuple[str, dict]]:
    """Orbit class -> (file name, substitution document)."""
    rng = random.Random(seed)
    out = {}
    for cls, vectors in PLANE_CLASSES.items():
        g = signed_permutation(rng)
        n, u, v = (g(x) for x in vectors)
        # Never a built-in fiber name: pinned survivor lists are keyed by name.
        name = "plane-%s-%s" % (cls, "_".join(map(str, n)))
        out[cls] = (name + ".json", plane_document(name, n, u, v))
    return out


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    if workload == "custom-reduce":
        for file_name, doc in planes(seed).values():
            (workdir / file_name).write_text(json.dumps(doc, indent=1))


def build(workload: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "builtin-reduce":
        ops = [Op(f"reduce:{f}:{p}", "reduce", {"fiber": f, "policy": p},
                  ["reduce", "--fiber", f, "--policy", p, "--format", "json"])
               for f in FIBERS for p in POLICIES]
        ops.append(Op("union", "union", {}, ["union", "--format", "json"]))
        w = Workload(8.3, "union", ops,
                     [("fiber", f) for f in FIBERS])
    elif workload == "custom-reduce":
        ops = []
        subs = []
        for cls, (file_name, doc) in planes(seed).items():
            path = str(workdir / file_name)
            ops.append(Op(f"reduce:plane-{cls}", "plane",
                          {"cls": cls, "name": doc["name"]},
                          ["reduce", "--fiber", "custom:" + path, "--format", "json"]))
            subs.append(("custom", path))
        ops.append(Op("reduce_basis:generic", "generic"))
        subs.append(("generic", None))
        w = Workload(9.2, "reduce_basis:generic", ops, subs)
    elif workload == "verify":
        point_seed = rng.randrange(1, 2 ** 31)
        ops = [Op(f"verify:{f}", "verify",
                  {"fiber": f, "trials": VERIFY_TRIALS, "seed": point_seed},
                  ["verify", "--fiber", f, "--trials", str(VERIFY_TRIALS),
                   "--seed", str(point_seed), "--format", "json"])
               for f in FIBERS]
        ops.append(Op("catalog", "catalog", {}, ["catalog", "--format", "json"]))
        ops += [Op(f"verify_generating_set:{f}", "certify", {"fiber": f})
                for f in FIBERS]
        w = Workload(2.5, "verify:alpha_prime", ops,
                     [("fiber", f) for f in FIBERS])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The seed also fixes the order of the operations within a pass.
    rng.shuffle(w.ops)
    return w


WORKLOADS = ("builtin-reduce", "custom-reduce", "verify")
