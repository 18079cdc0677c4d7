"""Output checks.  Each returns a list of problems; an empty list is a pass.

The expected values are the paper's published results, written out here
rather than read from the package, so that a change to the package's own
tables cannot make its output agree with itself.  The syzygy section of
`reduce` is deliberately not checked: its content is expected to change.
"""

from __future__ import annotations

import json

CATALOG_SIZE = 30

GENERATORS = {
    "theta": ["I010", "I002", "I020", "I200", "I201", "I210", "I400"],
    "alpha_prime": ["I010", "I002", "I020", "I003", "I030", "I200", "I201",
                    "I210", "I202a", "I211", "I220", "I400", "I401", "I410",
                    "I600"],
    "gamma": ["I010", "I020", "I030", "I200", "I210", "I220", "I410", "I600"],
}
RELATIONS = {"theta": 11, "alpha_prime": 15, "gamma": 22}
THETA_VANISHED = ["I003", "I004", "I014", "I202b", "I203", "I212b", "I204",
                  "I222", "I401", "I402", "I411", "I600"]
VANISHED = {"theta": THETA_VANISHED, "alpha_prime": [], "gamma": []}

# Orbit class of the plane normal -> (generators, relations, vanished names).
# Planes related by a cube symmetry must agree.
PLANE_COUNTS = {
    "001": (7, 11, THETA_VANISHED),
    "011": (15, 15, []),
    "111": (8, 22, []),
    "123": (22, 8, []),
}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _reduction(problems, result, n_gens, n_rels, vanished) -> None:
    gens = result["generators"]
    solved = [r.get("solved_for") for r in result["relations"]]
    _expect(problems, "generator count", len(gens), n_gens)
    _expect(problems, "relation count", len(result["relations"]), n_rels)
    _expect(problems, "vanished", result["vanished"], vanished)
    _expect(problems, "counts block", result["counts"],
            {"generators": n_gens, "relations": n_rels, "vanished": len(vanished)})
    names = gens + solved + result["vanished"]
    if len(names) != CATALOG_SIZE or len(set(names)) != CATALOG_SIZE:
        problems.append(f"generators + relations + vanished do not partition "
                        f"the {CATALOG_SIZE} invariants: {names}")


def check_reduce(text: str, fiber: str, policy: str) -> list[str]:
    doc = json.loads(text)
    problems: list[str] = []
    _expect(problems, "substitution", doc["config"]["substitution"], fiber)
    _expect(problems, "effective policy", doc["config"]["effective_policy"], policy)
    _reduction(problems, doc["result"], len(GENERATORS[fiber]), RELATIONS[fiber],
               VANISHED[fiber])
    if policy == "paper":
        _expect(problems, "generators", doc["result"]["generators"], GENERATORS[fiber])
    return problems


def check_union(text: str) -> list[str]:
    r = json.loads(text)["result"]
    problems: list[str] = []
    _expect(problems, "generators", r["generators"], GENERATORS)
    _expect(problems, "theta in alpha_prime", r["theta_included_in_alpha_prime"], True)
    _expect(problems, "gamma in alpha_prime", r["gamma_included_in_alpha_prime"], True)
    _expect(problems, "union", r["union"], GENERATORS["alpha_prime"])
    _expect(problems, "cardinal", r["cardinal"], 15)
    return problems


def check_plane(text: str, cls: str, name: str) -> list[str]:
    doc = json.loads(text)
    problems: list[str] = []
    _expect(problems, "substitution", doc["config"]["substitution"], name)
    _expect(problems, "effective policy", doc["config"]["effective_policy"],
            "table-order")
    _reduction(problems, doc["result"], *PLANE_COUNTS[cls])
    return problems


def check_verify(text: str, fiber: str, trials: int, seed: int) -> list[str]:
    doc = json.loads(text)
    problems: list[str] = []
    _expect(problems, "config", doc["config"],
            {"substitution": fiber, "trials": trials, "seed": seed})
    n = RELATIONS[fiber]
    _expect(problems, "counts", doc["result"]["counts"],
            {"total": n, "passed": n, "failed": 0})
    for e in doc["result"]["relations"]:
        if (e["symbolic"], e["numeric"]) != ("pass", "pass"):
            problems.append(f"{e['source']} {e['lhs']}: symbolic {e['symbolic']}, "
                            f"numeric {e['numeric']}")
    return problems


def check_catalog(text: str) -> list[str]:
    names = [d["name"] for d in json.loads(text)["invariants"]]
    problems: list[str] = []
    _expect(problems, "catalog size", len(set(names)), CATALOG_SIZE)
    _expect(problems, "catalog entries", len(names), CATALOG_SIZE)
    return problems


def check_generic(text: str) -> list[str]:
    """Library reduce_basis on the generic 3D substitution, as rendered by
    the worker: every catalog invariant is a generator, nothing vanishes."""
    r = json.loads(text)
    problems: list[str] = []
    _expect(problems, "generator count", len(r["generators"]), CATALOG_SIZE)
    _expect(problems, "relation count", len(r["relations"]), 0)
    _expect(problems, "vanished", r["vanished"], [])
    return problems


def check_certify(text: str, fiber: str) -> list[str]:
    r = json.loads(text)
    problems: list[str] = []
    _expect(problems, "names", r["names"], GENERATORS[fiber])
    _expect(problems, "spanning", r["spanning_ok"], True)
    _expect(problems, "minimal", r["minimal"], True)
    return problems


CHECKS = {
    "reduce": check_reduce,
    "union": check_union,
    "plane": check_plane,
    "verify": check_verify,
    "catalog": check_catalog,
    "generic": check_generic,
    "certify": check_certify,
}
