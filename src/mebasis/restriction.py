"""In-plane substitutions and restriction of the catalog.

Three built-in fibers describe stress/magnetization states confined to a
plane with unit normal n (sigma . n = 0 and m . n = 0):

  theta        n along e3:        plane stress in the (e1, e2) plane
  alpha_prime  n along e2 + e3
  gamma        n along e1 + e2 + e3 (octahedral plane)

Each is parameterized by two magnetization variables (m1, m2) and three
stress variables (s1, s2, s3).  They and the generic 3D substitution are
substitution documents in BUILTIN_DOCUMENTS, in the JSON format that user
files use, and load through custom_substitution like any user file: it is
the one place a substitution is checked.

restrict_basis runs the compiled catalog recipes (catalog.evaluate_all,
through its module attribute) directly on the substitution's Polynomials
(integer numerators over one denominator), so each restricted invariant
is in the form the reduction engine takes its columns from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from . import catalog as catalog_mod
from .catalog import Mat3, Vec3, dot, mul_vec
from .poly import (MAX_LITERAL_DIGITS, ParseError, Polynomial, VarTable,
                   parse_polynomial)

FIBERS = ("theta", "alpha_prime", "gamma")

_DOCUMENT_KEYS = ("name", "variables", "sigma", "m", "normal")

_PLANE_VARIABLES = {"m1": "mag", "m2": "mag", "s1": "stress", "s2": "stress", "s3": "stress"}

# The built-in substitutions as substitution documents (see custom_substitution),
# each named by its key when it is loaded.
BUILTIN_DOCUMENTS = {
    "theta": {
        "variables": _PLANE_VARIABLES, "m": ["m1", "m2", "0"], "normal": [0, 0, 1],
        "sigma": {"11": "s1", "12": "s3", "13": "0", "22": "s2", "23": "0", "33": "0"}},
    "alpha_prime": {
        "variables": _PLANE_VARIABLES, "m": ["m1", "m2", "-m2"], "normal": [0, 1, 1],
        "sigma": {"11": "s1", "12": "s2", "13": "-s2", "22": "-s3", "23": "s3", "33": "-s3"}},
    "gamma": {
        "variables": _PLANE_VARIABLES, "m": ["m1", "m2", "-m1 - m2"], "normal": [1, 1, 1],
        "sigma": {"11": "-s1 - s2", "12": "s1", "13": "s2",
                  "22": "-s1 - s3", "23": "s3", "33": "-s2 - s3"}},
    "generic": {
        "variables": {"m1": "mag", "m2": "mag", "m3": "mag", "s11": "stress", "s22": "stress",
                      "s33": "stress", "s12": "stress", "s13": "stress", "s23": "stress"},
        "sigma": {"11": "s11", "12": "s12", "13": "s13", "22": "s22", "23": "s23", "33": "s33"},
        "m": ["m1", "m2", "m3"]},
}


class SubstitutionError(Exception):
    pass


class Substitution(NamedTuple):
    """A linear, kind-preserving parameterization of (sigma, m).

    sigma (3x3) and m (3 entries) are tuples of Polynomials on table.
    normal is the plane normal for in-plane substitutions (integer
    components, not normalized); None when no plane constraint applies.
    """
    name: str
    table: VarTable
    sigma: Mat3
    m: Vec3
    normal: tuple[int, int, int] | None = None


def fiber_substitution(fiber: str) -> Substitution:
    """One of the three built-in in-plane parameterizations."""
    if fiber not in FIBERS:
        raise SubstitutionError(f"unknown fiber {fiber!r}; expected one of {FIBERS}")
    return custom_substitution({"name": fiber, **BUILTIN_DOCUMENTS[fiber]})


def generic_substitution() -> Substitution:
    """Fully generic 3D (sigma, m): six stress and three magnetization vars."""
    return custom_substitution({"name": "generic", **BUILTIN_DOCUMENTS["generic"]})


def _json_int(text: str) -> int:
    """A JSON integer, refused before int() spends quadratic time on it."""
    if len(text.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise SubstitutionError(f"substitution file integer over {MAX_LITERAL_DIGITS} digits")
    return int(text)


def custom_substitution(source: str | Path | Mapping) -> Substitution:
    """Load a substitution from a JSON file or an already-parsed mapping.

    A document (BUILTIN_DOCUMENTS holds four) has the keys "variables",
    "sigma", "m", and optionally "name" (the file stem by default) and
    "normal" (3 integers, not all zero).  Any other top-level key is
    refused, so a misspelt "normal" cannot skip the plane check.
    variables maps names to kinds ("mag" or "stress") or lists [name, kind]
    pairs; the order given is the variable order.  sigma keys are entry
    positions "ij"; giving both "ij" and "ji" is allowed only when the
    expressions agree.  All six distinct positions must be covered; m lists
    3 expressions.  Expressions use the polynomial grammar (explicit '*',
    '^' powers, integer or a/b literals).  An integer in a file has at most
    MAX_LITERAL_DIGITS digits, as a literal in an expression does.
    Parsed entries must be linear (or zero): sigma's in stress, m's in
    magnetization variables; a normal must make sigma . n and m . n zero.
    """
    default_name = "custom"
    if isinstance(source, Mapping):
        data = source
    else:
        path = Path(source)
        default_name = path.stem
        try:
            data = json.loads(path.read_text(encoding="utf-8"), parse_int=_json_int)
        except OSError as exc:
            raise SubstitutionError(f"cannot read substitution file: {exc}") from exc
        except RecursionError:
            raise SubstitutionError("substitution file is nested too deeply") from None
        except ValueError as exc:
            raise SubstitutionError(f"substitution file is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise SubstitutionError("substitution document must be a JSON object")
    for key in data:
        if key not in _DOCUMENT_KEYS:
            raise SubstitutionError(f"unknown key {key!r} in substitution document; "
                                    f"expected {', '.join(_DOCUMENT_KEYS)}")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise SubstitutionError("'name' must be a non-empty string")
    raw_vars = data.get("variables")
    if raw_vars is None:
        raise SubstitutionError("missing 'variables' block")
    pairs = list(raw_vars.items()) if isinstance(raw_vars, Mapping) else raw_vars
    if not (isinstance(pairs, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, str) for x in p) for p in pairs)):
        raise SubstitutionError("'variables' must map names to kinds or list "
                                "[name, kind] pairs of strings")
    try:
        table = VarTable(pairs)
    except ValueError as exc:
        raise SubstitutionError(f"bad variables block: {exc}") from exc

    def parse(text, where):
        if not isinstance(text, str):
            raise SubstitutionError(f"{where}: expected an expression string")
        try:
            return parse_polynomial(text, table)
        except ParseError as exc:
            raise SubstitutionError(f"{where}: {exc}") from exc

    raw_sigma = data.get("sigma")
    if not isinstance(raw_sigma, Mapping):
        raise SubstitutionError("missing 'sigma' block")
    entries: dict[tuple[int, int], Polynomial] = {}
    for key, text in raw_sigma.items():
        if not (isinstance(key, str) and len(key) == 2
                and key[0] in "123" and key[1] in "123"):
            raise SubstitutionError(f"bad sigma key {key!r}; expected 'ij' with i,j in 1..3")
        i, j = int(key[0]) - 1, int(key[1]) - 1
        p = parse(text, f"sigma entry {key}")
        pos = (min(i, j), max(i, j))
        if pos in entries:
            if entries[pos] != p:
                raise SubstitutionError(
                    f"sigma entries {pos[0] + 1}{pos[1] + 1} and "
                    f"{pos[1] + 1}{pos[0] + 1} differ; sigma must be symmetric")
        else:
            entries[pos] = p
    for i in range(3):
        for j in range(i, 3):
            if (i, j) not in entries:
                raise SubstitutionError(f"missing sigma entry {i + 1}{j + 1}")
    sigma = tuple(tuple(entries[(min(i, j), max(i, j))] for j in range(3))
                  for i in range(3))

    raw_m = data.get("m")
    if not isinstance(raw_m, (list, tuple)) or len(raw_m) != 3:
        raise SubstitutionError("'m' block must list exactly 3 expressions")
    m = tuple(parse(text, f"m entry {i + 1}") for i, text in enumerate(raw_m))

    normal = None
    if data.get("normal") is not None:
        raw_n = data["normal"]
        if (not isinstance(raw_n, Sequence) or len(raw_n) != 3
                or not all(type(x) is int for x in raw_n) or not any(raw_n)):
            raise SubstitutionError("'normal' must be a list of 3 integers, not all zero")
        normal = tuple(raw_n)

    bidegree = table.packed_bidegree
    for i, j in sorted(entries):
        if any(bidegree(k) != (0, 1) for k in entries[i, j].nums):
            raise SubstitutionError(f"sigma entry ({i + 1},{j + 1}) must be linear in "
                                    f"stress variables, got {entries[i, j]}")
    for i, e in enumerate(m):
        if any(bidegree(k) != (1, 0) for k in e.nums):
            raise SubstitutionError(f"m entry {i + 1} must be linear in magnetization "
                                    f"variables, got {e}")
    if normal is not None:
        for i, row in enumerate(mul_vec(sigma, normal)):
            if row:
                raise SubstitutionError(f"sigma . n has nonzero component {i + 1}")
        if dot(m, normal):
            raise SubstitutionError("m . n is nonzero")
    return Substitution(name, table, sigma, m, normal)


class RestrictedBasis(NamedTuple):
    """The catalog evaluated on a substitution: nonzero entries, in catalog
    order, plus the names that restricted to the zero polynomial."""
    substitution: Substitution
    entries: tuple[tuple[str, Polynomial], ...]
    vanished: tuple[str, ...]

    def as_dict(self) -> dict[str, Polynomial]:
        return dict(self.entries)


def restrict_basis(catalog: Sequence[catalog_mod.InvariantDef],
                   sub: Substitution) -> RestrictedBasis:
    """Evaluate the catalog on a substitution and split off the zeros.

    Because the substitution is linear and kind-preserving, each nonzero
    restriction keeps the bi-degree of its catalog entry; this is asserted
    rather than assumed.
    """
    values = catalog_mod.evaluate_all(catalog, sub.sigma, sub.m)
    bidegree = sub.table.packed_bidegree
    entries = []
    vanished = []
    for defn in catalog:
        v = values[defn.name]
        if not v:
            vanished.append(defn.name)
            continue
        degs = sorted({bidegree(k) for k in v.nums})
        if degs != [defn.bidegree]:
            raise SubstitutionError(
                f"restricted {defn.name} has bi-degree "
                f"{' and '.join(map(str, degs))}, expected {defn.bidegree}; "
                f"substitution is not kind-preserving")
        entries.append((defn.name, v))
    return RestrictedBasis(sub, tuple(entries), tuple(vanished))
