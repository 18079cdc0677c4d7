"""In-plane substitutions and restriction of the catalog.

Three built-in fibers describe stress/magnetization states confined to a
plane with unit normal n (sigma . n = 0 and m . n = 0):

  theta        n along e3:        plane stress in the (e1, e2) plane
  alpha_prime  n along e2 + e3
  gamma        n along e1 + e2 + e3 (octahedral plane)

Each is parameterized by two magnetization variables (m1, m2) and three
stress variables (s1, s2, s3).  User-defined substitutions load from a
small JSON format; see custom_substitution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import catalog as catalog_mod
from .poly import (MAG, STRESS, ParseError, Polynomial, VarTable,
                   parse_polynomial)
from .tensor3 import PolyMat3, PolyVec3

FIBERS = ("theta", "alpha_prime", "gamma")

_DOCUMENT_KEYS = ("name", "variables", "sigma", "m", "normal")


class SubstitutionError(Exception):
    pass


@dataclass(frozen=True)
class Substitution:
    """A linear, kind-preserving parameterization of (sigma, m).

    normal is the plane normal for in-plane substitutions (integer
    components, not normalized); None when no plane constraint applies.
    """
    name: str
    table: VarTable
    sigma: PolyMat3
    m: PolyVec3
    normal: tuple[int, int, int] | None = None


def _plane_table() -> VarTable:
    return VarTable([("m1", MAG), ("m2", MAG),
                     ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)])


def _has_bidegree(p: Polynomial, bidegree: tuple[int, int]) -> bool:
    """Whether every term of p has this bi-degree (true for zero)."""
    return all(p.table.monomial_bidegree(m) == bidegree for m in p.terms)


def validate_substitution(sub: Substitution) -> None:
    """Checks the Substitution invariants, raising SubstitutionError.

    sigma must be symmetric with entries linear in stress variables (or
    zero); m entries linear in magnetization variables (or zero).  When a
    normal is declared, sigma . n and m . n must vanish identically.
    """
    if sub.sigma.table != sub.table or sub.m.table != sub.table:
        raise SubstitutionError("tensor entries not built on the substitution table")
    if not sub.sigma.is_symmetric():
        raise SubstitutionError("sigma is not symmetric")
    for i in range(3):
        for j in range(3):
            e = sub.sigma[i][j]
            if not _has_bidegree(e, (0, 1)):
                raise SubstitutionError(
                    f"sigma entry ({i + 1},{j + 1}) must be linear in stress "
                    f"variables, got {e}")
    for i in range(3):
        e = sub.m[i]
        if not _has_bidegree(e, (1, 0)):
            raise SubstitutionError(
                f"m entry {i + 1} must be linear in magnetization variables, "
                f"got {e}")
    if sub.normal is not None:
        n = PolyVec3(sub.normal)
        for i, row in enumerate(sub.sigma.mul_vec(n).entries):
            if row:
                raise SubstitutionError(f"sigma . n has nonzero component {i + 1}")
        if sub.m.dot(n):
            raise SubstitutionError("m . n is nonzero")


def fiber_substitution(fiber: str) -> Substitution:
    """One of the three built-in in-plane parameterizations."""
    table = _plane_table()
    m1, m2, s1, s2, s3 = (Polynomial.variable(table, n) for n in table.names)
    z = Polynomial.zero(table)
    if fiber == "theta":
        sigma = PolyMat3([[s1, s3, z], [s3, s2, z], [z, z, z]])
        m = PolyVec3([m1, m2, z])
        normal = (0, 0, 1)
    elif fiber == "alpha_prime":
        sigma = PolyMat3([[s1, s2, -s2], [s2, -s3, s3], [-s2, s3, -s3]])
        m = PolyVec3([m1, m2, -m2])
        normal = (0, 1, 1)
    elif fiber == "gamma":
        sigma = PolyMat3([[-s1 - s2, s1, s2],
                          [s1, -s1 - s3, s3],
                          [s2, s3, -s2 - s3]])
        m = PolyVec3([m1, m2, -m1 - m2])
        normal = (1, 1, 1)
    else:
        raise SubstitutionError(f"unknown fiber {fiber!r}; expected one of {FIBERS}")
    sub = Substitution(fiber, table, sigma, m, normal)
    validate_substitution(sub)
    return sub


def generic_substitution() -> Substitution:
    """Fully generic 3D (sigma, m): six stress and three magnetization vars."""
    table = VarTable([("m1", MAG), ("m2", MAG), ("m3", MAG),
                      ("s11", STRESS), ("s22", STRESS), ("s33", STRESS),
                      ("s12", STRESS), ("s13", STRESS), ("s23", STRESS)])
    v = {n: Polynomial.variable(table, n) for n in table.names}
    sigma = PolyMat3([[v["s11"], v["s12"], v["s13"]],
                      [v["s12"], v["s22"], v["s23"]],
                      [v["s13"], v["s23"], v["s33"]]])
    m = PolyVec3([v["m1"], v["m2"], v["m3"]])
    return Substitution("generic", table, sigma, m, None)


def custom_substitution(source: str | Path | Mapping) -> Substitution:
    """Load a substitution from a JSON file or an already-parsed mapping.

    Format:

        {
          "name": "my-plane",                      (optional; defaults to stem)
          "variables": {"m1": "mag", ..., "s3": "stress"},
          "sigma": {"11": "s1", "12": "s3", "13": "0",
                    "22": "s2", "23": "0", "33": "0"},
          "m": ["m1", "m2", "0"],
          "normal": [0, 0, 1]                      (optional; not all zero)
        }

    Any other top-level key is refused, so a misspelt "normal" cannot
    skip the plane check.  variables may also be a list of [name, kind]
    pairs; the order given is the variable order.  sigma keys are entry
    positions "ij"; giving both "ij" and "ji" is allowed only when the
    expressions agree.  All six distinct positions must be covered.
    Expressions use the polynomial grammar (explicit '*', '^' powers,
    integer or a/b literals).
    """
    default_name = "custom"
    if isinstance(source, Mapping):
        data = source
    else:
        path = Path(source)
        default_name = path.stem
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
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
    sigma = PolyMat3([[entries[(min(i, j), max(i, j))] for j in range(3)]
                      for i in range(3)])

    raw_m = data.get("m")
    if not isinstance(raw_m, (list, tuple)) or len(raw_m) != 3:
        raise SubstitutionError("'m' block must list exactly 3 expressions")
    m = PolyVec3([parse(text, f"m entry {i + 1}") for i, text in enumerate(raw_m)])

    normal = None
    if data.get("normal") is not None:
        raw_n = data["normal"]
        if (not isinstance(raw_n, Sequence) or len(raw_n) != 3
                or not all(type(x) is int for x in raw_n) or not any(raw_n)):
            raise SubstitutionError("'normal' must be a list of 3 integers, not all zero")
        normal = tuple(raw_n)

    sub = Substitution(name, table, sigma, m, normal)
    validate_substitution(sub)
    return sub


@dataclass(frozen=True)
class RestrictedBasis:
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
    entries = []
    vanished = []
    for defn in catalog:
        p = values[defn.name]
        if not p:
            vanished.append(defn.name)
            continue
        if p.bidegree() != defn.bidegree:
            raise SubstitutionError(
                f"restricted {defn.name} has bi-degree {p.bidegree()}, "
                f"expected {defn.bidegree}; substitution is not kind-preserving")
        entries.append((defn.name, p))
    return RestrictedBasis(sub, tuple(entries), tuple(vanished))
