"""The 30 fundamental cubic invariants of a symmetric stress tensor and a
magnetization vector, as executable tensor recipes.

Shorthand used in the formula strings (s is the stress tensor, m the
magnetization vector):

  sb = dbar(s)            off-diagonal part of s
  sd = ddev(s)            diagonal part of the deviator of s
  mb = dbar(m o m)        off-diagonal part of the dyadic m o m
  md = ddev(m o m)        diagonal deviator part of m o m
  bar(x), dev(x)          the same projectors applied to x

Catalog order is fixed and load-bearing: selection policies and every
reported name list follow it.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from .tensor3 import (Entry, PolyMat3, PolyVec3, _table, dbar, ddev,
                      double_contract, outer)


class TensorParts:
    """Shared building blocks for evaluating the catalog on one (sigma, m).

    The one check of its arguments: the entries of sigma and m are of one
    kind, on one table, and sigma is symmetric.
    """

    def __init__(self, sigma: PolyMat3, m: PolyVec3):
        r1, r2, r3 = sigma.entries
        _table((*r1, *r2, *r3, *m.entries))
        if not sigma.is_symmetric():
            raise ValueError("stress tensor must be symmetric")
        self.sigma = sigma
        self.m = m
        self.tr = sigma.trace()
        self.sd = ddev(sigma)
        self.sb = dbar(sigma)
        self.sb2 = self.sb @ self.sb
        self.sb2_bar = dbar(self.sb2)
        self.sb2_dev = ddev(self.sb2)
        mm = outer(m)
        self.mb = dbar(mm)
        self.md = ddev(mm)
        # Prefixes that several recipes share.
        self.mb_sb = self.mb @ self.sb
        self.mb_sb2_bar = self.mb @ self.sb2_bar
        self.mb_sd = self.mb @ self.sd
        self.mb_sd_sb = self.mb_sd @ self.sb


def _tr(*mats: PolyMat3) -> Entry:
    """tr(mats[0] @ ... @ mats[-1]); the last product forms only its trace.

    The last factor is always a symmetric part, so tr(a @ b) = a : b^T = a : b.
    """
    prod = mats[0]
    for x in mats[1:-1]:
        prod = prod @ x
    return double_contract(prod, mats[-1])


class InvariantDef(NamedTuple):
    name: str
    label: str
    formula: str
    bidegree: tuple[int, int]
    recipe: Callable[[TensorParts], Entry]


def build_catalog() -> tuple[InvariantDef, ...]:
    return tuple(InvariantDef(*row) for row in (
        ("I010", "I_{010}", "tr(s)", (0, 1), lambda p: p.tr),
        ("I002", "I_{002}", "tr(sb^2)", (0, 2), lambda p: _tr(p.sb, p.sb)),
        ("I020", "I_{020}", "tr(sd^2)", (0, 2), lambda p: _tr(p.sd, p.sd)),
        ("I003", "I_{003}", "tr(sb^3)", (0, 3), lambda p: _tr(p.sb2, p.sb)),
        ("I012", "I_{012}", "tr(sb^2*sd)", (0, 3), lambda p: _tr(p.sb2, p.sd)),
        ("I030", "I_{030}", "tr(sd^3)", (0, 3), lambda p: _tr(p.sd, p.sd, p.sd)),
        ("I004", "I_{004}", "tr(bar(sb^2)^2)", (0, 4),
         lambda p: _tr(p.sb2_bar, p.sb2_bar)),
        ("I022", "I_{022}", "tr(sb*sd*sb*sd)", (0, 4),
         lambda p: _tr(p.sb, p.sd, p.sb, p.sd)),
        ("I014", "I_{014}", "tr(sb*bar(sb^2)*sb*sd)", (0, 5),
         lambda p: _tr(p.sb, p.sb2_bar, p.sb, p.sd)),
        ("I200", "I_{200}", "dot(m,m)", (2, 0), lambda p: p.m.dot(p.m)),
        ("I201", "I_{201}", "tr(mb*sb)", (2, 1), lambda p: _tr(p.mb, p.sb)),
        ("I210", "I_{210}", "tr(md*sd)", (2, 1), lambda p: _tr(p.md, p.sd)),
        ("I202a", "I_{202}^{a}", "tr(md*sb^2)", (2, 2), lambda p: _tr(p.md, p.sb2)),
        ("I202b", "I_{202}^{b}", "tr(mb*bar(sb^2))", (2, 2),
         lambda p: _tr(p.mb, p.sb2_bar)),
        ("I211", "I_{211}", "tr(mb*sb*sd)", (2, 2), lambda p: _tr(p.mb_sb, p.sd)),
        ("I220", "I_{220}", "tr(md*sd^2)", (2, 2), lambda p: _tr(p.md, p.sd, p.sd)),
        ("I203", "I_{203}", "tr(mb*bar(sb^2)*sb)", (2, 3),
         lambda p: _tr(p.mb_sb2_bar, p.sb)),
        ("I212a", "I_{212}^{a}", "tr(md*dev(sb^2)*sd)", (2, 3),
         lambda p: _tr(p.md, p.sb2_dev, p.sd)),
        ("I212b", "I_{212}^{b}", "tr(mb*bar(sb^2)*sd)", (2, 3),
         lambda p: _tr(p.mb_sb2_bar, p.sd)),
        ("I221", "I_{221}", "tr(mb*sd*sb*sd)", (2, 3),
         lambda p: _tr(p.mb_sd_sb, p.sd)),
        ("I204", "I_{204}", "tr(md*sb*bar(sb^2)*sb)", (2, 4),
         lambda p: _tr(p.md, p.sb, p.sb2_bar, p.sb)),
        ("I213", "I_{213}", "tr(mb*dev(sb^2)*sb*sd)", (2, 4),
         lambda p: _tr(p.mb, p.sb2_dev, p.sb, p.sd)),
        ("I222", "I_{222}", "tr(mb*sd*bar(sb^2)*sd)", (2, 4),
         lambda p: _tr(p.mb_sd, p.sb2_bar, p.sd)),
        ("I400", "I_{400}", "tr(mb^2)", (4, 0), lambda p: _tr(p.mb, p.mb)),
        ("I401", "I_{401}", "tr(mb*sb*mb)", (4, 1), lambda p: _tr(p.mb_sb, p.mb)),
        ("I410", "I_{410}", "tr(mb*sd*mb)", (4, 1), lambda p: _tr(p.mb_sd, p.mb)),
        ("I402", "I_{402}", "tr(mb*bar(sb^2)*mb)", (4, 2),
         lambda p: _tr(p.mb_sb2_bar, p.mb)),
        ("I411", "I_{411}", "tr(mb*sd*sb*mb)", (4, 2),
         lambda p: _tr(p.mb_sd_sb, p.mb)),
        ("I600", "I_{600}", "tr(mb^3)", (6, 0), lambda p: _tr(p.mb, p.mb, p.mb)),
        ("I601", "I_{601}", "tr(md*mb*md*sb)", (6, 1),
         lambda p: _tr(p.md, p.mb, p.md, p.sb)),
    ))


CATALOG: tuple[InvariantDef, ...] = build_catalog()
CATALOG_NAMES: tuple[str, ...] = tuple(defn.name for defn in CATALOG)
CATALOG_INDEX: Mapping[str, int] = {name: i for i, name in enumerate(CATALOG_NAMES)}


def evaluate_all(catalog: Sequence[InvariantDef], sigma: PolyMat3,
                 m: PolyVec3) -> dict[str, Entry]:
    """Evaluate every catalog entry on one (sigma, m), sharing the parts.

    The entries may be Polynomials or plain numbers (ints or Fractions);
    the values are of the same kind, ints when every entry is an int and
    every trace that ddev divides is a multiple of 3.
    The result preserves catalog order.  ValueError when the entries mix
    kinds or tables, or sigma is not symmetric.
    """
    parts = TensorParts(sigma, m)
    return {defn.name: defn.recipe(parts) for defn in catalog}
