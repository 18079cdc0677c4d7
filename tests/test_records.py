"""The value records: immutable, with fixed fields, defaults and repr.

Records are typing.NamedTuple classes, which cost far less to create at
import than dataclasses.  Exactly one stays a dataclass:
GeneratingSetReport, because the benchmark worker renders it with
dataclasses.asdict.  A shipped relation loads as a reduction.Relation, and
the symbolic check returns its residual Polynomial, so neither has a
record type of its own."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import mebasis
from mebasis.catalog import CATALOG, InvariantDef
from mebasis.reduction import BidegreeReport, ReductionResult, Relation
from mebasis.restriction import RestrictedBasis, Substitution, fiber_substitution
from mebasis.verify import SpotcheckOutcome, load_published, spotcheck_relations

FIELDS = {
    Relation: ("bidegree", "terms", "solved_for"),
    BidegreeReport: ("bidegree", "n_products", "n_invariants", "rank", "kernel_dim",
                     "kept", "eliminated", "n_syzygies"),
    ReductionResult: ("basis", "policy", "effective_policy", "generators",
                      "relations", "syzygies", "vanished", "reports"),
    Substitution: ("name", "table", "sigma", "m", "normal"),
    RestrictedBasis: ("substitution", "entries", "vanished"),
    InvariantDef: ("name", "label", "formula", "bidegree", "recipe"),
    SpotcheckOutcome: ("ok", "trials", "seed", "failed_trial"),
}
DEFAULTS = {(Relation, "solved_for"), (Substitution, "normal"),
            (SpotcheckOutcome, "failed_trial")}


@pytest.fixture(scope="module")
def records(bases, reductions):
    """One instance of every record type, built the way the program builds it."""
    theta = reductions["theta"]
    _, rel = load_published("theta")[0]
    return {
        Relation: theta.relations[0],
        BidegreeReport: theta.reports[0],
        ReductionResult: theta,
        Substitution: bases["theta"].substitution,
        RestrictedBasis: bases["theta"],
        InvariantDef: CATALOG[0],
        SpotcheckOutcome: spotcheck_relations([rel], bases["theta"], trials=1)[0],
    }


def test_the_dataclasses_are_exactly_the_two_that_need_to_be():
    found = set()
    for info in pkgutil.iter_modules(mebasis.__path__, "mebasis."):
        module = importlib.import_module(info.name)
        found |= {name for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == info.name
                  and dataclasses.is_dataclass(obj)}
    assert found == {"GeneratingSetReport"}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_keep_their_order_and_defaults(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == FIELDS[cls]
    defaults = {(cls, n) for n, p in params.items() if p.default is not p.empty}
    assert defaults == {d for d in DEFAULTS if d[0] is cls}
    assert all(params[n].default is None for _, n in defaults)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_refuse_attribute_assignment(cls, records):
    rec = records[cls]
    assert type(rec) is cls
    first = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_repr_names_each_field(cls, records):
    rec = records[cls]
    body = ", ".join(f"{n}={getattr(rec, n)!r}" for n in FIELDS[cls])
    assert repr(rec) == f"{cls.__name__}({body})"


def test_equality_is_field_by_field():
    # The paper policy pins generators only when rb.substitution equals the
    # fiber's own substitution, built afresh.
    assert fiber_substitution("gamma") == fiber_substitution("gamma")
    assert fiber_substitution("gamma") != fiber_substitution("theta")
    assert Relation((0, 1), ()) == Relation((0, 1), (), None)
    assert Relation((0, 1), ()) != Relation((0, 1), (), "I010")
