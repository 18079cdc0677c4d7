"""In-plane substitutions and the restricted catalog."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mebasis.catalog import CATALOG, CATALOG_NAMES
from mebasis.poly import MAG, STRESS, Polynomial, VarTable
from mebasis.restriction import (FIBERS, Substitution, SubstitutionError,
                                 custom_substitution, fiber_substitution,
                                 generic_substitution, restrict_basis,
                                 validate_substitution)
from mebasis.tensor3 import PolyMat3, PolyVec3

F = Fraction

EQ3_DOC = {
    "name": "plane-stress-e3",
    "variables": {"m1": "mag", "m2": "mag",
                  "s1": "stress", "s2": "stress", "s3": "stress"},
    "sigma": {"11": "s1", "12": "s3", "13": "0",
              "22": "s2", "23": "0", "33": "0"},
    "m": ["m1", "m2", "0"],
    "normal": [0, 0, 1],
}


def plane_vars():
    table = VarTable([("m1", MAG), ("m2", MAG),
                      ("s1", STRESS), ("s2", STRESS), ("s3", STRESS)])
    return table, {n: Polynomial.variable(table, n) for n in table.names}


# -- the three built-in fibers -------------------------------------------

def test_fiber_names():
    assert FIBERS == ("theta", "alpha_prime", "gamma")


def test_theta_shape():
    sub = fiber_substitution("theta")
    t = sub.table
    v = lambda n: Polynomial.variable(t, n)
    z = Polynomial.zero(t)
    assert sub.sigma.entries == PolyMat3(
        [[v("s1"), v("s3"), z], [v("s3"), v("s2"), z], [z, z, z]]).entries
    assert sub.m.entries == (v("m1"), v("m2"), z)
    assert sub.normal == (0, 0, 1)


def test_alpha_prime_shape():
    sub = fiber_substitution("alpha_prime")
    t = sub.table
    v = lambda n: Polynomial.variable(t, n)
    assert sub.sigma.entries == PolyMat3(
        [[v("s1"), v("s2"), -v("s2")],
         [v("s2"), -v("s3"), v("s3")],
         [-v("s2"), v("s3"), -v("s3")]]).entries
    assert sub.m.entries == (v("m1"), v("m2"), -v("m2"))
    assert sub.normal == (0, 1, 1)


def test_gamma_shape():
    sub = fiber_substitution("gamma")
    t = sub.table
    v = lambda n: Polynomial.variable(t, n)
    assert sub.sigma.entries == PolyMat3(
        [[-v("s1") - v("s2"), v("s1"), v("s2")],
         [v("s1"), -v("s1") - v("s3"), v("s3")],
         [v("s2"), v("s3"), -v("s2") - v("s3")]]).entries
    assert sub.m.entries == (v("m1"), v("m2"), -v("m1") - v("m2"))
    assert sub.normal == (1, 1, 1)


@pytest.mark.parametrize("fiber", FIBERS)
def test_plane_constraints_hold_identically(fiber):
    sub = fiber_substitution(fiber)
    n = sub.normal
    zero = Polynomial.zero(sub.table)
    for i in range(3):
        row = sum((sub.sigma[i][j] * n[j] for j in range(3)), zero)
        assert not row
    assert not sum((sub.m[i] * n[i] for i in range(3)), zero)


def test_unknown_fiber_rejected():
    with pytest.raises(SubstitutionError, match="unknown fiber"):
        fiber_substitution("delta")


# -- validation ----------------------------------------------------------

def test_validate_rejects_asymmetric_sigma():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    sigma = PolyMat3([[v["s1"], v["s3"], z],
                      [v["s2"], v["s1"], z],
                      [z, z, z]])
    sub = Substitution("bad", table, sigma, PolyVec3([v["m1"], v["m2"], z]))
    with pytest.raises(SubstitutionError, match="not symmetric"):
        validate_substitution(sub)


def test_validate_rejects_nonlinear_entry():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    q = v["s1"] ** 2
    sigma = PolyMat3([[q, z, z], [z, z, z], [z, z, z]])
    sub = Substitution("bad", table, sigma, PolyVec3([v["m1"], z, z]))
    with pytest.raises(SubstitutionError, match="linear in stress"):
        validate_substitution(sub)


def test_validate_rejects_kind_mixing_in_m():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    sigma = PolyMat3([[v["s1"], z, z], [z, z, z], [z, z, z]])
    sub = Substitution("bad", table, sigma, PolyVec3([v["s2"], z, z]))
    with pytest.raises(SubstitutionError, match="magnetization"):
        validate_substitution(sub)


def test_validate_rejects_violated_normal():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    sigma = PolyMat3([[v["s1"], z, z], [z, z, z], [z, z, z]])
    sub = Substitution("bad", table, sigma,
                       PolyVec3([v["m1"], z, z]), normal=(1, 0, 0))
    with pytest.raises(SubstitutionError, match="sigma . n"):
        validate_substitution(sub)


# -- restricted bases ----------------------------------------------------

def test_theta_vanished_names(theta_basis):
    assert theta_basis.vanished == (
        "I003", "I004", "I014", "I202b", "I203", "I212b", "I204", "I222",
        "I401", "I402", "I411", "I600")
    assert len(theta_basis.entries) == 18


def test_theta_survivor_names(theta_basis):
    assert tuple(theta_basis.as_dict()) == (
        "I010", "I002", "I020", "I012", "I030", "I022", "I200", "I201",
        "I210", "I202a", "I211", "I220", "I212a", "I221", "I213", "I400",
        "I410", "I601")


@pytest.mark.parametrize("fiber", ["alpha_prime", "gamma"])
def test_other_fibers_have_no_vanishing(bases, fiber):
    rb = bases[fiber]
    assert rb.vanished == ()
    assert tuple(rb.as_dict()) == CATALOG_NAMES


@pytest.mark.parametrize("fiber", FIBERS)
def test_survivors_plus_vanished_cover_catalog(bases, fiber):
    rb = bases[fiber]
    assert len(rb.entries) + len(rb.vanished) == 30
    assert set(rb.as_dict()) | set(rb.vanished) == set(CATALOG_NAMES)


@pytest.mark.parametrize("fiber", FIBERS)
def test_restriction_preserves_bidegrees(bases, fiber):
    from mebasis.catalog import CATALOG_INDEX
    for name, p in bases[fiber].entries:
        assert p.bidegree() == CATALOG[CATALOG_INDEX[name]].bidegree, name


def test_theta_product_identity(theta_basis):
    # On the plane-stress subspace the (0,3) mixed invariant collapses to
    # a product of lower ones: I012 = (1/6) * I002 * tr(sigma).
    values = theta_basis.as_dict()
    i012, i002, i010 = values["I012"], values["I002"], values["I010"]
    assert i012 == F(1, 6) * i002 * i010


def test_poly_lookup_covers_vanished_names(theta_basis):
    values = theta_basis.as_dict()
    assert "I003" in theta_basis.vanished and "I003" not in values
    assert "nope" not in theta_basis.vanished and "nope" not in values


def test_generic_restriction_keeps_all_thirty():
    rb = restrict_basis(CATALOG, generic_substitution())
    assert rb.vanished == ()
    assert tuple(rb.as_dict()) == CATALOG_NAMES


# -- custom substitution files -------------------------------------------

def test_custom_mapping_reproduces_theta():
    sub = custom_substitution(EQ3_DOC)
    ref = fiber_substitution("theta")
    assert sub.name == "plane-stress-e3"
    assert sub.normal == ref.normal
    assert sub.sigma.entries == ref.sigma.entries
    assert sub.m.entries == ref.m.entries


def test_custom_file_round_trip(tmp_path):
    path = tmp_path / "eq3.sub"
    path.write_text(json.dumps(EQ3_DOC))
    sub = custom_substitution(path)
    rb = restrict_basis(CATALOG, sub)
    ref = restrict_basis(CATALOG, fiber_substitution("theta"))
    assert rb.vanished == ref.vanished
    assert rb.entries == ref.entries


def test_custom_name_defaults_to_file_stem(tmp_path):
    doc = dict(EQ3_DOC)
    del doc["name"]
    path = tmp_path / "my-plane.json"
    path.write_text(json.dumps(doc))
    assert custom_substitution(path).name == "my-plane"


def test_custom_rejects_conflicting_mirror_entries():
    doc = dict(EQ3_DOC)
    doc["sigma"] = dict(doc["sigma"], **{"21": "s1"})
    with pytest.raises(SubstitutionError):
        custom_substitution(doc)


def test_custom_accepts_agreeing_mirror_entries():
    doc = dict(EQ3_DOC)
    doc["sigma"] = dict(doc["sigma"], **{"21": "s3"})
    assert custom_substitution(doc).sigma.entries == \
        fiber_substitution("theta").sigma.entries


def test_custom_rejects_missing_position():
    doc = dict(EQ3_DOC)
    doc["sigma"] = {k: v for k, v in doc["sigma"].items() if k != "23"}
    with pytest.raises(SubstitutionError, match="23"):
        custom_substitution(doc)


def test_custom_rejects_wrong_m_length():
    doc = dict(EQ3_DOC)
    doc["m"] = ["m1", "m2"]
    with pytest.raises(SubstitutionError):
        custom_substitution(doc)


def test_custom_rejects_bad_kind():
    doc = dict(EQ3_DOC)
    doc["variables"] = dict(doc["variables"], s3="shear")
    with pytest.raises(SubstitutionError):
        custom_substitution(doc)


def test_custom_rejects_unreadable_file(tmp_path):
    with pytest.raises(SubstitutionError, match="cannot read"):
        custom_substitution(tmp_path / "absent.json")


def test_custom_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SubstitutionError):
        custom_substitution(path)


def test_custom_rejects_unknown_top_level_keys():
    # A misspelt "normal" used to load with no plane check at all.
    doc = {k: v for k, v in EQ3_DOC.items() if k != "normal"}
    with pytest.raises(SubstitutionError, match="unknown key 'nomal'"):
        custom_substitution(dict(doc, nomal=[1, 1, 1]))
    assert custom_substitution(doc).normal is None


def test_custom_rejects_m_given_as_a_string():
    # A 3-character string is a sequence of 3 expressions to a naive
    # check; "000" used to load as the zero magnetization.
    doc = dict(EQ3_DOC, m="000")
    with pytest.raises(SubstitutionError, match="'m' block"):
        custom_substitution(doc)


@pytest.mark.parametrize("text", ["(" * 400 + "s1" + ")" * 400, "2^99999999",
                                  "9" * 5000 + "*s1",
                                  "*".join(["9" * 300] * 16) + "*s1^2"],
                         ids=["nesting", "power", "literal", "product"])
def test_custom_rejects_runaway_expressions(text):
    doc = dict(EQ3_DOC, sigma=dict(EQ3_DOC["sigma"], **{"11": text}))
    with pytest.raises(SubstitutionError, match="sigma entry 11"):
        custom_substitution(doc)


# -- fuzzed substitution documents ---------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=10)
EXPRESSIONS = st.text(alphabet="ms123x()+-*/^ 0", max_size=16)
BLOCK_KEYS = (st.sampled_from(["11", "12", "21", "33", "44", "1", "m1", "s4"])
              | st.text(max_size=3))


@st.composite
def malformed_documents(draw):
    """EQ3_DOC with up to three blocks dropped, replaced by arbitrary JSON,
    or given one changed entry."""
    doc = copy.deepcopy(EQ3_DOC)
    for key in draw(st.lists(st.sampled_from(sorted(EQ3_DOC)), min_size=1,
                             max_size=3)):
        action = draw(st.sampled_from(["drop", "replace", "entry"]))
        block = doc.get(key)
        if action == "drop":
            doc.pop(key, None)
        elif action == "replace" or not isinstance(block, (dict, list)):
            doc[key] = draw(JSON_VALUES)
        elif isinstance(block, dict):
            block[draw(BLOCK_KEYS)] = draw(
                EXPRESSIONS | st.sampled_from(["mag", "stress"]) | JSON_VALUES)
        else:
            i = draw(st.integers(0, len(block)))
            block[i:i + 1] = [draw(EXPRESSIONS | JSON_VALUES)]
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(malformed_documents()
       | st.dictionaries(st.sampled_from(sorted(EQ3_DOC)), JSON_VALUES)
       | JSON_VALUES)
def test_fuzzed_documents_raise_only_substitution_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-sub.json"
    path.write_text(json.dumps(doc))
    try:
        sub = custom_substitution(path)
    except SubstitutionError:
        return
    validate_substitution(sub)
