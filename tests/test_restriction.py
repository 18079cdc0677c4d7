"""In-plane substitutions and the restricted catalog."""

import copy
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mebasis import poly, restriction, verify
from mebasis.catalog import CATALOG, CATALOG_NAMES, evaluate_all
from mebasis.poly import MAG, STRESS, Polynomial, VarTable, parse_polynomial
from mebasis.restriction import (BUILTIN_DOCUMENTS, FIBERS, Substitution,
                                 SubstitutionError, custom_substitution,
                                 fiber_substitution, generic_substitution,
                                 restrict_basis)

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
    return table, {n: parse_polynomial(n, table) for n in table.names}


# -- the three built-in fibers -------------------------------------------

def test_fiber_names():
    assert FIBERS == ("theta", "alpha_prime", "gamma")


def test_theta_shape():
    sub = fiber_substitution("theta")
    t = sub.table
    v = lambda n: parse_polynomial(n, t)
    z = Polynomial.zero(t)
    assert sub.sigma == ((v("s1"), v("s3"), z), (v("s3"), v("s2"), z), (z, z, z))
    assert sub.m == (v("m1"), v("m2"), z)
    assert sub.normal == (0, 0, 1)


def test_alpha_prime_shape():
    sub = fiber_substitution("alpha_prime")
    t = sub.table
    v = lambda n: parse_polynomial(n, t)
    assert sub.sigma == ((v("s1"), v("s2"), -v("s2")),
                         (v("s2"), -v("s3"), v("s3")),
                         (-v("s2"), v("s3"), -v("s3")))
    assert sub.m == (v("m1"), v("m2"), -v("m2"))
    assert sub.normal == (0, 1, 1)


def test_gamma_shape():
    sub = fiber_substitution("gamma")
    t = sub.table
    v = lambda n: parse_polynomial(n, t)
    assert sub.sigma == ((-v("s1") - v("s2"), v("s1"), v("s2")),
                         (v("s1"), -v("s1") - v("s3"), v("s3")),
                         (v("s2"), v("s3"), -v("s2") - v("s3")))
    assert sub.m == (v("m1"), v("m2"), -v("m1") - v("m2"))
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
    with pytest.raises(SubstitutionError, match="unknown fiber"):
        fiber_substitution("generic")  # a built-in document, but no fiber


def built_by_hand(name):
    """The built-in substitutions assembled from Polynomials directly,
    without the document parser: the reference the documents must match."""
    if name == "generic":
        table = VarTable([("m1", MAG), ("m2", MAG), ("m3", MAG),
                          ("s11", STRESS), ("s22", STRESS), ("s33", STRESS),
                          ("s12", STRESS), ("s13", STRESS), ("s23", STRESS)])
        v = {n: parse_polynomial(n, table) for n in table.names}
        sigma = ((v["s11"], v["s12"], v["s13"]),
                 (v["s12"], v["s22"], v["s23"]),
                 (v["s13"], v["s23"], v["s33"]))
        return Substitution("generic", table, sigma, (v["m1"], v["m2"], v["m3"]))
    table, v = plane_vars()
    m1, m2, s1, s2, s3 = (v[n] for n in table.names)
    z = Polynomial.zero(table)
    sigma, m, normal = {
        "theta": (((s1, s3, z), (s3, s2, z), (z, z, z)), (m1, m2, z), (0, 0, 1)),
        "alpha_prime": (((s1, s2, -s2), (s2, -s3, s3), (-s2, s3, -s3)),
                        (m1, m2, -m2), (0, 1, 1)),
        "gamma": (((-s1 - s2, s1, s2), (s1, -s1 - s3, s3), (s2, s3, -s2 - s3)),
                  (m1, m2, -m1 - m2), (1, 1, 1)),
    }[name]
    return Substitution(name, table, sigma, m, normal)


@pytest.mark.parametrize("name", [*FIBERS, "generic"])
def test_builtin_document_gives_the_hand_built_substitution(name):
    sub = generic_substitution() if name == "generic" else fiber_substitution(name)
    ref = built_by_hand(name)
    for field in Substitution._fields:
        assert getattr(sub, field) == getattr(ref, field), field


def test_generic_document_is_validated(monkeypatch):
    doc = dict(BUILTIN_DOCUMENTS["generic"], m=["m1", "s11", "m3"])
    monkeypatch.setitem(BUILTIN_DOCUMENTS, "generic", doc)
    with pytest.raises(SubstitutionError, match="linear in magnetization"):
        generic_substitution()


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


# -- restriction on integer polynomials -----------------------------------

# One plane normal per orbit class of the cubic group with an integer basis
# (u, v) of the plane, and the substitution m = m1*u + m2*v,
# sigma = s1*u(x)u + s2*v(x)v + s3*(u(x)v + v(x)u) on it.
ORBIT_PLANES = {
    "001": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "011": ((0, 1, 1), (1, 0, 0), (0, 1, -1)),
    "111": ((1, 1, 1), (1, -1, 0), (0, 1, -1)),
    "123": ((1, 2, 3), (2, -1, 0), (0, 3, -2)),
}


def orbit_document(cls):
    n, u, v = ORBIT_PLANES[cls]
    return {
        "name": f"plane-{cls}",
        "variables": [["m1", "mag"], ["m2", "mag"],
                      ["s1", "stress"], ["s2", "stress"], ["s3", "stress"]],
        "sigma": {f"{i + 1}{j + 1}": f"{u[i] * u[j]}*s1 + {v[i] * v[j]}*s2 + "
                                     f"{u[i] * v[j] + v[i] * u[j]}*s3"
                  for i in range(3) for j in range(i, 3)},
        "m": [f"{u[i]}*m1 + {v[i]}*m2" for i in range(3)],
        "normal": list(n),
    }


def orbit_plane(cls):
    return custom_substitution(orbit_document(cls))


def test_the_parser_multiplies_nothing(monkeypatch):
    # Each term of an entry or a shipped relation is one monomial times one
    # literal, so the length of the text bounds the parser's work.  The
    # plane check (sigma . n and m . n) multiplies, outside the parser.
    calls, parsing = {True: 0, False: 0}, [False]
    kernel, parse = poly.integer_product, poly.parse_polynomial

    def counted(a, b):
        calls[parsing[0]] += 1
        return kernel(a, b)

    def parse_counted(text, table):
        parsing[0] = True
        try:
            return parse(text, table)
        finally:
            parsing[0] = False

    monkeypatch.setattr(poly, "integer_product", counted)
    monkeypatch.setattr(restriction, "parse_polynomial", parse_counted)
    monkeypatch.setattr(verify, "parse_polynomial", parse_counted)
    for name, doc in BUILTIN_DOCUMENTS.items():
        custom_substitution({"name": name, **doc})
    for cls in ORBIT_PLANES:
        custom_substitution(orbit_document(cls))
    assert sum(len(verify.load_published(fiber)) for fiber in FIBERS) == 48
    assert calls == {True: 0, False: calls[False]} and calls[False] > 0


# Denominators in sigma and in m, and a zero first row of sigma.
RATIONAL_E1 = {
    "name": "rational-e1",
    "variables": {"m1": "mag", "m2": "mag",
                  "s1": "stress", "s2": "stress", "s3": "stress"},
    "sigma": {"11": "0", "12": "0", "13": "0",
              "22": "1/2*s1 + s3", "23": "2/5*s3", "33": "s2 - 1/6*s1"},
    "m": ["0", "1/3*m1", "m2 - 1/7*m1"],
    "normal": [1, 0, 0],
}

SUBSTITUTIONS = {
    **{fiber: lambda fiber=fiber: fiber_substitution(fiber) for fiber in FIBERS},
    "generic": generic_substitution,
    **{f"plane-{cls}": lambda cls=cls: orbit_plane(cls) for cls in ORBIT_PLANES},
    "plane_123.sub.json": lambda: custom_substitution(
        Path(__file__).parent / "golden" / "plane_123.sub.json"),
    "rational-e1": lambda: custom_substitution(RATIONAL_E1),
}


@pytest.mark.parametrize("name", SUBSTITUTIONS)
def test_integer_restriction_equals_the_fraction_recipes(name):
    sub = SUBSTITUTIONS[name]()
    rb = restrict_basis(CATALOG, sub)
    reference = evaluate_all(CATALOG, sub.sigma, sub.m)
    assert rb.vanished == tuple(n for n, p in reference.items() if not p)
    assert [n for n, _ in rb.entries] == [n for n, p in reference.items() if p]
    for n, p in rb.entries:
        assert p.table == sub.table
        assert p.terms == reference[n].terms, n
        assert all(type(c) is F for c in p.terms.values()), n


def test_recipes_run_on_the_substitution_polynomials(monkeypatch):
    # restrict_basis hands evaluate_all the substitution's own sigma and m
    # and keeps the values it gets back: no scaling, no second form.
    import mebasis.catalog as catalog_mod
    seen = []
    original = catalog_mod.evaluate_all

    def capture(catalog, sigma, m):
        values = original(catalog, sigma, m)
        seen.append((sigma, m, values))
        return values

    monkeypatch.setattr(catalog_mod, "evaluate_all", capture)
    sub = custom_substitution(RATIONAL_E1)
    rb = restrict_basis(CATALOG, sub)
    ((sigma, m, values),) = seen
    assert sigma is sub.sigma and m is sub.m
    assert all(p is values[n] for n, p in rb.entries)
    # The rational coefficients stay over one denominator per invariant,
    # in lowest terms.
    assert any(p.den > 1 for _, p in rb.entries)
    assert all(p.den > 0 and gcd(p.den, *p.nums.values()) == 1 and all(p.nums.values())
               for _, p in rb.entries)


def test_restriction_refuses_a_substitution_that_swaps_kinds():
    # Built by hand, so unchecked by the loader: sigma in a mag variable.
    table, v = plane_vars()
    z = Polynomial.zero(table)
    sub = Substitution("swapped", table,
                       ((v["m1"], z, z), (z, z, z), (z, z, z)),
                       (v["m2"], z, z))
    with pytest.raises(SubstitutionError, match=r"I010 has bi-degree \(1, 0\), "
                                                 r"expected \(0, 1\)"):
        restrict_basis(CATALOG, sub)


def test_restriction_refuses_an_asymmetric_sigma():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    sub = Substitution("skew", table,
                       ((v["s1"], v["s2"], z), (z, z, z), (z, z, z)),
                       (v["m1"], z, z))
    with pytest.raises(ValueError, match="symmetric"):
        restrict_basis(CATALOG, sub)


# -- custom substitution files -------------------------------------------

def test_custom_mapping_reproduces_theta():
    sub = custom_substitution(EQ3_DOC)
    ref = fiber_substitution("theta")
    assert sub.name == "plane-stress-e3"
    assert sub.normal == ref.normal
    assert sub.sigma == ref.sigma
    assert sub.m == ref.m


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
    assert custom_substitution(doc).sigma == fiber_substitution("theta").sigma


def test_custom_rejects_missing_position():
    doc = dict(EQ3_DOC)
    doc["sigma"] = {k: v for k, v in doc["sigma"].items() if k != "23"}
    with pytest.raises(SubstitutionError, match="23"):
        custom_substitution(doc)


def test_custom_names_a_nonlinear_sigma_entry():
    doc = dict(EQ3_DOC, sigma=dict(EQ3_DOC["sigma"], **{"23": "s1^2"}))
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == \
        "sigma entry (2,3) must be linear in stress variables, got s1^2"


def test_custom_names_a_nonlinear_m_entry():
    doc = dict(EQ3_DOC, m=["m1", "m1*s1", "0"])
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == \
        "m entry 2 must be linear in magnetization variables, got m1*s1"


def test_custom_reads_a_mirrored_key_as_its_upper_position():
    # Key "32" stands for position (2,3), so the message names (2,3).
    sigma = {k: v for k, v in EQ3_DOC["sigma"].items() if k != "23"}
    doc = dict(EQ3_DOC, sigma=dict(sigma, **{"32": "s1^2"}))
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == \
        "sigma entry (2,3) must be linear in stress variables, got s1^2"


def test_custom_names_the_first_nonlinear_sigma_entry_in_row_major_order():
    # (3,1) is given last and (2,2) first; (1,3) comes first row by row.
    # m and the plane fail too, but sigma is checked first.
    sigma = {"22": "s1*s2", "11": "s1", "12": "s3", "23": "0", "33": "0",
             "31": "m1"}
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(dict(EQ3_DOC, sigma=sigma, m=["s1", "m2", "m1"]))
    assert str(info.value) == \
        "sigma entry (1,3) must be linear in stress variables, got m1"


@pytest.mark.parametrize("m", [["m1", "m2"], ["m1", "m2", "0", "0"]], ids=["2", "4"])
def test_custom_reports_the_m_block_before_sigma_linearity(m):
    doc = dict(EQ3_DOC, sigma=dict(EQ3_DOC["sigma"], **{"11": "s1^2"}), m=m)
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == "'m' block must list exactly 3 expressions"


def test_custom_reports_linearity_before_the_plane():
    # Both m entries fail, and so does m . n; the first m entry is named.
    doc = dict(EQ3_DOC, m=["s1", "s2", "m1"])
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == \
        "m entry 1 must be linear in magnetization variables, got s1"


@pytest.mark.parametrize("key, component", [("13", 1), ("23", 2), ("33", 3)])
def test_custom_names_the_component_of_sigma_off_the_plane(key, component):
    doc = dict(EQ3_DOC, sigma=dict(EQ3_DOC["sigma"], **{key: "s1"}))
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == f"sigma . n has nonzero component {component}"


def test_custom_rejects_m_off_the_plane():
    doc = dict(EQ3_DOC, m=["m1", "m2", "m1"])
    with pytest.raises(SubstitutionError) as info:
        custom_substitution(doc)
    assert str(info.value) == "m . n is nonzero"


def test_custom_rejects_a_sigma_position_off_the_grid():
    doc = dict(EQ3_DOC, sigma=dict(EQ3_DOC["sigma"], **{"14": "0"}))
    with pytest.raises(SubstitutionError, match="bad sigma key '14'"):
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


@pytest.mark.parametrize("digits, ok", [(300, True), (301, False)])
def test_custom_file_integers_are_bounded_like_literals(tmp_path, digits, ok):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(EQ3_DOC).replace("[0, 0, 1]", f"[0, 0, {'9' * digits}]"))
    if ok:
        assert custom_substitution(path).normal == (0, 0, 10 ** digits - 1)
    else:
        with pytest.raises(SubstitutionError, match="over 300 digits"):
            custom_substitution(path)


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
    assert_substitution_invariants(sub)


def assert_substitution_invariants(sub):
    """What every loaded Substitution holds, checked from its fields alone:
    a symmetric 3x3 sigma and 3 entries of m, all Polynomials on sub.table,
    sigma's linear in stress and m's in magnetization variables (or zero),
    and a normal, if any, that annihilates sigma and m."""
    sigma, m, table = sub.sigma, sub.m, sub.table
    assert len(sigma) == 3 and all(len(row) == 3 for row in sigma) and len(m) == 3
    assert all(sigma[i][j] == sigma[j][i] for i in range(3) for j in range(i))
    for entries, kind in (((*sigma[0], *sigma[1], *sigma[2]), STRESS), (m, MAG)):
        for e in entries:
            assert isinstance(e, Polynomial) and e.table == table
            for mono in e.terms:
                assert sum(mono) == 1 and table.kinds[mono.index(1)] == kind
    if sub.normal is not None:
        zero = Polynomial.zero(table)
        for row in (*sigma, m):
            assert not sum((x * c for x, c in zip(row, sub.normal)), zero)


@pytest.mark.parametrize("name", SUBSTITUTIONS)
def test_every_loaded_substitution_holds_the_invariants(name):
    assert_substitution_invariants(SUBSTITUTIONS[name]())


def test_the_invariant_oracle_refuses_each_broken_invariant():
    table, v = plane_vars()
    z = Polynomial.zero(table)
    theta = fiber_substitution("theta")
    for sub in (theta._replace(m=(v["m1"], v["m2"])),
                theta._replace(sigma=((v["s1"], v["s2"], z), (z, z, z), (z, z, z))),
                theta._replace(table=VarTable([("m1", MAG), ("s1", STRESS)])),
                theta._replace(m=(v["s1"], z, z)),
                theta._replace(m=(v["m1"] * v["m2"], z, z)),
                theta._replace(normal=(1, 0, 0))):
        with pytest.raises(AssertionError):
            assert_substitution_invariants(sub)
