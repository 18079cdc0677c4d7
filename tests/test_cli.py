"""Command-line interface: payload shapes, formats, exit codes, stability."""

import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mebasis.cli as cli
import mebasis.verify as verify_mod
from mebasis import __version__
from mebasis.catalog import CATALOG, CATALOG_NAMES
from mebasis.cli import main
from mebasis.poly import product_str
from mebasis.reduction import POLICIES, PolicyConflictError, Relation, reduce_basis
from mebasis.restriction import (BUILTIN_DOCUMENTS, FIBERS, custom_substitution,
                                 generic_substitution, restrict_basis)
from mebasis.verify import published_relation

GOLDEN = Path(__file__).with_name("golden")
PLANE_123 = GOLDEN / "plane_123.sub.json"

EQ3_TEXT = json.dumps({
    "name": "plane-stress-e3",
    "variables": {"m1": "mag", "m2": "mag",
                  "s1": "stress", "s2": "stress", "s3": "stress"},
    "sigma": {"11": "s1", "12": "s3", "13": "0",
              "22": "s2", "23": "0", "33": "0"},
    "m": ["m1", "m2", "0"],
    "normal": [0, 0, 1],
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- JSON rendering --------------------------------------------------------

def test_json_rendering_matches_json_dumps_with_indent():
    # Two spaces of indent and one trailing newline; json.dumps does the rest.
    buf = io.StringIO()
    cli.write_json({"a": [1, {"b": None}], "c": {}}, buf)
    assert buf.getvalue() == \
        '{\n  "a": [\n    1,\n    {\n      "b": null\n    }\n  ],\n  "c": {}\n}\n'


def json_native(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and json_native(v) for k, v in value.items())
    if type(value) is list:
        return all(map(json_native, value))
    return value is None or type(value) in (str, int, bool)


def test_every_payload_holds_only_json_native_values(monkeypatch, bases):
    # json.dumps would write a float, a tuple or an int key, and the
    # reports must not depend on how it does.
    payloads = []
    monkeypatch.setattr(cli, "write_json", lambda value, stream: payloads.append(value))
    commands = [["catalog"], *(["verify", "--fiber", f] for f in FIBERS),
                *(["union", "--policy", p] for p in POLICIES)]
    for argv in commands:
        assert main([*argv, "--format", "json"]) == 0
    plane = restrict_basis(CATALOG, custom_substitution(PLANE_123))
    payloads += [cli.reduce_payload(reduce_basis(rb)) for rb in [*bases.values(), plane]]
    assert len(payloads) == 11
    assert all(map(json_native, payloads))


class RecordingStdout:
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_reduce_json_is_written_in_one_write(monkeypatch):
    # main also writes argparse's captured text, empty here.
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["reduce", "--fiber", "alpha_prime", "--format", "json"]) == 0
    assert [w for w in stdout.writes if w] == \
        [(GOLDEN / "reduce_alpha_prime_paper.json").read_text()]


class ShortWriteSink(io.RawIOBase):
    """A raw stream that takes at most `chunk` bytes per write, as a pipe may."""

    def __init__(self, chunk):
        self.chunk = chunk
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data[:self.chunk]))
        return len(self.writes[-1])


@pytest.mark.parametrize("chunk", [16, 4096])
def test_reduce_json_is_written_in_bounded_chunks(monkeypatch, chunk):
    # The one write of the report reaches the sink in pieces of at most
    # `chunk` bytes, and none is lost or repeated.
    sink = ShortWriteSink(chunk)
    stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["reduce", "--fiber", "alpha_prime", "--format", "json"]) == 0
    golden = (GOLDEN / "reduce_alpha_prime_paper.json").read_bytes()
    assert b"".join(sink.writes) == golden
    assert len(sink.writes) >= len(golden) // chunk
    assert max(map(len, sink.writes)) <= chunk


def relation_payload(rel: Relation) -> dict:
    """A Relation's report entry as plain data: the reference that
    write_reduce_json's Relation template must match byte for byte."""
    entry = {
        "bidegree": list(rel.bidegree),
        "terms": [{"factors": list(f), "coefficient": str(c)} for f, c in rel.terms],
        "equation": rel.equation_str(),
    }
    if rel.solved_for is not None:
        entry["solved_for"] = rel.solved_for
        entry["solved"] = rel.solved_str()
    return entry


# Text with quotes, backslashes, control characters and non-ASCII drawn often.
json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀 '),
                              st.characters()), max_size=8)

# Either sign, up to 10**5000, drawn from little entropy.
coefficients = st.builds(lambda sign, k, r: sign * (10 ** k - r), st.sampled_from([1, -1]),
                         st.integers(1, 5000), st.integers(0, 9))


@st.composite
def relations(draw):
    # A relation has a term, and a term a factor.
    terms = draw(st.lists(st.tuples(st.lists(json_text, min_size=1, max_size=4).map(tuple),
                                    coefficients),
                          min_size=1, max_size=6))
    solved_for = draw(st.none() | json_text)
    if solved_for is not None:
        # A solved relation holds its name as a bare factor, coefficient > 0.
        at = draw(st.integers(0, len(terms) - 1))
        terms[at] = ((solved_for,), abs(draw(coefficients)))
    bidegree = draw(st.tuples(st.integers(0, 12), st.integers(0, 12)))
    return Relation(bidegree, tuple(terms), solved_for)


@settings(max_examples=100, deadline=None)
@given(st.lists(relations(), max_size=4), st.lists(relations(), max_size=4))
@example([Relation((2, 1), ((("I010", "I010", "I101"), -(10 ** 5000)),
                            (("I2\"1\n1",), 10 ** 5000)), "I2\"1\n1")],
         [Relation((0, 3), ((("é",), 3), (("é", "é"), -1)))])
def check_relation_entries(base, rels, syzygies):
    result = base._replace(relations=tuple(rels), syzygies=tuple(syzygies))
    payload = cli.reduce_payload(result)
    payload["result"]["relations"] = [relation_payload(r) for r in rels]
    payload["result"]["syzygies"] = [relation_payload(r) for r in syzygies]
    stdout = RecordingStdout()
    cli.write_reduce_json(result, stdout)
    assert stdout.writes == [json.dumps(payload, indent=2) + "\n"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int-to-text digit limit exists from CPython 3.10.7")
def test_relation_entries_match_json_dumps_of_their_plain_entries(reductions):
    # Lifted around the whole search, so a failing example can be printed.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        check_relation_entries(reductions["theta"])
    finally:
        sys.set_int_max_str_digits(limit)


# -- reduce --------------------------------------------------------------

def test_reduce_json_shape(capsys):
    code, out, err = run(capsys, "reduce", "--fiber", "theta",
                         "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["tool"] == {"name": "mebasis", "version": __version__}
    config = payload["config"]
    assert config["substitution"] == "theta"
    assert config["policy"] == "paper"
    assert config["effective_policy"] == "paper"
    assert set(config) == {"substitution", "policy", "effective_policy"}
    result = payload["result"]
    assert len(result["generators"]) == 7
    assert len(result["relations"]) == 11
    assert len(result["vanished"]) == 12
    assert result["counts"] == {"generators": 7, "relations": 11,
                                "vanished": 12}
    solved = {r["solved_for"]: r["solved"] for r in result["relations"]}
    assert solved["I012"] == "I012 = 1/6*(I002*I010)"
    for rep in result["per_bidegree"]:
        assert rep["columns"] == rep["products"] + rep["invariants"]
        assert rep["rank"] + rep["kernel_dim"] == rep["columns"]


def test_reduce_text_mentions_counts(capsys):
    code, out, _ = run(capsys, "reduce", "--fiber", "gamma")
    assert code == 0
    assert "generators (8):" in out
    assert "relations (22):" in out
    assert "vanished (0): none" in out


def test_reduce_latex_renders_names(capsys):
    code, out, _ = run(capsys, "reduce", "--fiber", "theta",
                       "--format", "latex")
    assert code == 0
    assert r"\operatorname{tr}\boldsymbol{\sigma}" in out
    assert "I_{400}" in out
    assert r"\begin{align*}" in out


def test_reduce_latex_superscripted_variants(capsys):
    code, out, _ = run(capsys, "reduce", "--fiber", "alpha_prime",
                       "--format", "latex")
    assert code == 0
    assert "I_{202}^{a}" in out


# Every invariant restricts to zero on it.
ALL_ZERO = {"name": "all-zero", "variables": {"m1": "mag", "s1": "stress"},
            "sigma": dict.fromkeys(("11", "12", "13", "22", "23", "33"), "0"),
            "m": ["0", "0", "0"]}


@pytest.mark.parametrize("doc", ["generic", "all-zero"])
def test_reduce_prints_an_empty_list_as_none(tmp_path, capsys, doc):
    # Generic 3D keeps all 30 invariants and solves for none; the all-zero
    # document keeps none.  An empty align* is a TeX error, so LaTeX gives
    # an empty list one "none" comment line, and text a "none".
    fiber = write_custom(tmp_path, ALL_ZERO if doc == "all-zero" else BUILTIN_DOCUMENTS["generic"])
    code, out, _ = run(capsys, "reduce", "--fiber", fiber, "--format", "latex")
    gens = [cli.latex_name(n) for n in CATALOG_NAMES] if doc == "generic" else []
    head = ["% generators", ",\\quad ".join(f"${g}$" for g in gens)] if gens else \
        ["% generators: none"]
    assert code == 0
    assert out.splitlines() == head + ["% relations: none"]
    code, out, _ = run(capsys, "reduce", "--fiber", fiber)
    names = ", ".join(CATALOG_NAMES)
    assert code == 0
    assert f"generators ({len(gens)}): {names if gens else 'none'}\nrelations (0):\n" in out
    assert f"vanished ({30 - len(gens)}): {'none' if gens else names}\n" in out


def test_reduce_custom_file_matches_theta(tmp_path, capsys):
    path = tmp_path / "eq3.sub"
    path.write_text(EQ3_TEXT)
    code, out, _ = run(capsys, "reduce", "--fiber", f"custom:{path}",
                       "--format", "json")
    assert code == 0
    custom = json.loads(out)
    code, out, _ = run(capsys, "reduce", "--fiber", "theta",
                       "--format", "json")
    theta = json.loads(out)
    assert custom["config"]["substitution"] == "plane-stress-e3"
    # No pinned keep-list applies to a file-supplied parameterization, so
    # the paper policy degrades to table-order; on this subspace the two
    # coincide and the result payload is identical.
    assert custom["config"]["effective_policy"] == "table-order"
    assert theta["config"]["effective_policy"] == "paper"
    assert custom["result"] == theta["result"]


def test_reduce_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "reduce", "--fiber", "alpha_prime",
                      "--format", "json")
    _, second, _ = run(capsys, "reduce", "--fiber", "alpha_prime",
                       "--format", "json")
    assert first == second


def test_a_report_renders_each_distinct_product_once(capsys, monkeypatch):
    # The relations and syzygies of alpha_prime repeat about half of their products.
    rendered = []

    def counted(factors, *args):
        rendered.append(factors)
        return product_str(factors, *args)

    monkeypatch.setattr(cli, "product_str", counted)
    code, out, _ = run(capsys, "reduce", "--fiber", "alpha_prime", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "reduce_alpha_prime_paper.json").read_text()
    result = json.loads(out)["result"]
    terms = [t for rel in result["relations"] + result["syzygies"] for t in rel["terms"]]
    assert (len(rendered), len(terms)) == (109, 226)
    assert len(set(rendered)) == 109


@pytest.mark.parametrize("policy", ["paper", "table-order", "reverse-table-order"])
def test_report_equations_match_the_unmemoized_equation(bases, policy):
    subs = [generic_substitution(), custom_substitution(PLANE_123)]
    for rb in [*bases.values(), *(restrict_basis(CATALOG, sub) for sub in subs)]:
        result = reduce_basis(rb, policy=policy)
        buf = io.StringIO()
        cli.write_reduce_json(result, buf)
        payload = json.loads(buf.getvalue())["result"]
        for key in ("relations", "syzygies"):
            assert ([entry["equation"] for entry in payload[key]]
                    == [rel.equation_str() for rel in getattr(result, key)])
        assert ([entry["solved"] for entry in payload["relations"]]
                == [rel.solved_str() for rel in result.relations])
        text = cli.render_reduce_text(result).splitlines()
        solved = [f"  {rel.solved_str()}" for rel in result.relations]
        start = text.index(f"relations ({len(solved)}):") + 1
        assert text[start:start + len(solved)] == solved
        syzygies = [f"  {syz.equation_str()}" for syz in result.syzygies]
        if syzygies:
            start = text.index(f"product syzygies ({len(syzygies)}):") + 1
            assert text[start:start + len(syzygies)] == syzygies


def test_reduce_bad_fiber_is_usage_error(capsys):
    code, out, err = run(capsys, "reduce", "--fiber", "delta")
    assert code == 2
    assert out == ""
    assert "delta" in err


def test_reduce_missing_custom_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "reduce", "--fiber",
                       f"custom:{tmp_path}/absent.json")
    assert code == 2
    assert "absent" in err or "cannot read" in err


def test_reduce_empty_custom_path_is_usage_error(capsys):
    # Reading "" would open the working directory, a path never typed.
    code, out, err = run(capsys, "reduce", "--fiber", "custom:")
    assert_one_line_usage_error(code, out, err, "custom:")
    assert "file path" in err and "directory" not in err


def write_custom(tmp_path, doc) -> str:
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(doc))
    return f"custom:{path}"


def test_a_product_past_the_term_bound_is_a_usage_error(tmp_path, capsys):
    # Each term of an entry is one monomial times one literal, so a product
    # of sums is refused at its first '*', before any of the C(35, 5) =
    # 324632 terms of thirty factors of a 6-term sum is built.
    wide = "*".join(["(s1+s2+s3+s4+s5+s6)"] * 30) + "*0 + s1"
    doc = {"name": "wide",
           "variables": [["m1", "mag"], ["m2", "mag"]] + [[f"s{i}", "stress"] for i in range(1, 7)],
           "sigma": {"11": wide, "12": "s2", "13": "s3", "22": "s4", "23": "s5", "33": "s6"},
           "m": ["m1", "m2", "0"]}
    code, out, err = run(capsys, "reduce", "--fiber", write_custom(tmp_path, doc))
    assert_one_line_usage_error(code, out, err, "sigma entry 11: unexpected '*' (at position 19)")


def effective_policy(capsys, fiber) -> str:
    code, out, _ = run(capsys, "reduce", "--fiber", fiber, "--format", "json")
    assert code == 0
    return json.loads(out)["config"]["effective_policy"]


@pytest.mark.parametrize("name", ["gamma", "alpha_prime"])
def test_custom_theta_named_like_another_fiber_is_not_pinned(tmp_path, capsys, name):
    # Theta's parameterization under another fiber's name must not pick up
    # that fiber's pinned list (which conflicts on theta).
    fiber = write_custom(tmp_path, dict(json.loads(EQ3_TEXT), name=name))
    assert effective_policy(capsys, fiber) == "table-order"


def test_custom_plane_named_theta_is_not_pinned(tmp_path, capsys):
    fiber = write_custom(tmp_path, dict(json.loads(PLANE_123.read_text()),
                                        name="theta"))
    assert effective_policy(capsys, fiber) == "table-order"


def test_custom_theta_named_theta_is_pinned(tmp_path, capsys):
    # The pinned list follows what the fiber is: theta itself, loaded from
    # a file, is still theta.
    fiber = write_custom(tmp_path, dict(json.loads(EQ3_TEXT), name="theta"))
    assert effective_policy(capsys, fiber) == "paper"


@pytest.mark.parametrize("field, value", [
    ("variables", [[1, "mag"], ["m2", "mag"], ["s1", "stress"],
                   ["s2", "stress"], ["s3", "stress"]]),
    ("variables", 5),
    ("normal", [0, 0, 0]),
    ("name", 7),
    ("sigma", {"11": "s1 + m1", "12": "s3", "13": "0",
               "22": "s2", "23": "0", "33": "0"}),
    ("m", ["m1 + s1", "m2", "0"]),
    ("m", "000"),
    ("sigma", {"11": "(" * 400 + "s1" + ")" * 400, "12": "s3", "13": "0",
               "22": "s2", "23": "0", "33": "0"}),
    ("m", ["m1", "m2", "2^99999999"]),
    ("m", ["m1", "m2", "9" * 5000 + "*m1"]),
    ("m", ["m1", "m2", "*".join(["9" * 300] * 16) + "*m1^2"]),
])
def test_malformed_custom_file_is_usage_error(tmp_path, capsys, field, value):
    fiber = write_custom(tmp_path, dict(json.loads(EQ3_TEXT), **{field: value}))
    code, out, err = run(capsys, "reduce", "--fiber", fiber)
    assert_one_line_usage_error(code, out, err, field)


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    # An integer past the 300 digits a literal may have.
    (b'{"name": ' + b"1" * 5000 + b"}", "error: "),
])
def test_unreadable_custom_file_is_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "sub.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "reduce", "--fiber", f"custom:{path}")
    assert_one_line_usage_error(code, out, err, message)


def test_unknown_key_in_custom_file_is_usage_error(tmp_path, capsys):
    fiber = write_custom(tmp_path, dict(json.loads(EQ3_TEXT), nomal=[1, 1, 1]))
    code, out, err = run(capsys, "reduce", "--fiber", fiber)
    assert_one_line_usage_error(code, out, err, "'nomal'")


def test_engine_error_exits_3(capsys, monkeypatch):
    def conflict(*args, **kwargs):
        raise PolicyConflictError("keep set ('I010',) at bi-degree (0, 1) "
                                  "contains a redundant invariant")
    monkeypatch.setattr(cli, "reduce_basis", conflict)
    code, out, err = run(capsys, "reduce", "--fiber", "theta")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "redundant invariant" in err


# -- catalog -------------------------------------------------------------

def test_catalog_text_lists_thirty(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "catalog: 30 invariants" in out
    lines = [l for l in out.splitlines() if l.lstrip().startswith("I")
             and "(" in l]
    assert len(lines) == 30


def test_catalog_json_shape(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = payload["invariants"]
    assert len(entries) == 30
    first = entries[0]
    assert first["name"] == "I010"
    assert first["bidegree"] == [0, 1]
    assert first["generic"] == "s11 + s22 + s33"


def test_catalog_latex_restricts_nothing(capsys, monkeypatch):
    # The LaTeX table prints no generic substitution, so it never computes one.
    def refuse(*args):
        raise AssertionError("catalog --format latex restricted the basis")
    monkeypatch.setattr(cli, "restrict_basis", refuse)
    code, out, _ = run(capsys, "catalog", "--format", "latex")
    assert code == 0
    assert out == (GOLDEN / "catalog.tex").read_text()


# -- verify --------------------------------------------------------------

def test_verify_gamma_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--fiber", "gamma",
                       "--trials", "3")
    assert code == 0
    assert "22/22 relations verified" in out


def test_verify_json_counts(capsys):
    code, out, _ = run(capsys, "verify", "--fiber", "theta",
                       "--trials", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    counts = payload["result"]["counts"]
    assert counts == {"total": 11, "passed": 11, "failed": 0}
    assert payload["config"]["trials"] == 2


def test_verify_rejects_custom_fiber(capsys):
    code, _, err = run(capsys, "verify", "--fiber", "custom:x.json")
    assert code == 2
    assert "published relation list" in err


def test_fiber_help_offers_only_what_each_command_accepts(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert all(fiber in out for fiber in FIBERS)
    assert "custom:" not in out
    code, out, _ = run(capsys, "reduce", "--help")
    assert code == 0
    assert "custom:PATH" in out


def test_verify_reports_corrupted_relation(capsys, monkeypatch, theta_basis):
    rels = list(cli.load_published("theta"))
    source, rel = rels[0]
    rels[0] = (source, published_relation(rel.solved_for, "1/5*(I002*I010)"))
    monkeypatch.setattr(cli, "load_published", lambda fiber: tuple(rels))
    code, out, _ = run(capsys, "verify", "--fiber", "theta",
                       "--trials", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    failed = [e for e in payload["result"]["relations"]
              if e["symbolic"] == "fail"]
    assert len(failed) == 1
    entry = failed[0]
    # I012 = 1/6*I002*I010 on theta, so the residual is (1/6 - 1/5)*I002*I010.
    restricted = theta_basis.as_dict()
    residual = Fraction(-1, 30) * restricted["I002"] * restricted["I010"]
    assert residual
    assert entry["residual"] == str(residual)
    assert "engine_relation" not in entry
    assert payload["result"]["counts"]["failed"] == 1

    code, out, _ = run(capsys, "verify", "--fiber", "theta", "--trials", "2")
    assert code == 1
    assert "      residual: -1/15*s1*s3^2 - 1/15*s2*s3^2\n" in out
    assert out.endswith("10/11 relations verified\n")


def assert_one_line_usage_error(code, out, err, option):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_trials_is_usage_error(capsys, trials):
    # Zero trials evaluate no point, so a numeric "pass" would be vacuous.
    code, out, err = run(capsys, "verify", "--fiber", "gamma",
                         "--trials", trials, "--format", "json")
    assert_one_line_usage_error(code, out, err, "--trials")


@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_verify_negative_seed_is_usage_error(capsys, seed):
    # random.Random(-s) draws the points of random.Random(s), so the
    # echoed seed would not be the one used.
    code, out, err = run(capsys, "verify", "--fiber", "theta",
                         "--seed", seed, "--format", "json")
    assert_one_line_usage_error(code, out, err, "--seed")


# -- union ---------------------------------------------------------------

def test_union_text(capsys):
    code, out, _ = run(capsys, "union")
    assert code == 0
    assert "theta: 7 generators" in out
    assert "alpha_prime: 15 generators" in out
    assert "gamma: 8 generators" in out
    assert "theta subset of alpha_prime: True" in out
    assert "gamma subset of alpha_prime: True" in out
    assert "union (15):" in out


def test_union_json(capsys):
    code, out, _ = run(capsys, "union", "--format", "json")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["cardinal"] == 15
    assert r["theta_included_in_alpha_prime"] is True
    assert r["gamma_included_in_alpha_prime"] is True
    assert r["union"] == r["generators"]["alpha_prime"]


def test_union_loads_each_builtin_document_once(capsys, monkeypatch):
    # The paper policy's pin check asks for the fiber's substitution again;
    # fiber_substitution hands back the one it loaded.
    import mebasis.restriction as restriction
    load, loaded = restriction.custom_substitution, []

    def counted(doc):
        loaded.append(doc["name"])
        return load(doc)

    monkeypatch.setattr(restriction, "custom_substitution", counted)
    restriction.fiber_substitution.cache_clear()
    code, _, _ = run(capsys, "union", "--format", "json")
    assert code == 0
    assert sorted(loaded) == sorted(FIBERS)
    assert restriction.fiber_substitution("gamma") is restriction.fiber_substitution("gamma")


# -- bounds --------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--dmax", "--alpha-max"])
def test_reduce_takes_no_bounds(capsys, flag):
    # reduce walks exactly the bi-degrees where an invariant survives.
    code, out, err = run(capsys, "reduce", "--fiber", "theta", flag, "7")
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 7" in err


# -- entry point ---------------------------------------------------------

def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_format_rejected_by_argparse(capsys):
    code, _, err = run(capsys, "reduce", "--fiber", "theta",
                       "--format", "yaml")
    assert code == 2
    assert "invalid choice" in err


class BrokenStdout:
    """A stdout whose write or flush raises a fresh OSError with errno."""

    def __init__(self, method, errno_):
        self.method, self.errno = method, errno_

    def _fail(self):
        cls = BrokenPipeError if self.errno == errno.EPIPE else OSError
        raise cls(self.errno, os.strerror(self.errno))

    def write(self, text):
        if self.method == "write":
            self._fail()
        return len(text)

    def flush(self):
        if self.method == "flush":
            self._fail()


@pytest.mark.parametrize("argv", [
    ["reduce", "--fiber", "theta", "--format", "json"],
    ["verify", "--fiber", "theta", "--trials", "2"],
], ids=["reduce-json", "verify-text"])
@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("errno_", [errno.EPIPE, errno.ENOSPC],
                         ids=["EPIPE", "ENOSPC"])
def test_write_failure_on_stdout_exits_4(capsys, monkeypatch, argv, method, errno_):
    monkeypatch.setattr(sys, "stdout", BrokenStdout(method, errno_))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4  # verify included: a failed write is no failed check
    assert err == f"error: cannot write output: {os.strerror(errno_)}\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_write_failure_after_help_or_version_exits_4(capsys, monkeypatch, flag):
    monkeypatch.setattr(sys, "stdout", BrokenStdout("write", errno.ENOSPC))
    code = main([flag])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("fmt, code", [("text", 4), ("json", 0), ("latex", 0)])
def test_a_name_stdout_cannot_encode_is_a_failed_write(tmp_path, capsys, monkeypatch,
                                                       fmt, code):
    # The text report prints the substitution name; JSON escapes it to
    # ASCII and LaTeX does not print it.
    path = tmp_path / "plane.json"
    doc = dict(json.loads(PLANE_123.read_text()), name="\u03b8-plane")
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    got = main(["reduce", "--fiber", f"custom:{path}", "--format", fmt])
    err = capsys.readouterr().err
    stdout.flush()
    out = stdout.buffer.getvalue().decode("ascii")
    assert got == code, err
    if code == 4:
        assert out == ""
        assert err.startswith("error: cannot write output: 'ascii' codec can't encode")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        assert ("\\u03b8-plane" in out) == (fmt == "json")


def test_missing_data_file_is_one_line_and_exit_3(capsys, monkeypatch, tmp_path):
    missing = tmp_path / "published_relations.json"
    monkeypatch.setattr(verify_mod, "DATA_PATH", missing)
    code, out, err = run(capsys, "verify", "--fiber", "theta", "--trials", "1")
    assert code == 3
    assert out == ""
    assert err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("target", ["closed-pipe", "/dev/full"])
def test_write_failure_in_a_process_prints_one_line(target):
    # The interpreter's last flush of stdout must not add an
    # "Exception ignored" report after the error line.
    if target == "closed-pipe":
        read, fd = os.pipe()
        os.close(read)
    elif os.path.exists(target):
        fd = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"{target} does not exist here")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mebasis.cli", "reduce", "--fiber",
             "alpha_prime", "--format", "json"],
            stdout=fd, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(fd)
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write output: ")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_report_through_a_real_stdout_matches_the_golden(unbuffered):
    # With PYTHONUNBUFFERED set, stdout is an unbuffered FileIO under its
    # text layer, and the report is one write on the pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run(
        [sys.executable, "-m", "mebasis.cli", "reduce", "--fiber",
         "alpha_prime", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / "reduce_alpha_prime_paper.json").read_bytes()


# Run in a fresh interpreter: reduce, union and catalog --format latex, then
# verify; prints the exit codes and which of the verify route's modules each
# stage had loaded that the interpreter had not loaded before mebasis.
STARTUP_SCRIPT = """
import contextlib, io, json, sys
preloaded = set(sys.modules)
import mebasis.cli as cli
ROUTE = ("fractions", "decimal", "dataclasses", "inspect", "mebasis.verify")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, sorted(m for m in ROUTE if m in sys.modules and m not in preloaded)

print(json.dumps([run("reduce", "--fiber", "gamma", "--format", "json"),
                  run("union", "--format", "json"), run("catalog", "--format", "latex"),
                  run("verify", "--fiber", "theta", "--trials", "1")]))
"""


def test_only_verify_loads_the_verify_route_and_fractions():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *others, (code, loaded) = json.loads(proc.stdout)
    assert others == [[0, []]] * 3
    assert code == 0 and "mebasis.verify" in loaded
    # The verify route reaches mebasis.verify through names of cli, which a
    # caller patches or wraps there.
    assert {"load_published", "spotcheck_relations", "verify_published"} <= vars(cli).keys()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-text digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_coefficients_past_the_digit_limit_are_printed(capsys, monkeypatch, fmt):
    reduce = cli.reduce_basis

    def huge(rb, **kwargs):
        result = reduce(rb, **kwargs)
        # Every term is scaled, so the relation printed still holds.
        first, *rest = result.relations
        first = first._replace(terms=tuple((f, c * 10 ** 5000) for f, c in first.terms))
        return result._replace(relations=(first, *rest))

    monkeypatch.setattr(cli, "reduce_basis", huge)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "reduce", "--fiber", "theta", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert err == ""
    assert "0" * 5000 in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-text digit limit")
@pytest.mark.parametrize("argv, expected", [
    (["catalog"], 0),
    (["reduce", "--fiber", "theta", "--dmax", "0"], 2),
    (["reduce", "--fiber", "theta", "--format", "json"], 4),
], ids=["exit-0", "exit-2", "exit-4"])
def test_main_restores_the_digit_limit(capsys, monkeypatch, argv, expected):
    # main lifts the limit only while its command runs: tests, library
    # callers and the benchmark worker keep their guard.
    if expected == 4:
        monkeypatch.setattr(sys, "stdout", BrokenStdout("write", errno.ENOSPC))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        assert main(argv) == expected
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)


def test_latex_name_rules():
    assert cli.latex_name("I010") == r"\operatorname{tr}\boldsymbol{\sigma}"
    assert cli.latex_name("I202a") == "I_{202}^{a}"
    assert cli.latex_name("I212b") == "I_{212}^{b}"
    assert cli.latex_name("I400") == "I_{400}"


def test_latex_product_groups_repeats():
    assert cli.latex_product(("I010", "I010", "I400")) == \
        r"(\operatorname{tr}\boldsymbol{\sigma})^{2}\,I_{400}"
