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
from mebasis import __version__
from mebasis.cli import main
from mebasis.poly import MAX_EXPONENT
from mebasis.reduction import PolicyConflictError
from mebasis.restriction import FIBERS
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

# Text with quotes, backslashes, control characters and non-ASCII drawn often.
json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀 '),
                              st.characters()), max_size=8)
json_values = st.recursive(
    st.one_of(json_text, st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "": [None, True, False, 0, -1, 10 ** 30]})
@example({'q"uote': 'back\\slash', "ctl\x01": "\u2028 é 😀", "nested": {"x": [1, {"y": []}]}})
def test_json_rendering_matches_json_dumps_with_indent(value):
    buf = io.StringIO()
    cli.write_json(value, buf)
    assert buf.getvalue() == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": Fraction(1, 2)}])
def test_json_rendering_refuses_what_the_payloads_never_hold(value):
    with pytest.raises(TypeError):
        cli.write_json(value, io.StringIO())


class RecordingStdout:
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("chunk", [16, 4096])
def test_reduce_json_is_written_in_bounded_chunks(monkeypatch, chunk):
    # A piece of JSON text holds at most one line break, and at most one
    # line of the report and the two characters before it.
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["reduce", "--fiber", "alpha_prime", "--format", "json"]) == 0
    text = "".join(stdout.writes)
    assert text == (GOLDEN / "reduce_alpha_prime_paper.json").read_text()
    longest_piece = max(map(len, text.splitlines())) + 2
    assert len(stdout.writes) > 1
    assert max(w.count("\n") for w in stdout.writes) <= chunk
    assert max(map(len, stdout.writes)) <= chunk * longest_piece


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
    assert config["max_total_degree"] == 7
    assert config["max_mag_degree"] == 6
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
    # Past the interpreter's digit limit where it has one (a ValueError from
    # json.loads that is no JSONDecodeError); a bad name where it has none.
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


@pytest.mark.parametrize("bound, flag", [(["--dmax", "3"], "--dmax"),
                                         (["--alpha-max", "5"], "--alpha-max")],
                         ids=["dmax", "alpha-max"])
def test_bounds_that_miss_a_survivor_are_usage_errors(capsys, bound, flag):
    # gamma at (3, 6) used to list 9 of its 30 names, and at (7, 5) it
    # dropped the pinned generator I600 without a conflict.
    code, out, err = run(capsys, "reduce", "--fiber", "gamma", *bound)
    assert_one_line_usage_error(code, out, err, f"raise {flag} to at least")


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


# -- bounds --------------------------------------------------------------

@pytest.mark.parametrize("command", [["reduce", "--fiber", "theta"]])
@pytest.mark.parametrize("bound", [["--dmax", "0"], ["--dmax", "-1"],
                                   ["--alpha-max", "-1"],
                                   ["--alpha-max", "-5"]])
def test_bounds_exploring_nothing_are_usage_errors(capsys, command, bound):
    code, out, err = run(capsys, *command, *bound, "--format", "json")
    assert_one_line_usage_error(code, out, err, bound[0])


@pytest.mark.parametrize("command", [["reduce", "--fiber", "theta"]])
def test_dmax_past_a_packed_slot_is_a_usage_error(capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("the reduction started")

    monkeypatch.setattr(cli, "reduce_basis", never)
    code, out, err = run(capsys, *command, "--dmax", str(MAX_EXPONENT + 1),
                         "--format", "json")
    assert_one_line_usage_error(code, out, err, "--dmax")
    assert f"at most {MAX_EXPONENT}" in err


@pytest.mark.parametrize("command", [["reduce", "--fiber", "theta"]])
def test_smallest_bounds_are_accepted(capsys, command):
    # Every fiber has a survivor of total degree 7 and one of mag degree 6,
    # so (7, 6) are the smallest bounds reduce accepts; (1, 0) would list
    # 1 of theta's 18 survivors as if it were the whole result.
    code, out, err = run(capsys, *command, "--dmax", "1", "--alpha-max", "0",
                         "--format", "json")
    assert_one_line_usage_error(code, out, err, "--dmax")
    code, out, _ = run(capsys, *command, "--dmax", "7", "--alpha-max", "6",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["max_total_degree"] == 7


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


def test_latex_name_rules():
    assert cli.latex_name("I010") == r"\operatorname{tr}\boldsymbol{\sigma}"
    assert cli.latex_name("I202a") == "I_{202}^{a}"
    assert cli.latex_name("I212b") == "I_{212}^{b}"
    assert cli.latex_name("I400") == "I_{400}"


def test_latex_product_groups_repeats():
    assert cli.latex_product(("I010", "I010", "I400")) == \
        r"(\operatorname{tr}\boldsymbol{\sigma})^{2}\,I_{400}"
