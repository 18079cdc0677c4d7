"""Byte-for-byte golden outputs of the command line and the generic reduction.

Each file under tests/golden/ holds the exact stdout of one command (or,
for generic_reduce.txt, the generators, solved relations and syzygies of
the generic 3D reduction).  Any change to an output byte fails here.
Rewrite the files only for a deliberate output change, and say so in the
change log:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import mebasis.cli as cli
from mebasis.catalog import CATALOG
from mebasis.cli import main
from mebasis.reduction import reduce_basis
from mebasis.restriction import (BUILTIN_DOCUMENTS, generic_substitution,
                                 restrict_basis)

GOLDEN = Path(__file__).with_name("golden")
PLANE = GOLDEN / "plane_123.sub.json"
FIBERS = ("theta", "alpha_prime", "gamma")
POLICIES = ("paper", "table-order", "reverse-table-order")

CASES = {
    **{f"reduce_{fiber}_{policy}.json":
       ["reduce", "--fiber", fiber, "--policy", policy, "--format", "json"]
       for fiber in FIBERS for policy in POLICIES},
    "union.json": ["union", "--format", "json"],
    **{f"union_{policy}.json": ["union", "--policy", policy, "--format", "json"]
       for policy in POLICIES[1:]},
    **{f"verify_{fiber}.json":
       ["verify", "--fiber", fiber, "--trials", "100", "--seed", "0",
        "--format", "json"]
       for fiber in FIBERS},
    "catalog.json": ["catalog", "--format", "json"],
    **{f"reduce_plane_123_table-order.{ext}":
       ["reduce", "--fiber", f"custom:{PLANE}", "--policy", "table-order",
        "--format", fmt]
       for fmt, ext in (("json", "json"), ("latex", "tex"))},
    **{f"reduce_{fiber}_paper.{ext}":
       ["reduce", "--fiber", fiber, "--policy", "paper", "--format", fmt]
       for fiber in ("theta", "alpha_prime", "gamma")
       for fmt, ext in (("text", "txt"), ("latex", "tex"))},
    **{f"verify_theta.{ext}":
       ["verify", "--fiber", "theta", "--trials", "100", "--seed", "0",
        "--format", fmt]
       for fmt, ext in (("text", "txt"), ("latex", "tex"))},
    **{f"union.{ext}": ["union", "--format", fmt]
       for fmt, ext in (("text", "txt"), ("latex", "tex"))},
    **{f"catalog.{ext}": ["catalog", "--format", fmt]
       for fmt, ext in (("text", "txt"), ("latex", "tex"))},
}
GENERIC = "generic_reduce.txt"


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return buf.getvalue()


def generic_text() -> str:
    result = reduce_basis(restrict_basis(CATALOG, generic_substitution()))
    lines = [f"generators ({len(result.generators)}): "
             + ", ".join(result.generators),
             f"relations ({len(result.relations)}):"]
    lines += [f"  {rel.solved_str()}" for rel in result.relations]
    lines.append(f"syzygies ({len(result.syzygies)}):")
    lines += [f"  {rel.equation_str()}" for rel in result.syzygies]
    return "\n".join(lines) + "\n"


def render(name: str) -> str:
    return generic_text() if name == GENERIC else cli_stdout(CASES[name])


@pytest.mark.parametrize("name", [*CASES, GENERIC])
def test_output_matches_golden(name):
    assert render(name).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("chunk", [1, 10 ** 9])
@pytest.mark.parametrize("name", [name for name in CASES if name.endswith(".json")])
def test_json_output_does_not_depend_on_chunk_size(monkeypatch, name, chunk):
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    assert render(name).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fiber", FIBERS)
def test_builtin_document_written_to_a_file_reduces_to_the_golden(tmp_path, fiber):
    # The file is named after the fiber, so its substitution carries the
    # fiber's name and the paper policy applies its pinned list.
    path = tmp_path / f"{fiber}.json"
    path.write_text(json.dumps(BUILTIN_DOCUMENTS[fiber]))
    out = cli_stdout(["reduce", "--fiber", f"custom:{path}", "--format", "json"])
    assert out.encode() == (GOLDEN / f"reduce_{fiber}_paper.json").read_bytes()


if __name__ == "__main__":
    for name in [*CASES, GENERIC]:
        (GOLDEN / name).write_bytes(render(name).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
