"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import mebasis

SOURCES = sorted(Path(mebasis.__file__).parent.glob("*.py"))


def imported_modules(path):
    """Top-level names of the modules a source file imports by absolute
    name (relative imports stay inside the package)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_mebasis():
    assert SOURCES
    outside = {(path.name, name) for path in SOURCES
               for name in imported_modules(path)
               if name not in sys.stdlib_module_names and name != "mebasis"}
    assert not outside


def unused_imports(path):
    """(line, name) of each name bound by a module-level import of a source
    file that nothing else in the file reads; only `from __future__`
    imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                yield node.lineno, name


def test_every_module_level_import_is_used():
    assert SOURCES
    unused = {(path.name, line, name) for path in SOURCES
              for line, name in unused_imports(path)}
    assert not unused


def test_a_noqa_mark_does_not_exempt_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "from math import gcd  # noqa: F401\n", encoding="utf-8")
    assert list(unused_imports(path)) == [(2, "gcd")]
