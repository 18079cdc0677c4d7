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
