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
    file that nothing else in the file reads; lines marked `# noqa: F401`
    and `from __future__` imports are exempt."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
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
