"""The package imports nothing outside the standard library, imports
nothing it does not use, and defines nothing that only tests reach."""

import ast
import sys
from pathlib import Path

import mebasis

SOURCES = sorted(Path(mebasis.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def _read_name(node):
    """The name a Name or Attribute node reads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def unreached_definitions(sources, readers):
    """(file name, message) for each function or class defined in sources
    whose name no code in readers reads, and for each class defining
    __init__ that no code in readers calls.  Dunder methods are reached by
    the language, not by name."""
    read, called = set(), set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            read.add(_read_name(node))
            if isinstance(node, ast.Call):
                called.add(_read_name(node.func))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and node.name not in read:
                yield path.name, f"never referenced: {node.name}"
            if (isinstance(node, ast.ClassDef) and node.name not in called
                    and any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                            for item in node.body)):
                yield path.name, f"constructor never called: {node.name}"


def test_package_code_is_reached_from_the_package_or_the_benchmark():
    # Tests do not count: a name only tests reach is test-only public API.
    assert SOURCES and BENCHMARK
    assert not set(unreached_definitions(SOURCES, SOURCES + BENCHMARK))


def test_an_unread_definition_and_an_uncalled_constructor_are_reported(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("class Used:\n"
                    "    def __init__(self):\n"
                    "        self.x = helper\n"
                    "    def __len__(self):\n"
                    "        return 0\n"
                    "class Built:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def helper():\n"
                    "    return Used, Built()\n"
                    "def orphan():\n"
                    "    return Used\n", encoding="utf-8")
    assert set(unreached_definitions([path], [path])) == {
        ("module.py", "never referenced: orphan"),
        ("module.py", "constructor never called: Used"),
    }
