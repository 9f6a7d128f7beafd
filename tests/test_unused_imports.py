"""Every name a module imports is read somewhere in that module, and every
private helper of the package is read somewhere in the package.

Reads `src/homcx/*.py` and `tests/*.py` with `ast`, without importing them.
`homcx/__init__.py` is exempt from the import check, because its imports are
the package's public re-exports, and so is `from __future__`, which imports
compiler directives. A private helper is a top-level function or class of
`src/homcx/*.py` whose name starts with one underscore; a refactor that stops
calling one leaves it behind, and the tests alone do not keep it alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) for each name imported in path that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, a.asname or a.name) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def read_names(tree):
    """Every name the tree reads, as a bare name or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def private_helpers(path):
    """(line, name) for each top-level private function or class in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def unread_helpers(paths):
    """(path, line, name) for each private helper no module in paths reads."""
    read = set()
    for p in paths:
        read |= read_names(ast.parse(p.read_text(), filename=str(p)))
    return [(p, line, name) for p in paths for line, name in private_helpers(p) if name not in read]


def package_files():
    return sorted((ROOT / "src" / "homcx").glob("*.py"))


def checked_files():
    package = [p for p in package_files() if p.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py"))


def test_scan_sees_the_package_and_the_tests():
    names = {p.name for p in checked_files()}
    assert {"hom_poset.py", "walks.py", "test_unused_imports.py"} <= names
    assert "__init__.py" not in names


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from itertools import chain as ch, count\n"
        "print(sys.argv, count)\n"
    )
    assert unused_imports(path) == [(2, "os"), (3, "ch")]


def test_no_unused_imports():
    found = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in checked_files()
        for line, name in unused_imports(p)
    ]
    assert not found, "imported but never read:\n" + "\n".join(found)


def test_scan_flags_an_unread_helper(tmp_path):
    used = tmp_path / "used.py"
    used.write_text(
        "def _kept():\n    return 1\n\n\n"
        "class _Box:\n    pass\n\n\n"
        "def _left():\n    return 2\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from .used import _kept\nimport used\n\nprint(_kept(), used._Box)\n")
    assert unread_helpers([used, caller]) == [(used, 9, "_left")]


def test_no_unread_private_helpers():
    found = [
        f"{p.relative_to(ROOT)}:{line}: {name}" for p, line, name in unread_helpers(package_files())
    ]
    assert not found, "private helper never read in the package:\n" + "\n".join(found)
