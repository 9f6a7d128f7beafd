"""Every name a module imports is read somewhere in that module.

Reads `src/homcx/*.py` and `tests/*.py` with `ast`, without importing them.
`homcx/__init__.py` is exempt, because its imports are the package's public
re-exports, and so is `from __future__`, which imports compiler directives.
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


def checked_files():
    package = sorted((ROOT / "src" / "homcx").glob("*.py"))
    return [p for p in package if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


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
