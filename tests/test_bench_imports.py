"""The names the benchmark harness takes from homcx must keep existing.

The tier-1 suite never runs `bench/run.py --trace 1`, so a trim of the
package could break the harness unnoticed. These tests read `bench/*.py`
with `ast`, without importing it, and look up every name it imports from
homcx, plus the members it uses on the objects those names return.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def homcx_imports():
    """(file, module, name) for every `from homcx... import name` in bench/."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "homcx":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


# methods and fields that bench/ reads on homcx objects
MEMBERS = [
    ("homcx.graphs", "GraphHom", "mapping"),
    ("homcx.walks", "ReducedWalk", "vertices"),
    ("homcx.hom_poset", "HomPoset", "__len__"),
    ("homcx.hom_poset", "HomPoset", "singletons"),
    ("homcx.hom_poset", "HomPoset", "strict_upsets"),
    ("homcx.hom_poset", "SetValuedHom", "as_graph_hom"),
    ("homcx.homology", "OrderComplex", "counts"),
    ("homcx.homology", "OrderComplex", "dim"),
    ("homcx.homology", "ChainComplex", "boundary_rows"),
    ("homcx.homology", "ChainComplex", "boundaries"),
    ("homcx.homology", "ChainComplex", "counts"),
    ("homcx.pi_graph", "PiWindow", "walks"),
    ("homcx.pi_graph", "PiWindow", "edges"),
    ("homcx.pi_graph", "PiWindow", "to_json"),
    ("homcx.tree_covers", "TreeCover", "base"),
    ("homcx.tree_covers", "TreeCover", "basepoint"),
    ("homcx.tree_covers", "TreeCover", "walks"),
    ("homcx.tree_covers", "TreeCover", "index"),
    ("homcx.tree_covers", "TreeCover", "project_walk"),
    ("homcx.tree_covers", "TreeCover", "to_json"),
]


def test_bench_imports_something():
    assert {name for _, _, name in homcx_imports()} >= {"materialize_pi", "exact_rank"}


@pytest.mark.parametrize("source, module, name", homcx_imports())
def test_imported_name_exists(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source} imports {module}.{name}"


@pytest.mark.parametrize("module, cls, member", MEMBERS)
def test_member_exists(module, cls, member):
    klass = getattr(importlib.import_module(module), cls)
    assert hasattr(klass, member) or member in getattr(klass, "__dataclass_fields__", {})
