"""The names the benchmark harness takes from homcx must keep existing.

The tier-1 suite never runs `bench/run.py --trace 1`, so a trim of the
package could break the harness unnoticed. These tests read `bench/*.py`
with `ast`, without importing it, and look up every name it imports from
homcx, plus the members it uses on the objects those names return, and bind
the arguments of every call it makes to one of those names against that
name's signature.
"""

import ast
import importlib
import inspect
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


def homcx_calls():
    """(file:line:column, module, name, positional count, keyword names) for every
    call in bench/ to a name imported from homcx. Calls that spread *args or
    **kwargs cannot be counted and are left out."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "homcx"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in local):
                continue
            keywords = tuple(k.arg for k in node.keywords)
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            where = f"{path.name}:{node.lineno}:{node.col_offset}"
            found.append((where, *local[node.func.id], len(node.args), keywords))
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


def test_bench_calls_something():
    assert ("homcx.hom_poset", "enumerate_graph_homs", 2, ("cap",)) in {
        c[1:] for c in homcx_calls()
    }


@pytest.mark.parametrize("call", homcx_calls(), ids=lambda c: f"{c[0]}-{c[2]}")
def test_call_binds_to_signature(call):
    where, module, name, n_args, keywords = call
    sig = inspect.signature(getattr(importlib.import_module(module), name))
    try:
        sig.bind(*range(n_args), **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{where} calls {module}.{name}: {exc}")
