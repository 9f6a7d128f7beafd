"""Every definition in the package is run by the command line or the
benchmark, or is named library API with the open item that will call it.

Reads `src/homcx/*.py` and `bench/*.py` with `ast`, without importing them,
and follows names from `cli.main`, `cli.build_parser`, every name that
`bench/*.py` reads, and the statements each module runs on import. A
reached definition reaches every top-level function or class of the
package whose name it reads, bare or as an attribute; a reached class
reaches its dunder methods and each method whose name a reached definition
reads. The scan follows names, not call sites: a name read anywhere counts
for every definition of that name, so it over-counts what is reached. A
definition it flags is not read by name anywhere that the command line or
the benchmark runs. `homcx/__init__.py` only re-exports, so its imports
reach nothing.

Code only the tests run belongs under `tests/` (`tests/oracles.py`, or the
one test module that uses it). ALLOWED holds the rest: library API that no
command runs yet, each entry with the ROADMAP open item that will call it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROOTS = {("cli", "main"), ("cli", "build_parser")}

# (module, name) or (module, class, method) -> the ROADMAP open item that calls it
ALLOWED = {
    ("classifier", "classify_component"): "2: classify --seed-hom",
    ("classifier", "closed_form_type"): "2: classify --seed-hom",
    ("pi_graph", "is_topologically_valid"): "7: the walk-homotopy test",
    ("pi_graph", "homotopy_from_valid_walk"): "7: reach prints the homotopy",
    ("pi_graph", "Homotopy"): "7: reach re-checks its certificate",
    ("hom_cover", "EfElement", "as_homotopy"): "7: deck walks as homotopies",
    ("walks", "closed_reduced_walks_at"): "7: candidate deck walks",
    ("walks", "is_f_tight"): "7: the tight-vertex test",
    ("graphs", "disjoint_union"): "3: disconnected domains as products",
}


def read_names(nodes):
    """Every name the nodes read, bare or as an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions(paths):
    """key -> (the names the definition reads, its class's key or None) for
    each top-level function or class and each method, keyed (module, name)
    or (module, class, name); and the names the modules read on import."""
    defs, on_import = {}, set()
    for path in paths:
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                rest = [n for n in node.body if not is_def(n)]
                own = rest + node.decorator_list + node.bases + node.keywords
                defs[module, node.name] = (read_names(own), None)
                for m in node.body:
                    if is_def(m):
                        defs[module, node.name, m.name] = (read_names([m]), (module, node.name))
            elif is_def(node):
                defs[module, node.name] = (read_names([node]), None)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import |= read_names([node])
    return defs, on_import


def reached(package, bench, roots):
    """The keys of the definitions in package that the roots reach, with the
    names bench/*.py and the package's import-time statements read."""
    defs, names = definitions(package)
    names |= read_names(ast.parse(p.read_text(), filename=str(p)) for p in bench)
    seen = set()

    def reachable(key, owner):
        if key in roots:
            return True
        if owner is None:
            return key[-1] in names
        return owner in seen and (key[-1] in names or key[-1].startswith("__"))

    while True:
        new = [k for k, (_, owner) in defs.items() if k not in seen and reachable(k, owner)]
        if not new:
            return seen
        for key in new:
            seen.add(key)
            names |= defs[key][0]


def unreached(package, bench, roots):
    """The keys of package's definitions that the roots do not reach."""
    defs, _ = definitions(package)
    found = reached(package, bench, roots)
    return sorted(k for k in defs if k not in found)


def package_files():
    return [p for p in sorted((ROOT / "src" / "homcx").glob("*.py")) if p.name != "__init__.py"]


def bench_files():
    return sorted((ROOT / "bench").glob("*.py"))


def test_scan_follows_names_from_the_roots(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "LIMIT = _limit()\n\n\n"
        "def _limit():\n    return 3\n\n\n"
        "def main():\n    return Box().kept()\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = helper()\n\n"
        "    def kept(self):\n        return 1\n\n"
        "    def dropped(self):\n        return 2\n\n\n"
        "def helper():\n    return 0\n\n\n"
        "def orphan():\n    return helper()\n\n\n"
        "def benched():\n    return 4\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("from lib import benched\n\nprint(benched())\n")
    assert unreached([lib], [bench], {("lib", "main")}) == [
        ("lib", "Box", "dropped"),
        ("lib", "orphan"),
    ]


def test_scan_sees_the_package_and_the_bench():
    assert {"cli.py", "hom_poset.py"} <= {p.name for p in package_files()}
    assert {"run.py", "tracing.py"} <= {p.name for p in bench_files()}


def test_every_allowed_name_is_defined_and_not_otherwise_reached():
    defs, _ = definitions(package_files())
    assert not [k for k in ALLOWED if k not in defs], "allowed but not defined"
    found = reached(package_files(), bench_files(), ROOTS)
    stale = [k for k in ALLOWED if k in found]
    assert not stale, "reached from the command line or the bench, so not library-only:\n" + (
        "\n".join(".".join(k) for k in stale)
    )


def test_every_definition_is_run_or_allowed():
    roots = ROOTS | set(ALLOWED)
    found = [".".join(k) for k in unreached(package_files(), bench_files(), roots)]
    assert not found, (
        "reached from neither cli.main nor bench/, and not on the allowlist:\n" + "\n".join(found)
    )
