"""Command line interface.

Subcommands cover the pipeline: `check` a graph's hypotheses, `product` for
the tensor double, `census` and `classify` for component enumeration and
homotopy types, `ef` for the bounded universal cover fiber, `cover` for
tree-cover windows, and `verify` for the built-in battery of cross-checks.

Reports are JSON with sorted keys and a trailing newline, written atomically
so two runs of the same command produce byte-identical files. Exit codes:
0 success, 1 bad input or I/O (a graph over DEFAULT_CAP vertices or edges
included), 2 violated internal invariant, an enumeration cap, or a command
line that argparse rejects, 3 rejected standing hypothesis (a 4-cycle in the
target, an empty homomorphism set, a disconnected graph where a connected one
is needed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import tempfile

from .classifier import expected_rank, full_case_report
from .errors import (
    EmptyHomSet,
    ExplosionGuard,
    GraphInputError,
    HomcxError,
    NotConnected,
    NotHomomorphism,
    NotSquareFree,
)
from .graphs import (
    GraphHom,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_square,
    graph_from_json,
    is_bipartite,
    is_connected,
    is_square_free,
    path_graph,
    permute_graph,
    petersen_graph,
    times_k2,
)
from .hom_cover import (
    check_poset_covering_local,
    deck_transformations,
    enumerate_Ef_bounded,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    reduce_to_identity,
    tight_vertices,
)
from .hom_poset import DEFAULT_CAP, census_report, component_census
from .pi_graph import materialize_pi
from .tree_covers import lift_walk, tree_cover
from .walks import ReducedWalk

_CYCLE_PATH_COMPLETE = re.compile(r"(C|P|K)([0-9]+)")
_COMPLETE_BIPARTITE = re.compile(r"K([0-9]+),([0-9]+)")


def _require_size(spec, vertices, edges):
    """Raise GraphInputError for a graph with more than DEFAULT_CAP vertices
    or edges, before anything of that size is built."""
    if vertices > DEFAULT_CAP or edges > DEFAULT_CAP:
        raise GraphInputError(
            f"graph {spec} has {vertices} vertices and {edges} edges;"
            f" at most {DEFAULT_CAP} of each are accepted"
        )


def load_graph(spec):
    """A preset name (C5, P4, K3, K3,3, petersen; ASCII digits, the whole
    name) or a JSON file path, of at most DEFAULT_CAP vertices and edges."""
    if spec == "petersen":
        return petersen_graph()
    m = _CYCLE_PATH_COMPLETE.fullmatch(spec)
    if m:
        kind, k = m.group(1), int(m.group(2))
        if kind == "C":
            _require_size(spec, k, k)
            return cycle_graph(k)
        if kind == "P":
            _require_size(spec, k, k - 1)
            return path_graph(k)
        _require_size(spec, k, k * (k - 1) // 2)
        return complete_graph(k)
    m = _COMPLETE_BIPARTITE.fullmatch(spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        _require_size(spec, a + b, a * b)
        return complete_bipartite(a, b)
    with open(spec) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise GraphInputError(f"cannot read graph JSON from {spec}: nested too deeply") from None
    if isinstance(data, dict):
        n, edges = data.get("n"), data.get("edges")
        _require_size(
            spec, n if isinstance(n, int) else 0, len(edges) if isinstance(edges, list) else 0
        )
    return graph_from_json(data)


def load_hom(G, H, text):
    """The GraphHom G -> H whose vertex images text lists, comma-separated,
    each field ASCII digits only: int() would also take signs, spaces and
    underscores."""
    fields = text.split(",")
    if not all(t.isascii() and t.isdigit() for t in fields):
        raise GraphInputError(f"cannot parse vertex images from {text!r}")
    return GraphHom(G, H, map(int, fields))


_encode_str = json.encoder.encode_basestring_ascii


def _json_key(key):
    """A dict key as json renders it: str as is, numbers, bools and None by
    their JSON text, all quoted."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return _encode_str(json.dumps(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _encode(o, indent, memo, out):
    """Append json.dumps(o, sort_keys=True, indent=2), for a value nested at
    the depth that indent ("\\n" plus two spaces a level) marks, to the list
    out, each piece once.

    With indent set, json.dumps runs its pure-Python encoder; this writer
    joins only a list of exact ints into one piece, and a tuple's text. Exact
    str and int, bool and None are the fast path; floats, empty containers
    and anything else go to json.dumps. memo keeps each tuple's text under
    its identity and indent, as (1,) == (True,) but their texts differ.
    """
    if type(o) is str:
        out.append(_encode_str(o))
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif type(o) is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif isinstance(o, tuple):
        key = (id(o), indent)
        if key not in memo:
            parts = []
            _encode(list(o), indent, memo, parts)
            memo[key] = "".join(parts)
        out.append(memo[key])
    elif isinstance(o, dict) and o:
        inner = indent + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _json_key(k) + ": ")
            _encode(v, inner, memo, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(o, list) and o:
        inner = indent + "  "
        if set(map(type, o)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + indent + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _encode(x, inner, memo, out)
            sep = "," + inner
        out.append(indent + "]")
    else:
        out.append(json.dumps(o))


def emit_report(obj, out):
    """Write obj as json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    to stdout or atomically to the file out, once all of it is encoded."""
    chunks = []
    _encode(obj, "\n", {}, chunks)
    chunks.append("\n")
    if out is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homcx-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def resolve_cap(args):
    """The enumeration cap set by --cap, which defaults to DEFAULT_CAP."""
    if args.cap <= 0:
        raise ValueError(f"--cap must be a positive integer, got {args.cap}")
    return args.cap


def run_check(args):
    G = load_graph(args.graph)
    witness = find_square(G)
    report = {
        "bipartite": is_bipartite(G) is not None,
        "connected": is_connected(G),
        "edges": [list(e) for e in G.sorted_edges()],
        "square_free": witness is None,
        "vertices": G.n,
        "witness": list(witness) if witness else None,
    }
    if witness is None and is_connected(G):
        report["expected_rank"] = expected_rank(G)
    return report, 0 if witness is None else 3


def run_product(args):
    return times_k2(load_graph(args.graph)).to_json(), 0


def run_census(args):
    G = load_graph(args.domain)
    H = load_graph(args.codomain)
    return census_report(G, H, cap=resolve_cap(args)), 0


def run_classify(args):
    G = load_graph(args.domain)
    H = load_graph(args.codomain)
    return full_case_report(G, H, cap=resolve_cap(args)), 0


def run_ef(args):
    G = load_graph(args.domain)
    H = load_graph(args.codomain)
    f = load_hom(G, H, args.seed_hom)
    elements = enumerate_Ef_bounded(f, args.max_norm, cap=resolve_cap(args))
    gamma = deck_transformations(f, 0, elements)
    return {
        "count": len(elements),
        "deck_count": len(gamma),
        "elements": [e.to_json() for e in elements],
        "f": list(f.mapping),
        "max_norm": args.max_norm,
        "norms": sorted({e.norm() for e in elements}),
        "tight_vertices": sorted(tight_vertices(f)),
    }, 0


def run_cover(args):
    return tree_cover(load_graph(args.graph), args.basepoint, args.radius).to_json(), 0


def run_verify(args):
    rng = random.Random(args.seed)
    checks = []

    def record(name, fn):
        try:
            ok = bool(fn())
        except HomcxError:
            ok = False
        checks.append({"name": name, "ok": ok})

    def square_free_gates():
        return (
            not is_square_free(cycle_graph(4))
            and not is_square_free(complete_bipartite(2, 3))
            and is_square_free(cycle_graph(5))
            and is_square_free(path_graph(4))
            and is_square_free(petersen_graph())
        )

    record("square_free_gates", square_free_gates)

    def tensor_double():
        c5 = times_k2(cycle_graph(5))
        c6 = times_k2(cycle_graph(6))
        return (
            len(c5.components) == 1
            and not c5.bipartite
            and len(c5.isomorphisms) == 1
            and len(c6.components) == 2
            and c6.bipartite
        )

    record("tensor_double", tensor_double)

    def census_k2_c5():
        summaries = component_census(complete_graph(2), cycle_graph(5))
        return (
            len(summaries) == 1
            and summaries[0].betti == (1, 1, 0)
            and summaries[0].size == 20
            and summaries[0].k2_factoring
        )

    record("census_k2_c5", census_k2_c5)

    def census_c3_c3():
        summaries = component_census(cycle_graph(3), cycle_graph(3))
        return len(summaries) == 6 and all(
            s.betti == (1, 0, 0) and s.size == 1 for s in summaries
        )

    record("census_c3_c3", census_c3_c3)

    def fiber_round_trip():
        f = GraphHom(complete_graph(2), cycle_graph(5), (0, 1))
        elements = enumerate_Ef_bounded(f, 6)
        for e in elements:
            if e.is_singleton():
                chain = reduce_to_identity(e)
                if len(chain) != e.norm() // 2 + 1:
                    return False
        return len(elements) > 1

    record("fiber_round_trip", fiber_round_trip)

    def covering_unique_lifts():
        f = GraphHom(complete_graph(2), cycle_graph(5), (0, 1))
        report = check_poset_covering_local(f, 6)
        return report["square_free"] and not report["violations"]

    record("covering_unique_lifts", covering_unique_lifts)

    def deck_group():
        f = GraphHom(complete_graph(2), cycle_graph(5), (0, 1))
        gamma = gamma_elements_bounded(f, 0, 20)
        if len(gamma) != 3:
            return False
        e = gamma_identity(f)
        nontrivial = [g for g in gamma if g != e]
        a, b = nontrivial
        return gamma_inverse(a) == b and gamma_product(a, b) == e

    record("deck_group", deck_group)

    def relabel_invariance():
        H = cycle_graph(5)
        perm = list(H.vertices())
        rng.shuffle(perm)
        H2 = permute_graph(H, tuple(perm))
        a = component_census(complete_graph(2), H)
        b = component_census(complete_graph(2), H2)
        return sorted(s.betti for s in a) == sorted(s.betti for s in b)

    record("relabel_invariance", relabel_invariance)

    def cover_window():
        H = cycle_graph(5)
        cov = tree_cover(H, 0, 5)
        start = ReducedWalk(H, (0,))
        xi = ReducedWalk(H, (0, 1, 2, 3))
        lifted = lift_walk(cov, start, xi)
        return cov.project_walk(lifted).vertices == xi.vertices

    record("cover_window", cover_window)

    def window_counts():
        return len(materialize_pi(path_graph(4), 3).walks) == 16

    record("window_counts", window_counts)

    report = {
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "seed": args.seed,
    }
    return report, 0 if report["ok"] else 2


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="homcx",
        description="Homotopy types of components of graph homomorphism posets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=None, help="write the JSON report here")

    def add_cap(sp):
        sp.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CAP,
            help="enumeration cap (default %(default)s)",
        )

    sp = sub.add_parser("check", help="hypothesis checks for one graph")
    sp.add_argument("--graph", required=True)
    add_out(sp)
    sp.set_defaults(run=run_check)

    sp = sub.add_parser("product", help="tensor double of a graph")
    sp.add_argument("--graph", required=True)
    add_out(sp)
    sp.set_defaults(run=run_product)

    sp = sub.add_parser("census", help="components of the homomorphism poset")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--codomain", required=True)
    add_cap(sp)
    add_out(sp)
    sp.set_defaults(run=run_census)

    sp = sub.add_parser("classify", help="homotopy type of every component")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--codomain", required=True)
    add_cap(sp)
    add_out(sp)
    sp.set_defaults(run=run_classify)

    sp = sub.add_parser("ef", help="bounded fiber of the universal cover")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--codomain", required=True)
    sp.add_argument("--seed-hom", required=True, help="comma-separated images")
    sp.add_argument("--max-norm", type=int, required=True)
    add_cap(sp)
    add_out(sp)
    sp.set_defaults(run=run_ef)

    sp = sub.add_parser("cover", help="truncated universal cover of a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--basepoint", type=int, default=0)
    sp.add_argument("--radius", type=int, required=True)
    add_out(sp)
    sp.set_defaults(run=run_cover)

    sp = sub.add_parser("verify", help="run the built-in cross-check battery")
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)
    sp.set_defaults(run=run_verify)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, code = args.run(args)
        emit_report(report, args.out)
        return code
    except (GraphInputError, NotHomomorphism, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotSquareFree, EmptyHomSet, NotConnected) as exc:
        print(f"hypothesis rejected: {exc}", file=sys.stderr)
        return 3
    except ExplosionGuard as exc:
        print(f"cap reached: {exc}", file=sys.stderr)
        return 2
    except HomcxError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
