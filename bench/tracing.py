"""The traced pass: spans around the benchmark's calls into each homcx module.

The traced pass does not go through the CLI. It calls each stage's public
function itself, in the order that `full_case_report` and `component_census`
use them, so that every module's time and work can be read on its own. The
spans are recorded here, outside the program. A span's self time is its
duration minus the durations of its child spans.

Every stage result is compared with the untraced report of the same instance,
so the traced pass cannot drift from what the program computes.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from homcx.classifier import validate_instance
from homcx.cli import emit_report, load_graph, load_hom
from homcx.graphs import is_square_free
from homcx.hom_cover import (
    check_poset_covering_local,
    enumerate_Ef_bounded,
    gamma_elements_bounded,
)
from homcx.hom_poset import DEFAULT_CAP, enumerate_component, enumerate_graph_homs
from homcx.homology import chain_complex, complex_from_chains, exact_rank
from homcx.pi_graph import materialize_pi
from homcx.tree_covers import lift_walk, tree_cover
from homcx.walks import all_reduced_walks

from instances import WrongReport, argv, canonical, check_lifts, cli

MAX_DIM = 2  # the classifier's default: ranks of boundaries 1 .. 3
TIMED = (
    "homology.complex_from_chains", "homology.chain_complex", "homology.exact_rank",
    "hom_poset.enumerate_graph_homs", "hom_poset.enumerate_component",
    "hom_poset.strict_upsets", "classifier.validate_instance", "graphs.is_square_free",
    "hom_cover.enumerate_Ef_bounded", "hom_cover.gamma_elements_bounded",
    "hom_cover.check_poset_covering_local", "walks.all_reduced_walks",
    "pi_graph.materialize_pi", "tree_covers.tree_cover", "tree_covers.lift_walk",
    "cli.emit_report",
)
COUNTED = (
    "homology.simplices", "homology.top_dim", "homology.boundary_nnz",
    "hom_poset.homs", "hom_poset.components", "hom_poset.elements",
    "hom_poset.comparable_pairs", "hom_cover.fiber_elements", "hom_cover.deck_elements",
    "hom_cover.lift_checks", "hom_cover.violations", "walks.reduced_walks",
    "pi_graph.window_walks", "pi_graph.window_edges", "tree_covers.cover_vertices",
    "tree_covers.lifts", "cli.report_bytes",
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTED})
        self.rank = self.rows = 0  # for homology.pivot_yield
        self.instance = None
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "name": name,
            "instance": self.instance,
            "parent": self._open[-1] if self._open else None,
            "error": None,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def metrics(self):
        """Per-module self times (seconds) and counts."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {f"{name}.s": 0.0 for name in TIMED}
        out.update({f"homology.exact_rank.d{d}.s": 0.0 for d in range(1, MAX_DIM + 2)})
        for i, rec in enumerate(self.spans):
            if rec["name"] == "instance":
                continue
            self_s = rec["end"] - rec["start"] - child[i]
            out[rec["name"] + ".s"] += self_s
            if "d" in rec:
                out[f"{rec['name']}.d{rec['d']}.s"] += self_s
        out.update(self.counts)
        out["homology.pivot_yield"] = self.rank / self.rows if self.rows else 0.0
        return out


class NullTracer(Tracer):
    """Runs the same stages and counts, but records no span: the baseline
    against which trace_overhead_s measures the cost of recording."""

    @contextmanager
    def span(self, name, **attrs):
        yield


def write_spans(tracers, path):
    """Write every span of every traced pass as JSON lines."""
    with open(path, "w") as fh:
        for n, tr in enumerate(tracers):
            for i, rec in enumerate(tr.spans):
                fh.write(json.dumps(dict(rec, traced_pass=n, id=i), sort_keys=True) + "\n")


def median_metrics(tracers):
    per_pass = [tr.metrics() for tr in tracers]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _betti(tr, P, cap):
    """component_betti, one stage at a time: order complex, boundaries, ranks."""
    with tr.span("hom_poset.strict_upsets"):
        greater = P.strict_upsets()
    tr.counts["hom_poset.comparable_pairs"] += sum(map(len, greater))
    with tr.span("homology.complex_from_chains"):
        K = complex_from_chains(len(P), greater, cap=cap)
    tr.counts["homology.simplices"] += sum(K.counts())
    tr.counts["homology.top_dim"] = max(tr.counts["homology.top_dim"], K.dim)
    top = min(K.dim, MAX_DIM + 1)
    with tr.span("homology.chain_complex"):
        C = chain_complex(K)
        rows = {d: C.boundary_rows(d) for d in range(1, top + 1)}
    tr.counts["homology.boundary_nnz"] += sum(len(col) for b in C.boundaries for col in b)
    ranks = {0: 0}
    for d, r in rows.items():
        with tr.span("homology.exact_rank", d=d):
            ranks[d] = exact_rank(r)
        tr.rank += ranks[d]
        tr.rows += sum(1 for row in r if row)
    return tuple(
        (C.counts[d] if d < len(C.counts) else 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(MAX_DIM + 1)
    )


def _census(tr, G, H, cap=DEFAULT_CAP):
    """component_census, stage by stage; one (mapping, homs, size, betti) per component."""
    with tr.span("hom_poset.enumerate_graph_homs"):
        homs = enumerate_graph_homs(G, H, cap=cap)
    tr.counts["hom_poset.homs"] += len(homs)
    assigned = set()
    comps = []
    for f in homs:
        if f in assigned:
            continue
        with tr.span("hom_poset.enumerate_component"):
            P = enumerate_component(G, H, f, cap=cap)
        members = [s.as_graph_hom() for s in P.singletons()]
        assigned.update(members)
        tr.counts["hom_poset.components"] += 1
        tr.counts["hom_poset.elements"] += len(P)
        rep = min(h.mapping for h in members)
        comps.append((list(rep), len(members), len(P), list(_betti(tr, P, cap))))
    return sorted(comps)


def _emit(tr, report, path, expected):
    with tr.span("cli.emit_report"):
        emit_report(report, str(path))
    data = Path(path).read_bytes()
    tr.counts["cli.report_bytes"] += len(data)
    if data != expected:
        raise WrongReport(f"re-emitted report differs from the untraced one: {path}")


def _same(inst, what, traced, untraced):
    if traced != untraced:
        raise WrongReport(f"{inst.id}: traced {what} {traced} != untraced {untraced}")


def run_traced(tr, inst, out, untraced):
    """Run inst stage by stage under tr; untraced holds its untraced report bytes.

    The stages run before any comparison, so an instance whose untraced run
    failed still records which stage raises.
    """
    a = inst.args
    if inst.kind in ("classify", "census"):
        G, H = load_graph(a[0]), load_graph(a[1])
        with tr.span("graphs.is_square_free"):
            is_square_free(H)
        if inst.kind == "classify":
            with tr.span("classifier.validate_instance"):
                validate_instance(G, H)
        comps = _census(tr, G, H)
        report = json.loads(untraced)
        expected = sorted(
            (c["representative"]["mapping"], c["homs"], c["size"], c["betti"])
            for c in report["components"]
        )
        _same(inst, "components", comps, expected)
        _emit(tr, report, out, untraced)
    elif inst.kind == "ef":
        G, H = load_graph(a[0]), load_graph(a[1])
        f = load_hom(G, H, a[2])
        with tr.span("hom_cover.enumerate_Ef_bounded"):
            elements = enumerate_Ef_bounded(f, int(a[3]))
        with tr.span("hom_cover.gamma_elements_bounded"):
            gamma = gamma_elements_bounded(f, 0, int(a[3]))
        tr.counts["hom_cover.fiber_elements"] += len(elements)
        tr.counts["hom_cover.deck_elements"] += len(gamma)
        report = json.loads(untraced)
        _same(inst, "counts", (len(elements), len(gamma)), (report["count"], report["deck_count"]))
        _emit(tr, report, out, untraced)
    elif inst.kind == "covering":
        G, H = load_graph(a[0]), load_graph(a[1])
        with tr.span("hom_cover.check_poset_covering_local"):
            report = check_poset_covering_local(load_hom(G, H, a[2]), a[3])
        tr.counts["hom_cover.lift_checks"] += report["down_checks"] + report["up_checks"]
        tr.counts["hom_cover.violations"] += len(report["violations"])
        _same(inst, "report", canonical(report), untraced)
    elif inst.kind == "pi":
        H = load_graph(a[0])
        with tr.span("walks.all_reduced_walks"):
            walks = all_reduced_walks(H, a[1])
        with tr.span("pi_graph.materialize_pi"):
            window = materialize_pi(H, a[1])
        tr.counts["walks.reduced_walks"] += len(walks)
        tr.counts["pi_graph.window_walks"] += len(window.walks)
        tr.counts["pi_graph.window_edges"] += len(window.edges)
        _same(inst, "window", canonical(window.to_json()), untraced)
    elif inst.kind == "cover":
        with tr.span("tree_covers.tree_cover"):
            cover = tree_cover(load_graph(a[0]), 0, int(a[1]))
        tr.counts["tree_covers.cover_vertices"] += len(cover.walks)

        def lift(*args):
            with tr.span("tree_covers.lift_walk"):
                return lift_walk(*args)

        tr.counts["tree_covers.lifts"] += check_lifts(cover, lift)
        _emit(tr, cover.to_json(), out, untraced)
    else:
        _same(inst, "report", cli(argv(inst), out), untraced)
