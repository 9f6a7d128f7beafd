"""The benchmark's workloads: their instances, how each runs, how it is checked.

Every instance goes through a public entry point of homcx: `homcx.cli.main`
for the subcommands a user types, or a public library call for the proof
machinery the CLI does not expose. Reports are checked outside the timed
region, against sha256 digests recorded at the seed commit for fixed
instances, and against counts the benchmark computes itself for generated
ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from homcx.cli import load_graph, load_hom, main as cli_main
from homcx.hom_cover import check_poset_covering_local
from homcx.pi_graph import materialize_pi
from homcx.tree_covers import lift_walk, tree_cover
from homcx.walks import ReducedWalk, all_reduced_walks

from generate import census_targets

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())["sha256"]

LADDER = [
    ("K2", "C5"), ("K2", "petersen"), ("P3", "C5"), ("P4", "C5"), ("P5", "C5"),
    ("K1,3", "C5"), ("C6", "C5"), ("C6", "C3"), ("C7", "C3"), ("P3", "petersen"),
]
CENSUS_TARGETS = 20
WORKLOADS = ("classify-ladder", "census-random", "fiber-deck")
HARDEST = {
    "classify-ladder": "classify P3 petersen",
    "census-random": "census C7 petersen",
    "fiber-deck": "covering K2 petersen 6",
}


class WrongReport(Exception):
    """A report differs from the expected one: the benchmark must fail."""


class InstanceFailed(Exception):
    """The CLI caught an error and exited with a non-zero code."""


@dataclass(frozen=True)
class Instance:
    id: str
    kind: str  # a CLI subcommand, or "covering" / "pi" for library calls
    args: tuple
    homs: int | None = None  # generated census target: trace(A^5)


def canonical(obj):
    """The bytes the CLI would write for this report."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def build(workload, seed, workdir, targets=CENSUS_TARGETS):
    """The workload's instances; generated graphs are written into workdir."""
    if workload == "classify-ladder":
        return [Instance(f"classify {g} {h}", "classify", (g, h)) for g, h in LADDER]
    if workload == "census-random":
        out = []
        for i, (graph, homs) in enumerate(census_targets(seed, targets)):
            path = Path(workdir) / f"target{i:02d}.json"
            path.write_text(json.dumps(graph))
            out.append(Instance(f"census C5 target{i:02d}", "census", ("C5", str(path)), homs))
        out.append(Instance("census C7 petersen", "census", ("C7", "petersen")))
        out.append(Instance("census P800 K2", "census", ("P800", "K2")))
        return out
    if workload == "fiber-deck":
        return [
            Instance("ef K2 petersen 0,1 16", "ef", ("K2", "petersen", "0,1", "16")),
            Instance("covering K2 petersen 6", "covering", ("K2", "petersen", "0,1", 6)),
            Instance("pi petersen 5", "pi", ("petersen", 5)),
            Instance("cover petersen 7", "cover", ("petersen", "7")),
            Instance("verify", "verify", (str(seed),)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def argv(inst):
    a = inst.args
    if inst.kind in ("classify", "census"):
        return [inst.kind, "--domain", a[0], "--codomain", a[1]]
    if inst.kind == "ef":
        return ["ef", "--domain", a[0], "--codomain", a[1], "--seed-hom", a[2], "--max-norm", a[3]]
    if inst.kind == "cover":
        return ["cover", "--graph", a[0], "--radius", a[1]]
    return ["verify", "--seed", a[0]]


def cli(args, out):
    """Run one subcommand through homcx.cli.main; the report bytes it wrote."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli_main(args + ["--out", str(out)])
    if rc != 0:
        raise InstanceFailed(f"exit {rc}: {err.getvalue().strip()}")
    return Path(out).read_bytes()


def check_lifts(cover, lift):
    """Lift every walk from the basepoint; each must land on its own vertex."""
    start = ReducedWalk(cover.base, (cover.basepoint,))
    for xi in cover.walks:
        lifted = lift(cover, start, xi)
        if lifted.vertices[-1] != cover.index[xi] or cover.project_walk(lifted).vertices != xi.vertices:
            raise WrongReport(f"lift of {xi.vertices} is wrong")
    return len(cover.walks)


def run(inst, out):
    """Execute one instance; returns its report bytes."""
    if inst.kind == "covering":
        G, H = load_graph(inst.args[0]), load_graph(inst.args[1])
        return canonical(check_poset_covering_local(load_hom(G, H, inst.args[2]), inst.args[3]))
    if inst.kind == "pi":
        H = load_graph(inst.args[0])
        walks = all_reduced_walks(H, inst.args[1])
        window = materialize_pi(H, inst.args[1])
        if len(walks) != len(window.walks):
            raise WrongReport(f"{len(walks)} reduced walks, but the window holds {len(window.walks)}")
        return canonical(window.to_json())
    data = cli(argv(inst), out)
    if inst.kind == "cover":
        check_lifts(tree_cover(load_graph(inst.args[0]), 0, int(inst.args[1])), lift_walk)
    return data


def check(inst, data, seed):
    """Raise WrongReport unless the report of inst is the expected one."""
    if inst.kind in ("classify", "census"):
        comps = json.loads(data)["components"]
        if any(c["betti"][0] != 1 for c in comps):
            raise WrongReport(f"{inst.id}: a component has b0 != 1")
        if inst.homs is not None:
            total = sum(c["homs"] for c in comps)
            if total != inst.homs:
                raise WrongReport(f"{inst.id}: {total} homs in the components, trace(A^5) = {inst.homs}")
            return
    if inst.kind == "verify":
        report = json.loads(data)
        if not report["ok"] or report["seed"] != seed:
            raise WrongReport(f"verify --seed {seed} failed: {report}")
        data = canonical(dict(report, seed=0))
    digest = hashlib.sha256(data).hexdigest()
    if digest != DIGESTS[inst.id]:
        raise WrongReport(f"{inst.id}: report digest {digest} differs from the recorded one")
