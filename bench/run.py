"""The homcx benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is one client in a closed
loop: a single-threaded process runs its instances one after another, pass
after pass, until the next pass would overrun --seconds. Every report is
checked. No instance is meant to fail, so a wrong report, or an instance
that raises or exits non-zero, makes the benchmark print "correct": false
and exit 1. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The lines above it give the run's metadata
and each metric in words. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 5

if not (SRC / "homcx" / "__init__.py").is_file():
    sys.exit(f"bench: no homcx package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

from instances import HARDEST, WORKLOADS, InstanceFailed, WrongReport, build, check, run  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import NullTracer, Tracer, median_metrics, run_traced, write_spans  # noqa: E402


def run_pass(instances, workdir, tally, tracer=None, untraced=None, clock=None):
    """One pass over the instances, untraced unless a tracer is given.

    Returns each instance's wall time and the report bytes of the untraced
    instances. No workload is meant to fail, so an instance that raises or
    exits non-zero fails the run: the pass still runs every instance, so that
    each failure is named, and then raises InstanceFailed.
    """
    times, reports, failures = {}, {}, {}
    for i, inst in enumerate(instances):
        out = Path(workdir) / f"report{i:02d}.json"
        gc.collect()  # each instance starts from a settled heap, as a fresh CLI process would
        if clock:
            clock.tick()
        tally["attempted"] += 1
        t = time.perf_counter()
        try:
            if tracer is None:
                reports[inst.id] = run(inst, out)
            else:
                tracer.instance = inst.id
                with tracer.span("instance"):
                    run_traced(tracer, inst, out, untraced[inst.id])
        except WrongReport:
            raise
        except InstanceFailed as exc:
            failures[inst.id] = str(exc).split(":")[0]
            print(f"bench: {inst.id}: {exc}", file=sys.stderr)
        except Exception as exc:  # a raw traceback out of homcx is a failure, not a crash
            failures[inst.id] = type(exc).__name__
            print(f"bench: {inst.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
        times[inst.id] = time.perf_counter() - t
    if failures:
        tally["failed"] += len(failures)
        raise InstanceFailed("; ".join(f"{k}: {v}" for k, v in failures.items()))
    return times, reports


def checked_pass(instances, workdir, seed, tally, clock=None):
    times, reports = run_pass(instances, workdir, tally, clock=clock)
    for inst in instances:
        check(inst, reports[inst.id], seed)
    return times, reports


def measure(instances, workdir, seed, seconds, hardest, tally):
    """Untraced passes until the next would overrun; medians of the timings,
    each pass's also divided by the host clock's reading for that pass."""
    walls, hard, refs = [], [], []
    clock = HostClock()
    start = time.perf_counter()
    longest = 0.0
    while time.perf_counter() - start + longest <= seconds or not walls:
        t = time.perf_counter()
        times, _ = checked_pass(instances, workdir, seed, tally, clock)
        refs.append(clock.pass_ref())
        longest = max(longest, time.perf_counter() - t)
        walls.append(sum(times.values()))
        hard.append(times[hardest])
    metrics = {
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "hardest_ref": statistics.median(h / r for h, r in zip(hard, refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"wall_s": statistics.median(walls), "hardest_s": statistics.median(hard), "pass_ref": refs}
    return metrics, walls, raw


def measure_traced(instances, workdir, seed, seconds, spans_path, tally):
    """One checked untraced pass for the reports, then pairs of passes through
    the traced stages: one with a tracer that records nothing, one recording.
    Per-module medians of the recording passes; the spans are written out even
    when a pass fails, so the stage that raised can be read from them.
    """
    walls, bare, tracers = [], [], []
    start = time.perf_counter()
    _, reports = checked_pass(instances, workdir, seed, tally)
    longest = 0.0
    try:
        while time.perf_counter() - start + longest <= seconds or not tracers:
            t = time.perf_counter()
            times, _ = run_pass(instances, workdir, tally, NullTracer(), reports)
            bare.append(sum(times.values()))
            tracers.append(Tracer())
            times, _ = run_pass(instances, workdir, tally, tracers[-1], reports)
            walls.append(sum(times.values()))
            longest = max(longest, time.perf_counter() - t)
    finally:
        write_spans(tracers, spans_path)
    metrics = median_metrics(tracers)
    metrics["trace_overhead_s"] = statistics.median(walls) - statistics.median(bare)
    return metrics, walls, {}


def setup_seconds(args):
    """Time from spawning a fresh benchmark process until its first instance is ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def metadata(args):
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        git = None
    return {
        "git_revision": git,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": args.seed,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
    }


def fail_ratio(tally):
    return f"fail_ratio {tally['failed']}/{tally['attempted']} ratio"


def result(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("HOMCX_CAP", None)  # the CLI's default cap, whatever the caller's shell says
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            build(args.workload, args.seed, workdir)
            print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [] if args.trace else [setup_seconds(args) for _ in range(SETUP_PROBES)]
    tally = Counter(attempted=0, failed=0)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        instances = build(args.workload, args.seed, workdir)
        try:
            if args.trace:
                spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
                values, walls, raw = measure_traced(instances, workdir, args.seed, args.seconds, spans, tally)
            else:
                values, walls, raw = measure(instances, workdir, args.seed, args.seconds, HARDEST[args.workload], tally)
                values["setup_s"] = statistics.median(setups)
        except (WrongReport, InstanceFailed) as exc:
            kind = "wrong report" if isinstance(exc, WrongReport) else "failed"
            print(f"bench: {kind}: {exc}", file=sys.stderr)
            print(fail_ratio(tally))
            print(result(False, max(tally["attempted"], 1), tally["failed"], {}))
            return 1
    meta = metadata(args)
    meta["pass_s"] = walls
    meta.update(raw)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(fail_ratio(tally))
    spec = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"computed {sorted(values)}, but BENCHMARK.json names {[m['name'] for m in spec]}")
    for m in spec:
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(result(True, tally["attempted"], tally["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
