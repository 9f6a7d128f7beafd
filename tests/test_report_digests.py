"""Reports of the fiber machinery must stay byte-identical.

The benchmark records the sha256 of each report it checks in
bench/digests.json. These tests recompute three of them, the `ef` CLI
report and the covering and window reports the benchmark takes from library
calls, and only read that file.
"""

import hashlib
import json
from pathlib import Path

from homcx import check_poset_covering_local, materialize_pi
from homcx.cli import load_graph, load_hom, main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text()
)["sha256"]


def canonical(obj):
    """The bytes the CLI writes for a report."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_ef_report(tmp_path):
    out = tmp_path / "ef.json"
    argv = ["ef", "--domain", "K2", "--codomain", "petersen", "--seed-hom", "0,1"]
    assert main(argv + ["--max-norm", "16", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == DIGESTS["ef K2 petersen 0,1 16"]


def test_covering_report():
    f = load_hom(load_graph("K2"), load_graph("petersen"), "0,1")
    report = canonical(check_poset_covering_local(f, 6))
    assert sha256(report) == DIGESTS["covering K2 petersen 6"]


def test_window_report():
    report = canonical(materialize_pi(load_graph("petersen"), 5).to_json())
    assert sha256(report) == DIGESTS["pi petersen 5"]
