"""Reports must stay byte-identical.

The benchmark records the sha256 of each report it checks in
bench/digests.json. These tests recompute every one it records for a fixed
instance: the report of each CLI subcommand it runs, which pins the report
writer on each report shape, and the covering and window reports it takes
from library calls. They only read that file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from homcx import check_poset_covering_local, materialize_pi
from homcx.cli import load_graph, load_hom, main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text()
)["sha256"]

# the benchmark's classify-ladder, every instance of which it hashes
LADDER = [
    ("K2", "C5"), ("K2", "petersen"), ("P3", "C5"), ("P4", "C5"), ("P5", "C5"),
    ("K1,3", "C5"), ("C6", "C5"), ("C6", "C3"), ("C7", "C3"), ("P3", "petersen"),
]

CLI_REPORTS = {
    "cover petersen 7": ["cover", "--graph", "petersen", "--radius", "7"],
    **{f"classify {g} {h}": ["classify", "--domain", g, "--codomain", h] for g, h in LADDER},
    "census C7 petersen": ["census", "--domain", "C7", "--codomain", "petersen"],
    "census P800 K2": ["census", "--domain", "P800", "--codomain", "K2"],
    # the benchmark hashes the verify report with its seed set to 0
    "verify": ["verify", "--seed", "0"],
}


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


@pytest.mark.parametrize("name", sorted(CLI_REPORTS))
def test_cli_report(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(CLI_REPORTS[name] + ["--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == DIGESTS[name]


def test_covering_report():
    f = load_hom(load_graph("K2"), load_graph("petersen"), "0,1")
    report = canonical(check_poset_covering_local(f, 6))
    assert sha256(report) == DIGESTS["covering K2 petersen 6"]


def test_window_report():
    report = canonical(materialize_pi(load_graph("petersen"), 5).to_json())
    assert sha256(report) == DIGESTS["pi petersen 5"]
