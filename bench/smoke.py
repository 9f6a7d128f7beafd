"""Smoke test of the benchmark itself, on one small instance per workload.

    python3 -m pytest bench/smoke.py

It is kept out of the repository's default test collection on purpose: it
spawns benchmark processes and belongs with the benchmark, not with homcx.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run  # first: it puts the checkout's src/ on sys.path
import instances  # noqa: E402

SMALL = {
    "classify-ladder": "classify K2 C5",
    "census-random": "census C5 target00",
    "fiber-deck": "cover petersen 7",
}


def run_small(monkeypatch, capsys, workload, trace):
    """Run the benchmark's main on the workload's small instance only, for one pass."""
    build = run.build

    def small(*args):
        return [i for i in build(*args) if i.id == SMALL[workload]]

    monkeypatch.setattr(run, "build", small)
    monkeypatch.setitem(run.HARDEST, workload, SMALL[workload])
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, workload, trace):
    code, result = run_small(monkeypatch, capsys, workload, trace)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tampered_digest_fails_the_check(monkeypatch, capsys):
    monkeypatch.setitem(instances.DIGESTS, SMALL["classify-ladder"], "0" * 64)
    code, result = run_small(monkeypatch, capsys, "classify-ladder", 0)
    assert code == 1
    assert result["correct"] is False


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   instances.InstanceFailed("exit 2: invariant violated")])
def test_failing_instance_fails_the_run(monkeypatch, capsys, error):
    def broken(inst, out):
        raise error

    monkeypatch.setattr(run, "run", broken)
    code, result = run_small(monkeypatch, capsys, "census-random", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"] == {}


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fiber-deck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
