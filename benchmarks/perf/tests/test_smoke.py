"""The command end to end, small: exit codes, oracles, seeds, time."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.catalogue import END_TO_END, PER_LAYER, WORKLOADS

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
RUN = str(PERF / "run.py")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_all_six_workloads_smoke_in_under_30_seconds(tmp_path):
    out = tmp_path / "result.json"
    start = time.perf_counter()
    done = _run("--scale", "0.05", "--seconds", "0.2", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 30, f"smoke took {elapsed:.1f}s"
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        (w, t) for w in WORKLOADS for t in (0, 1)
    ]
    for r in runs:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        wanted = [n for n, *_ in (PER_LAYER if r["trace"] else END_TO_END)]
        assert list(r["metrics"]) == wanted
    for r in runs:
        if r["trace"]:
            # Tracing did not change the simulation, and the spans account
            # for the traced wall time.
            assert r["detail"]["traced_sim_digest"] == r["sim_digest"]
            assert r["detail"]["host_self_s_sum"] == pytest.approx(
                r["detail"]["traced_wall_s"], rel=0.05
            )
            assert r["metrics"]["host.trace_overhead_ratio"]["value"] > 0
    summary = json.loads(done.stdout.rstrip().split("\n")[-1])
    assert summary["correct"] is True and summary["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_every_digest_but_not_the_metric_set(workload):
    lines = {}
    for seed in (0, 0, 1):
        done = _run("--workload", workload, "--scale", "0.05", "--seconds", "0.2",
                    "--seed", str(seed))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        digest = next(
            line.split("sim_digest ")[1] for line in done.stdout.split("\n") if "sim_digest " in line
        )
        result = json.loads(done.stdout.rstrip().split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        lines.setdefault(seed, []).append((digest, sorted(result["metrics"])))
    (first, metrics), (again, _) = lines[0]
    assert first == again, "same code and seed must repeat the simulated statistics exactly"
    assert lines[1][0][0] != first and lines[1][0][1] == metrics


def test_wrong_value_from_a_wrapped_tree_fails_the_command(monkeypatch, capsys):
    import run as command
    from repro.trees.btree import BTree

    honest = BTree.get
    monkeypatch.setattr(BTree, "get", lambda self, key: -7 if key % 97 == 0 else honest(self, key))
    status = command.main(["--workload", "tree_read", "--scale", "0.05", "--seconds", "0.2",
                           "--trace", "1"])
    result = json.loads(capsys.readouterr().out.rstrip().split("\n")[-1])
    assert status != 0 and result["correct"] is False and result["failed"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "tree_read", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
