"""BENCHMARK.json obeys the driver's contract and matches the catalogue."""

import json
import re
from pathlib import Path

from perfbench import catalogue

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue_written_out():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()


def test_contract_limits():
    spec = catalogue.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) <= 64 * 1024
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_command_and_paths_stay_inside_the_benchmark():
    spec = catalogue.benchmark_json()
    assert spec["paths"] == ["benchmarks/perf"] and (ROOT / spec["paths"][0]) == PERF
    assert len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
    assert (ROOT / spec["command"][1]).is_file()
    assert set(catalogue.WORKLOADS) == {
        "device_engine", "tree_read", "tree_write", "serve_e19", "durable_e21", "sweep_runner",
    }
