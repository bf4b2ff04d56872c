#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark.

    python3 tools/perf_pairs.py --workload device_engine --base <sha> [--n 10] [--seed 0]
    python3 tools/perf_pairs.py --workload all --base <sha>
    make perf-pairs WORKLOAD=all BASE=<sha> N=10 SEED=0

The procedure ``/opt/skills/guides/choosing-metrics`` section 8 asks of a
change, done by hand until now: export ``--base`` into a temporary
directory, run ``N`` pairs of the *unmodified*
``benchmarks/perf/run.py --workload W --seed S --trace 0`` — the base's own
copy in the export, this checkout's copy here (uncommitted edits included)
— alternating which side goes first, then hand both sets of result files to
``benchmarks/perf/compare.py`` and print, per end-to-end metric, how many
pairs the change won.  ``--workload all`` does that for every workload of
``BENCHMARK.json`` in turn — the check a change that claims no gain needs
("no end-to-end metric worse on any workload") — and ends with one table
of medians.  Exit status is 1 if any ``compare.py`` reported a regression,
a ``sim_digest`` mismatch or a failed operation, or the first failing
run's.

The base is exported with ``git archive``, so nothing is registered in
``.git`` and nothing is left behind; the result files stay in
``<--out>/<workload>-seed<S>/`` (default ``.perf-pairs/``, git-ignored).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks/perf/run.py")
COMPARE = Path("benchmarks/perf/compare.py")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="a workload of BENCHMARK.json, or all of them in turn",
    )
    parser.add_argument("--base", required=True, help="commit to compare this checkout against")
    parser.add_argument("--n", type=int, default=10, help="pairs to run (compare.py needs >= 2)")
    parser.add_argument("--seed", type=int, default=0, help="0 while developing, 1 held out")
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".perf-pairs",
        help="directory under which <workload>-seed<S>/ holds the result files",
    )
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2")
    return args


def export(commit: str, into: Path) -> None:
    """Unpack the committed files of ``commit`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--out", str(out)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )


def metric_values(path: Path) -> dict[str, float]:
    (run,) = json.loads(path.read_text())["runs"]
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def pair_wins(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> None:
    """Per end-to-end metric: pairs the change won / lost / tied."""
    print(f"\npairs won by the change (of {len(pairs)}; ties count for neither):")
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        deltas = [sign * (n[name] - b[name]) for b, n in pairs]
        won = sum(d > 0 for d in deltas)
        lost = sum(d < 0 for d in deltas)
        print(f"  {name:<16} won {won:>2}  lost {lost:>2}  tied {len(pairs) - won - lost:>2}")


def run_pairs(workload: str, base_checkout: Path, args: argparse.Namespace) -> dict:
    """``args.n`` alternating pairs of one workload; compare.py's status and the medians."""
    out = (args.out / f"{workload}-seed{args.seed}").resolve()
    out.mkdir(parents=True, exist_ok=True)
    base_files = [out / f"base-{i:02d}.json" for i in range(args.n)]
    new_files = [out / f"change-{i:02d}.json" for i in range(args.n)]
    for i in range(args.n):
        sides = [("base", base_checkout, base_files[i]), ("change", ROOT, new_files[i])]
        if i % 2:  # alternate which side runs first
            sides.reverse()
        for side, checkout, path in sides:
            print(f"{workload} pair {i + 1}/{args.n}: {side}", flush=True)
            run_once(checkout, workload, args.seed, path)
    status = subprocess.run(
        [sys.executable, str(ROOT / COMPARE), "--base", *map(str, base_files),
         "--new", *map(str, new_files)],
    ).returncode
    pairs = [(metric_values(b), metric_values(n)) for b, n in zip(base_files, new_files)]
    pair_wins(pairs)
    medians = {
        metric["name"]: tuple(
            statistics.median(run[metric["name"]] for run in runs)
            for runs in zip(*pairs)  # all base runs, then all change runs
        )
        for metric in BENCH["end_to_end"]
    }
    return {"workload": workload, "status": status, "medians": medians}


def summary(results: list[dict], args: argparse.Namespace) -> None:
    """One row per workload: base -> change medians, and compare.py's verdict."""
    names = [metric["name"] for metric in BENCH["end_to_end"]]
    print(f"\nmedians of {args.n} pairs, base {args.base} -> change, seed {args.seed}:")
    print(f"  {'workload':<14}" + "".join(f" {name:>24}" for name in names) + "  compare.py")
    for result in results:
        cells = "".join(
            f" {f'{base:.6g} -> {new:.6g}':>24}"
            for base, new in (result["medians"][name] for name in names)
        )
        print(f"  {result['workload']:<14}{cells}  {'ok' if result['status'] == 0 else 'FAILED'}")


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        base_checkout = Path(tmp) / "base"
        export(args.base, base_checkout)
        results = [run_pairs(workload, base_checkout, args) for workload in workloads]
    if len(results) > 1:
        summary(results, args)
    return int(any(result["status"] for result in results))


if __name__ == "__main__":
    sys.exit(main())
