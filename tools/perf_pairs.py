#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark.

    python3 tools/perf_pairs.py --workload device_engine --base <sha> [--n 10] [--seed 0]
    make perf-pairs WORKLOAD=device_engine BASE=<sha> N=10 SEED=0

The procedure ``/opt/skills/guides/choosing-metrics`` section 8 asks of a
change that claims a gain, done by hand until now: export ``--base`` into a
temporary directory, run ``N`` pairs of the *unmodified*
``benchmarks/perf/run.py --workload W --seed S --trace 0`` — the base's own
copy in the export, this checkout's copy here (uncommitted edits included)
— alternating which side goes first, then hand both sets of result files to
``benchmarks/perf/compare.py`` and print, per end-to-end metric, how many
pairs the change won.  Exit status is ``compare.py``'s (1 on a regression, a
``sim_digest`` mismatch or a failed operation), or the first failing run's.

The base is exported with ``git archive``, so nothing is registered in
``.git`` and nothing is left behind; the result files stay in ``--out``
(default ``.perf-pairs/<workload>-seed<S>/``, git-ignored).
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks/perf/run.py")
COMPARE = Path("benchmarks/perf/compare.py")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--base", required=True, help="commit to compare this checkout against")
    parser.add_argument("--n", type=int, default=10, help="pairs to run (compare.py needs >= 2)")
    parser.add_argument("--seed", type=int, default=0, help="0 while developing, 1 held out")
    parser.add_argument("--out", type=Path, help="directory for the result files")
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


def run_once(checkout: Path, args: argparse.Namespace, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
         "--trace", "0", "--out", str(out)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )


def metric_values(path: Path) -> dict[str, float]:
    (run,) = json.loads(path.read_text())["runs"]
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def pair_wins(base: list[Path], new: list[Path]) -> None:
    """Per end-to-end metric: pairs the change won / lost / tied."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [(metric_values(b), metric_values(n)) for b, n in zip(base, new)]
    print(f"\npairs won by the change (of {len(pairs)}; ties count for neither):")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        deltas = [sign * (n[name] - b[name]) for b, n in pairs]
        won = sum(d > 0 for d in deltas)
        lost = sum(d < 0 for d in deltas)
        print(f"  {name:<16} won {won:>2}  lost {lost:>2}  tied {len(pairs) - won - lost:>2}")


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    out = (args.out or ROOT / ".perf-pairs" / f"{args.workload}-seed{args.seed}").resolve()
    out.mkdir(parents=True, exist_ok=True)
    base_files = [out / f"base-{i:02d}.json" for i in range(args.n)]
    new_files = [out / f"change-{i:02d}.json" for i in range(args.n)]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        base_checkout = Path(tmp) / "base"
        export(args.base, base_checkout)
        for i in range(args.n):
            sides = [("base", base_checkout, base_files[i]), ("change", ROOT, new_files[i])]
            if i % 2:  # alternate which side runs first
                sides.reverse()
            for side, checkout, path in sides:
                print(f"pair {i + 1}/{args.n}: {side}", flush=True)
                run_once(checkout, args, path)
    status = subprocess.run(
        [sys.executable, str(ROOT / COMPARE), "--base", *map(str, base_files),
         "--new", *map(str, new_files)],
    ).returncode
    pair_wins(base_files, new_files)
    return status


if __name__ == "__main__":
    sys.exit(main())
