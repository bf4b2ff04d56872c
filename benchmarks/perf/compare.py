#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 benchmarks/perf/compare.py --base a1.json a2.json --new b1.json b2.json

Each side needs at least two result files (``run.py --out``, or the
``out/result-*.json`` a full run writes).  For every (workload, end-to-end
metric) it prints each side's median and quartiles and a verdict against
the metric's bound in ``BENCHMARK.json``, by the rule of the
``choosing-metrics`` guide (section 8):

* ``improved``   — every new run beats every base run, and the medians
  differ by more than the base's own quartile spread;
* ``regressed``  — the new median is worse by more than the bound, and
  either the spread is within the bound or every new run is worse than
  every base run;
* ``unresolved`` — the spread of either side is wider than the bound and
  neither side's runs all beat the other's;
* ``unchanged``  — anything else.

Simulated statistics are deterministic for a seed, so runs of the same
(workload, seed, scale) on both sides must carry the same ``sim_digest``;
that is checked exactly.  Exit status is 1 on a regression, a digest
mismatch or a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from perfbench.harness import quartiles  # noqa: E402  (needs the path above)

#: Host metrics kept out of ``BENCHMARK.json`` (not defined on every
#: workload) that still carry a bound: name -> (better, bound).
EXTRA_BOUNDS = {"runner.executor.parallel_speedup": ("higher", 0.10)}


def load(paths: list[Path]) -> list[dict]:
    runs = []
    for path in paths:
        runs.extend(json.loads(path.read_text())["runs"])
    return runs


def values_by_metric(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per untraced run."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            out[run["workload"], name].append(entry["value"])
        for name in EXTRA_BOUNDS:
            if name in run["detail"]["stats"]:
                out[run["workload"], name].append(run["detail"]["stats"][name])
    return out


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worsening has the sign of `sign * delta`
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0, (n3 - n1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if all_better and abs(nmed - bmed) > (b3 - b1):
        return "improved"
    if worse_by > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path, default=HERE.parents[1] / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.base) < 2 or len(args.new) < 2:
        parser.error("each side needs at least two result files")
    bounds = {
        m["name"]: (m["better"], m["bound"])
        for m in json.loads(args.benchmark.read_text())["end_to_end"]
    }
    bounds.update(EXTRA_BOUNDS)
    base_runs, new_runs = load(args.base), load(args.new)
    base, new = values_by_metric(base_runs), values_by_metric(new_runs)

    status = 0
    print(f"{'workload':14s} {'metric':34s} {'base q1/med/q3':>36s} "
          f"{'new q1/med/q3':>36s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        better, bound = bounds[metric]
        result = verdict(base[key], new[key], better, bound)
        status |= result == "regressed"
        fmt = lambda v: "/".join(f"{x:.5g}" for x in quartiles(v))
        print(f"{workload:14s} {metric:34s} {fmt(base[key]):>36s} {fmt(new[key]):>36s}  "
              f"{result} (bound {bound:.0%}, n={len(base[key])}+{len(new[key])})")

    def digests(runs: list[dict]) -> dict[tuple, set[str]]:
        out: dict[tuple, set[str]] = defaultdict(set)
        for run in runs:
            out[run["workload"], run["seed"], run["scale"], run["trace"]].add(run["sim_digest"])
        return out

    base_digests, new_digests = digests(base_runs), digests(new_runs)
    common = sorted(set(base_digests) & set(new_digests))
    differing = [k for k in common if len(base_digests[k] | new_digests[k]) > 1]
    print(f"sim_digest: identical on {len(common) - len(differing)} of {len(common)} "
          "(workload, seed, scale, trace) runs both sides share")
    for workload, seed, scale, trace in differing:
        print(f"  DIFFERS: {workload} seed {seed} scale {scale} trace {trace}")
    failed = sum(run["failed"] for run in base_runs + new_runs)
    if failed:
        print(f"failed operations in the inputs: {failed}")
    return 1 if status or differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
