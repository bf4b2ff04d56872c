#!/usr/bin/env python3
"""Which tree kind a tree workload's host time goes to.

    python3 tools/tree_split.py --workload tree_write [--seed 0 --scale 1.0 --iterations 7]
    make tree-split WORKLOAD=tree_read

``tree_write`` and ``tree_read`` report one ``norm_ops_per_s`` for six
kinds driven back to back; a tree PR needs to know *which kind moved*.
This builds the workload through ``perfbench``'s own set-up (imported
read-only from ``benchmarks/perf``), draws each iteration's inputs from
the workload's own streams, and runs the workload's own ``iteration`` once
per kind — each kind alone, on the same inputs — so the walls are the
timed regions the benchmark sums.  Prints the median host seconds per
iteration of every kind, beside the seconds its one ``perfbench.trees.build``
took (the per-kind split of ``setup_s``, timed by wrapping that function
from here), and exits non-zero if the workload's dict-model oracle
disagreed.  Timings are for sizing, not for claims: a claim is
``make perf-pairs``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest.mock import patch

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tree_write", "tree_read")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="every input stream derives from it")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink loads and iterations")
    parser.add_argument("--iterations", type=int, default=7, help="iterations the median is over")
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    return args


def split(workload_name: str, seed: int, scale: float, iterations: int):
    """``(run, {kind: [(ops, wall seconds), ...]}, {kind: load seconds})``
    over ``iterations``."""
    from perfbench import trees
    from perfbench.harness import Run
    from perfbench.workloads import workload_class

    run = Run(seed, scale)
    workload = workload_class(workload_name)(run)
    build = trees.build
    load_s: dict[str, float] = {}

    def timed_build(run, kind, pairs, **placement):
        start = perf_counter()
        built = build(run, kind, pairs, **placement)
        load_s[kind] = perf_counter() - start
        return built

    with patch.object(trees, "build", timed_build):
        workload.setup()
    built = workload.built
    samples: dict[str, list[tuple[int, float]]] = {bt.kind: [] for bt in built}
    # As in perfbench.harness.measure: the loaded trees are long-lived.
    gc.collect()
    gc.freeze()
    try:
        for i in range(iterations):
            workload.prepare(i)
            for bt in built:
                workload.built = [bt]
                samples[bt.kind].append(workload.iteration(i))
        workload.built = built
        workload.finish()
    finally:
        gc.unfreeze()
    return run, samples, load_s


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    run, samples, load_s = split(args.workload, args.seed, args.scale, args.iterations)
    medians = {
        kind: statistics.median(wall for _, wall in runs) for kind, runs in samples.items()
    }
    total = sum(medians.values())
    print(
        f"{args.workload} seed {args.seed} scale {args.scale:g}: median host seconds "
        f"per iteration over {args.iterations}, each kind alone; load s is the "
        f"kind's one build inside set-up"
    )
    print(f"  {'kind':<14}{'s/iteration':>12}{'us/op':>9}{'share':>8}{'load s':>9}")
    for kind, wall in medians.items():
        ops = statistics.median(ops for ops, _ in samples[kind])
        print(
            f"  {kind:<14}{wall:>12.4f}{wall / ops * 1e6:>9.2f}{wall / total:>8.1%}"
            f"{load_s[kind]:>9.3f}"
        )
    print(f"  {'sum':<14}{total:>12.4f}{'':>17}{sum(load_s.values()):>9.3f}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return int(run.failed > 0)


if __name__ == "__main__":
    sys.exit(main())
