#!/usr/bin/env python3
"""Where a durable op's host time goes, per tree kind.

    python3 tools/durable_split.py [--seed 0 --scale 1.0 --iterations 5]
    make durable-split

``durable_e21`` reports one ``norm_ops_per_s`` for a B-tree and an LSM
behind the same write-ahead log; a recovery PR needs to know *which step
of a durable op moved*.  This builds the workload through ``perfbench``'s
own set-up (imported read-only from ``benchmarks/perf``), runs the
workload's own ``iteration`` on its own streams one kind at a time, and
times the steps with class-level timers: each label gets its *self*
seconds (time inside it minus time inside a nested timed step), except
``recover``, which keeps everything under it.  A checkpoint's scan is the
tree's ``range`` called from ``checkpoint``; ranges called from the
untimed oracle are not counted.  Prints the median host seconds per
iteration of every step and exits non-zero if the workload's oracle
failed.  The timers cost ~0.5 us a call and there are ~6 a durable op, so
the shares are for sizing, not for claims: a claim is ``make perf-pairs``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

#: Report order; ``remainder`` is the timed wall no step accounts for (the
#: driver loop, ``DurableTree.put``/``delete`` themselves, the load).
STEPS = (
    "checkpoint scan", "checkpoint rest", "wal.append", "wal.commit",
    "tree.insert", "tree.delete", "recover", "remainder",
)


class Timers:
    """Self seconds per step of the class-level methods :meth:`wrap` patched."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # [seconds in nested steps] per call in flight
        self._inclusive = 0           # calls in flight that keep their nested steps
        self._undo: list[tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, step: str, *,
             inclusive: bool = False, nested_only: bool = False) -> None:
        """Time ``cls.name`` as ``step`` (``nested_only``: only under another step)."""
        inner = cls.__dict__[name]
        stack, totals = self._stack, self.totals

        def timed(*args, **kwargs):
            if self._inclusive or (nested_only and not stack):
                return inner(*args, **kwargs)
            nested = [0.0]
            stack.append(nested)
            self._inclusive += inclusive
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self._inclusive -= inclusive
                stack.pop()
                totals[step] += spent - nested[0]
                if stack:
                    stack[-1][0] += spent

        setattr(cls, name, timed)
        self._undo.append((cls, name, inner))

    def restore(self) -> None:
        for cls, name, inner in reversed(self._undo):
            setattr(cls, name, inner)
        self._undo.clear()


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="every input stream derives from it")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink loads and iterations")
    parser.add_argument("--iterations", type=int, default=5, help="iterations the median is over")
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    return args


def split(seed: int, scale: float, iterations: int):
    """``(run, {kind: [(ops, {step: seconds}), ...]})`` over ``iterations``."""
    from perfbench.harness import Run
    from perfbench.workloads import durable_e21
    from repro.recovery import DurableTree
    from repro.recovery.wal import WriteAheadLog
    from repro.trees.btree.tree import BTree
    from repro.trees.lsm.tree import LSMTree

    run = Run(seed, scale)
    workload = durable_e21.DurableE21(run)
    workload.setup()
    kinds = durable_e21.KINDS
    timers = Timers()
    timers.wrap(DurableTree, "checkpoint", "checkpoint rest")
    timers.wrap(DurableTree, "recover", "recover", inclusive=True)
    timers.wrap(WriteAheadLog, "append", "wal.append")
    timers.wrap(WriteAheadLog, "commit", "wal.commit")
    for tree in (BTree, LSMTree):
        timers.wrap(tree, "range", "checkpoint scan", nested_only=True)
        timers.wrap(tree, "insert", "tree.insert")
        timers.wrap(tree, "delete", "tree.delete")
    samples: dict[str, list[tuple[int, dict[str, float]]]] = {kind: [] for kind in kinds}
    gc.collect()
    gc.freeze()
    try:
        for i in range(iterations):
            workload.prepare(i)
            for kind in kinds:
                durable_e21.KINDS = (kind,)  # the workload's own loop, one kind
                timers.totals.clear()
                ops, wall = workload.iteration(i)
                steps = dict(timers.totals)
                steps["remainder"] = wall - sum(steps.values())
                samples[kind].append((ops, steps))
        workload.finish()
    finally:
        durable_e21.KINDS = kinds
        timers.restore()
        gc.unfreeze()
    return run, samples


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    run, samples = split(args.seed, args.scale, args.iterations)
    print(
        f"durable_e21 seed {args.seed} scale {args.scale:g}: median host seconds "
        f"per iteration over {args.iterations}, each kind alone (self time per step)"
    )
    for kind, runs in samples.items():
        ops = statistics.median(ops for ops, _ in runs)
        medians = {
            step: statistics.median(steps.get(step, 0.0) for _, steps in runs) for step in STEPS
        }
        total = sum(medians.values())
        print(f"  {kind}: {ops:g} ops/iteration")
        print(f"    {'step':<18}{'s/iteration':>12}{'us/op':>9}{'share':>8}")
        for step, wall in medians.items():
            print(f"    {step:<18}{wall:>12.4f}{wall / ops * 1e6:>9.2f}{wall / total:>8.1%}")
        print(f"    {'sum':<18}{total:>12.4f}{total / ops * 1e6:>9.2f}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return int(run.failed > 0)


if __name__ == "__main__":
    sys.exit(main())
