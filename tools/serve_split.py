#!/usr/bin/env python3
"""Where a served request's host time goes, by step.

    python3 tools/serve_split.py [--seed 0 --scale 1.0 --iterations 5]
    make serve-split

``serve_e19`` reports one ``norm_ops_per_s`` for an event loop, two QoS
mechanisms, a replica pool and a cached B-tree; a serving PR needs to know
*which step of a request moved*.  This builds the workload through
``perfbench``'s own set-up (imported read-only from ``benchmarks/perf``),
runs the workload's own ``iteration`` and prints

* the round-size histogram and the mean keys per round (what
  ``Replica.lookup_many`` is actually handed),
* the peak length of the engine's event heap (one wake-up per shard), and
* the median host microseconds per request in each step of the path.

The steps are *sampled*, not timed call by call: a request costs ~10 us
across ~10 Python calls, so a 0.5 us class-level timer a call (the
instrument of ``tools/durable_split.py``, which prices ~20 us ops with six
calls each) would mostly measure itself, and three of the steps — the
arrival loop, the dispatch bookkeeping and the completion accounting — are
lines of one function with no call boundary to wrap.  An interval timer
fires every ``INTERVAL_S`` of wall time; the sample goes to the innermost
frame that belongs to a step (by source file, and inside
``RequestEngine.run`` by line: the set-up before ``dispatch``, ``dispatch``
up to its last ``for`` loop, that loop — the completion accounting — and
the event loop after it).  A step's microseconds are its share of the
samples times the iteration's timed wall per request.  It works unchanged
on an older checkout (copy the file in), which is how a before column is
taken.  Exits non-zero if the workload's oracle failed.

What the numbers are good for: CPython runs a signal handler at its next
check point (a call or a loop back-edge), so the last few bytecodes before
a call are booked to the callee — ~0.1-0.2 us a boundary, which at these
sizes blurs neighbouring steps by 10-20 %; the two counting shims cost
~0.2 us a round.  Sizing, not claims: a claim is ``make perf-pairs``.
"""

from __future__ import annotations

import argparse
import ast
import gc
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Wall seconds between samples: ~1 000 an iteration at full scale, and a
#: delivered signal costs ~10 us, so sampling is ~2 % of what it measures
#: (at 0.2 ms it measured 15-25 %).
INTERVAL_S = 0.0005

#: Report order.  ``arrival + admission`` is ``RequestEngine.run``'s own
#: event loop (arrivals, the admission gate and its token buckets, the
#: queue-depth bookkeeping, wake-ups); ``dispatch bookkeeping`` is the rest
#: of ``dispatch`` (replica pool, round assembly, hedging, the heap).
STEPS = (
    "traffic draw", "arrival + admission", "WFQ push + pop", "dispatch bookkeeping",
    "lookup_many: replica", "lookup_many: tree descent", "lookup_many: cache",
    "lookup_many: device", "completion accounting",
)

#: Source file (relative to ``src/repro``) -> step, for every frame but the
#: engine's and the QoS module's own.
FILE_STEPS = {
    "serve/tenants.py": "traffic draw",
    "serve/shardmap.py": "traffic draw",
    "storage/engine.py": "dispatch bookkeeping",
    "serve/shard.py": "lookup_many: replica",
    "trees/api.py": "lookup_many: tree descent",
    "trees/btree/tree.py": "lookup_many: tree descent",
    "storage/stack.py": "lookup_many: cache",
    "storage/cache.py": "lookup_many: cache",
    "storage/device.py": "lookup_many: device",
    "storage/hdd.py": "lookup_many: device",
    "faults/device.py": "lookup_many: device",
}


def _class_def(path: Path, name: str) -> ast.ClassDef:
    tree = ast.parse(path.read_text())
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def qos_line_steps(qos_path: Path) -> dict[int, str]:
    """``{line: step}`` for the fair queue; the rest of the module is admission."""
    queue = _class_def(qos_path, "WeightedFairQueue")
    return dict.fromkeys(range(queue.lineno, queue.end_lineno + 1), "WFQ push + pop")


def engine_line_steps(engine_path: Path) -> dict[int, str]:
    """``{line: step}`` for ``RequestEngine.run`` and ``_draw_traffic``."""
    engine = _class_def(engine_path, "RequestEngine")
    methods = {n.name: n for n in engine.body if isinstance(n, ast.FunctionDef)}
    run = methods["run"]
    dispatch = next(
        n for n in run.body if isinstance(n, ast.FunctionDef) and n.name == "dispatch"
    )
    rounds = next(n for n in dispatch.body if isinstance(n, ast.While))
    completion = rounds.body[-1]
    if not (isinstance(completion, ast.For) and "latencies" in ast.unparse(completion)):
        raise SystemExit(
            "serve_split: dispatch() no longer ends its round loop with the completion "
            "`for`; teach tools/serve_split.py the new shape"
        )
    draw = methods["_draw_traffic"]
    steps = dict.fromkeys(range(draw.lineno, draw.end_lineno + 1), "traffic draw")
    for line in range(run.lineno, run.end_lineno + 1):
        if line < dispatch.lineno:
            steps[line] = "traffic draw"  # draw, convert to native columns, route
        elif line > dispatch.end_lineno:
            steps[line] = "arrival + admission"
        elif completion.lineno <= line <= completion.end_lineno:
            steps[line] = "completion accounting"
        else:
            steps[line] = "dispatch bookkeeping"
    return steps


def _line_before(frame) -> int | None:
    """The line of the last instruction with one at or before ``frame``'s.

    A loop whose body ends in an ``if`` closes with a back-edge that has no
    line of its own — and a back-edge is where samples land.
    """
    line = None
    for start, _end, here in frame.f_code.co_lines():
        if start > frame.f_lasti:
            break
        line = here or line
    return line


class Sampler:
    """Counts ``SIGALRM`` samples per step between :meth:`start` and :meth:`stop`."""

    def __init__(self, package: Path) -> None:
        self.counts: Counter[str] = Counter()
        self._files = {str(package / rel): step for rel, step in FILE_STEPS.items()}
        self._engine = str(package / "serve" / "engine.py")
        self._qos = str(package / "serve" / "qos.py")
        self._engine_lines = engine_line_steps(Path(self._engine))
        self._qos_lines = qos_line_steps(Path(self._qos))
        self._previous = None

    def _step_of(self, frame) -> str | None:
        filename = frame.f_code.co_filename
        step = self._files.get(filename)
        if step is None and filename == self._engine:
            step = self._engine_lines.get(frame.f_lineno or _line_before(frame))
        elif step is None and filename == self._qos:
            step = self._qos_lines.get(frame.f_lineno, "arrival + admission")
        return step

    def _sample(self, _signum, frame) -> None:
        while frame is not None:
            step = self._step_of(frame)
            if step is not None:
                self.counts[step] += 1
                return
            frame = frame.f_back
        # The benchmark's own accounting between engine runs: not a step.

    def start(self) -> None:
        self.counts.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Counter[str]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return Counter(self.counts)


class HeapShim:
    """``heapq`` for the engine module, remembering the longest heap."""

    def __init__(self, heapq) -> None:
        self._heapq = heapq
        self.peak = 0

    def heappush(self, heap, item) -> None:
        self._heapq.heappush(heap, item)
        if len(heap) > self.peak:
            self.peak = len(heap)

    def heappop(self, heap):
        return self._heapq.heappop(heap)


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
    """``(run, [(ops, wall, {step: samples}), ...], round sizes, peak heap, shards)``."""
    import repro
    from perfbench.harness import Run
    from perfbench.workloads import serve_e19
    from repro.serve import engine as engine_module
    from repro.serve.shard import Replica

    run = Run(seed, scale)
    workload = serve_e19.ServeE19(run)
    workload.setup()
    sampler = Sampler(Path(repro.__file__).resolve().parent)
    round_sizes: Counter[int] = Counter()
    lookup_many = Replica.lookup_many

    def counted_lookup_many(self, keys):
        round_sizes[len(keys)] += 1
        return lookup_many(self, keys)

    heap = HeapShim(engine_module.heapq)
    samples: list[tuple[int, float, Counter[str]]] = []
    # As in perfbench.harness.measure: the loaded cluster is long-lived.
    gc.collect()
    gc.freeze()
    Replica.lookup_many = counted_lookup_many
    engine_module.heapq = heap
    try:
        for i in range(iterations):
            workload.prepare(i)
            sampler.start()
            try:
                ops, wall = workload.iteration(i)
            finally:
                counts = sampler.stop()
            samples.append((ops, wall, counts))
    finally:
        engine_module.heapq = heap._heapq
        Replica.lookup_many = lookup_many
        gc.unfreeze()
    workload.finish()
    return run, samples, round_sizes, heap.peak, len(workload.shards)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    for path in (ROOT / "src", ROOT / "benchmarks" / "perf"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    run, samples, round_sizes, peak_heap, n_shards = split(args.seed, args.scale, args.iterations)
    requests = sum(ops for ops, _, _ in samples)
    rounds = sum(round_sizes.values())
    keys = sum(size * n for size, n in round_sizes.items())
    print(
        f"serve_e19 seed {args.seed} scale {args.scale:g}: {args.iterations} iterations, "
        f"{requests} requests in {rounds} rounds (hedge duplicates included)"
    )
    print(f"  keys per round {keys / rounds:.2f}; share of rounds by size:")
    print("    " + "  ".join(f"{size}: {n / rounds:.1%}" for size, n in sorted(round_sizes.items())))
    print(f"  peak event-heap length {peak_heap} ({n_shards} shards)")
    medians = {
        step: statistics.median(
            counts[step] / max(1, sum(counts.values())) * wall / n * 1e6
            for n, wall, counts in samples
        )
        for step in STEPS
    }
    total = sum(medians.values())
    per_iteration = statistics.median(sum(counts.values()) for _, _, counts in samples)
    print(
        f"  median host us per request, from {per_iteration:g} samples an iteration "
        f"(one every {INTERVAL_S * 1e3:g} ms):"
    )
    print(f"    {'step':<28}{'us/request':>11}{'share':>8}")
    for step, us in medians.items():
        print(f"    {step:<28}{us:>11.2f}{us / total:>8.1%}")
    print(f"    {'sum':<28}{total:>11.2f}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return int(run.failed > 0)


if __name__ == "__main__":
    sys.exit(main())
