#!/usr/bin/env python3
"""Where a benchmark workload's host time goes, by kind and step.

    python3 tools/split.py --workload tree_write [--seed 0 --scale 1.0 --iterations 7]
    make split WORKLOAD=durable_e21

Runs the workload's own ``setup``, ``prepare``, ``iteration`` and ``finish``
(``perfbench``, read-only from ``benchmarks/perf``), each kind alone on the
same inputs, under a :class:`~repro.obs.sampler.HostSampler` labelling
frames by the workload's table in :data:`STEPS`, and prints the median host
us per op of each (step, kind): its share of the counted samples times the
timed wall.  The workload's own lines outside its timed regions (oracle,
``_build``, digests) are untimed.  Tree workloads add each kind's ``load s``,
tree_read each kind's simulated ms and device IOs per get of its ``get``
half and its ``get_many`` half and per scan of its ``range`` calls,
tree_write each kind's simulated ms, device reads, writes and bytes written
per mutation and share of the workload's simulated seconds, of its
``insert``/``delete`` half and of its ``put_many`` half, each summed over the iterations at the
run's scale; device_engine the seconds an
iteration its untimed model fits take (``fits s``), serve_e19 its round
sizes and peak event heap.  Exits
non-zero if the oracle failed.  Sizing, not claims: a claim is ``make
perf-pairs``.
"""

from __future__ import annotations

import argparse
import ast
import gc
import heapq
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from fnmatch import fnmatchcase
from math import nan
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from unittest.mock import patch

ROOT = Path(__file__).resolve().parents[1]

#: Per workload, ``(paths, qualname, label[, first line])`` rules: the first whose
#: ``fnmatch`` patterns match a frame's path (one of ``paths``, relative to
#: ``src/repro``) and ``co_qualname`` labels it; one with a first line, checked
#: first, only inside the statement that begins with it.  Rows follow the table.
TREE = (
    ("trees/*", "*", "tree"),
    ("storage/cache.py storage/stack.py storage/allocator.py", "*", "cache"),
    ("storage/*", "*", "device"),
)
STEPS = {
    "tree_read": TREE,
    "tree_write": TREE,
    "durable_e21": (
        ("trees/api.py", "KVTree.range", "checkpoint scan"),
        ("recovery/durable.py", "DurableTree.checkpoint", "checkpoint rest"),
        ("recovery/wal.py", "WriteAheadLog.append", "wal.append"),
        ("recovery/wal.py", "WriteAheadLog.commit", "wal.commit"),
        ("trees/api.py", "KVTree.insert", "tree.insert"),
        ("trees/api.py", "KVTree.delete", "tree.delete"),
        ("recovery/durable.py", "DurableTree.recover", "recover"),
        ("recovery/durable.py", "DurableTree.*", "remainder"),
    ),
    "serve_e19": (
        ("serve/engine.py", "RequestEngine._draw_traffic", "traffic draw"),
        ("serve/engine.py", "RequestEngine.run*", "traffic draw", "arrivals = zip("),
        ("serve/tenants.py serve/shardmap.py", "*", "traffic draw"),
        ("serve/engine.py", "RequestEngine.run.<locals>.wake_until", "arrival + admission"),
        ("serve/qos.py", "WeightedFairQueue.*", "WFQ push + pop"),
        ("serve/qos.py", "*", "arrival + admission"),
        ("serve/engine.py", "RequestEngine.run.<locals>.dispatch*", "dispatch bookkeeping"),
        ("storage/engine.py", "*", "dispatch bookkeeping"),
        ("serve/engine.py", "RequestEngine.*", "arrival + admission"),
        ("serve/shard.py", "*", "lookup_many: replica"),
        ("trees/*", "*", "lookup_many: tree descent"),
        ("storage/stack.py storage/cache.py", "*", "lookup_many: cache"),
        ("storage/* faults/*", "*", "lookup_many: device"),
        ("serve/engine.py", "RequestEngine.run.<locals>.dispatch*", "completion accounting",
         "for tenant, (arrived, _) in requests:"),
    ),
    "device_engine": (
        ("storage/ssd.py", "SimulatedSSD._*", "ssd service"),
        ("storage/hdd.py", "*", "hdd service"),
        ("storage/engine.py", "ClosedLoopRunner.*", "closed-loop runner"),
        ("storage/scheduler.py storage/ideal.py", "*", "read-ahead"),
        ("storage/*", "*", "device protocol"),
    ),
}
#: device_engine's model fits run outside its timed regions, so no sample
#: books them: each is timed on its own and reported beside the table.
FITS = ("fit_affine_model", "fit_pdam_model")
INCLUSIVE = {"recover"}  # labels that keep every sample under them


def statement_lines(path: Path, first: str) -> range:
    """The lines of the statement in ``path`` whose first line begins ``first``."""
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.stmt) and lines[node.lineno - 1].strip().startswith(first):
            return range(node.lineno, node.end_lineno + 1)
    raise SystemExit(f"split: no statement in {path} begins {first!r}; update tools/split.py")


def untimed_lines(path: Path) -> set[int]:
    """The lines of ``path``'s timing functions outside their timed regions, each
    from a ``perf_counter()`` line to the next, in pairs, as perfbench times."""
    lines = path.read_text().splitlines()
    untimed: set[int] = set()
    for fn in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(fn, ast.FunctionDef):
            span = range(fn.lineno, fn.end_lineno + 1)
            marks = [n for n in span if "perf_counter()" in lines[n - 1]]
            timed = {n for lo, hi in zip(marks[::2], marks[1::2]) for n in range(lo, hi + 1)}
            if timed:
                untimed |= set(span) - timed
    return untimed


def classifier(rules, workload_file: Path):
    """``classify(path, qualname, line)`` for the sampler, from a table."""
    from repro.obs.sampler import UNTIMED, Inclusive

    untimed = untimed_lines(workload_file)
    resolved = sorted(
        ((where, name, Inclusive(label) if label in INCLUSIVE else label,
          statement_lines(ROOT / "src" / "repro" / where, first[0]) if first else None)
         for where, name, label, *first in rules),
        key=lambda rule: rule[3] is None,
    )

    def classify(path: str, qualname: str, line: int | None):
        if path == str(workload_file):
            return UNTIMED if line in untimed else None
        for where, name, label, lines in resolved:
            if (any(fnmatchcase(path, w) for w in where.split()) and fnmatchcase(qualname, name)
                    and (lines is None or line in lines)):
                return label
        return None

    return classify


@contextmanager
def fit_seconds(module):
    """While open: the host seconds the workload ``module``'s :data:`FITS` took."""
    spent = SimpleNamespace(s=0.0)

    def timed(fit):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return fit(*args, **kwargs)
            finally:
                spent.s += perf_counter() - start
        return call

    fits = {n: timed(getattr(module, n)) for n in FITS if hasattr(module, n)}
    with patch.multiple(module, **fits) if fits else nullcontext():
        yield spent


@contextmanager
def serve_counts():
    """While open: the size of every round ``Replica.lookup_many`` is handed
    and the longest event heap of the serve engine."""
    from repro.serve import engine
    from repro.serve.shard import Replica

    counts = SimpleNamespace(peak=0, rounds=Counter())
    lookup_many = Replica.lookup_many

    def counted(replica, keys):
        counts.rounds[len(keys)] += 1
        return lookup_many(replica, keys)

    def heappush(heap, item) -> None:
        heapq.heappush(heap, item)
        counts.peak = max(counts.peak, len(heap))

    shim = SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    with patch.object(Replica, "lookup_many", counted), patch.object(engine, "heapq", shim):
        yield counts


#: tree_read's read paths: ``(row prefix, unit, where the workload finds it)``.
READ_PATHS = (("get", "get", "tree"), ("get_many", "get", "built"), ("range", "scan", "tree"))


@contextmanager
def read_paths(built):
    """While open on tree_read's ``built`` trees: each kind's simulated device
    seconds and IOs under each of :data:`READ_PATHS`, counted by wrapping the
    callable the workload looks up each iteration; the yielded ``{row: {kind:
    value}}`` is filled in on exit."""
    tally = {(bt.kind, path): [0, 0.0, 0] for bt in built for path, *_ in READ_PATHS}

    def counted(fn, cell, device, stats, size):
        def call(arg, *rest):
            clock, ios = device.clock, stats.ios
            out = fn(arg, *rest)
            cell[0] += size(arg)
            cell[1] += device.clock - clock
            cell[2] += stats.ios - ios
            return out
        return call

    for bt in built:
        for path, unit, where in READ_PATHS:
            owner = bt.tree if where == "tree" else bt
            fn = getattr(owner, path)
            if fn is not None:  # None: a kind the workload sends no get_many
                size = len if path == "get_many" else (lambda _: 1)
                setattr(owner, path, counted(fn, tally[bt.kind, path],
                                             bt.device, bt.device.stats, size))
    rows: dict[str, dict[str, float]] = {}
    try:
        yield rows
    finally:
        for bt in built:
            del bt.tree.get, bt.tree.range  # the class's methods again
            bt.get_many = getattr(bt.tree, "get_many", None)
    for path, unit, _ in READ_PATHS:
        cells = {bt.kind: tally[bt.kind, path] for bt in built}  # nan: never called
        rows[f"{path}: sim ms/{unit}"] = {k: s * 1e3 / n if n else nan for k, (n, s, _) in cells.items()}
        rows[f"{path}: IOs/{unit}"] = {k: ios / n if n else nan for k, (n, _, ios) in cells.items()}


#: tree_write's halves: an iteration's first half of mutations, one
#: ``insert``/``delete`` each, then its ``put_many`` batches with the deletes
#: that close them and the kind's settle.
WRITE_HALVES = ("insert/delete", "put_many")


@contextmanager
def write_paths(built, workload):
    """While open on tree_write's ``built`` trees: each kind's mutations,
    simulated device seconds, reads, writes and bytes written in each of
    :data:`WRITE_HALVES`, counted by wrapping the tree's ``insert``,
    ``delete`` and ``put_many`` (looked up each iteration) and the kind's
    ``settle``; the yielded ``{row: {kind: value}}`` is filled in on exit."""
    tally = {(bt.kind, half): [0, 0.0, 0, 0, 0] for bt in built for half in WRITE_HALVES}
    done = dict.fromkeys((bt.kind for bt in built), 0)  # this iteration's mutations

    def counted(fn, bt, size, half=None):
        device, stats = bt.device, bt.device.stats

        def call(*args):
            n = size(*args)
            cell = tally[bt.kind, half or WRITE_HALVES[done[bt.kind] >= len(workload.ops) // 2]]
            clock, reads, writes, written = (
                device.clock, stats.reads, stats.writes, stats.bytes_written
            )
            out = fn(*args)
            cell[0] += n
            cell[1] += device.clock - clock
            cell[2] += stats.reads - reads
            cell[3] += stats.writes - writes
            cell[4] += stats.bytes_written - written
            done[bt.kind] += n
            return out
        return call

    settles = {}
    for bt in built:
        tree, one = bt.tree, (lambda *_: 1)
        tree.insert, tree.delete = counted(tree.insert, bt, one), counted(tree.delete, bt, one)
        tree.put_many = counted(tree.put_many, bt, len, WRITE_HALVES[1])
        settles[bt.kind] = bt.settle
        settle = counted(bt.settle, bt, lambda: 0, WRITE_HALVES[1])
        bt.settle = lambda settle=settle, kind=bt.kind: (settle(), done.__setitem__(kind, 0))
    rows: dict[str, dict[str, float]] = {}
    try:
        yield rows
    finally:
        for bt in built:
            del bt.tree.insert, bt.tree.delete, bt.tree.put_many  # the class's again
            bt.settle = settles[bt.kind]
    total = sum(cell[1] for cell in tally.values())
    for half in WRITE_HALVES:
        cells = {bt.kind: tally[bt.kind, half] for bt in built}
        rows[f"{half}: sim ms/mut"] = {k: s * 1e3 / n if n else nan for k, (n, s, *_) in cells.items()}
        rows[f"{half}: sim share"] = {k: s / total if total else nan for k, (_, s, *_) in cells.items()}
        rows[f"{half}: reads/mut"] = {k: r / n if n else nan for k, (n, _, r, *_) in cells.items()}
        rows[f"{half}: writes/mut"] = {k: w / n if n else nan for k, (n, _, _, w, _) in cells.items()}
        rows[f"{half}: bytes written/mut"] = {
            k: b / n if n else nan for k, (n, *_, b) in cells.items()
        }


def split(name: str, seed: int, scale: float, iterations: int):
    """``(run, {kind: [(ops, wall, counts), ...]}, {row: {kind: value}}, serve
    counts)``: the third holds each kind's ``load s``, median ``fits s`` an
    iteration and the simulated rows of :func:`read_paths` (tree_read) or
    :func:`write_paths` (tree_write)."""
    from perfbench import trees
    from perfbench.harness import Run
    from perfbench.workloads import workload_class
    from repro.obs.sampler import HostSampler

    run = Run(seed, scale)
    workload = workload_class(name)(run)
    build, load_s = trees.build, {}

    def timed_build(run, kind, pairs, **placement):
        start = perf_counter()
        built = build(run, kind, pairs, **placement)
        load_s[kind] = perf_counter() - start
        return built

    with patch.object(trees, "build", timed_build):
        workload.setup()
    module = sys.modules[type(workload).__module__]
    built = getattr(workload, "built", None)  # the tree workloads' kinds
    every = getattr(module, "KINDS", None)  # durable_e21's
    kinds = [bt.kind for bt in built] if built else list(every or [None])
    sampler = HostSampler(classifier(STEPS[name], Path(module.__file__).resolve()))
    samples: dict[str | None, list] = {kind: [] for kind in kinds}
    fit_s: dict[str | None, list[float]] = {kind: [] for kind in kinds}
    # As in perfbench.harness.measure: the loaded structures are long-lived.
    gc.collect()
    gc.freeze()
    try:
        sim_rows = (
            read_paths(built) if name == "tree_read"
            else write_paths(built, workload) if name == "tree_write"
            else nullcontext({})
        )
        with serve_counts() if name == "serve_e19" else nullcontext() as serve, \
                sim_rows as sim, fit_seconds(module) as fits:
            for i in range(iterations):
                workload.prepare(i)
                for kind in kinds:
                    if built:
                        workload.built = [bt for bt in built if bt.kind == kind]
                    elif every:
                        module.KINDS = (kind,)
                    fits.s = 0.0
                    with sampler:
                        ops, wall = workload.iteration(i)
                    samples[kind].append((ops, wall, Counter(sampler.counts)))
                    fit_s[kind].append(fits.s)
    finally:
        gc.unfreeze()
    if built:
        workload.built = built
    if every:
        module.KINDS = every
    workload.finish()
    fit_s = {k: statistics.median(v) for k, v in fit_s.items() if any(v)}
    return run, samples, {"load s": load_s, "fits s": fit_s, **sim}, serve


def report(name: str, samples, extra: dict[str, dict[str, float]]) -> None:
    """Median host us per op (and share) of each step, a column per kind."""
    from repro.obs.sampler import OTHER

    median = statistics.median
    rows = {
        step: {kind: median(c[step] / max(1, sum(c.values())) * wall / ops * 1e6
                            for ops, wall, c in runs) for kind, runs in samples.items()}
        for step in [*dict.fromkeys(rule[2] for rule in STEPS[name]), OTHER]
    }
    total = {kind: sum(row[kind] for row in rows.values()) for kind in samples}
    per_run = median(sum(c.values()) for runs in samples.values() for *_, c in runs)
    print(f"  median host us per op and share, from {per_run:g} samples a kind-iteration")
    print(f"    {'step':<32}" + "".join(f"{kind or 'all':>16}" for kind in samples))
    for step, row in rows.items():
        print(f"    {step:<32}" + "".join(
            f"{row[k]:>9.2f}{row[k] / (total[k] or 1):>7.1%}" for k in samples))
    for row, values in {
        "sum": total,
        "ops/iteration": {k: median(r[0] for r in runs) for k, runs in samples.items()},
        "s/iteration": {k: median(r[1] for r in runs) for k, runs in samples.items()},
        **extra,
    }.items():
        if values:
            print(f"    {row:<32}" + "".join(f"{values[k]:>9.6g}{'':>7}" for k in samples))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, default=0, help="every input stream derives from it")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink loads and iterations")
    parser.add_argument("--iterations", type=int, default=7, help="iterations the median is over")
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]
    run, samples, extra, serve = split(args.workload, args.seed, args.scale, args.iterations)
    print(f"{args.workload} seed {args.seed} scale {args.scale:g}: {args.iterations} iterations")
    if serve is not None:
        n, keys = sum(serve.rounds.values()), sum(k * c for k, c in serve.rounds.items())
        print(f"  keys per round {keys / n:.2f} over {n} rounds; share of rounds by size:")
        print("    " + "  ".join(f"{k}: {c / n:.1%}" for k, c in sorted(serve.rounds.items())))
        print(f"  peak event-heap length {serve.peak}")
    report(args.workload, samples, extra)
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return int(run.failed > 0)


if __name__ == "__main__":
    sys.exit(main())
