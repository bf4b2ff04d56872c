#!/usr/bin/env python3
"""Does turning ``repro.obs`` on cost under 5 % on the E6 sweep?

    python3 tools/obs_overhead.py
    make perf-smoke

The one wall-clock gate the benchmark harness cannot express yet (it has
no OBS-on/off metric; ROADMAP item 1).  Runs the Bε-tree node-size sweep
with metrics and tracing off, then on, as adjacent pairs, and exits
non-zero if the on-runs' results differ from the off-runs', record no
device IO, or cost 5 % more wall or CPU time.  Prints one line; writes
nothing; ~15 s.  One size only: on a sweep a third this large the
per-event cost is 4-9 % of a 0.2 s run and the gate flips with host noise
(4 of 8 runs here), at this size it reads 1.00-1.04.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Above the observed ratio (1.00-1.04) so timer noise on a shared host
#: does not fail the job, still tight enough to catch real work on the
#: disabled path or inside the record calls.
MAX_OVERHEAD_RATIO = 1.05

SWEEP = dict(
    node_sizes=tuple(65536 * 2**k for k in range(6)),  # 64 KiB .. 2 MiB
    n_entries=150_000,
    cache_bytes=4 << 20,
    n_queries=300,
    max_inserts=50_000,
    warmup_queries=150,
    seed=0,
)

WARMUP = dict(
    node_sizes=(65536,),
    n_entries=5000,
    cache_bytes=1 << 20,
    n_queries=10,
    max_inserts=500,
    warmup_queries=10,
    seed=0,
)


def timed_run(spec):
    """``(results, wall seconds, CPU seconds)`` of one sweep at ``jobs=1``."""
    from repro.runner import run_sweep

    # GC pauses would bill the mode that happens to trip a collection
    # (the on-run's span buffer is exactly such a trigger) for a heap scan
    # both modes own; collect outside the timed region, like timeit does.
    gc.collect()
    gc.disable()
    try:
        wall = time.perf_counter()
        cpu = time.process_time()
        results = run_sweep(spec, jobs=1)
        return results, time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()


def measure(repeats: int) -> dict:
    """Paired off/on runs; the gate reads the median of paired ratios.

    Wall clocks on shared hosts drift and spike by several percent over
    seconds.  Each on-run is therefore ratioed against the off-run
    immediately before it (adjacent runs see the same host load), and the
    median over ``repeats`` pairs discards the spikes; a min-of-N over
    independently noisy halves cannot.  CPU time is measured alongside —
    it is immune to host contention and bounds the same added work.
    """
    from repro import obs
    from repro.experiments import exp_betree_nodesize as e6

    spec = e6.sweep_spec(**SWEEP)
    obs.disable(detach_tracer=True)
    obs.reset()
    timed_run(e6.sweep_spec(**WARMUP))  # warm imports/allocator
    wall_ratios, cpu_ratios = [], []
    try:
        for _ in range(repeats):
            obs.disable()
            results_off, off_wall, off_cpu = timed_run(spec)
            obs.enable(trace=True)
            obs.reset()
            results_on, on_wall, on_cpu = timed_run(spec)
            wall_ratios.append(on_wall / off_wall)
            cpu_ratios.append(on_cpu / off_cpu)
        counters = obs.OBS.snapshot()["counters"]
        n_spans = len(obs.OBS.tracer.spans)
    finally:
        obs.disable(detach_tracer=True)
        obs.reset()
    return {
        "wall_ratio": statistics.median(wall_ratios),
        "cpu_ratio": statistics.median(cpu_ratios),
        "ios": counters.get("device.read.ios", 0) + counters.get("device.write.ios", 0),
        "spans": n_spans,
        "identical": results_on == results_off,
    }


def over(m: dict) -> bool:
    return max(m["wall_ratio"], m["cpu_ratio"]) >= MAX_OVERHEAD_RATIO


def main() -> int:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    m = measure(repeats=6)
    if over(m):
        # The median paired ratio still carries a percent or two of host
        # noise; one noisy burst must not fail the job, while a real
        # regression fails both measurements.
        m = measure(repeats=12)
    print(
        f"E6 sweep, obs on / off: wall {m['wall_ratio']:.3f}x, cpu {m['cpu_ratio']:.3f}x "
        f"(gate {MAX_OVERHEAD_RATIO}x), {m['ios']} IOs, {m['spans']} spans recorded"
    )
    failures = []
    if not m["identical"]:
        failures.append("metrics-on results diverged from metrics-off")
    if m["ios"] == 0:
        failures.append("metrics-on run recorded no device IOs")
    if over(m):
        failures.append(f"metrics overhead exceeds the {MAX_OVERHEAD_RATIO}x gate")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main())
