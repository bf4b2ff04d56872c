"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root is this module written out
(:func:`benchmark_json`); ``tests/test_schema.py`` keeps the two equal.
"""

from __future__ import annotations

#: The six workloads, each with the one-sentence reason it exists.
WORKLOADS: dict[str, str] = {
    "device_engine": (
        "devices, storage.engine and storage.scheduler do nearly all the work and "
        "trees none: where batch-vs-serial device paths and an event-loop rewrite show"
    ),
    "tree_read": (
        "tree lookups, storage.cache/stack and the scalar device path dominate; "
        "uniform gets miss the cache, Zipf gets hit it, range scans stream"
    ),
    "tree_write": (
        "the same six trees written to: flushes, compactions, merges and rebalances, "
        "so a read-path gain that taxes writes shows; source of write_amp/space_amp"
    ),
    "serve_e19": (
        "open-loop E19 cluster: serve.engine's event loop, serve.qos and serve.shard "
        "dominate host time while the small cached B-trees do little"
    ),
    "durable_e21": (
        "recovery.wal framing/CRC, checkpoints, a crash and its replay dominate; the only "
        "workload that prices DurableTree's construction ladder"
    ),
    "sweep_runner": (
        "what a user runs: E5+E6+E21 sweep specs through run_sweep cold at jobs=1, cold "
        "at jobs=N and warm from cache; runner overhead, fork cost and point imbalance"
    ),
}

#: Tree kinds, in the order every tree workload visits them.
TREE_KINDS = ("btree", "betree", "lsm", "cola", "cob", "cob_buffered")

#: End-to-end metrics: ``(name, unit, better, bound)``.  Defined on every
#: workload, never zero, and steady across seeds, as the driver's contract
#: requires; the other end-to-end numbers of the issue live in the ``sim.``
#: and ``runner.executor.`` rows of :data:`PER_LAYER` (see README).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("norm_ops_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_ms_per_op", "ms", "lower", 0.15),
)

_LOWER, _HIGHER = "lower", "higher"


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []

    def add(layer: str, *metrics: tuple[str, str, str]) -> None:
        rows.extend((f"{layer}.{name}", unit, better) for name, unit, better in metrics)

    add(
        "storage.device",
        ("calls", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("host_us_per_io", "us", _LOWER), ("batch_share", "ratio", _HIGHER),
        ("ios", "count", _LOWER), ("bytes_read", "B", _LOWER),
        ("bytes_written", "B", _LOWER), ("sim_busy_s", "s", _LOWER),
    )
    add(
        "storage.cache",
        ("calls", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("hit_rate", "ratio", _HIGHER), ("evictions", "count", _LOWER),
        ("writebacks", "count", _LOWER),
    )
    add("storage.stack", ("calls", "count", _LOWER), ("host_self_s", "s", _LOWER))
    add(
        "storage.engine",
        ("events", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("host_us_per_event", "us", _LOWER), ("sim_makespan_s", "s", _LOWER),
        ("slot_utilization", "ratio", _HIGHER),
    )
    add(
        "storage.scheduler",
        ("steps", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("prefetch_useful_ratio", "ratio", _HIGHER),
    )
    for kind in TREE_KINDS:
        add(
            f"trees.{kind}",
            ("host_self_s", "s", _LOWER), ("host_us_per_get", "us", _LOWER),
            ("host_us_per_put", "us", _LOWER), ("host_us_per_range_key", "us", _LOWER),
            ("sim_ios_per_get", "count", _LOWER), ("sim_ms_per_get", "ms", _LOWER),
            ("sim_ms_per_put", "ms", _LOWER), ("write_amp", "ratio", _LOWER),
        )
    add(
        "serve.engine",
        ("requests", "count", _HIGHER), ("rounds", "count", _LOWER),
        ("host_self_s", "s", _LOWER), ("host_us_per_request", "us", _LOWER),
        ("sim_queue_wait_share", "ratio", _LOWER), ("max_queue_depth", "count", _LOWER),
        ("hedges_issued", "count", _LOWER), ("hedge_win_ratio", "ratio", _HIGHER),
        ("dropped", "count", _LOWER),
    )
    add(
        "serve.shard",
        ("lookup_calls", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("sim_service_s", "s", _LOWER),
    )
    add("serve.tenants", ("host_self_s", "s", _LOWER))
    add(
        "recovery.wal",
        ("appends", "count", _LOWER), ("commits", "count", _LOWER),
        ("host_self_s", "s", _LOWER), ("sim_wal_s", "s", _LOWER),
        ("log_bytes_per_user_byte", "ratio", _LOWER),
    )
    add(
        "recovery.durable",
        ("puts", "count", _HIGHER), ("checkpoints", "count", _LOWER),
        ("recoveries", "count", _LOWER), ("host_self_s", "s", _LOWER),
        ("sim_checkpoint_s", "s", _LOWER), ("sim_recovery_s", "s", _LOWER),
        ("replayed_records", "count", _LOWER),
    )
    add(
        "runner.executor",
        ("points", "count", _HIGHER), ("host_self_s", "s", _LOWER),
        ("cold_j1_points_per_s", "1/s", _HIGHER), ("cold_jn_points_per_s", "1/s", _HIGHER),
        ("parallel_speedup", "ratio", _HIGHER), ("overhead_share", "ratio", _LOWER),
        ("kernel_wall_p50_s", "s", _LOWER),
    )
    add("runner.kernels", ("host_self_s", "s", _LOWER))
    add(
        "runner.cache",
        ("host_self_s", "s", _LOWER), ("warm_points_per_s", "1/s", _HIGHER),
        ("hit_ratio", "ratio", _HIGHER), ("warm_share", "ratio", _LOWER),
    )
    add("workloads", ("host_self_s", "s", _LOWER), ("keys_per_s", "1/s", _HIGHER))
    add(
        "analysis",
        ("fit_host_s", "s", _LOWER), ("affine_rel_err", "ratio", _LOWER),
        ("pdam_p_rel_err", "ratio", _LOWER), ("r2_min", "ratio", _HIGHER),
    )
    # Whole-workload simulated statistics that are zero or undefined on
    # some workloads, or (tail latency under seeded Pareto spikes) vary by
    # tens of percent between seeds, so they cannot carry a relative bound.
    add(
        "sim",
        ("lat_p50_ms", "ms", _LOWER), ("lat_p999_ms", "ms", _LOWER),
        ("write_amp", "ratio", _LOWER),
        ("space_amp", "ratio", _LOWER), ("slo_rate", "1/s", _HIGHER),
        ("model_rel_err", "ratio", _LOWER),
    )
    add(
        "host",
        ("calibration_s", "s", _LOWER), ("raw_ops_per_s", "1/s", _HIGHER),
        ("trace_overhead_ratio", "ratio", _LOWER), ("chunk_us_per_op_p99", "us", _LOWER),
        ("bench_self_s", "s", _LOWER),
    )
    return tuple(rows)


#: Per-layer metrics: ``(name, unit, better)``; layer = module of ``src/repro``.
PER_LAYER = _per_layer()

#: Seconds one run measures (``--seconds`` as the driver passes it).
RUN_SECONDS = 10


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
