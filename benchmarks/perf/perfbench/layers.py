"""Layer boundaries: which public methods are wrapped, and what is derived.

A layer is a module of ``src/repro``.  ``adopt_*`` registers an object the
benchmark built — always for the public-counter metrics, and with span
wrappers when the pass is traced.  :func:`per_layer_metrics` turns a
traced pass (spans) and its untraced twin (public counters, wall time)
into the per-layer table of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from perfbench.catalogue import PER_LAYER, TREE_KINDS
from perfbench.harness import Pass, Run, ratio
from perfbench.spans import BENCH, LayerTotals, chunk_us_per_op

DEVICE_METHODS = (
    "read", "write", "read_batch", "write_batch",
    "service_request", "service_request_batch", "serve_step", "stall",
)
BATCH_METHODS = ("read_batch", "write_batch", "service_request_batch", "serve_step")
CACHE_METHODS = (
    "get", "access", "get_many", "insert", "admit", "readmit_clean", "mark_dirty",
    "mark_clean", "update_extent", "delete", "extent_of", "contains",
    "write_many", "write_back", "flush", "drop_clean",
)
STACK_METHODS = (
    "create", "destroy", "get", "read_many", "mark_dirty",
    "write_many", "write_back", "flush", "drop_cache",
)
GET_METHODS = ("get", "get_many")
PUT_METHODS = ("insert", "put_many", "delete")
TREE_METHODS = GET_METHODS + PUT_METHODS + (
    "range", "bulk_load", "flush_memtable", "flush_all",
)


def _first_len(args: tuple, _result: Any) -> int:
    return len(args[0])


_DEVICE_COUNT = {name: _first_len for name in BATCH_METHODS}
_TREE_COUNT = {
    "get_many": _first_len,
    "put_many": _first_len,
    "bulk_load": _first_len,
    "range": lambda _args, result: len(result),
}


def adopt_device(run: Run, device: Any) -> None:
    """Register a device the trees (or the benchmark) talk to directly."""
    if any(d is device for d in run.devices):
        return
    run.devices.append(device)
    if run.tracer is not None:
        run.tracer.wrap(device, "storage.device", DEVICE_METHODS, count=_DEVICE_COUNT)


def adopt_stack(run: Run, stack: Any) -> None:
    """Register a ``StorageStack``: its device, its cache and itself."""
    if any(c is stack.cache for c in run.caches):
        return
    adopt_device(run, stack.device)
    run.caches.append(stack.cache)
    if run.tracer is not None:
        run.tracer.wrap(stack.cache, "storage.cache", CACHE_METHODS)
        run.tracer.wrap(stack, "storage.stack", STACK_METHODS)


def adopt_tree(run: Run, kind: str, tree: Any) -> None:
    """Register a tree of one of :data:`TREE_KINDS` and what it runs on."""
    storage = getattr(tree, "storage", None)
    if storage is not None:
        adopt_stack(run, storage)
    else:
        adopt_device(run, tree.device)
    if run.tracer is not None:
        run.tracer.wrap(tree, f"trees.{kind}", TREE_METHODS, count=_TREE_COUNT)


#: Layers whose self time is not called ``<layer>.host_self_s``.
_SELF_TIME_NAMES = {BENCH: "host.bench_self_s", "analysis": "analysis.fit_host_s"}


def per_layer_metrics(traced: Pass, untraced: Pass, calibration_s: float) -> dict[str, float]:
    """Every per-layer metric of the catalogue (0.0 where the layer was idle).

    Span-derived numbers come from ``traced``; public counters and the
    workload's own simulated statistics come from ``untraced`` (they are
    equal in both, which the digest check enforces).
    """
    spans = traced.run.tracer.spans
    totals = LayerTotals(spans)
    counters = untraced.run.counters
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)

    for layer, self_s in totals.self_s.items():
        key = _SELF_TIME_NAMES.get(layer, f"{layer}.host_self_s")
        if key not in out:
            raise KeyError(f"spans recorded for layer {layer!r}, which the catalogue lacks")
        out[key] = self_s

    dev = "storage.device"
    dev_items = totals.layer_items(dev)
    out[f"{dev}.calls"] = totals.layer_calls(dev)
    out[f"{dev}.host_us_per_io"] = ratio(totals.self_s[dev] * 1e6, dev_items)
    out[f"{dev}.batch_share"] = ratio(totals.layer_items(dev, BATCH_METHODS), dev_items)
    for name in ("ios", "bytes_read", "bytes_written", "sim_busy_s"):
        out[f"{dev}.{name}"] = counters[name]

    out["storage.cache.calls"] = totals.layer_calls("storage.cache")
    out["storage.cache.hit_rate"] = ratio(
        counters["hits"], counters["hits"] + counters["misses"]
    )
    out["storage.cache.evictions"] = counters["evictions"]
    out["storage.cache.writebacks"] = counters["writebacks"]
    out["storage.stack.calls"] = totals.layer_calls("storage.stack")

    events = totals.layer_items("storage.engine")
    out["storage.engine.events"] = events
    out["storage.engine.host_us_per_event"] = ratio(
        totals.self_s["storage.engine"] * 1e6, events
    )
    out["storage.scheduler.steps"] = totals.every["storage.scheduler", "step"]

    for kind in TREE_KINDS:
        layer = f"trees.{kind}"
        for metric, names in (
            ("host_us_per_get", GET_METHODS),
            ("host_us_per_put", PUT_METHODS),
            ("host_us_per_range_key", ("range",)),
        ):
            out[f"{layer}.{metric}"] = ratio(
                totals.layer_seconds(layer, names) * 1e6,
                totals.layer_items(layer, names),
            )

    requests = totals.items["serve.engine", "run"]
    out["serve.engine.requests"] = requests
    out["serve.engine.host_us_per_request"] = ratio(
        totals.self_s["serve.engine"] * 1e6, requests
    )
    out["serve.shard.lookup_calls"] = totals.calls["serve.shard", "lookup_many"]

    out["recovery.wal.appends"] = totals.every["recovery.wal", "append"]
    out["recovery.wal.commits"] = totals.every["recovery.wal", "commit"]
    out["recovery.durable.puts"] = (
        totals.calls["recovery.durable", "put"] + totals.calls["recovery.durable", "delete"]
    )
    out["recovery.durable.recoveries"] = totals.calls["recovery.durable", "recover"]

    out["runner.executor.points"] = totals.layer_items("runner.executor")
    out["workloads.keys_per_s"] = ratio(
        totals.layer_items("workloads"), totals.self_s["workloads"]
    )

    chunks = chunk_us_per_op(spans, "iteration")
    out["host.calibration_s"] = calibration_s
    out["host.raw_ops_per_s"] = ratio(untraced.n_ops, untraced.wall)
    out["host.trace_overhead_ratio"] = ratio(
        ratio(traced.wall, traced.n_ops), ratio(untraced.wall, untraced.n_ops)
    )
    out["host.chunk_us_per_op_p99"] = float(np.percentile(chunks, 99)) if chunks else 0.0

    # The workload's own simulated statistics, filed under per-layer names.
    # Span-derived ones it can only know when traced come from that pass.
    for source in (traced.run.stats, untraced.run.stats):
        out.update({name: value for name, value in source.items() if name in out})
    return out
