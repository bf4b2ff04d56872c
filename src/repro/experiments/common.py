"""Shared measurement harness for the node-size experiments (Figures 2-3).

Protocol per tree instance:

1. **Load**: bulk-load ``n_entries`` random distinct keys (scaled down from
   the paper's 16 GB; see DESIGN.md section 5).
2. **Cool down**: write back and drop the cache so measurement starts from
   a defined state.
3. **Warm up**: run some unmeasured queries so the hot internal levels
   re-enter the cache (the paper's runs are warm: ops follow the load).
4. **Measure**: random point queries, then random inserts; report
   *simulated device seconds per operation*.  The insert phase ends with a
   cache flush so dirty write-backs are charged inside the phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workloads.generators import (
    insert_stream,
    point_query_stream,
    random_load_pairs,
)


@dataclass(frozen=True)
class OpTimes:
    """Per-operation simulated times of one measured tree instance."""

    query_seconds_per_op: float
    insert_seconds_per_op: float
    n_queries: int
    n_inserts: int


def measure_tree_ops(
    tree,
    loaded_keys: list[int],
    universe: int,
    *,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int = 200,
    seed: int = 0,
) -> OpTimes:
    """Measure per-op simulated time for random queries then random inserts.

    ``tree`` is any loaded :class:`~repro.trees.api.KVTree`.

    Every phase derives its stream from ``seed`` with a fixed offset
    (warm-up: ``seed+1``, queries: ``seed+2``, inserts: ``seed+3``), so the
    measurement is a pure function of ``(tree state, universe, n_queries,
    n_inserts, warmup_queries, seed)`` — exactly the fields a
    :class:`~repro.runner.spec.SweepPoint` fingerprints.
    """
    if n_queries <= 0 or n_inserts <= 0:
        raise ConfigurationError("need positive op counts")
    if warmup_queries < 0:
        raise ConfigurationError("warmup_queries must be non-negative")
    tree.drop_cache()

    for key in point_query_stream(loaded_keys, warmup_queries, seed=seed + 1):
        tree.get(key)
    # Hit rates reported after this call should describe the measured ops,
    # not the warm-up traffic that primed the cache.
    tree.reset_cache_stats()

    t0 = tree.io_seconds
    for key in point_query_stream(loaded_keys, n_queries, seed=seed + 2):
        tree.get(key)
    query_per_op = (tree.io_seconds - t0) / n_queries

    t0 = tree.io_seconds
    # Batched entry point: accounting-identical to the serial loop (the
    # trees' put_many contract), minus per-call overhead.
    tree.put_many(insert_stream(universe, n_inserts, seed=seed + 3))
    tree.settle()
    insert_per_op = (tree.io_seconds - t0) / n_inserts

    return OpTimes(
        query_seconds_per_op=query_per_op,
        insert_seconds_per_op=insert_per_op,
        n_queries=n_queries,
        n_inserts=n_inserts,
    )


def check_devices(names, known) -> tuple[str, ...]:
    """``names`` as a tuple, each one of ``known``; an unknown name is
    refused when the sweep spec is built, not inside a kernel."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(f"unknown device(s) {unknown}; expected one of {tuple(known)}")
    return tuple(names)


_load_memo: dict[tuple[int, int, int], tuple[list, list]] = {}


def build_load(n_entries: int, universe: int, seed: int = 0):
    """Load pairs plus the key list used to draw queries.

    The load is a pure function of its arguments, and every point of a
    node-size sweep asks for the same one — so the last result is memoized
    (per process; parallel sweeps fork fresh ones).  Callers get shallow
    copies: the tuples are shared but the lists are theirs to mutate.
    """
    memo_key = (n_entries, universe, seed)
    cached = _load_memo.get(memo_key)
    if cached is None:
        # Drop the old load before generating the new one, so only one is
        # ever resident: a stock 300k-entry load is ~50 MiB.
        _load_memo.clear()
        pairs = random_load_pairs(n_entries, universe, seed=seed)
        cached = _load_memo[memo_key] = (pairs, [k for k, _ in pairs])
    return list(cached[0]), list(cached[1])
