"""Registered sweep kernels: the per-point bodies of the migrated experiments.

Each kernel is a pure function of its keyword parameters — it constructs
its own devices, workloads and trees from them, so the same parameters
give bit-identical results in any process, in any order, with or without
the result cache.  Kernels are addressed by name (a plain string) so a
:class:`~repro.runner.spec.SweepPoint` stays picklable and its
fingerprint stays stable across refactors that move code around.

Keep kernels *thin*: they should call into the same measurement helpers
the experiments used when they ran serially, not duplicate logic.  Fits,
table assembly and everything else cheap stays in the experiment module.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError

_REGISTRY: dict[str, Callable[..., Any]] = {}


def register(name: str):
    """Class a function as a sweep kernel under ``name``."""

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate kernel name {name!r}")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_kernel(name: str) -> Callable[..., Any]:
    """Resolve a kernel by registered name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def kernel_names() -> tuple[str, ...]:
    """All registered kernel names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- E3: affine-model validation (Table 2) ---------------------------------


@register("affine_validation_device")
def affine_validation_device(
    *,
    device: str,
    io_sizes: tuple[int, ...],
    reads_per_size: int,
    seed: int,
) -> dict[str, Any]:
    """Random-read size ladder on one zoo disk; per-size mean IO times."""
    import numpy as np

    from repro.experiments.devices import make_hdd

    hdd = make_hdd(device, seed=seed)
    rng = np.random.default_rng(seed + 1)
    mean_sizes: list[float] = []
    mean_times: list[float] = []
    for io in io_sizes:
        blocks = (hdd.capacity_bytes - io) // 512
        offsets = rng.integers(0, blocks, size=reads_per_size) * 512
        samples = hdd.read_batch([int(o) for o in offsets], int(io))
        mean_sizes.append(float(io))
        mean_times.append(float(np.mean(samples)))
    return {"mean_sizes": mean_sizes, "mean_times": mean_times}


# -- E5: B-tree node-size sweep (Figure 2) ---------------------------------


@register("btree_nodesize_point")
def btree_nodesize_point(
    *,
    node_bytes: int,
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, float]:
    """Load a fresh B-tree at one node size on the default HDD; measure."""
    from repro.experiments.common import build_load, measure_tree_ops
    from repro.experiments.devices import default_hdd
    from repro.trees import build

    pairs, keys = build_load(n_entries, universe, seed=seed)
    device = default_hdd(seed=seed + node_bytes % 97)
    tree = build("btree", device, node_bytes=node_bytes, cache_bytes=cache_bytes)
    tree.load(pairs)
    times = measure_tree_ops(
        tree,
        keys,
        universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        seed=seed,
    )
    return {
        "query_ms": times.query_seconds_per_op * 1e3,
        "insert_ms": times.insert_seconds_per_op * 1e3,
    }


# -- E6: Bε-tree node-size sweep (Figure 3) --------------------------------


@register("betree_nodesize_point")
def betree_nodesize_point(
    *,
    node_bytes: int,
    n_entries: int,
    cache_bytes: int,
    fanout: int,
    universe: int,
    n_queries: int,
    inserts_per_buffer_fill: float,
    max_inserts: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, float]:
    """Load a fresh Bε-tree at one node size; prefill the root buffer, measure."""
    from repro.experiments.common import build_load, measure_tree_ops
    from repro.experiments.devices import default_hdd
    from repro.trees import build
    from repro.workloads.generators import insert_stream

    pairs, keys = build_load(n_entries, universe, seed=seed)
    device = default_hdd(seed=seed + node_bytes % 97)
    tree = build(
        "betree", device, node_bytes=node_bytes, cache_bytes=cache_bytes, fanout=fanout
    )
    tree.load(pairs)
    # Pre-fill the (empty-after-load) root buffer with unmeasured inserts,
    # then measure over enough further inserts to cover flush cascades —
    # Bε insert cost only exists as an amortized quantity.
    config = tree.config
    buffer_msgs = config.buffer_budget_bytes // config.fmt.message_bytes
    tree.put_many(insert_stream(universe, min(buffer_msgs, max_inserts), seed=seed + 7))
    n_inserts = min(max_inserts, max(3000, int(inserts_per_buffer_fill * buffer_msgs)))
    times = measure_tree_ops(
        tree,
        keys,
        universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        seed=seed,
    )
    return {
        "query_ms": times.query_seconds_per_op * 1e3,
        "insert_ms": times.insert_seconds_per_op * 1e3,
    }


# -- E17: autotune convergence, one device per point -----------------------


@register("autotune_device")
def autotune_device(
    *,
    device: str,
    node_sizes: tuple[int, ...],
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, Any]:
    """Sweep, mis-configure, tune and re-measure one zoo device.

    Returns the full :class:`~repro.experiments.exp_autotune.DeviceTuneRow`
    payload plus the fitted :class:`~repro.tuning.DeviceProfile` (needed by
    the cross-device static-configuration foil, which must run after all
    points are in).
    """
    from repro.experiments import exp_autotune

    return exp_autotune.measure_device(
        device,
        node_sizes=tuple(node_sizes),
        n_entries=n_entries,
        cache_bytes=cache_bytes,
        universe=universe,
        n_queries=n_queries,
        warmup_queries=warmup_queries,
        seed=seed,
    )


# -- E18: tail latency and throughput under injected faults -----------------


@register("tail_resilience_tree")
def tail_resilience_tree(
    *,
    tree: str,
    plan_json: str,
    intensity: float,
    policy: str,
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, Any]:
    """Per-query latency distribution of one tree under one (plan, policy)."""
    from repro.experiments import exp_tail_resilience

    return exp_tail_resilience.measure_tree(
        tree,
        plan_json=plan_json,
        intensity=intensity,
        policy=policy,
        n_entries=n_entries,
        cache_bytes=cache_bytes,
        universe=universe,
        n_queries=n_queries,
        warmup_queries=warmup_queries,
        seed=seed,
    )


# -- E19: serving tail latency vs offered load ------------------------------


@register("serve_tail_point")
def serve_tail_point(
    *,
    tree: str,
    policy: str,
    total_rate: float,
    duration_seconds: float,
    plan_json: str,
    n_entries: int,
    universe: int,
    n_shards: int,
    shard_policy: str,
    replicas: int,
    batch: int,
    node_bytes: int,
    cache_bytes: int,
    warm_queries: int,
    seed: int,
) -> dict[str, Any]:
    """One serving cluster at one (tree, offered load, policy)."""
    from repro.experiments import exp_serve_tail

    return exp_serve_tail.measure_serve(
        tree=tree,
        policy=policy,
        total_rate=total_rate,
        duration_seconds=duration_seconds,
        plan_json=plan_json,
        n_entries=n_entries,
        universe=universe,
        n_shards=n_shards,
        shard_policy=shard_policy,
        replicas=replicas,
        batch=batch,
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        warm_queries=warm_queries,
        seed=seed,
    )


# -- E21: durability knobs (group commit, checkpoints) across cost models ----


@register("durability_point")
def durability_point(
    *,
    device: str,
    tree: str,
    group_commit: int,
    checkpoint_every: int,
    n_ops: int,
    n_load: int,
    universe: int,
    node_bytes: int,
    cache_bytes: int,
    wal_bytes: int,
    crash_rate: float,
    loss_penalty: float,
    crash_fraction: float,
    seed: int,
) -> dict[str, Any]:
    """One (cost model, group commit, checkpoint) durable write-path point."""
    from repro.experiments import exp_durability

    return exp_durability.measure_durability(
        device=device,
        tree=tree,
        group_commit=group_commit,
        checkpoint_every=checkpoint_every,
        n_ops=n_ops,
        n_load=n_load,
        universe=universe,
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        wal_bytes=wal_bytes,
        crash_rate=crash_rate,
        loss_penalty=loss_penalty,
        crash_fraction=crash_fraction,
        seed=seed,
    )


# -- E20: cache-oblivious tier vs knobbed trees across cost models -----------


@register("cob_compare_point")
def cob_compare_point(
    *,
    tree: str,
    model: str,
    node_bytes: int,
    n_entries: int,
    universe: int,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int,
    parallelism: int,
    cache_bytes: int,
    seed: int,
) -> dict[str, float]:
    """One (tree, cost model, node size) op-cost measurement."""
    from repro.experiments import exp_cob_compare

    return exp_cob_compare.measure_point(
        tree=tree,
        model=model,
        node_bytes=node_bytes,
        n_entries=n_entries,
        universe=universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        parallelism=parallelism,
        cache_bytes=cache_bytes,
        seed=seed,
    )


@register("cob_pdam_threads_point")
def cob_pdam_threads_point(
    *,
    mode: str,
    clients: int,
    parallelism: int,
    block_bytes: int,
    n_keys: int,
    queries_per_client: int,
    seed: int,
) -> dict[str, float]:
    """Lemma 13 panel: k closed-loop clients over one index layout."""
    import numpy as np

    from repro.models.pdam import PDAMModel
    from repro.storage.ideal import PDAMDevice
    from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree

    keys = np.arange(1, n_keys + 1, dtype=np.int64) * 3
    tree = StaticSearchTree(keys)
    device = PDAMDevice(
        PDAMModel(parallelism=parallelism, block_bytes=block_bytes)
    )
    sim = PDAMQuerySimulator(device, tree, mode=mode)
    out = sim.run(clients, queries_per_client, seed=seed)
    return {"throughput": out.throughput}


@register("tail_resilience_pdam")
def tail_resilience_pdam(
    *,
    plan_json: str,
    intensity: float,
    policy: str,
    parallelism: int,
    clients: int,
    n_rounds: int,
    seed: int,
) -> dict[str, Any]:
    """Closed-loop PDAM throughput under channel stalls, one (plan, policy)."""
    from repro.experiments import exp_tail_resilience

    return exp_tail_resilience.measure_pdam(
        plan_json=plan_json,
        intensity=intensity,
        policy=policy,
        parallelism=parallelism,
        clients=clients,
        n_rounds=n_rounds,
        seed=seed,
    )
