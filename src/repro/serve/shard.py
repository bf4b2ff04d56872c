"""Shards and replicas: the storage side of the serving layer.

A *shard* owns a slice of the key space and some number of *replicas*;
each replica is a full copy of the shard's data in its own tree from
:func:`repro.trees.build` (own device, own cache, own fault stream).  The
replica is the unit of service: one replica runs one service round (a
batch of point lookups) at a time, and the shard's
:class:`~repro.storage.engine.ResourcePool` of replica timelines is where
"is there a spare slot to hedge on?" gets answered — via the pool's
``free_slots``/``first_free`` occupancy accessors, never by poking its
private state.

Service cost is measured, not modeled: a round calls the replica's tree
(:meth:`~repro.trees.api.KVTree.lookup_many`: on the B-tree a one-key
round is the scalar descent and a multi-key round the level-synchronized
one, one :meth:`~repro.storage.cache.BufferCache.get_many` per level;
a per-key loop on the other kinds) and reads the simulated device
seconds it charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import storage
from repro.errors import ConfigurationError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice, ResiliencePolicy
from repro.serve.tenants import derive_seed
from repro.storage.engine import ResourcePool
from repro.trees import KVTree, build, check_kind


@dataclass(frozen=True)
class ShardConfig:
    """How every replica of every shard is built.

    Parameters
    ----------
    tree:
        Any kind in :data:`repro.trees.KINDS`.
    node_bytes:
        Tree node size, or block size for the kinds without a node knob.
    cache_bytes:
        Buffer-cache budget per replica.
    replicas:
        Copies of each shard (>= 1; hedging needs >= 2 to ever win).
    batch:
        Maximum requests one service round serves — the replica's
        "channel count" in the PDAM sense: a round moves up to ``batch``
        lookups through the device as one batched schedule.
    warm_queries:
        Per-replica warm-up lookups after loading (seeded per replica),
        so measured traffic starts from a realistically warm cache.
    durable:
        Build each replica behind a
        :class:`~repro.recovery.durable.DurableTree` (WAL + checkpoints),
        so it can crash and recover mid-run.  Required when
        :func:`build_shards` arms a crash plan.
    group_commit, checkpoint_every, wal_bytes:
        The durable replicas' WAL knobs (ignored when ``durable`` is
        off); see :class:`~repro.recovery.durable.DurableConfig`.
    """

    tree: str = "btree"
    node_bytes: int = 4096
    cache_bytes: int = 256 << 10
    replicas: int = 2
    batch: int = 8
    warm_queries: int = 64
    durable: bool = False
    group_commit: int = 8
    checkpoint_every: int = 0
    wal_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        check_kind(self.tree)
        if self.node_bytes <= 0 or self.cache_bytes <= 0:
            raise ConfigurationError("node_bytes and cache_bytes must be positive")
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        if self.warm_queries < 0:
            raise ConfigurationError(
                f"warm_queries must be >= 0, got {self.warm_queries}"
            )
        if self.group_commit < 1:
            raise ConfigurationError(
                f"group_commit must be >= 1, got {self.group_commit}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.wal_bytes <= 0:
            raise ConfigurationError(f"wal_bytes must be positive, got {self.wal_bytes}")

    def describe(self) -> dict[str, Any]:
        """Stable JSON-able identity."""
        return {
            "tree": self.tree,
            "node_bytes": self.node_bytes,
            "cache_bytes": self.cache_bytes,
            "replicas": self.replicas,
            "batch": self.batch,
            "warm_queries": self.warm_queries,
            "durable": self.durable,
            "group_commit": self.group_commit,
            "checkpoint_every": self.checkpoint_every,
            "wal_bytes": self.wal_bytes,
        }


class Replica:
    """One copy of a shard's data on its own device and cache.

    A *durable* replica routes through a
    :class:`~repro.recovery.durable.DurableTree` instead of a bare tree:
    its device may carry an armed crash plan, a round that hits the crash
    raises :class:`~repro.errors.DeviceCrashed`, and :meth:`recover`
    replays the WAL over the latest checkpoint so the replica can rejoin
    the shard's pool.
    """

    def __init__(self, tree: KVTree, *, durable: Any = None) -> None:
        self.tree = tree
        self.durable = durable  # DurableTree | None
        self.rounds = 0
        self.lookups = 0
        self.recoveries = 0
        self.recovery_seconds = 0.0

    @property
    def io_seconds(self) -> float:
        """Simulated device seconds this replica has charged so far."""
        return self.tree.io_seconds

    def lookup_many(self, keys: list[int]) -> float:
        """Serve one round of point lookups; returns its device seconds.

        On a durable replica whose crash plan fires mid-round the
        :class:`~repro.errors.DeviceCrashed` propagates — the engine is
        the failover layer, not this method.
        """
        tree = self.tree
        start = tree.io_seconds
        tree.lookup_many(keys)
        self.rounds += 1
        self.lookups += len(keys)
        return tree.io_seconds - start

    def recover(self) -> float:
        """Recover a crashed durable replica; returns the recovery seconds.

        WAL replay over the latest checkpoint rebuilds the tree from
        scratch (:meth:`~repro.recovery.durable.DurableTree.recover`);
        the returned simulated seconds are what the replica's pool slot
        must stay occupied for before it rejoins service.
        """
        if self.durable is None:
            raise ConfigurationError(
                "replica is not durable; build shards with ShardConfig(durable=True)"
            )
        report = self.durable.recover()
        self.tree = self.durable.tree
        self.recoveries += 1
        self.recovery_seconds += report.recovery_seconds
        return report.recovery_seconds


class Shard:
    """Replica set plus the service timeline pool over it."""

    def __init__(self, index: int, replicas: list[Replica]) -> None:
        if not replicas:
            raise ConfigurationError("a shard needs at least one replica")
        self.index = index
        self.replicas = replicas
        self.pool = ResourcePool(len(replicas))


def build_shards(
    n_shards: int,
    partitions: list[list[tuple[int, int]]],
    config: ShardConfig,
    *,
    seed: int,
    plan: FaultPlan | None = None,
    device_policy: ResiliencePolicy | None = None,
    crash: CrashPlan | None = None,
) -> list[Shard]:
    """Construct ``n_shards`` shards, each with ``config.replicas`` replicas.

    ``partitions[s]`` is shard ``s``'s sorted ``(key, value)`` load.  Each
    replica gets its own device seed and its own fault-plan seed (both
    derived from ``seed`` and the shard/replica indices), so replicas see
    independent mechanical noise and independent fault draws — which is
    why hedging across them can win.

    ``crash`` arms a per-shard crash plan (seed derived from the plan's
    seed and the shard index) on **replica 0** of every shard, counting
    IO ordinals from the start of measured traffic (load and warm-up are
    crash-free).  Requires ``config.durable`` — a crashed replica must
    have a WAL to come back.
    """
    if len(partitions) != n_shards:
        raise ConfigurationError(
            f"expected {n_shards} partitions, got {len(partitions)}"
        )
    if crash is not None and not config.durable:
        raise ConfigurationError(
            "crash plans need durable replicas; set ShardConfig(durable=True)"
        )
    shards: list[Shard] = []
    for s in range(n_shards):
        replicas = [
            _build_replica(
                config,
                partitions[s],
                device_seed=derive_seed(seed, "device", s, r),
                plan=plan,
                device_policy=device_policy,
            )
            for r in range(config.replicas)
        ]
        if crash is not None:
            armed_crash = CrashPlan(
                seed=derive_seed(crash.seed, "crash", s),
                at_io=crash.at_io,
                at_seconds=crash.at_seconds,
                torn=crash.torn,
            )
            device = replicas[0].durable.device
            assert isinstance(device, FaultyDevice)
            device.arm_crash(armed_crash)  # ordinals count from here
        shards.append(Shard(s, replicas))
    return shards


def _build_replica(
    config: ShardConfig,
    pairs: list[tuple[int, int]],
    *,
    device_seed: int,
    plan: FaultPlan | None,
    device_policy: ResiliencePolicy | None,
) -> Replica:
    device = storage.build("wd-black-1tb-2011-sim", seed=device_seed)
    if plan is not None:
        armed = FaultPlan(
            seed=derive_seed(plan.seed, "plan", device_seed),
            spike_prob=plan.spike_prob,
            spike_seconds=plan.spike_seconds,
            spike_alpha=plan.spike_alpha,
            error_prob=plan.error_prob,
            degraded=plan.degraded,
            stall_prob=plan.stall_prob,
            stall_steps=plan.stall_steps,
        )
        device = FaultyDevice(device, FaultPlan(seed=armed.seed), policy=device_policy)
    else:
        armed = None

    durable = None
    if config.durable:
        from repro.recovery.durable import DurableConfig, DurableTree

        if not isinstance(device, FaultyDevice):
            # Crash arming needs the faulty wrapper even with no fault plan;
            # an empty plan is transparent, so fault-free runs stay exact.
            device = FaultyDevice(device, FaultPlan(), policy=device_policy)
        durable = DurableTree(
            device,
            DurableConfig(
                tree=config.tree,
                node_bytes=config.node_bytes,
                cache_bytes=config.cache_bytes,
                wal_bytes=config.wal_bytes,
                group_commit=config.group_commit,
                checkpoint_every=config.checkpoint_every,
            ),
        )
        durable.load(list(pairs))
        tree = durable.tree
    else:
        tree = build(
            config.tree, device, node_bytes=config.node_bytes, cache_bytes=config.cache_bytes
        )
        tree.load(pairs)
    tree.drop_cache()
    replica = Replica(tree, durable=durable)
    _warm(replica, pairs, device_seed, config.warm_queries)
    device.reset()
    tree.reset_cache_stats()
    if armed is not None:
        assert isinstance(device, FaultyDevice)
        device.plan = armed  # faults start with measured traffic
    return replica


def _warm(replica: Replica, pairs: list[tuple[int, int]], seed: int, n: int) -> None:
    """Warm the replica's cache with seeded lookups over its own data."""
    if not pairs or n <= 0:
        return
    rng = np.random.default_rng(derive_seed(seed, "warm"))
    idx = rng.integers(0, len(pairs), size=n)
    keys = [pairs[int(i)][0] for i in idx]
    replica.lookup_many(keys)
    replica.rounds = 0
    replica.lookups = 0
