"""E19 — tail latency vs offered load in the sharded serving layer.

The serving question the refined models ultimately feed: a small cluster
(hash-sharded trees, replicated per shard) takes open-loop Zipf traffic
from two tenants and the tail latency is mostly *queueing* — so the two
QoS levers attack it from opposite ends:

* **admission control** (``admit``) bounds the queues by dropping the
  over-limit tenant's excess at the front door;
* **hedging** (``hedge``) cuts the service tail by duplicating a round
  that runs past its deadline onto a spare replica — the serving-layer
  analogue of E18's device-level hedges, spending otherwise-idle replica
  slots the way Definition 1 spends idle PDAM channels.

Swept over offered load x policy x tree type.  At low load neither lever
matters; at moderate load hedging wins (the tail is spiked service, and
spares are usually free); past saturation only admission helps (there are
no spare slots left to hedge onto, but dropping restores bounded queues).

Every point is a registered pure kernel (``serve_tail_point``), so the
sweep runs through :mod:`repro.runner` bit-identically at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments import report
from repro.faults import FaultPlan, ResiliencePolicy
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep

DEFAULT_RATES = (300.0, 500.0, 700.0)
DEFAULT_POLICIES = ("none", "admit", "hedge", "admit+hedge")
DEFAULT_TREES = ("btree", "betree", "lsm")
SERVE_POLICIES = ("none", "retry", "admit", "hedge", "admit+hedge")

#: The stock serving fault plan: rare (2%) latency spikes of >= 80ms with
#: a Pareto tail — the slow-replica phenomenon hedging exists for.  No
#: transient errors: the serving layer studies queueing, not recovery.
DEFAULT_PLAN = FaultPlan(
    seed=1907,
    spike_prob=0.02,
    spike_seconds=80e-3,
    spike_alpha=1.6,
)

#: Replica-level hedge deadline: ~2x a typical batched round, so only
#: genuinely spiked rounds hedge.
ROUND_HEDGE_DEADLINE = 20e-3


def make_tenants(total_rate: float) -> tuple[Any, ...]:
    """The stock two-tenant mix at one offered load.

    ``alpha`` gets 60% of the offered rate, double weight and no limit;
    ``beta`` gets 40%, single weight, and a rate limit at 75% of its own
    offered rate — so under ``admit`` policies beta sheds ~25% of its
    traffic and everyone's queues shrink.
    """
    from repro.serve import TenantSpec

    if total_rate <= 0:
        raise ConfigurationError(f"total_rate must be positive, got {total_rate}")
    return (
        TenantSpec("alpha", rate=0.6 * total_rate, weight=2.0, theta=1.2),
        TenantSpec(
            "beta",
            rate=0.4 * total_rate,
            weight=1.0,
            theta=1.4,
            rate_limit=0.3 * total_rate,
            burst=32.0,
        ),
    )


def split_policy(policy: str) -> tuple[bool, ResiliencePolicy, ResiliencePolicy | None]:
    """Decompose one ``--policy`` spelling into the engine's three knobs.

    Returns ``(admission_enabled, replica_hedge_policy, device_policy)``.
    ``retry`` is the odd one out: it is a *device*-level policy (each
    replica's own IOs retry), with no serve-level mechanism.
    """
    if policy not in SERVE_POLICIES:
        raise ConfigurationError(
            f"unknown serve policy {policy!r}; expected one of {SERVE_POLICIES}"
        )
    admit = "admit" in policy
    hedge = (
        ResiliencePolicy.hedged(ROUND_HEDGE_DEADLINE)
        if "hedge" in policy
        else ResiliencePolicy.none()
    )
    device = ResiliencePolicy.retry() if policy == "retry" else None
    return admit, hedge, device


# -- sweep kernel -------------------------------------------------------------


@register("serve_tail_point")
def measure_serve(
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
    """One cluster, one policy, one offered load: build, serve, account.

    The cluster is rebuilt from scratch for every point (pure kernel);
    the fault plan arms only after load and warm-up, so faults perturb
    measured traffic, never construction.
    """
    from repro.experiments.common import build_load
    from repro.serve import (
        AdmissionController,
        RequestEngine,
        ShardConfig,
        ShardMap,
        build_shards,
    )

    admit, hedge_policy, device_policy = split_policy(policy)
    plan = FaultPlan.from_json(plan_json)
    tenants = make_tenants(total_rate)

    pairs, _ = build_load(n_entries, universe, seed=seed)
    keys = np.asarray(sorted(k for k, _ in pairs), dtype=np.int64)
    shard_map = ShardMap(n_shards, universe, policy=shard_policy)
    pair_map = dict(pairs)
    partitions = [
        [(int(k), pair_map[int(k)]) for k in part]
        for part in shard_map.partition(keys)
    ]
    config = ShardConfig(
        tree=tree,
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        replicas=replicas,
        batch=batch,
        warm_queries=warm_queries,
    )
    shards = build_shards(
        n_shards,
        partitions,
        config,
        seed=seed,
        plan=plan,
        device_policy=device_policy,
    )
    engine = RequestEngine(
        shards,
        shard_map,
        tenants,
        keys,
        batch=batch,
        admission=AdmissionController(tenants, enabled=admit),
        policy=hedge_policy,
    )
    result = engine.run(duration_seconds, seed=seed)

    all_lat = np.concatenate(
        [result.latency_array(t.name) for t in tenants]
        or [np.zeros(1)]
    )
    if all_lat.size == 0:
        all_lat = np.zeros(1)
    p50, p99, p999 = np.percentile(all_lat, (50.0, 99.0, 99.9))
    n_replicas = n_shards * replicas
    return {
        "tree": tree,
        "policy": policy,
        "total_rate": total_rate,
        "served": result.served,
        "dropped": result.dropped,
        "hedges_issued": result.hedges_issued,
        "hedges_won": result.hedges_won,
        "max_queue_depth": result.max_queue_depth,
        "utilization": result.io_seconds / (duration_seconds * n_replicas),
        "p50_ms": float(p50) * 1e3,
        "p99_ms": float(p99) * 1e3,
        "p999_ms": float(p999) * 1e3,
        "tenants": {name: s.describe() for name, s in result.tenants.items()},
    }


# -- sweep + result ----------------------------------------------------------


@dataclass
class ServeTailResult:
    """One row per (tree, offered load, policy)."""

    rates: tuple[float, ...]
    policies: tuple[str, ...]
    trees: tuple[str, ...]
    plan: dict[str, Any]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        return report.render_table(
            "E19: serving tail latency vs offered load (sharded, multi-tenant)",
            ["tree", "rate/s", "policy", "util", "served", "drop",
             "hedges", "p50 ms", "p99 ms", "p999 ms",
             "alpha p99", "beta p99"],
            [
                [r["tree"], f"{r['total_rate']:.0f}", r["policy"],
                 f"{r['utilization']:.2f}", r["served"], r["dropped"],
                 f"{r['hedges_issued']}/{r['hedges_won']}",
                 f"{r['p50_ms']:.1f}", f"{r['p99_ms']:.1f}",
                 f"{r['p999_ms']:.1f}",
                 f"{r['tenants']['alpha']['p99'] * 1e3:.1f}",
                 f"{r['tenants']['beta']['p99'] * 1e3:.1f}"]
                for r in self.rows
            ],
            note=(
                "Open-loop Zipf traffic, 2 tenants, hash-sharded replicated "
                "trees on spiking HDDs.  'hedge' duplicates rounds that run "
                "past the deadline onto a spare replica (cuts p99 at moderate "
                "load); 'admit' rate-limits tenant beta at the front door "
                "(bounds queues past saturation; 'drop' is the price)."
            ),
        )


def sweep_spec(
    *,
    plan: FaultPlan = DEFAULT_PLAN,
    rates: tuple[float, ...] = DEFAULT_RATES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    trees: tuple[str, ...] = DEFAULT_TREES,
    duration_seconds: float = 4.0,
    n_entries: int = 6000,
    universe: int = 1 << 20,
    n_shards: int = 2,
    shard_policy: str = "hash",
    replicas: int = 3,
    batch: int = 8,
    node_bytes: int = 4096,
    cache_bytes: int = 64 << 10,
    warm_queries: int = 128,
    seed: int = 0,
) -> SweepSpec:
    """The E19 sweep: one kernel point per (tree, rate, policy)."""
    plan_json = plan.to_json()
    points = [
        SweepPoint.make(
            "serve_tail_point",
            tree=tree,
            policy=policy,
            total_rate=float(rate),
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
        for tree in trees
        for rate in rates
        for policy in policies
    ]
    return SweepSpec.make("serve_tail", points)


def run(
    *,
    plan: FaultPlan | None = None,
    rates: tuple[float, ...] | None = None,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    trees: tuple[str, ...] | None = None,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> ServeTailResult:
    """Sweep offered load x policy x tree through the serving layer.

    ``quick`` shrinks to CI-smoke size: a shorter horizon and, for the
    axes left at ``None``, B-tree only and two load points (an explicit
    ``rates``/``trees`` choice survives it) — same code paths, ~seconds.
    """
    plan = plan if plan is not None else DEFAULT_PLAN
    if trees is None:
        trees = ("btree",) if quick else DEFAULT_TREES
    if rates is None:
        rates = (300.0, 600.0) if quick else DEFAULT_RATES
    sizes: dict[str, Any] = {}
    if quick:
        sizes = dict(
            duration_seconds=2.0,
            n_entries=3000,
            warm_queries=64,
        )
    spec = sweep_spec(
        plan=plan,
        rates=tuple(rates),
        policies=tuple(policies),
        trees=tuple(trees),
        seed=seed,
        **sizes,
    )
    result = ServeTailResult(
        rates=tuple(rates),
        policies=tuple(policies),
        trees=tuple(trees),
        plan=plan.describe(),
    )
    result.rows.extend(run_sweep(spec, jobs=jobs, cache=cache))
    return result
