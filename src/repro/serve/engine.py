"""The request engine: a deterministic discrete-event serving simulation.

:class:`RequestEngine` admits open-loop multi-tenant traffic (pre-drawn
per-tenant Poisson arrivals and Zipf keys from :mod:`repro.serve.tenants`),
routes each request to its shard through a :class:`~repro.serve.shardmap.ShardMap`,
queues it in the shard's :class:`~repro.serve.qos.WeightedFairQueue`, and
serves it on the first free replica in batched rounds.  The only clocks
are the simulated arrival times and the replicas' simulated device
seconds; the only randomness is the pre-drawn traffic and the replicas'
seeded devices — re-running with the same seed replays every event in
the same order, bit for bit.

Mechanics per event:

* **arrival** — the tenant's token bucket either admits the request into
  its shard's queue or drops it (the admission-control price); then the
  shard tries to dispatch.
* **dispatch** — while a replica is free and the queue is non-empty, pop
  up to ``batch`` requests in weighted-fair order and serve them as one
  round (:meth:`Replica.lookup_many`: a scalar lookup when the round is
  one key — nine rounds in ten below saturation — batched tree reads
  otherwise).  The round's measured device seconds occupy the replica on
  the shard's :class:`~repro.storage.engine.ResourcePool`; every request
  in the round completes together when the round does.
* **hedging** — if the round runs past the policy's deadline and a spare
  replica is free at ``start + deadline``, the same keys are served
  again there and the earlier finish wins (the primary stays busy — its
  work is not recalled, merely beaten).  This reuses
  :class:`~repro.faults.policy.ResiliencePolicy`'s hedge contract at the
  replica level rather than the device level.

Latency is ``completion - arrival``: at high offered load it is
dominated by queueing delay, which is why admission control (bounding the
queues) and hedging (cutting slow rounds) attack the tail from opposite
ends.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, DeviceCrashed
from repro.faults.policy import ResiliencePolicy
from repro.obs import OBS
from repro.serve.qos import AdmissionController, WeightedFairQueue
from repro.serve.shard import Shard
from repro.serve.shardmap import ShardMap
from repro.serve.tenants import (
    TenantSpec,
    check_unique_names,
    tenant_arrivals,
    tenant_keys,
)

#: Percentiles every tenant's SLO report carries.
SLO_PERCENTILES = (50.0, 99.0, 99.9)


@dataclass
class TenantStats:
    """One tenant's SLO accounting over a run."""

    offered: int = 0
    admitted: int = 0
    dropped: int = 0
    served: int = 0
    failovers: int = 0
    latencies: list[float] = field(default_factory=list)

    def percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p99": ..., "p999": ...}`` (0.0 when unserved)."""
        if not self.latencies:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0}
        arr = np.asarray(self.latencies)
        p50, p99, p999 = np.percentile(arr, SLO_PERCENTILES)
        return {"p50": float(p50), "p99": float(p99), "p999": float(p999)}

    def describe(self) -> dict[str, Any]:
        """JSON-able summary (counts, mean, percentiles)."""
        out: dict[str, Any] = {
            "offered": self.offered,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "served": self.served,
            "failovers": self.failovers,
            "mean": float(np.mean(self.latencies)) if self.latencies else 0.0,
        }
        out.update(self.percentiles())
        return out


@dataclass
class ServeResult:
    """Everything a run produced, exact and JSON-able on demand.

    ``io_seconds`` is the replicas' device seconds *since their devices
    were last reset* (by :func:`~repro.serve.shard.build_shards`, after the
    warm-up), not this run's alone: on a cluster that is run again,
    subtract the previous result's.
    """

    duration_seconds: float
    tenants: dict[str, TenantStats]
    rounds: int
    hedges_issued: int
    hedges_won: int
    max_queue_depth: int
    io_seconds: float
    crashes: int = 0
    recoveries: int = 0
    recovery_seconds: float = 0.0

    @property
    def served(self) -> int:
        """Requests completed across all tenants."""
        return sum(t.served for t in self.tenants.values())

    @property
    def dropped(self) -> int:
        """Requests refused admission across all tenants."""
        return sum(t.dropped for t in self.tenants.values())

    def latency_array(self, tenant: str) -> np.ndarray:
        """The tenant's exact completion latencies in service order."""
        return np.asarray(self.tenants[tenant].latencies)

    def describe(self) -> dict[str, Any]:
        """JSON-able summary of the whole run."""
        return {
            "duration_seconds": self.duration_seconds,
            "rounds": self.rounds,
            "served": self.served,
            "dropped": self.dropped,
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
            "max_queue_depth": self.max_queue_depth,
            "io_seconds": self.io_seconds,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "recovery_seconds": self.recovery_seconds,
            "tenants": {name: s.describe() for name, s in self.tenants.items()},
        }


class RequestEngine:
    """Drive multi-tenant open-loop traffic through a shard set.

    Parameters
    ----------
    shards:
        The shard set (replicas already loaded and warmed).
    shard_map:
        Key router; must cover the engine's key universe.
    tenants:
        Tenant set (unique names).
    keys:
        The loaded key population, as an int64 array; tenant key indices
        resolve against it.
    batch:
        Maximum requests one service round serves.
    admission:
        Front-door rate limiting (default: a disabled controller).
    policy:
        Replica-level hedging contract; only ``hedge_enabled`` and
        ``hedge_deadline_seconds`` are consulted here (device-level
        retries belong to the replicas' own devices).
    """

    def __init__(
        self,
        shards: list[Shard],
        shard_map: ShardMap,
        tenants: tuple[TenantSpec, ...],
        keys: np.ndarray,
        *,
        batch: int = 8,
        admission: AdmissionController | None = None,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("need at least one shard")
        if shard_map.n_shards != len(shards):
            raise ConfigurationError(
                f"shard map routes to {shard_map.n_shards} shards, got {len(shards)}"
            )
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size < 2:
            raise ConfigurationError("need at least 2 loaded keys")
        self.shards = shards
        self.shard_map = shard_map
        self.tenants = check_unique_names(tenants)
        self.keys = keys
        self.batch = int(batch)
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(self.tenants, enabled=False)
        )
        self.policy = policy if policy is not None else ResiliencePolicy.none()

    # -- traffic -------------------------------------------------------------

    def _draw_traffic(
        self, duration_seconds: float, seed: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged arrival stream: (times, tenant indices, key values).

        Each tenant's draws come from its own private streams; the merge
        is a stable lexsort on (time, tenant index), so the global order
        is a pure function of the per-tenant streams.
        """
        times_parts: list[np.ndarray] = []
        tenant_parts: list[np.ndarray] = []
        key_parts: list[np.ndarray] = []
        for ti, spec in enumerate(self.tenants):
            arrivals = tenant_arrivals(spec, duration_seconds, seed)
            idx = tenant_keys(spec, len(arrivals), len(self.keys), seed)
            times_parts.append(arrivals)
            tenant_parts.append(np.full(len(arrivals), ti, dtype=np.int64))
            key_parts.append(self.keys[idx])
        times = np.concatenate(times_parts)
        tenant_idx = np.concatenate(tenant_parts)
        key_vals = np.concatenate(key_parts)
        order = np.lexsort((tenant_idx, times))
        return times[order], tenant_idx[order], key_vals[order]

    # -- the event loop ------------------------------------------------------

    def run(self, duration_seconds: float, seed: int) -> ServeResult:
        """Simulate ``duration_seconds`` of offered traffic; drain fully.

        Arrivals stop at the horizon; queued work is still served to
        completion so every admitted request gets a latency.  The clock
        starts at 0 on a clean timeline — every shard's replica pool and
        the admission buckets are reset — so an engine, or a second engine
        on the same cluster, can be run again; what carries over is the
        cluster itself (warm caches, device clocks and counters).
        """
        if duration_seconds <= 0:
            raise ConfigurationError(
                f"duration_seconds must be positive, got {duration_seconds}"
            )
        shards = self.shards
        for shard in shards:
            shard.pool.reset()
        self.admission.reset()
        time_col, tenant_col, key_col = self._draw_traffic(duration_seconds, seed)
        # One native tuple per request, built once: no numpy scalar, tenant
        # record or column index enters the arrival loop.
        names = [t.name for t in self.tenants]
        arrivals = zip(
            time_col.tolist(),
            [names[ti] for ti in tenant_col.tolist()],
            key_col.tolist(),
            self.shard_map.shards_of(key_col).tolist(),
        )

        queues = [WeightedFairQueue(self.tenants) for _ in shards]
        push = [queue.push for queue in queues]
        stats = {name: TenantStats() for name in names}
        pending: list[float | None] = [None] * len(shards)
        heap: list[tuple[float, int, int]] = []  # (time, seq, shard)
        seq = 0
        # Requests queued over all shards, kept running (never recounted from
        # the queues): +1 at a push, -len(round) at its pops, +len(round) back
        # when a failover requeues it.
        depth = 0

        state = _RunState()
        batch = self.batch
        deadline = self.policy.hedge_deadline_seconds
        hedge = self.policy.hedge_enabled
        # A disabled controller admits everything: not asked per request.
        admit = self.admission.admit if self.admission.enabled else None

        def dispatch(s: int, now: float) -> None:
            nonlocal seq, depth
            shard = shards[s]
            pool = shard.pool
            replicas = shard.replicas
            queue = queues[s]
            queued = len(queue)  # only this call moves it until it returns
            while queued:
                replica_idx = pool.first_free(now)
                if replica_idx is None:
                    if pending[s] is None:
                        wake = pool.next_available_at()
                        pending[s] = wake
                        heapq.heappush(heap, (wake, seq, s))
                        seq += 1
                    return
                # [(tenant, (arrived, key)), ...] in weighted-fair order.
                requests = [queue.pop() for _ in range(min(queued, batch))]
                queued -= len(requests)
                depth -= len(requests)
                round_keys = [key for _, (_, key) in requests]
                try:
                    duration = replicas[replica_idx].lookup_many(round_keys)
                except DeviceCrashed:
                    # Failover: the crashed replica occupies its pool slot
                    # for the WAL-replay recovery (it leaves the hedging
                    # pool exactly that long), and the round's requests
                    # requeue with their original arrivals — the recovery
                    # time lands in their tail latency.
                    recovery = replicas[replica_idx].recover()
                    pool[replica_idx].acquire(now, recovery)
                    state.crashes += 1
                    state.recoveries += 1
                    state.recovery_seconds += recovery
                    for tenant, request in requests:
                        stats[tenant].failovers += 1
                        queue.push(tenant, request)
                        if OBS.enabled:
                            OBS.counter(f"serve.failovers.{tenant}").inc()
                    queued += len(requests)
                    depth += len(requests)
                    continue
                pool[replica_idx].acquire(now, duration)
                completion = now + duration
                # Hedge only when the shard has no backlog: a duplicate on
                # the spare is free capacity then (Definition 1: unused
                # slots are wasted anyway), but with requests queued the
                # spare is NOT spare — stealing it trades everyone's
                # queueing delay for one round's service tail and loses.
                if hedge and duration > deadline and not queued:
                    spare = pool.first_free(now + deadline, exclude=replica_idx)
                    if spare is not None:
                        try:
                            dup = replicas[spare].lookup_many(round_keys)
                        except DeviceCrashed:
                            # The hedge dies, the primary's result stands;
                            # the spare sits out its own recovery.
                            recovery = replicas[spare].recover()
                            pool[spare].acquire(now + deadline, recovery)
                            state.crashes += 1
                            state.recoveries += 1
                            state.recovery_seconds += recovery
                        else:
                            pool[spare].acquire(now + deadline, dup)
                            state.hedges_issued += 1
                            hedged = now + deadline + dup
                            if hedged < completion:
                                completion = hedged
                                state.hedges_won += 1
                state.rounds += 1
                for tenant, (arrived, _) in requests:
                    latency = completion - arrived
                    st = stats[tenant]
                    st.served += 1
                    st.latencies.append(latency)
                    if OBS.enabled:
                        OBS.histogram(f"serve.latency.{tenant}").record(latency)

        def wake_until(until: float) -> None:
            """Re-dispatch every shard whose next replica frees by ``until``."""
            while heap and heap[0][0] <= until:
                when, _, s = heapq.heappop(heap)
                pending[s] = None
                dispatch(s, when)

        for now, tenant, key, s in arrivals:
            if heap and heap[0][0] <= now:
                wake_until(now)
            st = stats[tenant]
            st.offered += 1
            if admit is not None and not admit(tenant, now):
                st.dropped += 1
                if OBS.enabled:
                    OBS.counter(f"serve.dropped.{tenant}").inc()
                continue
            st.admitted += 1
            push[s](tenant, (now, key))
            depth += 1
            if depth > state.max_queue_depth:
                state.max_queue_depth = depth
                if OBS.enabled:
                    OBS.gauge("serve.queue.max_depth").set(depth)
            dispatch(s, now)
        wake_until(math.inf)

        io_total = sum(r.io_seconds for shard in shards for r in shard.replicas)
        return ServeResult(
            duration_seconds=float(duration_seconds),
            tenants=stats,
            rounds=state.rounds,
            hedges_issued=state.hedges_issued,
            hedges_won=state.hedges_won,
            max_queue_depth=state.max_queue_depth,
            io_seconds=io_total,
            crashes=state.crashes,
            recoveries=state.recoveries,
            recovery_seconds=state.recovery_seconds,
        )


@dataclass
class _RunState:
    """Mutable counters of one :meth:`RequestEngine.run`."""

    rounds: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    max_queue_depth: int = 0
    crashes: int = 0
    recoveries: int = 0
    recovery_seconds: float = 0.0
