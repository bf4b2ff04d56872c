"""RequestEngine: exact determinism, conservation, and the two QoS levers."""

import hashlib

import numpy as np
import pytest

from repro.experiments.common import build_load
from repro.faults import CrashPlan, FaultPlan, ResiliencePolicy
from repro.serve import (
    AdmissionController,
    RequestEngine,
    ShardConfig,
    ShardMap,
    TenantSpec,
    build_shards,
)
from tests.serve import test_crash_failover as crash_failover

UNIVERSE = 1 << 18

TENANTS = (
    TenantSpec("alpha", rate=300.0, weight=2.0, theta=1.2),
    TenantSpec("beta", rate=200.0, weight=1.0, theta=1.4, rate_limit=100.0, burst=8.0),
)

SPIKY = FaultPlan(seed=7, spike_prob=0.02, spike_seconds=0.08, spike_alpha=1.6)


def make_cluster(*, plan=None, replicas=2, n_shards=2, n_entries=1500, seed=42):
    pairs, _ = build_load(n_entries, UNIVERSE, seed=seed)
    keys = np.asarray(sorted(k for k, _ in pairs), dtype=np.int64)
    smap = ShardMap(n_shards, UNIVERSE, policy="hash")
    pair_map = dict(pairs)
    partitions = [
        [(int(k), pair_map[int(k)]) for k in part] for part in smap.partition(keys)
    ]
    cfg = ShardConfig(
        tree="btree", replicas=replicas, batch=8, cache_bytes=32 << 10, warm_queries=32
    )
    shards = build_shards(n_shards, partitions, cfg, seed=seed, plan=plan)
    return shards, smap, keys


def run_once(
    *, plan=None, policy=None, admit=False, duration=1.0, seed=42, tenants=TENANTS, **kw
):
    shards, smap, keys = make_cluster(plan=plan, seed=seed, **kw)
    engine = RequestEngine(
        shards,
        smap,
        tenants,
        keys,
        batch=8,
        admission=AdmissionController(tenants, enabled=admit),
        policy=policy,
    )
    return engine.run(duration, seed=seed)


class TestDeterminism:
    def test_identical_runs_identical_histograms(self):
        r1 = run_once(plan=SPIKY)
        r2 = run_once(plan=SPIKY)
        for t in TENANTS:
            assert np.array_equal(r1.latency_array(t.name), r2.latency_array(t.name))
        assert r1.describe() == r2.describe()

    def test_seed_changes_traffic(self):
        r1 = run_once(seed=42)
        r2 = run_once(seed=43)
        assert not np.array_equal(
            r1.latency_array("alpha"), r2.latency_array("alpha")
        )


class TestConservation:
    def test_every_admitted_request_completes(self):
        r = run_once(plan=SPIKY, admit=True)
        for stats in r.tenants.values():
            assert stats.offered == stats.admitted + stats.dropped
            assert stats.served == stats.admitted  # full drain after horizon
            assert len(stats.latencies) == stats.served
        assert r.served > 0

    def test_latencies_nonnegative(self):
        r = run_once(plan=SPIKY)
        for t in TENANTS:
            lat = r.latency_array(t.name)
            assert (lat >= 0).all()

    def test_percentiles_ordered(self):
        r = run_once(plan=SPIKY)
        for stats in r.tenants.values():
            p = stats.percentiles()
            assert p["p50"] <= p["p99"] <= p["p999"]


class TestAdmissionControl:
    def test_limited_tenant_sheds_only_its_own_traffic(self):
        r = run_once(admit=True)
        assert r.tenants["beta"].dropped > 0  # offered 200/s vs limit 100/s
        assert r.tenants["alpha"].dropped == 0  # no limit

    def test_disabled_controller_drops_nothing(self):
        r = run_once(admit=False)
        assert r.dropped == 0


class TestHedging:
    def test_hedges_need_spare_replicas(self):
        r = run_once(plan=SPIKY, policy=ResiliencePolicy.hedged(1e-6), replicas=1)
        assert r.hedges_issued == 0  # nowhere to hedge to

    def test_hedges_fire_on_spiked_rounds(self):
        r = run_once(plan=SPIKY, policy=ResiliencePolicy.hedged(0.02), replicas=3)
        assert r.hedges_issued > 0
        assert 0 <= r.hedges_won <= r.hedges_issued

    def test_hedging_improves_p999_under_spikes(self):
        base = run_once(plan=SPIKY, replicas=3, duration=2.0)
        hedged = run_once(
            plan=SPIKY, policy=ResiliencePolicy.hedged(0.02), replicas=3, duration=2.0
        )
        lat_b = np.concatenate([base.latency_array(t.name) for t in TENANTS])
        lat_h = np.concatenate([hedged.latency_array(t.name) for t in TENANTS])
        assert np.percentile(lat_h, 99.9) < np.percentile(lat_b, 99.9)

    def test_no_policy_never_hedges(self):
        r = run_once(plan=SPIKY)
        assert r.hedges_issued == 0 and r.hedges_won == 0


class TestValidation:
    def test_engine_rejects_bad_wiring(self):
        shards, smap, keys = make_cluster()
        with pytest.raises(ValueError):
            RequestEngine([], smap, TENANTS, keys)
        with pytest.raises(ValueError):
            RequestEngine(shards, ShardMap(5, UNIVERSE), TENANTS, keys)
        with pytest.raises(ValueError):
            RequestEngine(shards, smap, TENANTS, keys, batch=0)
        with pytest.raises(ValueError):
            RequestEngine(shards, smap, TENANTS, np.array([1]))
        engine = RequestEngine(shards, smap, TENANTS, keys)
        with pytest.raises(ValueError):
            engine.run(0.0, seed=1)


def _digest(result):
    """sha256 of everything E19 prints and the benchmark digests for one run."""
    h = hashlib.sha256()
    for name in result.tenants:
        h.update(result.latency_array(name).tobytes())
    h.update(
        repr(
            (
                result.served,
                result.dropped,
                result.rounds,
                result.hedges_issued,
                result.hedges_won,
                result.max_queue_depth,
                result.io_seconds,
            )
        ).encode()
    )
    return h.hexdigest()


#: Past saturation for the 2 x 3 test cluster: queues build, rounds fill.
HOT = (
    TenantSpec("alpha", rate=1500.0, weight=2.0, theta=1.2),
    TenantSpec("beta", rate=900.0, weight=1.0, theta=1.4, rate_limit=300.0, burst=8.0),
)
#: The crash suite's cluster offered the same overload, so the rounds the
#: crash requeues carry several requests.
HOT_UNLIMITED = (
    TenantSpec("alpha", rate=1500.0, weight=2.0),
    TenantSpec("beta", rate=900.0, weight=1.0),
)


def _pinned_crash(tenants):
    shards, smap, keys = crash_failover.make_cluster(crash=CrashPlan(seed=7, at_io=6))
    return RequestEngine(shards, smap, tenants, keys, batch=8).run(0.5, seed=42)


class TestPinnedRuns:
    """Whole-run digests captured at the commit *before* the engine kept a
    running queue depth and one-key rounds took the scalar descent
    (``f211511``): latencies of every tenant, in service order, plus the
    counters E19's table prints.  An edit that moves one completion time,
    one hedge or one queued-request count fails here.  Every pin was
    re-captured once, when a multi-key round's B-tree level became one
    planned read of its misses (``BufferCache.get_many`` through
    ``read_set``: sorted, bridged over cheap gaps): rounds are served
    faster, so the backlogs are shorter and the rounds smaller.
    """

    def test_hedge_below_the_knee(self):
        result = run_once(plan=SPIKY, policy=ResiliencePolicy.hedged(0.02), replicas=3)
        assert result.hedges_issued > 0 and result.dropped == 0
        assert result.max_queue_depth == 4
        assert _digest(result) == (
            "2ecd88ac4ec8bc8170780840a67f3dc2676b5eda8266f83afaab9dfdba4c7bb2"
        )

    def test_admit_hedge_past_saturation(self):
        result = run_once(
            plan=SPIKY,
            policy=ResiliencePolicy.hedged(0.02),
            admit=True,
            replicas=3,
            tenants=HOT,
            duration=0.5,
        )
        assert result.dropped > 0 and result.hedges_issued > 0
        # Multi-key rounds: fewer rounds than requests, a backlog of many.
        # (897 requests went in 240 rounds before the planned batch read, in
        # 513 since: the rounds drain the queue twice as fast.)
        assert result.served > 1.5 * result.rounds
        assert result.max_queue_depth == 23
        assert _digest(result) == (
            "a74aeb3821cb13906915bf15b1d1c1665f5a1f94d8438cae9d3eb2110a3cf43f"
        )

    @pytest.mark.parametrize(
        "tenants, failovers, max_queue_depth, pinned",
        [
            (
                crash_failover.TENANTS,
                2,
                5,
                "fc1268a0ca6dce3303b1ce0ebdce69b7585d0f098715c34885b3312af8a7c1f4",
            ),
            (
                HOT_UNLIMITED,
                3,
                21,
                "87d7ff178b80b8d1f4384fc3260c64d6816d96fca2e830a5f0464d030622e472",
            ),
        ],
        ids=["one-key-rounds", "full-rounds"],
    )
    def test_crash_requeues_the_round(self, tenants, failovers, max_queue_depth, pinned):
        # The requeue path is where a running depth counter goes wrong: a
        # crashed round's requests re-enter the queue without arriving.
        # Both pins (digest and depth) were re-captured once, when a dirty
        # write-back became one write per run of adjacent dirty nodes: the
        # durable replicas' B-trees write fewer IOs, which moves the crash
        # timeline (failovers and crash counts did not move).  Then again
        # with the planned batch read: full rounds are served faster, so the
        # crashed replica holds fewer queued requests (8 -> 3 failovers).
        result = _pinned_crash(tenants)
        assert result.crashes == 2
        assert sum(s.failovers for s in result.tenants.values()) == failovers
        assert result.max_queue_depth == max_queue_depth
        assert _digest(result) == pinned


class TestRunAgain:
    """``run`` starts every run on a clean timeline (pools, buckets)."""

    def _engine(self, **kw):
        shards, smap, keys = make_cluster(plan=SPIKY, replicas=3)
        return RequestEngine(shards, smap, TENANTS, keys, batch=8, **kw), shards

    def test_second_run_needs_no_manual_pool_reset(self):
        by_hand, shards = self._engine()
        by_hand.run(1.0, seed=42)
        for shard in shards:
            shard.pool.reset()  # what callers had to do before run did it
        expected = by_hand.run(1.0, seed=43)

        engine, _ = self._engine()
        first = engine.run(1.0, seed=42)
        again = engine.run(1.0, seed=43)
        assert again.describe() == expected.describe()
        for t in TENANTS:
            assert np.array_equal(again.latency_array(t.name), expected.latency_array(t.name))
        # Not the previous horizon's backlog: the median request still hits.
        assert again.tenants["alpha"].percentiles()["p50"] < 0.005
        # io_seconds is cumulative since the devices' last reset.
        assert again.io_seconds > first.io_seconds

    def test_admission_buckets_restart_with_the_clock(self):
        engine, _ = self._engine(
            admission=AdmissionController(TENANTS, enabled=True),
            policy=ResiliencePolicy.hedged(0.02),
        )
        first = engine.run(1.0, seed=42)
        again = engine.run(1.0, seed=42)  # raised "time went backwards" before
        assert first.dropped > 0
        # Same traffic on a warmer cluster: the front door decides the same.
        assert again.dropped == first.dropped
