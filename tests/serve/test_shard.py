"""Shard construction: every tree kind loads, warms, and measures cleanly."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import build_load
from repro.faults import FaultPlan
from repro.serve import RequestEngine, ShardConfig, ShardMap, TenantSpec, build_shards
from repro.trees import KINDS

UNIVERSE = 1 << 16


def partitions_for(n_shards, n_entries=600, seed=11):
    pairs, _ = build_load(n_entries, UNIVERSE, seed=seed)
    keys = np.asarray(sorted(k for k, _ in pairs), dtype=np.int64)
    smap = ShardMap(n_shards, UNIVERSE, policy="hash")
    pair_map = dict(pairs)
    return [
        [(int(k), pair_map[int(k)]) for k in part] for part in smap.partition(keys)
    ]


class TestBuildShards:
    @pytest.mark.parametrize("tree", KINDS)
    def test_lookup_serves_loaded_keys(self, tree):
        """Serve conformance: any registered kind takes one engine run, then
        every replica answers like the dict model and has charged device time."""
        parts = partitions_for(2)
        cfg = ShardConfig(tree=tree, replicas=2, cache_bytes=8 << 10, warm_queries=8)
        shards = build_shards(2, parts, cfg, seed=5)
        keys = np.asarray(sorted(k for part in parts for k, _ in part), dtype=np.int64)
        engine = RequestEngine(
            shards,
            ShardMap(2, UNIVERSE, policy="hash"),
            (TenantSpec("t", rate=200.0),),
            keys,
            batch=cfg.batch,
        )
        served = engine.run(0.5, seed=5)
        assert served.served > 0 and served.dropped == 0
        for shard, part in zip(shards, parts):
            model = dict(part)
            probes = [k for k, _ in part[:16]] + [UNIVERSE + 1]
            for replica in shard.replicas:
                assert replica.io_seconds > 0.0
                lookups_before = replica.lookups
                replica.lookup_many(probes)
                assert replica.lookups == lookups_before + len(probes)
                assert replica.tree.lookup_many(probes) == [model.get(k) for k in probes]

    def test_warm_resets_measurement_state(self):
        parts = partitions_for(1)
        cfg = ShardConfig(tree="btree", replicas=1, warm_queries=32)
        (shard,) = build_shards(1, parts, cfg, seed=5)
        replica = shard.replicas[0]
        # Loading and warm-up must leave no residue on the measured clocks.
        assert replica.io_seconds == 0.0
        assert replica.rounds == 0 and replica.lookups == 0

    def test_lookup_charges_io(self):
        parts = partitions_for(1)
        cfg = ShardConfig(tree="btree", replicas=1, cache_bytes=8 << 10, warm_queries=0)
        (shard,) = build_shards(1, parts, cfg, seed=5)
        keys = [k for k, _ in parts[0][:32]]
        dur = shard.replicas[0].lookup_many(keys)
        assert dur > 0.0
        assert shard.replicas[0].io_seconds == pytest.approx(dur)

    def test_replicas_have_independent_devices(self):
        parts = partitions_for(1)
        cfg = ShardConfig(tree="btree", replicas=2, cache_bytes=8 << 10, warm_queries=0)
        (shard,) = build_shards(1, parts, cfg, seed=5)
        keys = [k for k, _ in parts[0][:32]]
        d0 = shard.replicas[0].lookup_many(keys)
        assert shard.replicas[1].io_seconds == 0.0  # untouched by replica 0
        d1 = shard.replicas[1].lookup_many(keys)
        assert d0 != d1  # distinct device seeds -> distinct mechanical noise

    def test_fault_plan_arms_after_build(self):
        parts = partitions_for(1)
        cfg = ShardConfig(tree="btree", replicas=1, warm_queries=16)
        plan = FaultPlan(seed=3, spike_prob=0.5, spike_seconds=0.1, spike_alpha=2.0)
        (shard,) = build_shards(1, parts, cfg, seed=5, plan=plan)
        replica = shard.replicas[0]
        assert replica.io_seconds == 0.0  # spikes did not pollute the build
        device = replica.tree.storage.device
        assert device.plan.spike_prob == 0.5  # armed for measured traffic

    def test_partition_count_must_match(self):
        parts = partitions_for(2)
        with pytest.raises(ValueError):
            build_shards(3, parts, ShardConfig(), seed=1)


class TestShardConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="KINDS"):
            ShardConfig(tree="radix")
        with pytest.raises(ValueError):
            ShardConfig(node_bytes=0)
        with pytest.raises(ValueError):
            ShardConfig(replicas=0)
        with pytest.raises(ValueError):
            ShardConfig(batch=0)
        with pytest.raises(ValueError):
            ShardConfig(warm_queries=-1)

    def test_describe_roundtrips_fields(self):
        cfg = ShardConfig(tree="lsm", replicas=3)
        d = cfg.describe()
        assert d["tree"] == "lsm" and d["replicas"] == 3
