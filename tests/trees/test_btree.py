"""B-tree unit tests: CRUD, structure, IO accounting."""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError, TreeError
from repro.experiments.devices import default_hdd
from repro.faults import FaultPlan, FaultyDevice
from repro.storage.ram import ConstantLatencyDevice, NullDevice
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.sizing import EntryFormat


#: sha256 of ``TestBatchOfOne.test_mixed_batch_sizes_trace_is_pinned``'s trace.
#: Re-captured once, when a dirty write-back became one write per run of
#: adjacent dirty nodes: the tree's load writes fewer IOs, so the gets
#: start from another clock and another point of the spike stream.
PINNED_MIXED_BATCHES = "0c5dc64be3fe100e6b2dc75ce986bc4c673059bb71a8a8cb97d1da3297417441"


def make_tree(node_bytes=2048, cache_bytes=1 << 20, value_bytes=20):
    stack = StorageStack(NullDevice(), cache_bytes)
    cfg = BTreeConfig(node_bytes=node_bytes, fmt=EntryFormat(value_bytes=value_bytes))
    return BTree(stack, cfg), stack


class TestConfig:
    def test_capacities(self):
        cfg = BTreeConfig(node_bytes=4096)
        assert cfg.leaf_capacity >= 2
        assert cfg.internal_capacity >= 2

    def test_tiny_node_rejected(self):
        with pytest.raises(ConfigurationError):
            BTreeConfig(node_bytes=64)


class TestCRUD:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.get(42) is None
        assert 42 not in tree
        assert tree.height == 1

    def test_insert_get(self):
        tree, _ = make_tree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_overwrite(self):
        tree, _ = make_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_delete_present(self):
        tree, _ = make_tree()
        tree.insert(1, "x")
        assert tree.delete(1) is True
        assert tree.get(1) is None
        assert len(tree) == 0

    def test_delete_absent(self):
        tree, _ = make_tree()
        tree.insert(1, "x")
        assert tree.delete(2) is False
        assert len(tree) == 1

    def test_many_inserts_match_dict(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(1)
        ref = {}
        for k in rng.integers(0, 5000, size=3000):
            k = int(k)
            tree.insert(k, k * 7)
            ref[k] = k * 7
        tree.check_invariants()
        assert len(tree) == len(ref)
        for k in list(ref)[::11]:
            assert tree.get(k) == ref[k]

    def test_interleaved_insert_delete(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(2)
        ref = {}
        for _ in range(4000):
            k = int(rng.integers(0, 800))
            if rng.random() < 0.6:
                tree.insert(k, k)
                ref[k] = k
            else:
                assert tree.delete(k) == (k in ref)
                ref.pop(k, None)
        tree.check_invariants()
        assert dict(tree.items()) == ref

    def test_delete_everything(self):
        tree, _ = make_tree()
        keys = list(range(0, 2000, 3))
        for k in keys:
            tree.insert(k, k)
        for k in keys:
            assert tree.delete(k)
        tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1  # collapsed back to a lone leaf

    def test_sequential_inserts_stay_balanced(self):
        tree, _ = make_tree(node_bytes=1024)
        for k in range(3000):
            tree.insert(k, k)
        tree.check_invariants()
        # Balanced height ~ log_fanout(n).
        assert tree.height <= 8


class TestRangeQueries:
    def test_range_basic(self):
        tree, _ = make_tree()
        for k in range(0, 100, 2):
            tree.insert(k, k * 10)
        assert tree.range(10, 20) == [(k, k * 10) for k in range(10, 21, 2)]

    def test_range_empty_interval(self):
        tree, _ = make_tree()
        tree.insert(5, 5)
        assert tree.range(10, 2) == []
        assert tree.range(6, 7) == []

    def test_range_whole_tree(self):
        tree, _ = make_tree()
        keys = list(range(0, 3000, 7))
        for k in keys:
            tree.insert(k, k)
        assert tree.range(-100, 10**9) == [(k, k) for k in keys]

    def test_items_sorted(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(3)
        for k in rng.permutation(500):
            tree.insert(int(k), int(k))
        got = list(tree.items())
        assert got == sorted(got)


class TestScanIO:
    """A scan reads each level in disk order, one IO per run of adjacent nodes."""

    NODE, CACHE = 2048, 16 << 10

    def cold_tree(self, policy, n=20_000):
        device = ConstantLatencyDevice(1e-3, trace=True)
        stack = StorageStack(device, self.CACHE, allocator_policy=policy, allocator_seed=3)
        tree = BTree(stack, BTreeConfig(node_bytes=self.NODE))
        tree.bulk_load([(i * 2, i) for i in range(n)])
        stack.drop_cache()
        device.trace.clear()
        return tree, device

    def test_fresh_scan_pays_one_io_per_cache_sized_run(self):
        tree, device = self.cold_tree("first_fit")
        assert tree.range(-1, 10**9) == [(i * 2, i) for i in range(20_000)]
        reads = [(r.offset, r.nbytes) for r in device.trace]
        assert all(r.kind == "read" for r in device.trace)
        n_nodes = sum(nbytes for _, nbytes in reads) // self.NODE
        assert n_nodes == tree.allocator.used_bytes // self.NODE  # each node once
        # bulk_load lays each level out contiguously, so a level is one run
        # cut only at the cache's size.
        per_run = self.CACHE // self.NODE
        assert max(nbytes for _, nbytes in reads) == self.CACHE
        assert len(reads) <= n_nodes // per_run + tree.height

    def test_aged_scan_reads_each_level_in_disk_order(self):
        tree, device = self.cold_tree("random")
        assert tree.range(-1, 10**9) == [(i * 2, i) for i in range(20_000)]
        offsets = [r.offset for r in device.trace]
        descents = sum(b < a for a, b in zip(offsets, offsets[1:]))
        assert descents <= tree.height - 1  # ascending within every level

    def test_narrow_scan_reads_one_node_per_level(self):
        tree, device = self.cold_tree("first_fit")
        assert tree.range(1000, 1010) == [(k, k // 2) for k in range(1000, 1011, 2)]
        assert [r.nbytes for r in device.trace] == [self.NODE] * tree.height


class TestBulkLoad:
    def test_bulk_load_queryable(self):
        tree, _ = make_tree()
        pairs = [(i * 3, i) for i in range(5000)]
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert len(tree) == 5000
        assert tree.get(9) == 3
        assert tree.get(10) is None

    def test_bulk_load_then_mutate(self):
        tree, _ = make_tree()
        tree.bulk_load([(i * 2, i) for i in range(2000)])
        tree.insert(1001, "odd")
        assert tree.delete(0)
        tree.check_invariants()
        assert tree.get(1001) == "odd"

    def test_bulk_load_requires_empty(self):
        tree, _ = make_tree()
        tree.insert(1, 1)
        with pytest.raises(TreeError):
            tree.bulk_load([(2, 2)])

    def test_bulk_load_requires_sorted_unique(self):
        tree, _ = make_tree()
        with pytest.raises(TreeError):
            tree.bulk_load([(2, 2), (1, 1)])
        tree2, _ = make_tree()
        with pytest.raises(TreeError):
            tree2.bulk_load([(1, 1), (1, 2)])

    def test_deletes_keep_the_occupancy_floor(self):
        # Leaf capacity 61, floor 15: deleting 7 of every 8 loaded keys
        # drains each leaf to ~7 unless delete refills before descending,
        # and check_invariants asserts the floor on every non-rightmost node.
        tree, _ = make_tree(node_bytes=1024, value_bytes=8)
        assert tree.config.leaf_capacity == 61
        tree.bulk_load([(k, k) for k in range(3000)])
        for k in range(3000):
            if k % 8:
                tree.delete(k)
        tree.check_invariants()
        assert list(tree.items()) == [(k, k) for k in range(0, 3000, 8)]

    def test_bulk_load_empty_list(self):
        tree, _ = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0


class TestIOAccounting:
    def test_all_io_through_cache(self):
        stack = StorageStack(NullDevice(), cache_bytes=4096)  # ~2 nodes
        tree = BTree(stack, BTreeConfig(node_bytes=2048, fmt=EntryFormat(value_bytes=20)))
        for k in range(2000):
            tree.insert(k, k)
        dev = stack.device.stats
        assert dev.reads > 0 and dev.writes > 0  # cache pressure forced IO

    def test_node_bytes_ios(self):
        # Every read the B-tree issues moves exactly node_bytes; a write
        # moves a run of adjacent dirty nodes, so a whole number of them.
        stack = StorageStack(NullDevice(capacity_bytes=1 << 30, trace=True), cache_bytes=4096)
        tree = BTree(stack, BTreeConfig(node_bytes=2048, fmt=EntryFormat(value_bytes=20)))
        for k in range(500):
            tree.insert(k, k)
        trace = stack.device.trace
        assert {rec.nbytes for rec in trace if rec.kind == "read"} == {2048}
        assert {rec.nbytes for rec in trace if rec.kind == "write"} <= {2048, 4096}

    def test_write_amp_grows_with_node_size(self):
        amps = []
        for node_bytes in (2048, 8192):
            stack = StorageStack(NullDevice(), cache_bytes=8192)
            tree = BTree(stack, BTreeConfig(node_bytes=node_bytes,
                                            fmt=EntryFormat(value_bytes=20)))
            rng = np.random.default_rng(0)
            for k in rng.integers(0, 10**9, size=3000):
                tree.insert(int(k), 1)
            stack.flush()
            amps.append(stack.device.stats.write_amplification(tree.user_bytes_modified))
        assert amps[1] > 1.5 * amps[0]  # Lemma 3: ~linear in B

    def test_user_bytes_modified_counts(self):
        tree, _ = make_tree()
        tree.insert(1, 1)
        tree.insert(2, 2)
        tree.delete(1)
        assert tree.user_bytes_modified == 3 * tree.config.fmt.entry_bytes


class TestGetMany:
    """Batched descent: same answers as get, one batched read per level."""

    def _loaded(self, n=500, **kw):
        tree, stack = make_tree(**kw)
        pairs = [(i * 7, f"v{i}") for i in range(n)]
        tree.bulk_load(pairs)
        return tree, stack, pairs

    def test_matches_pointwise_get(self):
        tree, _, pairs = self._loaded()
        keys = [k for k, _ in pairs[::17]] + [1, 2, 3, 10**9]
        assert tree.get_many(keys) == [tree.get(k) for k in keys]

    def test_duplicates_and_empty(self):
        tree, _, pairs = self._loaded(n=50)
        k = pairs[3][0]
        assert tree.get_many([k, k, k]) == [tree.get(k)] * 3
        assert tree.get_many([]) == []

    def test_batched_descent_costs_no_more_io(self):
        from repro.models.affine import AffineModel
        from repro.storage.ideal import AffineDevice

        def build():
            dev = AffineDevice(AffineModel(1e-6, setup_seconds=1e-3))
            stack = StorageStack(dev, cache_bytes=8 << 10)
            tree = BTree(stack, BTreeConfig(node_bytes=1024))
            tree.bulk_load([(i * 3, i) for i in range(3000)])
            stack.drop_cache()
            return tree, stack

        keys = [i * 3 for i in range(0, 3000, 91)]
        serial_tree, serial_stack = build()
        serial = [serial_tree.get(k) for k in keys]
        serial_io = serial_stack.io_seconds

        batched_tree, batched_stack = build()
        assert batched_tree.get_many(keys) == serial
        # Shared ancestors dedup: the batch can only save IO, never add.
        assert batched_stack.io_seconds <= serial_io + 1e-12


def _spiky_tree(seed=5):
    """A B-tree on a spiking HDD behind a 16-node cache (every get evicts)."""
    device = FaultyDevice(
        default_hdd(seed=seed),
        FaultPlan(seed=11, spike_prob=0.2, spike_seconds=0.01, spike_alpha=1.6),
    )
    stack = StorageStack(device, cache_bytes=16 * 1024)
    tree = BTree(stack, BTreeConfig(node_bytes=1024))
    tree.bulk_load([(i * 3, i) for i in range(4000)])
    stack.drop_cache()
    stack.cache.stats.reset()
    return tree


def _sim_state(tree):
    """Everything a lookup may move: both devices, both RNG streams, the cache."""
    device, cache = tree.storage.device, tree.storage.cache
    return {
        "clock": device.clock,
        "stats": vars(device.stats).copy(),
        "faults": vars(device.fault_stats).copy(),
        "plan_rng": device._rng.bit_generator.state,
        "inner_clock": device.inner.clock,
        "inner_stats": vars(device.inner.stats).copy(),
        "rotations_drawn": device.inner.rotations_drawn,
        "cache_stats": vars(cache.stats).copy(),
        "resident_lru": [e.node_id for e in cache._resident_lru_order()],
    }


class TestBatchOfOne:
    """``get_many([k])`` is ``get(k)``: the scalar descent, not a twin of it."""

    def test_one_key_batch_is_the_scalar_get_after_every_call(self):
        scalar, batched = _spiky_tree(), _spiky_tree()
        assert scalar.height == batched.height == 3  # (a charged walk: on both)
        rng = np.random.default_rng(23)
        # Two in three keys are absent (not multiples of 3); Zipf-ish reuse
        # so hits, misses and evictions all occur.
        keys = (rng.zipf(1.3, size=400) % 12_000).tolist()
        for key in keys:
            assert batched.get_many([key]) == [scalar.get(key)]
            assert _sim_state(batched) == _sim_state(scalar)
        stats = batched.storage.cache.stats
        assert stats.hits and stats.misses and stats.evictions
        assert batched.storage.device.fault_stats.spikes_injected > 0

    def test_mixed_batch_sizes_trace_is_pinned(self):
        # Captured at the commit before one-key batches took the scalar
        # descent (f211511): per-call (clock, hits, misses, evictions) over
        # batches of 1-8 keys.  Real batches still ride get_many, whose
        # deferred admissions evict differently from a get loop — so this
        # pins the batched path as well as the batch of one.
        tree = _spiky_tree()
        rng = np.random.default_rng(29)
        h = hashlib.sha256()
        for size in rng.integers(1, 9, size=300).tolist():
            keys = (rng.zipf(1.3, size=size) % 12_000).tolist()
            values = tree.get_many(keys)
            assert values == [k // 3 if k % 3 == 0 else None for k in keys]
            stats = tree.storage.cache.stats
            h.update(
                repr(
                    (tree.storage.device.clock, stats.hits, stats.misses, stats.evictions)
                ).encode()
            )
        assert h.hexdigest() == PINNED_MIXED_BATCHES

    def test_one_key_batch_emits_one_query_batch_event(self):
        tree = _spiky_tree()
        obs.disable(detach_tracer=True)
        obs.reset()
        obs.enable(trace=True)
        try:
            assert tree.get_many([9]) == [3]
            counters = obs.OBS.snapshot()["counters"]
            spans = [s for s in obs.OBS.tracer.spans if s.name.startswith("btree.")]
        finally:
            obs.disable(detach_tracer=True)
            obs.reset()
        assert counters["btree.query_batch.count"] == 1
        assert counters.get("btree.query.count", 0) == 0
        assert [(s.name, s.attrs) for s in spans] == [("btree.query_batch", {"n": 1})]
