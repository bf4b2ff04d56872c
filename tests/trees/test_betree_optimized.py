"""Theorem 9 Bε-tree tests: correctness parity plus IO-size assertions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.storage.ram import NullDevice
from repro.trees import build
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.betree.tree import LAYOUTS
from repro.trees.sizing import EntryFormat


def make(node_bytes=8192, fanout=4, cache_bytes=1 << 20, device=None, layout="theorem9"):
    tree = build(
        "betree", device or NullDevice(), node_bytes=node_bytes, cache_bytes=cache_bytes,
        fanout=fanout, fmt=EntryFormat(value_bytes=20), layout=layout,
    )
    return tree, tree.storage


class TestConstruction:
    def test_slot_geometry(self):
        tree, _ = make(node_bytes=8192, fanout=4)
        assert tree.segment_cap_bytes > 0
        assert tree.basement_entries >= 1
        # All segment slots plus the pivot slot fit in the node.
        total = tree._pivot_slot + tree.config.max_children * tree._seg_slot
        assert total <= tree.config.node_bytes

    def test_a_layout_is_built_by_one_class_and_refused_by_the_other(self):
        with pytest.raises(ConfigurationError, match="layout"):
            BeTreeConfig(layout="bogus")
        for layout in LAYOUTS:
            tree, stack = make(layout=layout)
            other = OptimizedBeTree if type(tree) is BeTree else BeTree
            with pytest.raises(ConfigurationError, match=layout):
                other(stack, tree.config)


class TestCorrectnessParity:
    """The optimized tree must behave exactly like the naive tree."""

    def _drive(self, tree, seed=0, n=5000):
        rng = np.random.default_rng(seed)
        ref = {}
        for _ in range(n):
            k = int(rng.integers(0, 1500))
            r = rng.random()
            if r < 0.55:
                tree.insert(k, k * 3)
                ref[k] = k * 3
            elif r < 0.8:
                tree.delete(k)
                ref.pop(k, None)
            else:
                tree.upsert(k, 1)
                ref[k] = ref.get(k, 0) + 1
        return ref

    def test_random_ops_match_dict(self):
        tree, _ = make()
        ref = self._drive(tree)
        tree.check_invariants()
        assert dict(tree.items()) == ref

    def test_matches_naive_tree_exactly(self):
        opt, _ = make()
        naive, _ = make(layout="whole-node")
        ref1 = self._drive(opt, seed=7)
        ref2 = self._drive(naive, seed=7)
        assert ref1 == ref2
        assert list(opt.items()) == list(naive.items())

    def test_flush_all(self):
        tree, _ = make()
        ref = self._drive(tree, seed=2)
        tree.flush_all()
        tree.check_invariants()
        assert dict(tree.items()) == ref

    def test_bulk_load_and_query(self):
        tree, _ = make()
        tree.bulk_load([(i * 2, i) for i in range(3000)])
        tree.check_invariants()
        assert tree.get(100) == 50
        assert tree.get(101) is None

    def test_range_queries(self):
        tree, _ = make()
        ref = self._drive(tree, seed=3)
        lo, hi = 200, 900
        expected = sorted((k, v) for k, v in ref.items() if lo <= k <= hi)
        assert tree.range(lo, hi) == expected

    def test_ablation_flags_preserve_correctness(self):
        # E9's two OptimizedBeTree layouts (its third is the naive BeTree).
        for layout in ("theorem9", "segments"):
            tree, _ = make(layout=layout)
            ref = self._drive(tree, seed=4)
            tree.check_invariants()
            assert dict(tree.items()) == ref


class TestPartialIO:
    """The point of Theorem 9: queries read ~B/F + F, not B."""

    def _loaded(self, node_bytes=1 << 16, fanout=8, layout="theorem9"):
        device = AffineDevice(AffineModel(alpha=1e-6, setup_seconds=0.01),
                              capacity_bytes=1 << 30, trace=True)
        tree, stack = make(node_bytes=node_bytes, fanout=fanout,
                           cache_bytes=node_bytes, device=device, layout=layout)
        tree.bulk_load([(i, i) for i in range(0, 40_000, 2)])
        stack.drop_cache()
        return tree, stack

    def test_query_reads_are_small(self):
        tree, stack = self._loaded()
        t0 = len(stack.device.trace)
        tree.get(10_000)
        reads = [r for r in stack.device.trace[t0:] if r.kind == "read"]
        assert reads, "a cold query must read something"
        # Every read is far smaller than a whole node.
        assert max(r.nbytes for r in reads) <= tree.config.node_bytes // 2

    def test_query_cheaper_than_naive(self):
        opt, opt_stack = self._loaded()
        naive_dev = AffineDevice(AffineModel(alpha=1e-6, setup_seconds=0.01),
                                 capacity_bytes=1 << 30)
        naive, naive_stack = make(node_bytes=1 << 16, fanout=8, cache_bytes=1 << 16,
                                  device=naive_dev, layout="whole-node")
        naive.bulk_load([(i, i) for i in range(0, 40_000, 2)])
        naive_stack.drop_cache()

        t_opt0 = opt_stack.io_seconds
        t_naive0 = naive_stack.io_seconds
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(0, 20_000)) * 2
            opt.get(k)
            naive.get(k)
        opt_cost = opt_stack.io_seconds - t_opt0
        naive_cost = naive_stack.io_seconds - t_naive0
        assert opt_cost < naive_cost

    def test_pivots_in_parent_saves_an_io_per_level(self):
        with_piv, s1 = self._loaded(layout="theorem9")
        without_piv, s2 = self._loaded(layout="segments")
        r1 = s1.device.stats.reads
        r2 = s2.device.stats.reads
        rng = np.random.default_rng(6)
        keys = [int(rng.integers(0, 20_000)) * 2 for _ in range(40)]
        for k in keys:
            with_piv.get(k)
            without_piv.get(k)
        io1 = s1.device.stats.reads - r1
        io2 = s2.device.stats.reads - r2
        assert io1 < io2

    def test_range_scan_reads_whole_nodes(self):
        tree, stack = self._loaded()
        t0 = stack.io_seconds
        out = tree.range(0, 10_000)
        assert len(out) == 5001
        assert stack.io_seconds > t0


class TestCacheReads:
    """Queries and scans read components as cache reads: a resident one
    counts a hit and turns MRU, so the LRU keeps what the tree reads."""

    @staticmethod
    def _loaded():
        tree = build("betree", NullDevice(capacity_bytes=1 << 30),
                     node_bytes=8192, cache_bytes=1 << 20)
        tree.load([(i, i) for i in range(0, 40_000, 2)])
        tree.drop_cache()
        root = tree._nodes[tree.root_id]
        assert not tree._nodes[root.children[0]].is_leaf  # three levels or more
        return tree, tree.storage.cache

    def test_repeated_gets_hit_after_the_first_descent(self):
        tree, cache = self._loaded()
        assert tree.get(10_000) == 10_000
        path = cache.stats.misses
        assert path >= 4 and cache.stats.hits == 0  # root pivots, 2+ segments, a chunk
        for _ in range(9):
            assert tree.get(10_000) == 10_000
        assert (cache.stats.hits, cache.stats.misses) == (9 * path, path)

    def test_a_second_identical_range_is_all_hits(self):
        tree, cache = self._loaded()
        first = tree.range(1_000, 3_000)
        misses, reads = cache.stats.misses, tree.device.stats.reads
        assert tree.range(1_000, 3_000) == first
        assert cache.stats.misses == misses and tree.device.stats.reads == reads
        assert cache.stats.hits > 0

    def test_what_a_query_read_is_not_the_next_victim(self):
        tree, cache = self._loaded()
        tree.get(0)
        read = {e.node_id for e in cache._resident_lru_order()}
        tree.get(39_998)  # another root child: a path of its own below the root
        tree.get(0)
        victim = next(cache._resident_lru_order()).node_id
        assert victim not in read


class TestWriteAccounting:
    def test_flush_rewrites_are_batched(self):
        # A node rewrite must charge a handful of large IOs, not one IO
        # per basement chunk.
        device = NullDevice(capacity_bytes=1 << 30, trace=True)
        tree, stack = make(node_bytes=1 << 16, fanout=8, cache_bytes=1 << 16,
                           device=device)
        for k in range(20_000):
            tree.insert(k, k)
        writes = [r for r in device.trace if r.kind == "write"]
        reads = [r for r in device.trace if r.kind == "read"]
        assert writes
        # Batched whole-node writes exist (bigger than any single slot).
        assert max(w.nbytes for w in writes) > tree._seg_slot
        assert len(reads) + len(writes) < 20_000  # amortization happened

    def test_extent_freed_on_node_free(self):
        tree, stack = make()
        for k in range(3000):
            tree.insert(k, k)
        tree.flush_all()
        peak = stack.allocator.used_bytes
        for k in range(3000):
            tree.delete(k)
        tree.flush_all()
        tree.check_invariants()
        # Emptied leaves released their extents (internal skeleton remains).
        assert stack.allocator.used_bytes < peak / 2
