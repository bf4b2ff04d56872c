"""Theorem 9 Bε-tree tests: correctness parity plus IO-size assertions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.storage.ram import NullDevice
from repro.trees import build
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.trees.betree.node import BeNode
from repro.trees.betree.tree import LAYOUTS
from repro.trees.sizing import EntryFormat


def make(node_bytes=8192, fanout=4, cache_bytes=1 << 20, device=None, layout="theorem9"):
    tree = build(
        "betree", device or NullDevice(), node_bytes=node_bytes, cache_bytes=cache_bytes,
        fanout=fanout, fmt=EntryFormat(value_bytes=20), layout=layout,
    )
    return tree, tree.storage


#: Node sizes 16 KiB-4 MiB by F in {4, 16, 64}; a 16 KiB node has no buffer
#: room for 2F = 128 children.
CAP_CASES = [
    (node_bytes, fanout)
    for node_bytes in (16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)
    for fanout in (4, 16, 64)
    if (node_bytes, fanout) != (16 << 10, 64)
]


class TestConstruction:
    def test_slot_geometry(self):
        tree, _ = make(node_bytes=8192, fanout=4)
        assert tree.segment_cap_bytes > 0
        assert tree.basement_entries >= 1
        # A segment slot holds a full segment plus its child's pivot area,
        # and the pivot slot and every segment slot fill an internal extent.
        fmt, max_children = tree.config.fmt, tree.config.max_children
        assert tree._seg_slot >= tree.segment_cap_bytes + fmt.internal_bytes(max_children)
        internal = tree._nodes[tree.root_id]
        internal.is_leaf = False  # sizes only: the root of an empty tree is a leaf
        assert tree._pivot_slot + max_children * tree._seg_slot == tree.extent_bytes(internal)

    @pytest.mark.parametrize("node_bytes, fanout", CAP_CASES)
    def test_the_segment_cap_is_b_over_f(self, node_bytes, fanout):
        # Theorem 9's cap in its closed form: B/F messages a child, B the
        # node's buffer budget (one fixed slot of B/(2F), the old cap, fails).
        tree = build(
            "betree", NullDevice(), node_bytes=node_bytes, fanout=fanout, cache_bytes=1 << 20
        )
        mb = tree.config.fmt.message_bytes
        assert tree.segment_cap_bytes // mb >= tree.config.buffer_budget_bytes // fanout // mb

    @pytest.mark.parametrize("layout", ["theorem9", "segments"])
    @pytest.mark.parametrize("node_bytes, fanout", [(16 << 10, 4), (16 << 10, 16)])
    def test_a_loaded_tree_keeps_its_invariants_under_random_inserts(
        self, node_bytes, fanout, layout
    ):
        # check_invariants holds every segment to the cap and every component
        # inside its node's extent, after splits at every level.
        tree, _ = make(node_bytes=node_bytes, fanout=fanout, cache_bytes=256 << 10, layout=layout)
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, 1 << 40, size=10_000)).tolist()
        tree.load([(k, k) for k in keys])
        for i, key in enumerate(rng.integers(0, 1 << 40, size=10_000).tolist()):
            tree.insert(key, i)
        tree.check_invariants()
        assert tree._nodes[tree.root_id].height >= 2

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

    @pytest.mark.parametrize("layout", ["theorem9", "segments"])
    def test_messages_leave_only_segments_in_memory(self, layout, monkeypatch):
        """Oracle for the flush path's reads: when a flush takes a segment's
        messages, or a split moves a segment to the new sibling, the segment
        is in memory — resident whole in the cache, or held by the flush open
        on its node (read when it opened, or since).  On a cache of one entry
        next to nothing stays resident, so a move the tree did not read for
        fails here."""
        tree, storage = make(fanout=4, cache_bytes=1, layout=layout)
        cache = storage.cache
        checks = []

        def in_memory(node, i):
            sid = ("s", node.node_id, i)
            flush = tree._flushing.get(node.node_id)
            return cache.contains(sid) or (flush is not None and sid in flush.held)

        take = BeNode.take_segment

        def checked_take(node, idx):
            if node.segments[idx].count:
                checks.append(in_memory(node, idx))
            return take(node, idx)

        monkeypatch.setattr(BeNode, "take_segment", checked_take)
        split, new_node = tree._split_internal, tree._new_node
        splitting = []

        def checked_split(parent, idx):
            splitting.append(tree._nodes[parent.children[idx] if parent else tree.root_id])
            split(parent, idx)

        def checked_new_node(height):
            if splitting:  # the split's new sibling, made before the move
                node = splitting.pop()
                upper = range(len(node.children) // 2, len(node.children))
                checks.extend(in_memory(node, i) for i in upper if node.segments[i].count)
            return new_node(height)

        tree._split_internal, tree._new_node = checked_split, checked_new_node
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, 1 << 40, size=5_000)).tolist()
        tree.load([(k, k) for k in keys])
        for i, key in enumerate(rng.integers(0, 1 << 40, size=20_000).tolist()):
            tree.insert(key, i)
        tree.flush_all()
        tree.check_invariants()
        assert len(checks) > 1000 and all(checks)

    def test_a_flush_that_splits_its_child_writes_the_child_once(self):
        # The split of a child its own flushes made too wide happens inside
        # the flush into it, which then rewrites it whole: one write.
        device = NullDevice(capacity_bytes=1 << 30, trace=True)
        tree, _ = make(fanout=4, cache_bytes=256 << 10, device=device)
        flush_into = tree._flush_into
        writes = []

        def traced(parent, idx, child, msgs):
            start, width, base = len(device.trace), len(parent.children), tree._base[child.node_id]
            flush_into(parent, idx, child, msgs)
            if len(parent.children) > width:  # the child split
                trace = device.trace[start:]
                writes.append(sum(r.kind == "write" and r.offset == base for r in trace))

        tree._flush_into = traced
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, 1 << 40, size=5_000)).tolist()
        tree.load([(k, k) for k in keys])
        for i, key in enumerate(rng.integers(0, 1 << 40, size=20_000).tolist()):
            tree.insert(key, i)
        assert len(writes) >= 10 and set(writes) == {1}

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
