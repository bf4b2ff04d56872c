"""Bε-tree unit tests: messages, flushing, CRUD, structure, IO accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TreeError
from repro.storage.ram import NullDevice
from repro.storage.stack import StorageStack
from repro.trees import build, check_kind
from repro.trees.betree import BeTreeConfig
from repro.trees.betree.messages import Message, MessageOp, apply_messages
from repro.trees.betree.node import SegmentBuffer
from repro.trees.sizing import EntryFormat


def make_tree(node_bytes=4096, fanout=4, cache_bytes=1 << 20, value_bytes=20, device=None):
    """The naive whole-node Bε-tree of Lemma 8, through the registry."""
    tree = build(
        "betree", device or NullDevice(), node_bytes=node_bytes, cache_bytes=cache_bytes,
        fanout=fanout, fmt=EntryFormat(value_bytes=value_bytes), layout="whole-node",
    )
    return tree, tree.storage


class TestMessages:
    def test_apply_insert(self):
        v, present = apply_messages(None, False, [Message(1, MessageOp.INSERT, 5, "x")])
        assert (v, present) == ("x", True)

    def test_apply_delete(self):
        v, present = apply_messages("x", True, [Message(1, MessageOp.DELETE, 5)])
        assert present is False

    def test_apply_upsert_chain(self):
        msgs = [
            Message(1, MessageOp.UPSERT, 5, 10),
            Message(2, MessageOp.UPSERT, 5, 7),
        ]
        v, present = apply_messages(None, False, msgs)
        assert (v, present) == (17, True)

    def test_delete_then_upsert_restarts_from_zero(self):
        msgs = [
            Message(1, MessageOp.DELETE, 5),
            Message(2, MessageOp.UPSERT, 5, 3),
        ]
        v, present = apply_messages(100, True, msgs)
        assert (v, present) == (3, True)

    def test_out_of_order_rejected(self):
        msgs = [Message(2, MessageOp.INSERT, 5, "a"), Message(1, MessageOp.DELETE, 5)]
        with pytest.raises(TreeError):
            apply_messages(None, False, msgs)

    def test_ordering_by_seq(self):
        assert Message(1, MessageOp.INSERT, 9) < Message(2, MessageOp.DELETE, 1)


class TestSegmentBuffer:
    def test_add_count(self):
        seg = SegmentBuffer()
        seg.add(Message(1, MessageOp.INSERT, 5, "a"))
        seg.add(Message(2, MessageOp.INSERT, 5, "b"))
        seg.add(Message(3, MessageOp.INSERT, 7, "c"))
        assert seg.count == 3 == len(seg)
        assert [m.value for m in seg.for_key(5)] == ["a", "b"]

    def test_take_sorted_drains(self):
        seg = SegmentBuffer()
        for s in (3, 1, 2):
            seg.add(Message(s, MessageOp.INSERT, s * 10))
        out = seg.take_sorted()
        assert [m.seq for m in out] == [1, 2, 3]
        assert seg.count == 0

    def test_extract_ge(self):
        seg = SegmentBuffer()
        for k in (1, 5, 9):
            seg.add(Message(k, MessageOp.INSERT, k))
        right = seg.extract_ge(5)
        assert sorted(right.msgs) == [5, 9]
        assert sorted(seg.msgs) == [1]
        assert seg.count == 1 and right.count == 2


class TestConfig:
    def test_fanout_from_epsilon(self):
        cfg = BeTreeConfig(node_bytes=1 << 16, fanout=None, epsilon=0.5,
                           fmt=EntryFormat(value_bytes=20))
        assert cfg.target_fanout == pytest.approx(np.sqrt(cfg.leaf_capacity), rel=0.1)

    def test_epsilon_validation(self):
        with pytest.raises(ConfigurationError):
            BeTreeConfig(epsilon=1.5, fanout=None)

    def test_fanout_too_big_for_node(self):
        with pytest.raises(ConfigurationError):
            BeTreeConfig(node_bytes=2048, fanout=500)

    def test_buffer_budget_positive(self):
        cfg = BeTreeConfig(node_bytes=1 << 20, fanout=16)
        assert cfg.buffer_budget_bytes > (1 << 20) // 2

    def test_no_buffer_room_is_refused(self):
        # 4 KiB holds the pivots of 2F = 32 children, but not one message each.
        with pytest.raises(ConfigurationError, match="no buffer room"):
            BeTreeConfig(node_bytes=4096, fanout=16).buffer_budget_bytes

    def test_every_accepted_config_has_a_unit_of_at_least_the_fanout(self):
        # The node-size kernel prefills one amortization unit (a root-buffer
        # fill) with no floor under it: the budget check above is what keeps
        # that unit at 2F messages or more.
        unit_of = check_kind("betree").amortization_unit
        accepted = 0
        for node_bytes in (4096 << k for k in range(11)):  # 4 KiB .. 4 MiB
            for fanout in range(2, 257):
                try:
                    unit = unit_of(BeTreeConfig(node_bytes=node_bytes, fanout=fanout))
                except ConfigurationError:
                    continue
                accepted += 1
                assert unit >= 2 * fanout
        assert accepted


class TestCRUD:
    def test_empty(self):
        tree, _ = make_tree()
        assert tree.get(1) is None
        assert len(tree) == 0

    def test_insert_visible_while_buffered(self):
        tree, _ = make_tree(node_bytes=1 << 14)
        for k in range(500):
            tree.insert(k, k)
        # Many messages are still in buffers, but queries see them.
        for k in range(0, 500, 17):
            assert tree.get(k) == k

    def test_delete_visible_while_buffered(self):
        tree, _ = make_tree()
        for k in range(200):
            tree.insert(k, k)
        tree.delete(100)
        assert tree.get(100) is None
        assert 100 not in tree

    def test_upsert_semantics(self):
        tree, _ = make_tree()
        tree.upsert(5, 10)       # absent -> starts at 0
        assert tree.get(5) == 10
        tree.upsert(5, -3)
        assert tree.get(5) == 7
        tree.insert(5, 100)
        tree.upsert(5, 1)
        assert tree.get(5) == 101

    def test_random_ops_match_dict(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(0)
        ref = {}
        for _ in range(6000):
            k = int(rng.integers(0, 1200))
            r = rng.random()
            if r < 0.55:
                tree.insert(k, k)
                ref[k] = k
            elif r < 0.8:
                tree.delete(k)
                ref.pop(k, None)
            else:
                tree.upsert(k, 1)
                ref[k] = ref.get(k, 0) + 1
        tree.check_invariants()
        assert dict(tree.items()) == ref

    def test_flush_all_preserves_contents(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(1)
        ref = {}
        for k in rng.integers(0, 3000, size=4000):
            k = int(k)
            tree.insert(k, k)
            ref[k] = k
        tree.flush_all()
        tree.check_invariants()
        assert dict(tree.items()) == ref
        # After flush_all, no buffered messages remain anywhere.
        def walk(nid):
            node = tree._get(nid)
            if node.is_leaf:
                return 0
            return node.buffered_messages() + sum(walk(c) for c in node.children)
        assert walk(tree.root_id) == 0


class TestRange:
    def test_range_sees_buffered_and_applied(self):
        tree, _ = make_tree()
        for k in range(0, 1000, 2):
            tree.insert(k, k)
        tree.delete(500)
        tree.upsert(502, 5)
        got = dict(tree.range(495, 510))
        assert 500 not in got
        assert got[502] == 507
        assert got[496] == 496

    def test_range_matches_reference(self):
        tree, _ = make_tree()
        rng = np.random.default_rng(2)
        ref = {}
        for k in rng.integers(0, 2000, size=3000):
            k = int(k)
            tree.insert(k, k * 2)
            ref[k] = k * 2
        lo, hi = 300, 700
        expected = sorted((k, v) for k, v in ref.items() if lo <= k <= hi)
        assert tree.range(lo, hi) == expected

    def test_inverted_range_empty(self):
        tree, _ = make_tree()
        tree.insert(1, 1)
        assert tree.range(5, 2) == []


class TestStructure:
    def test_fanout_bounded(self):
        tree, _ = make_tree(node_bytes=4096, fanout=4)
        for k in range(8000):
            tree.insert(k, k)
        tree.check_invariants()  # includes fanout <= max_children

    def test_all_leaves_same_depth(self):
        tree, _ = make_tree(node_bytes=2048, fanout=3)
        rng = np.random.default_rng(3)
        for k in rng.integers(0, 10**6, size=5000):
            tree.insert(int(k), 0)
        tree.check_invariants()

    def test_bulk_load(self):
        tree, _ = make_tree()
        pairs = [(i * 3, i) for i in range(4000)]
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert tree.get(9) == 3
        assert len(tree) == 4000

    def test_bulk_load_then_ops(self):
        tree, _ = make_tree()
        tree.bulk_load([(i * 2, i) for i in range(3000)])
        tree.insert(999, "odd")
        tree.delete(0)
        tree.check_invariants()
        assert tree.get(999) == "odd"
        assert tree.get(0) is None

    def test_bulk_load_requires_pristine(self):
        tree, _ = make_tree()
        tree.insert(1, 1)
        with pytest.raises(TreeError):
            tree.bulk_load([(5, 5)])


class TestWriteOptimization:
    def test_fewer_write_ios_than_btree(self):
        """The headline WOD property: Bε inserts touch the device less."""
        from repro.trees.btree import BTree, BTreeConfig

        rng_keys = np.random.default_rng(4).integers(0, 10**9, size=5000)

        stack_b = StorageStack(NullDevice(), cache_bytes=1 << 14)
        btree = BTree(stack_b, BTreeConfig(node_bytes=4096, fmt=EntryFormat(value_bytes=20)))
        for k in rng_keys:
            btree.insert(int(k), 1)
        stack_b.flush()

        betree, stack_be = make_tree(cache_bytes=1 << 14)
        for k in rng_keys:
            betree.insert(int(k), 1)
        stack_be.flush()

        assert stack_be.device.stats.writes < stack_b.device.stats.writes / 2

    def test_query_cost_bounded_by_height_ios(self):
        tree, stack = make_tree(
            cache_bytes=4096, device=NullDevice(capacity_bytes=1 << 30, trace=True)
        )
        for k in range(5000):
            tree.insert(k, k)
        stack.drop_cache()
        n_before = stack.device.stats.reads
        tree.get(2500)
        reads = stack.device.stats.reads - n_before
        # One read per level, bounded by a loose height estimate.
        assert reads <= 8
