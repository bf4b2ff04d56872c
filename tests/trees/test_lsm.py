"""LSM-tree unit tests: memtable, flush, compaction, queries."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TreeError
from repro.storage.ram import NullDevice
from repro.trees.lsm import LSMConfig, LSMTree
from repro.trees.lsm.sstable import SSTable
from repro.trees.merge import TOMBSTONE
from repro.trees.sizing import EntryFormat


def make(sstable_bytes=1 << 13, **kwargs):
    cfg_kwargs = dict(
        sstable_bytes=sstable_bytes,
        memtable_bytes=sstable_bytes,
        level1_bytes=4 * sstable_bytes,
        fmt=EntryFormat(value_bytes=20),
    )
    cfg_kwargs.update(kwargs)
    dev = NullDevice(capacity_bytes=1 << 30)
    return LSMTree(dev, LSMConfig(**cfg_kwargs)), dev


class TestSSTable:
    def test_lookup(self):
        t = SSTable(0, [1, 3, 5], ["a", "b", "c"])
        assert t.lookup(3) == ("b", True)
        assert t.lookup(2) == (None, False)

    def test_overlaps(self):
        t = SSTable(0, [10, 20], ["a", "b"])
        assert t.overlaps(15, 25)
        assert t.overlaps(20, 20)
        assert not t.overlaps(21, 30)
        assert not t.overlaps(0, 9)

    def test_slice(self):
        t = SSTable(0, [1, 2, 3, 4], list("abcd"))
        assert t.slice(2, 3) == ([2, 3], ["b", "c"])

    def test_validation(self):
        with pytest.raises(TreeError):
            SSTable(0, [], [])
        with pytest.raises(TreeError):
            SSTable(0, [2, 1], ["a", "b"])
        with pytest.raises(TreeError):
            SSTable(0, [1], [])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LSMConfig(sstable_bytes=10)
        with pytest.raises(ConfigurationError):
            LSMConfig(growth_factor=1)
        with pytest.raises(ConfigurationError):
            LSMConfig(l0_trigger=0)

    def test_entries_per_sstable(self):
        cfg = LSMConfig(sstable_bytes=1 << 13, fmt=EntryFormat(value_bytes=20))
        assert cfg.entries_per_sstable > 100


class TestCRUD:
    def test_memtable_only(self):
        tree, dev = make()
        tree.insert(1, "one")
        assert tree.get(1) == "one"
        assert dev.stats.writes == 0  # nothing flushed yet

    def test_flush_on_overflow(self):
        tree, dev = make()
        for k in range(tree.config.entries_per_memtable + 1):
            tree.insert(k, k)
        assert dev.stats.writes >= 1
        assert tree.levels[0] or len(tree.levels) > 1

    def test_delete_shadows_older_levels(self):
        tree, _ = make()
        tree.insert(5, "x")
        tree.flush_memtable()
        tree.delete(5)
        assert tree.get(5) is None
        tree.flush_memtable()
        assert tree.get(5) is None

    def test_newer_l0_run_wins(self):
        tree, _ = make()
        tree.insert(5, "old")
        tree.flush_memtable()
        tree.insert(5, "new")
        tree.flush_memtable()
        assert tree.get(5) == "new"

    def test_random_ops_match_dict(self):
        tree, _ = make()
        rng = np.random.default_rng(0)
        ref = {}
        for _ in range(8000):
            k = int(rng.integers(0, 2000))
            if rng.random() < 0.7:
                tree.insert(k, k)
                ref[k] = k
            else:
                tree.delete(k)
                ref.pop(k, None)
        tree.check_invariants()
        assert dict(tree.items()) == ref
        for k in list(ref)[::13]:
            assert tree.get(k) == ref[k]

    def test_len(self):
        tree, _ = make()
        for k in range(100):
            tree.insert(k, k)
        tree.delete(5)
        assert len(tree) == 99


class TestCompaction:
    def test_compaction_triggers(self):
        tree, _ = make(l0_trigger=2)
        for k in range(6 * tree.config.entries_per_memtable):
            tree.insert(k, k)
        assert tree.compactions > 0
        tree.check_invariants()

    def test_deeper_levels_disjoint(self):
        tree, _ = make(l0_trigger=2)
        rng = np.random.default_rng(1)
        for k in rng.integers(0, 10**6, size=12_000):
            tree.insert(int(k), 0)
        tree.check_invariants()  # asserts disjointness
        assert len(tree.levels) >= 2

    def test_compaction_preserves_contents(self):
        tree, _ = make(l0_trigger=2)
        ref = {}
        rng = np.random.default_rng(2)
        for k in rng.integers(0, 5000, size=10_000):
            k = int(k)
            tree.insert(k, k * 2)
            ref[k] = k * 2
        assert dict(tree.items()) == ref

    def test_fence_keys_follow_every_compaction(self):
        # get() bisects a per-level fence list that only _compact refreshes:
        # it must equal the runs' min keys after every single compaction,
        # including the level a victim run was taken out of.
        tree, _ = make(l0_trigger=2, level1_bytes=2 << 13, growth_factor=2)
        ref = {}
        seen = 0
        rng = np.random.default_rng(4)
        for k in rng.integers(0, 10**6, size=12_000):
            k = int(k)
            tree.insert(k, k + 1)
            ref[k] = k + 1
            if tree.compactions != seen:
                seen = tree.compactions
                tree.check_invariants()
        assert len(tree.levels) >= 4
        assert tree._fences[1:] == [[t.min_key for t in lvl] for lvl in tree.levels[1:]]
        assert all(tree.get(k) == v for k, v in list(ref.items())[::7])
        assert tree.get(-1) is None and tree.get(10**6 + 1) is None

    def test_tombstones_dropped_at_last_level(self):
        tree, _ = make(l0_trigger=2)
        for k in range(3000):
            tree.insert(k, k)
        for k in range(3000):
            tree.delete(k)
        # Force everything down.
        for k in range(6 * tree.config.entries_per_memtable):
            tree.insert(10**7 + k, 0)
        values = [
            v for lvl in tree.levels for t in lvl for v in t.values
        ]
        # Most tombstones should have been compacted away eventually.
        n_tomb = sum(1 for v in values if v is TOMBSTONE)
        assert n_tomb < 3000

    def test_write_amp_greater_than_one_with_compaction(self):
        tree, dev = make(l0_trigger=2)
        fmt = tree.config.fmt
        n = 8 * tree.config.entries_per_memtable
        for k in range(n):
            tree.insert(k, k)
        tree.flush_memtable()
        assert dev.stats.write_amplification(n * fmt.entry_bytes) > 1.0


class TestRange:
    def test_range_across_levels(self):
        tree, _ = make(l0_trigger=2)
        ref = {}
        rng = np.random.default_rng(3)
        for k in rng.integers(0, 3000, size=9000):
            k = int(k)
            tree.insert(k, k)
            ref[k] = k
        tree.delete(100)
        ref.pop(100, None)
        lo, hi = 50, 800
        expected = sorted((k, v) for k, v in ref.items() if lo <= k <= hi)
        assert tree.range(lo, hi) == expected

    def test_inverted_range(self):
        tree, _ = make()
        tree.insert(1, 1)
        assert tree.range(5, 2) == []

    def test_memtable_overrides_levels_in_range(self):
        tree, _ = make()
        tree.insert(5, "old")
        tree.flush_memtable()
        tree.insert(5, "new")
        tree.delete(7)
        assert dict(tree.range(0, 10)).get(5) == "new"
