"""Buffer-cache tests: LRU, dirty write-back, accounting."""

import math
import random
from collections import OrderedDict

import pytest

from repro.errors import CacheError, ConfigurationError
from repro.storage.cache import BufferCache
from repro.storage.ram import ConstantLatencyDevice


def make(capacity=1000, latency=1.0):
    dev = ConstantLatencyDevice(latency, capacity_bytes=1 << 20)
    return BufferCache(dev, capacity), dev


class TestBasics:
    def test_insert_and_get_hit(self):
        cache, dev = make()
        cache.insert("a", {"x": 1}, offset=0, nbytes=100)
        assert cache.get("a") == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert dev.stats.reads == 0

    def test_unknown_id_rejected(self):
        cache, _ = make()
        with pytest.raises(CacheError):
            cache.get("nope")

    def test_duplicate_insert_rejected(self):
        cache, _ = make()
        cache.insert("a", 1, 0, 10)
        with pytest.raises(CacheError):
            cache.insert("a", 2, 0, 10)

    def test_bad_capacity(self):
        dev = ConstantLatencyDevice(0.0)
        with pytest.raises(ConfigurationError):
            BufferCache(dev, 0)


class TestEviction:
    def test_lru_order(self):
        cache, dev = make(capacity=250)
        for name in "abc":
            cache.insert(name, name, 0, 100)  # c's insert evicts a
        assert not cache.contains("a")
        assert cache.contains("b") and cache.contains("c")

    def test_access_refreshes_lru(self):
        cache, _ = make(capacity=250)
        cache.insert("a", "a", 0, 100)
        cache.insert("b", "b", 100, 100)
        cache.get("a")                       # a is now MRU
        cache.insert("c", "c", 200, 100)     # evicts b
        assert cache.contains("a") and not cache.contains("b")

    def test_clean_eviction_free(self):
        cache, dev = make(capacity=250)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.insert("b", "b", 100, 100, dirty=False)
        cache.insert("c", "c", 200, 100, dirty=False)
        assert dev.stats.writes == 0

    def test_dirty_eviction_writes_back(self):
        cache, dev = make(capacity=250)
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.insert("b", "b", 100, 100, dirty=False)
        cache.insert("c", "c", 200, 100, dirty=False)
        assert dev.stats.writes == 1
        assert dev.stats.bytes_written == 100
        assert cache.stats.dirty_evictions == 1

    def test_miss_rereads_from_device(self):
        cache, dev = make(capacity=250)
        cache.insert("a", "va", 0, 100, dirty=False)
        cache.insert("b", "vb", 100, 100, dirty=False)
        cache.insert("c", "vc", 200, 100, dirty=False)  # evicts a
        assert cache.get("a") == "va"                   # read back
        assert dev.stats.reads == 1
        assert cache.stats.misses == 1

    def test_single_oversized_entry_held(self):
        cache, _ = make(capacity=50)
        cache.insert("big", "x", 0, 500)
        assert cache.contains("big")  # at least one entry always resident


class TestDirtyAndExtents:
    def test_mark_dirty_then_evict_writes(self):
        cache, dev = make(capacity=250)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.mark_dirty("a")
        cache.insert("b", "b", 100, 100, dirty=False)
        cache.insert("c", "c", 200, 100, dirty=False)
        assert dev.stats.writes == 1

    def test_mark_dirty_nonresident_rejected(self):
        cache, _ = make()
        with pytest.raises(CacheError):
            cache.mark_dirty("ghost")  # never inserted

    def test_mark_dirty_reads_an_evicted_node_back(self):
        # An evicted node takes get's miss path first, then turns dirty.
        cache, dev = make(capacity=250)
        cache.insert("a", "va", 0, 100, dirty=False)
        cache.insert("b", "vb", 100, 100, dirty=False)
        cache.insert("c", "vc", 200, 100, dirty=False)  # evicts a
        assert cache.mark_dirty("a") == "va"
        assert dev.stats.reads == 1 and cache.stats.misses == 1
        assert not cache.contains("b")  # a's read-in evicted the LRU end
        cache.drop_clean()
        assert dev.stats.writes == 1

    def test_mark_clean(self):
        # A caller that wrote a node back itself re-admits it clean: its
        # eviction then costs nothing.
        cache, dev = make(capacity=250)
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.readmit_clean([("a", 0, 100)])
        cache.insert("b", "b", 100, 100, dirty=False)
        cache.insert("c", "c", 200, 100, dirty=False)  # evicts a
        assert not cache.contains("a")
        assert dev.stats.writes == 0 and cache.stats.dirty_evictions == 0

    def test_update_extent(self):
        # ``mark_dirty`` resizes in place: the offset (a fixed slot) stays,
        # the node turns dirty and the byte budget follows the new size.
        cache, dev = make(capacity=350)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.insert("b", "b", 100, 100, dirty=False)
        assert cache.mark_dirty("a", 300) == "a"
        assert cache.extent_of("a") == (0, 300)
        assert not cache.contains("b")  # evicted to make room
        assert cache.cached_bytes == 300 and dev.stats.reads == 0
        cache.drop_clean()
        assert dev.stats.bytes_written == 300

    def test_extent_of_on_disk(self):
        cache, _ = make(capacity=150)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.insert("b", "b", 100, 100, dirty=False)  # evicts a
        assert cache.extent_of("a") == (0, 100)

    def test_admit_no_charge(self):
        # readmit_clean creates, brings back and resizes without a read.
        cache, dev = make(capacity=250)
        cache.readmit_clean([("a", 0, 100)])  # unknown: created
        cache.insert("b", "vb", 100, 100, dirty=False)
        cache.insert("c", "vc", 200, 100, dirty=False)  # evicts a
        cache.readmit_clean([("a", 0, 100)])  # on disk: brought back
        assert cache.contains("a") and not cache.contains("b")
        cache.readmit_clean([("a", 0, 150)])  # resident: resized in place
        assert cache.extent_of("a") == (0, 150) and cache.cached_bytes == 250
        assert dev.stats.reads == 0 and cache.stats.accesses == 0

    def test_flush_writes_all_dirty(self):
        cache, dev = make()
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.insert("b", "b", 100, 150, dirty=True)
        cache.insert("c", "c", 250, 100, dirty=False)
        spent = cache.flush()
        # a and b are adjacent: one write of both (TestWriteRuns).
        assert dev.stats.writes == 1 and dev.stats.bytes_written == 250
        assert spent == pytest.approx(1.0)
        # Second flush is a no-op.
        assert cache.flush() == 0.0

    def test_drop_clean_empties_cache(self):
        cache, dev = make()
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.drop_clean()
        assert len(cache) == 0
        assert dev.stats.writes == 1  # dirty write-back on the way out
        assert cache.get("a") == "a"  # still reachable from disk


class TestDelete:
    def test_delete_resident_no_write(self):
        cache, dev = make()
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.delete("a")
        assert dev.stats.writes == 0
        with pytest.raises(CacheError):
            cache.get("a")

    def test_delete_on_disk(self):
        cache, _ = make(capacity=150)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.insert("b", "b", 100, 100, dirty=False)
        cache.delete("a")
        with pytest.raises(CacheError):
            cache.extent_of("a")

    def test_delete_unknown_rejected(self):
        cache, _ = make()
        with pytest.raises(CacheError):
            cache.delete("ghost")


class TestAccounting:
    def test_hit_rate(self):
        cache, _ = make()
        cache.insert("a", "a", 0, 100)
        cache.get("a")
        cache.get("a")
        assert cache.stats.hit_rate == 1.0
        assert cache.stats.accesses == 2

    def test_invariants_hold_through_churn(self):
        cache, _ = make(capacity=350)
        import numpy as np

        rng = np.random.default_rng(0)
        cache.insert(0, "v0", 0, 100)
        known = {0}
        for i in range(1, 200):
            op = rng.integers(0, 3)
            if op == 0:
                cache.insert(i, f"v{i}", i * 100, int(rng.integers(50, 150)))
                known.add(i)
            elif op == 1 and known:
                cache.get(int(rng.choice(list(known))))
            elif op == 2 and known and cache.contains(next(iter(known))):
                target = next(iter(known))
                cache.mark_dirty(target) if cache.contains(target) else None
            cache.check_invariants()


class TestStatsReset:
    def test_reset_zeroes_counters_only(self):
        cache, _ = make(capacity=150)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.get("a")
        cache.insert("b", "b", 100, 100, dirty=False)  # evicts a
        assert cache.stats.accesses > 0
        cache.stats.reset()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert cache.stats.evictions == 0
        assert cache.stats.dirty_evictions == 0
        assert cache.stats.accesses == 0
        # cache contents survive a stats reset
        assert cache.contains("b")
        cache.get("b")
        assert cache.stats.hits == 1


class TestGetRuns:
    """The scan fetch: get-loop accounting, disk-order reads, one IO a run."""

    @staticmethod
    def on_disk(capacity=1000, extents=((0, 100), (100, 100), (200, 100), (400, 100))):
        dev = ConstantLatencyDevice(1.0, capacity_bytes=1 << 20, trace=True)
        cache = BufferCache(dev, capacity)
        for i, (offset, nbytes) in enumerate(extents):
            cache.insert(i, f"v{i}", offset, nbytes, dirty=False)
        cache.drop_clean()
        return cache, dev

    def test_objects_in_input_order_reads_in_disk_order(self):
        cache, dev = self.on_disk()
        assert cache.get_runs([3, 1, 0, 2]) == ["v3", "v1", "v0", "v2"]
        # 0-2 are adjacent (one run); 400 starts past a gap.
        assert [(r.offset, r.nbytes) for r in dev.trace] == [(0, 300), (400, 100)]
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        assert all(cache.contains(i) for i in range(4))
        cache.check_invariants()

    def test_hits_count_like_a_get_loop_and_split_runs(self):
        cache, dev = self.on_disk()
        cache.get(1)
        dev.trace.clear()
        assert cache.get_runs([0, 1, 2]) == ["v0", "v1", "v2"]
        # The resident node 1 is not re-read, so 0 and 2 are two runs.
        assert [(r.offset, r.nbytes) for r in dev.trace] == [(0, 100), (200, 100)]
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)

    def test_a_repeated_id_is_read_once_then_hits(self):
        # As in a get loop (and get_many): one read and one admission, and
        # every repeat counts a hit.
        cache, dev = self.on_disk()
        assert cache.get_runs([0, 0, 3, 0]) == ["v0", "v0", "v3", "v0"]
        assert [(r.offset, r.nbytes) for r in dev.trace] == [(0, 100), (400, 100)]
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)
        assert len(cache) == 2 and cache.cached_bytes == 200
        cache.check_invariants()

    def test_a_run_never_exceeds_the_cache(self):
        cache, dev = self.on_disk(capacity=250)
        cache.get_runs([0, 1, 2])
        assert [(r.offset, r.nbytes) for r in dev.trace] == [(0, 200), (200, 100)]
        assert cache.cached_bytes <= 250
        cache.check_invariants()

    def test_unknown_id_charges_nothing(self):
        cache, dev = self.on_disk()
        with pytest.raises(CacheError):
            cache.get_runs([0, "ghost"])
        assert dev.stats.reads == 0 and cache.stats.accesses == 0

    def test_admission_evicts_dirty_nodes(self):
        cache, dev = self.on_disk(capacity=200)
        cache.insert("hot", "h", 600, 100)  # dirty
        cache.get_runs([0, 1])
        assert not cache.contains("hot")
        assert ("write", 600, 100) in [(r.kind, r.offset, r.nbytes) for r in dev.trace]


class TestGetMany:
    """The batched fetch classifies each id when it reaches it."""

    @staticmethod
    def warm():
        # Three 4 KiB extents; the 8 KiB cache holds 1 and 2, 1 at the LRU end.
        dev = ConstantLatencyDevice(1.0, capacity_bytes=1 << 20)
        cache = BufferCache(dev, 8192)
        for i in range(3):
            cache.insert(i, f"v{i}", i * 4096, 4096, dirty=False)
        assert not cache.contains(0) and cache.contains(1) and cache.contains(2)
        return cache, dev

    def test_a_node_the_loop_would_evict_still_hits(self):
        loop, loop_dev = self.warm()
        assert [loop.get(0), loop.get(1)] == ["v0", "v1"]
        assert (loop.stats.hits, loop.stats.misses, loop_dev.stats.reads) == (0, 2, 2)

        batch, batch_dev = self.warm()
        assert batch.get_many([0, 1]) == ["v0", "v1"]
        # 1 is counted a hit before 0's admission evicts the LRU end (now 2).
        assert (batch.stats.hits, batch.stats.misses, batch_dev.stats.reads) == (1, 1, 1)
        assert batch.contains(0) and batch.contains(1) and not batch.contains(2)
        batch.check_invariants()


def reads(dev):
    """``(offset, nbytes)`` of every read in ``dev``'s trace, in order."""
    return [(r.offset, r.nbytes) for r in dev.trace if r.kind == "read"]


def writes(dev):
    """``(offset, nbytes)`` of every write in ``dev``'s trace, in order."""
    return [(r.offset, r.nbytes) for r in dev.trace if r.kind == "write"]


class TestWriteRuns:
    """A dirty write-back writes its run of adjacent dirty nodes as one IO."""

    @staticmethod
    def traced(capacity=1000):
        dev = ConstantLatencyDevice(1.0, capacity_bytes=1 << 20, trace=True)
        return BufferCache(dev, capacity), dev

    def test_victim_takes_its_dirty_neighbours_both_ways(self):
        cache, dev = self.traced(capacity=400)
        cache.insert("b", "b", 100, 100)  # the LRU victim, between a and c
        cache.insert("a", "a", 0, 100)
        cache.insert("c", "c", 200, 100)
        cache.insert("far", "f", 600, 100)  # past a gap
        cache.insert("new", "n", 800, 100, dirty=False)  # evicts b
        assert writes(dev) == [(0, 300)]
        assert cache.stats.dirty_evictions == 1 and dev.stats.reads == 0
        cache.check_invariants()

    def test_runs_cut_at_gaps_and_clean_neighbours(self):
        cache, dev = self.traced(capacity=400)
        cache.insert("a", "a", 0, 100)
        cache.insert("b", "b", 100, 100, dirty=False)  # clean: cuts the run
        cache.insert("c", "c", 200, 50)
        cache.insert("d", "d", 300, 100)  # c ends at 250: a gap
        cache.insert("e", "e", 400, 100, dirty=False)  # evicts a
        cache.insert("f", "f", 500, 100, dirty=False)  # evicts b (clean)
        cache.insert("g", "g", 600, 100, dirty=False)  # evicts c
        assert writes(dev) == [(0, 100), (200, 50)]
        assert cache.contains("d")

    def test_a_run_never_exceeds_the_cache(self):
        cache, dev = self.traced(capacity=250)
        cache.insert("a", "a", 0, 100)
        cache.insert("b", "b", 100, 100)
        cache.insert("c", "c", 200, 100)  # evicts a: a + b is all that fits
        assert writes(dev) == [(0, 200)]
        cache.insert("d", "d", 400, 100, dirty=False)  # evicts b: clean now
        assert writes(dev) == [(0, 200)]

    def test_neighbours_stay_resident_and_clean_in_lru_place(self):
        cache, dev = self.traced(capacity=300)
        for name, offset in (("a", 0), ("b", 100), ("c", 200)):
            cache.insert(name, name, offset, 100)
        cache.insert("d", "d", 500, 100, dirty=False)  # evicts a with b, c
        assert writes(dev) == [(0, 300)]
        assert [cache.contains(n) for n in "abcd"] == [False, True, True, True]
        # b is still the LRU end, and clean: its eviction writes nothing.
        cache.insert("e", "e", 700, 100, dirty=False)
        assert not cache.contains("b") and cache.contains("c")
        assert dev.stats.writes == 1 and cache.stats.evictions == 2
        cache.check_invariants()

    def test_resize_and_redirty_move_the_index(self):
        cache, dev = self.traced(capacity=350)
        cache.insert("a", "a", 0, 50, dirty=False)
        cache.insert("b", "b", 100, 100)
        cache.mark_dirty("a", 100)  # now [0, 100) and dirty: adjacent to b
        cache.readmit_clean([("b", 100, 100)])
        cache.mark_dirty("b")
        cache.insert("x", "x", 900, 100, dirty=False)
        cache.insert("y", "y", 1100, 100, dirty=False)  # evicts a
        assert writes(dev) == [(0, 200)]
        cache.check_invariants()

    def test_flush_writes_in_disk_order(self):
        cache, dev = self.traced()
        for name, offset in (("d", 600), ("b", 200), ("a", 100), ("c", 400)):
            cache.insert(name, name, offset, 100)
        cache.insert("e", "e", 300, 100, dirty=False)
        assert cache.flush() == 3.0
        assert writes(dev) == [(100, 200), (400, 100), (600, 100)]
        assert len(cache) == 5 and cache.stats.evictions == 0

    def test_drop_clean_is_flush_then_forget(self):
        def filled():
            cache, dev = self.traced(capacity=500)
            for i in (3, 0, 4, 1):
                cache.insert(i, i, i * 100, 100)
            cache.insert(9, 9, 900, 100, dirty=False)
            return cache, dev

        dropped, dev = filled()
        dropped.drop_clean()
        flushed, ref = filled()
        flushed.flush()
        assert dev.trace == ref.trace  # the same writes, nothing else
        assert writes(dev) == [(0, 200), (300, 200)]
        assert len(dropped) == 0 and dropped.cached_bytes == 0
        assert dropped.stats.evictions == 5 and dropped.stats.dirty_evictions == 0
        dropped.check_invariants()

    # -- the per-node write-back as a differential reference ------------------

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_node_write_back_with_fewer_writes(self, seed):
        rnd = random.Random(seed)
        capacity = (120, 350, 800, 1500)[seed % 4]  # 1 to 15 of 24 nodes
        cache, dev = self.traced(capacity)
        ref = PerNodeWriteBack(capacity)
        slots = 24
        for step in range(400):
            op, args, kwargs = _draw_op(rnd, ref, slots)
            for c in (cache, ref):
                getattr(c, op)(*args, **kwargs)
            cache.check_invariants()
            assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (
                ref.hits, ref.misses, ref.evictions
            ), (step, op)
            assert [cache.contains(i) for i in range(slots)] == [
                ref.contains(i) for i in range(slots)
            ]
            assert reads(dev) == reads(ref.device)
            assert dev.stats.writes <= ref.device.stats.writes
            # Clustering only cleans early: what is dirty here is dirty
            # there.  Extents never overlap, so every node is indexed.
            dirty = {i for i, e in cache._index.items() if e.resident and e.dirty}
            assert dirty <= ref.dirty_resident()
            assert {e.node_id for e in cache._by_start.values()} == set(ref.extent)
            assert {e.node_id for e in cache._by_end.values()} == set(ref.extent)
        if capacity >= 200:  # a cache of one node has no neighbour to take
            assert dev.stats.writes < ref.device.stats.writes

    # -- a B-tree load, the first cost rule over write runs -------------------

    @pytest.mark.parametrize("node, cache_bytes", [(2048, 16 << 10), (4096, 64 << 10), (1024, 8 << 10)])
    def test_btree_load_writes_one_io_per_cache_of_nodes(self, node, cache_bytes):
        from repro.storage.stack import StorageStack
        from repro.trees.btree import BTree, BTreeConfig

        dev = ConstantLatencyDevice(1e-3, trace=True)
        stack = StorageStack(dev, cache_bytes)
        tree = BTree(stack, BTreeConfig(node_bytes=node))
        tree.bulk_load([(i * 2, i) for i in range(20_000)])
        stack.flush()
        n_nodes = stack.allocator.used_bytes // node
        assert n_nodes > 8 * cache_bytes // node  # many times the cache
        # A fresh first-fit load lays each level out in creation order, so
        # every dirty victim carries a cache's worth of its level with it.
        assert dev.stats.writes <= math.ceil(n_nodes * node / cache_bytes) + tree.height
        assert {nbytes % node for _, nbytes in writes(dev)} == {0}
        assert max(nbytes for _, nbytes in writes(dev)) == cache_bytes


class PerNodeWriteBack:
    """The write-back ``BufferCache`` had before write runs: one device write
    per dirty victim, ``flush`` in LRU order; LRU and accounting as today.

    Kept as the differential oracle (the ``test_merge.py`` discipline):
    an ``OrderedDict`` of resident ids, obviously right, and slow.
    """

    def __init__(self, capacity):
        self.device = ConstantLatencyDevice(1.0, capacity_bytes=1 << 20, trace=True)
        self.capacity = capacity
        self.extent = {}  # node id -> [offset, nbytes, dirty], resident or not
        self.lru = OrderedDict()  # resident ids, least recently used first
        self.cached = 0
        self.hits = self.misses = self.evictions = 0

    def contains(self, nid):
        return nid in self.lru

    def dirty_resident(self):
        return {nid for nid in self.lru if self.extent[nid][2]}

    def _fit(self):
        while self.cached > self.capacity and len(self.lru) > 1:
            self._evict(next(iter(self.lru)))

    def _evict(self, nid):
        del self.lru[nid]
        ext = self.extent[nid]
        if ext[2]:
            self.device.write(ext[0], ext[1])
            ext[2] = False
        self.evictions += 1
        self.cached -= ext[1]

    def _admit(self, nid):
        self.lru[nid] = None
        self.cached += self.extent[nid][1]

    def _fault(self, nid):
        self.misses += 1
        self.device.read(*self.extent[nid][:2])
        self._admit(nid)
        self._fit()

    def get(self, nid):
        if nid in self.lru:
            self.hits += 1
            self.lru.move_to_end(nid)
        else:
            self._fault(nid)

    def insert(self, nid, obj, offset, nbytes, *, dirty=True):
        self.extent[nid] = [offset, nbytes, dirty]
        self._admit(nid)
        self._fit()

    def readmit_clean(self, items):
        for nid, offset, nbytes in items:
            if nid in self.lru:
                self.cached += nbytes - self.extent[nid][1]
                self.extent[nid] = [offset, nbytes, False]
                self.lru.move_to_end(nid)
            else:
                self.extent[nid] = [offset, nbytes, False]
                self._admit(nid)
            self._fit()

    def mark_dirty(self, nid, nbytes=None):
        if nid not in self.lru:
            self._fault(nid)
        ext = self.extent[nid]
        ext[2] = True
        self.lru.move_to_end(nid)
        if nbytes is not None and nbytes != ext[1]:
            self.cached += nbytes - ext[1]
            ext[1] = nbytes
            self._fit()

    def delete(self, nid):
        _, nbytes, _ = self.extent.pop(nid)
        if self.lru.pop(nid, 0) is None:
            self.cached -= nbytes

    def flush(self):
        for nid in self.lru:
            ext = self.extent[nid]
            if ext[2]:
                self.device.write(ext[0], ext[1])
                ext[2] = False

    def drop_clean(self):
        for nid in list(self.lru):
            self._evict(nid)


def _draw_op(rnd, ref, slots):
    """One random cache call valid in ``ref``'s state: ``(method, args, kwargs)``.

    Node ``i`` lives at ``i * 100`` with 50 or 100 bytes, so extents never
    overlap and a 50-byte node leaves a gap after it.
    """
    known = sorted(ref.extent)
    absent = [i for i in range(slots) if i not in ref.extent]
    size = rnd.choice([50, 100])
    dirty = {"dirty": rnd.random() < 0.7}
    roll = rnd.random()
    if roll < 0.15 and absent:
        nid = rnd.choice(absent)
        return "insert", (nid, nid, nid * 100, size), dirty
    if not known or roll < 0.2:
        return "flush", (), {}
    nid = rnd.choice(known)
    if roll < 0.45:
        return "get", (nid,), {}
    if roll < 0.75:
        return "mark_dirty", (nid, rnd.choice([None, size])), {}
    if roll < 0.82:
        nid = rnd.randrange(slots)
        return "readmit_clean", ([(nid, nid * 100, size)],), {}
    if roll < 0.88:
        some = rnd.sample(known, min(3, len(known)))
        return "readmit_clean", ([(i, i * 100, rnd.choice([50, 100])) for i in some],), {}
    if roll < 0.95:
        return "delete", (nid,), {}
    return "drop_clean", (), {}
