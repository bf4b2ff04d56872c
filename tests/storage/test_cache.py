"""Buffer-cache tests: LRU, dirty write-back, accounting."""

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
            cache.mark_dirty("ghost")

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
        # ``access`` resizes in place: the offset (a fixed slot) stays, the
        # node turns dirty and the byte budget follows the new size.
        cache, dev = make(capacity=350)
        cache.insert("a", "a", 0, 100, dirty=False)
        cache.insert("b", "b", 100, 100, dirty=False)
        assert cache.access("a", 300) == "a"
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
        cache, dev = make()
        cache.admit("a", "va", 0, 100, dirty=False)
        assert cache.contains("a")
        assert dev.stats.reads == 0
        cache.admit("a", "va2", 0, 200, dirty=True)  # refresh in place
        assert cache.get("a") == "va2"
        assert cache.cached_bytes == 200

    def test_flush_writes_all_dirty(self):
        cache, dev = make()
        cache.insert("a", "a", 0, 100, dirty=True)
        cache.insert("b", "b", 100, 150, dirty=True)
        cache.insert("c", "c", 250, 100, dirty=False)
        spent = cache.flush()
        assert dev.stats.writes == 2
        assert spent == pytest.approx(2.0)
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
