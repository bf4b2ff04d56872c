"""StorageStack integration tests."""

import pytest

from repro.errors import CacheError, ConfigurationError
from repro.storage.ram import ConstantLatencyDevice
from repro.storage.stack import StorageStack


def make(cache_bytes=1000, latency=1.0):
    dev = ConstantLatencyDevice(latency, capacity_bytes=1 << 20)
    return StorageStack(dev, cache_bytes), dev


class TestLifecycle:
    def test_create_get_destroy(self):
        stack, dev = make()
        stack.create("n1", {"k": 1}, 100)
        assert stack.cache.get("n1") == {"k": 1}
        stack.destroy("n1")
        with pytest.raises(CacheError):
            stack.cache.get("n1")

    def test_destroy_releases_extent(self):
        stack, _ = make()
        before = stack.allocator.used_bytes
        stack.create("n1", "x", 100)
        assert stack.allocator.used_bytes > before
        stack.destroy("n1")
        assert stack.allocator.used_bytes == before

    def test_io_seconds_accumulates(self):
        stack, dev = make(cache_bytes=150)
        stack.create("a", "a", 100)
        stack.create("b", "b", 100)  # evicts dirty a -> 1 write
        stack.cache.get("a")         # miss -> 1 read, then evicts dirty b -> 1 write
        assert stack.io_seconds == pytest.approx(3.0)

    def test_bad_cache_size(self):
        dev = ConstantLatencyDevice(0.0)
        with pytest.raises(ConfigurationError):
            StorageStack(dev, 0)


class TestDirtyAndFlush:
    def test_mark_dirty_resident(self):
        stack, dev = make()
        stack.create("a", "a", 100)
        stack.flush()
        stack.cache.mark_dirty("a")
        stack.flush()
        assert dev.stats.writes == 2

    def test_mark_dirty_refetches_evicted_node(self):
        stack, dev = make(cache_bytes=150)
        stack.create("a", "a", 100)
        stack.flush()
        stack.create("b", "b", 100)  # evicts a (clean now)
        reads_before = dev.stats.reads
        stack.cache.mark_dirty("a")  # must re-read a first
        assert dev.stats.reads == reads_before + 1
        stack.flush()

    def test_drop_cache_starts_cold(self):
        stack, dev = make()
        stack.create("a", "a", 100)
        stack.drop_cache()
        reads = dev.stats.reads
        stack.cache.get("a")
        assert dev.stats.reads == reads + 1


class TestDropCacheStats:
    def test_drop_cache_keeps_stats_by_default(self):
        stack, _ = make()
        stack.create("a", "a", 100)
        stack.cache.get("a")
        hits = stack.cache.stats.hits
        assert hits > 0
        stack.drop_cache()
        assert stack.cache.stats.hits == hits


class TestReadMany:
    """``BufferCache.get_many`` == a loop of ``get``, bit for bit.

    On position-independent devices (constant-latency, affine) the batched
    path must reproduce the serial loop's results, IO seconds, and hit/miss
    accounting exactly — batching is an IO *schedule* change, never a
    semantic one.
    """

    def _affine_stack(self, cache_bytes):
        from repro.models.affine import AffineModel
        from repro.storage.ideal import AffineDevice

        dev = AffineDevice(AffineModel(1e-6, setup_seconds=1e-3))
        return StorageStack(dev, cache_bytes), dev

    def _populate(self, stack, n=24, nbytes=100):
        for i in range(n):
            # Mixed sizes: runs must split when the size changes.
            stack.create(i, f"obj{i}", nbytes if i % 3 else 2 * nbytes)
        stack.flush()
        stack.drop_cache()

    def test_matches_serial_loop(self):
        ids = [0, 5, 3, 5, 7, 1, 2, 2, 9, 11]
        a, _ = self._affine_stack(cache_bytes=10_000)
        self._populate(a)
        serial = [a.cache.get(i) for i in ids]
        serial_io = a.io_seconds
        serial_stats = (a.cache.stats.hits, a.cache.stats.misses)

        b, _ = self._affine_stack(cache_bytes=10_000)
        self._populate(b)
        batched = b.cache.get_many(ids)
        assert batched == serial
        assert b.io_seconds == pytest.approx(serial_io)
        assert (b.cache.stats.hits, b.cache.stats.misses) == serial_stats

    def test_matches_under_eviction_pressure(self):
        # Cache far smaller than the batch: get_many must evict mid-batch
        # exactly as the serial loop would.
        ids = list(range(24)) + [0, 1, 2]
        a, _ = self._affine_stack(cache_bytes=450)
        self._populate(a)
        serial = [a.cache.get(i) for i in ids]
        serial_io = a.io_seconds

        b, _ = self._affine_stack(cache_bytes=450)
        self._populate(b)
        assert b.cache.get_many(ids) == serial
        assert b.io_seconds == pytest.approx(serial_io)

    def test_duplicate_ids_count_like_serial(self):
        # Second touch of an id within one batch is a hit, as in the loop.
        a, _ = self._affine_stack(cache_bytes=10_000)
        self._populate(a, n=4)
        a.cache.get_many([0, 0, 1, 1])
        assert a.cache.stats.hits == 2
        assert a.cache.stats.misses == 2

    def test_empty_and_unknown(self):
        stack, _ = make()
        assert stack.cache.get_many([]) == []
        with pytest.raises(CacheError):
            stack.cache.get_many(["ghost"])

    def test_all_resident_no_io(self):
        stack, dev = make(cache_bytes=1000)
        stack.create("a", 1, 100)
        stack.create("b", 2, 100)
        before = stack.io_seconds
        assert stack.cache.get_many(["a", "b", "a"]) == [1, 2, 1]
        assert stack.io_seconds == before
