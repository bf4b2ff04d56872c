"""Cache-oblivious tier tests: PMA, COBTree, and the buffered variant.

The model-based tests drive each structure against a plain dict and
assert identical contents after every phase; the accounting tests pin
the IO conventions (every structural mutation and uncached probe charges
device traffic, pinned-top searches are free).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, KeyOrderError, TreeError
from repro.storage.ram import NullDevice
from repro.trees.cob import EMPTY, BufferedCOBTree, COBConfig, COBTree, PackedMemoryArray
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat


def _null():
    return NullDevice(capacity_bytes=1 << 30)


def make_pma(initial_slots=64, **kwargs):
    dev = _null()
    return PackedMemoryArray(dev, entry_bytes=28, initial_slots=initial_slots, **kwargs), dev


def make_tree(cls=COBTree, ram_bytes=1 << 20, **kwargs):
    cfg = COBConfig(
        fmt=EntryFormat(value_bytes=20),
        ram_bytes=ram_bytes,
        initial_slots=64,
        **kwargs,
    )
    dev = _null()
    return cls(dev, cfg), dev


def successor_slot(pma, key):
    """Where a search for ``key`` must land, by linear scan: the slot of the
    smallest present key ``>= key``, or the last slot when there is none."""
    at_or_above = np.flatnonzero((pma.keys != EMPTY) & (pma.keys >= key))
    return int(at_or_above[0]) if at_or_above.size else pma.capacity - 1


class TestPMAConfig:
    def test_validation(self):
        dev = _null()
        with pytest.raises(ConfigurationError):
            PackedMemoryArray(dev, entry_bytes=0)
        with pytest.raises(ConfigurationError):
            PackedMemoryArray(dev, entry_bytes=28, block_bytes=0)
        with pytest.raises(ConfigurationError):
            PackedMemoryArray(dev, entry_bytes=28, initial_slots=48)  # not 2^k
        with pytest.raises(ConfigurationError):
            PackedMemoryArray(dev, entry_bytes=28, initial_slots=4)  # < 8
        with pytest.raises(ConfigurationError):
            PackedMemoryArray(dev, entry_bytes=28, max_density=1.5)

    def test_cob_config_validation(self):
        with pytest.raises(ConfigurationError):
            COBConfig(block_bytes=0)
        with pytest.raises(ConfigurationError):
            COBConfig(initial_slots=100)
        with pytest.raises(ConfigurationError):
            COBConfig(fanout=1)
        with pytest.raises(ConfigurationError):
            COBConfig(buffer_bytes=0)
        with pytest.raises(ConfigurationError):
            COBConfig(rebuild_factor=0.5)
        with pytest.raises(ConfigurationError):
            # Weight trigger unreachable when rebuild_factor >= fanout.
            COBConfig(fanout=4, rebuild_factor=4.0)

    def test_sentinel_key_rejected(self):
        pma, _ = make_pma()
        with pytest.raises(TreeError):
            pma.insert(int(EMPTY), 0)


class TestPMAStructure:
    def _insert_via_search(self, pma, key):
        """The search layer in miniature."""
        pma.insert(key, successor_slot(pma, key))

    def test_sorted_after_random_inserts(self):
        pma, _ = make_pma()
        rng = np.random.default_rng(0)
        keys = rng.choice(10_000, size=200, replace=False)
        for k in keys:
            self._insert_via_search(pma, int(k))
            pma.check_invariants()
        assert pma.n == 200
        assert list(pma.present_keys()) == sorted(int(k) for k in keys)

    def test_growth_doubles_capacity(self):
        pma, _ = make_pma(initial_slots=8)
        for k in range(1, 60):
            self._insert_via_search(pma, k)
        assert pma.resizes >= 1
        assert pma.capacity >= 64
        assert pma.n == 59
        pma.check_invariants()

    def test_density_band_across_growth(self):
        # Window thresholds steer rebalancing, not a hard global cap: a
        # segment may fill completely before its ancestors overflow.  The
        # durable guarantees are (a) capacity is never exceeded and (b)
        # right after a resize the array is at least half the max density
        # (so growth is geometric, not thrashing).
        pma, _ = make_pma(initial_slots=16, max_density=0.7)
        resizes_seen = 0
        for k in range(1, 200):
            self._insert_via_search(pma, k)
            assert pma.n <= pma.capacity
            if pma.resizes > resizes_seen:
                resizes_seen = pma.resizes
                assert pma.n >= pma.max_density / 2 * pma.capacity
        assert resizes_seen >= 3
        pma.check_invariants()

    def test_delete_blanks_slot(self):
        pma, _ = make_pma()
        for k in (10, 20, 30):
            self._insert_via_search(pma, k)
        slot = int(np.flatnonzero(pma.keys == 20)[0])
        pma.delete(slot)
        assert pma.n == 2
        assert list(pma.present_keys()) == [10, 30]
        with pytest.raises(TreeError):
            pma.delete(slot)  # already blank
        pma.check_invariants()

    def test_bulk_update_one_rebalance(self):
        pma, _ = make_pma(initial_slots=64)
        for k in (100, 300, 500):
            self._insert_via_search(pma, k)
        before = pma.rebalances
        run = np.array([200, 400, 450], dtype=np.int64)
        gone = np.array([300], dtype=np.int64)
        pma.bulk_update(run, gone, successor_slot(pma, 200), successor_slot(pma, 450))
        assert pma.rebalances == before + 1
        assert list(pma.present_keys()) == [100, 200, 400, 450, 500]
        pma.check_invariants()
        # A key to remove outside the window (or absent) is an error, not a no-op.
        slot = successor_slot(pma, 200)
        with pytest.raises(TreeError):
            pma.bulk_update(np.array([], dtype=np.int64), np.array([300]), slot, slot)

    def test_bulk_update_rejects_unsorted(self):
        pma, _ = make_pma()
        none = np.array([], dtype=np.int64)
        with pytest.raises(TreeError):
            pma.bulk_update(np.array([3, 1], dtype=np.int64), none, 0, 0)
        with pytest.raises(TreeError):
            pma.bulk_update(none, np.array([3, 3], dtype=np.int64), 0, 0)

    def test_load_and_reload_guard(self):
        pma, _ = make_pma(initial_slots=8)
        keys = np.arange(1, 50, dtype=np.int64) * 3
        pma.load(keys)
        assert pma.n == keys.size
        assert list(pma.present_keys()) == list(keys)
        pma.check_invariants()
        with pytest.raises(TreeError):
            pma.load(keys)

    def test_load_rejects_unsorted(self):
        pma, _ = make_pma()
        with pytest.raises(TreeError):
            pma.load(np.array([5, 2], dtype=np.int64))

    def test_charges_io(self):
        pma, dev = make_pma()
        self._insert_via_search(pma, 42)
        assert dev.stats.writes >= 1  # a rebalance rewrites its window


class TestRebalanceWindow:
    """The one upward walk against the definition it implements."""

    @staticmethod
    def _by_definition(pma, seg_lo, seg_hi, delta):
        # Smallest aligned window covering [seg_lo, seg_hi] whose density,
        # after ``delta`` more entries, is within its level's band (no floor
        # at the initial capacity, where the array cannot shrink).
        floors = pma.capacity > pma.initial_slots
        w = 1
        while w <= pma.n_segments:
            lo = seg_lo // w * w
            if seg_hi < lo + w:
                occupied = sum(pma.seg_count[lo : lo + w])
                density = (occupied + delta) / (w * pma.segment_slots)
                floor = pma._lower_density(w) if floors else 0.0
                if floor <= density <= pma._upper_density(w):
                    return lo, lo + w
            w *= 2
        return None

    @staticmethod
    def _grown(capacity, max_density=0.8):
        """A PMA grown to ``capacity`` from 8 slots, so its floors apply."""
        pma, _ = make_pma(initial_slots=8, max_density=max_density)
        pma.load(np.arange(1, int(max_density * capacity * 3 / 4) + 1, dtype=np.int64))
        assert pma.capacity == capacity
        return pma

    @pytest.mark.parametrize("initial_slots", [8, 64, 1024, 1 << 14])
    @pytest.mark.parametrize("max_density", [0.5, 0.7, 0.8])
    def test_ceilings_are_upper_density_exactly(self, initial_slots, max_density):
        pma, _ = make_pma(initial_slots=initial_slots, max_density=max_density)
        levels = pma.n_segments.bit_length()
        assert pma._ceilings == [pma._upper_density(1 << j) for j in range(levels)]

    @pytest.mark.parametrize("capacity", [64, 1024, 1 << 14])
    @pytest.mark.parametrize("max_density", [0.5, 0.7, 0.8])
    def test_floors_are_lower_density_exactly(self, capacity, max_density):
        fresh, _ = make_pma(initial_slots=capacity, max_density=max_density)
        assert set(fresh._floors) == {0.0} and fresh._segment_floor == 0.0
        pma = self._grown(capacity, max_density)
        levels = pma.n_segments.bit_length()
        assert pma._floors == [pma._lower_density(1 << j) for j in range(levels)]
        # Loosest at a segment, tightest at the root, whose floor stays
        # below half the root ceiling (a doubling never underflows).
        assert pma._floors == sorted(pma._floors)
        assert pma._floors[0] == max_density / 4
        assert pma._floors[-1] < pma._ceilings[-1] / 2

    @pytest.mark.parametrize("initial_slots", [8, 64, 1024, 1 << 14])
    def test_walk_matches_definition(self, initial_slots):
        rng = np.random.default_rng(initial_slots)
        fresh, _ = make_pma(initial_slots=initial_slots)
        pmas = [fresh] if initial_slots == 8 else [fresh, self._grown(initial_slots)]
        for pma in pmas:
            width, n = pma.segment_slots, pma.n_segments
            for fill in (0.05, 0.2, 0.6, 0.8, 0.95, 1.0):
                # Occupancy around ``fill``, with crowded and empty stretches.
                counts = rng.binomial(width, fill, size=n)
                counts[rng.integers(0, n, size=max(1, n // 8))] = width
                counts[rng.integers(0, n, size=max(1, n // 8))] = 0
                pma.seg_count = counts.tolist()
                for _ in range(300):
                    seg_lo = int(rng.integers(0, n))
                    seg_hi = min(n - 1, seg_lo + int(rng.choice([0, 0, 0, 1, 3, n])))
                    delta = int(rng.choice([1, 1, 1, 5, 0, -1, -width, 2 * width, 40 * width]))
                    assert pma._rebalance_window(
                        seg_lo, seg_hi, delta=delta
                    ) == self._by_definition(pma, seg_lo, seg_hi, delta)


class TestCOBTree:
    def test_get_put_roundtrip(self):
        tree, _ = make_tree()
        for k in (5, 1, 9, 3):
            tree.put(k, k * 10)
        assert tree.get(5) == 50
        assert tree.get(2) is None
        assert 9 in tree
        assert 4 not in tree
        tree.check_invariants()

    def test_overwrite_keeps_count(self):
        tree, _ = make_tree()
        tree.put(7, "a")
        tree.put(7, "b")
        assert len(tree) == 1
        assert tree.get(7) == "b"
        tree.check_invariants()

    def test_model_based_random_ops(self):
        tree, _ = make_tree()
        model = {}
        rng = np.random.default_rng(1)
        for _ in range(500):
            k = int(rng.integers(0, 300))
            op = rng.integers(0, 4)
            if op < 2:
                v = int(rng.integers(0, 10**6))
                tree.put(k, v)
                model[k] = v
            elif op == 2:
                assert tree.get(k) == model.get(k)
            elif k in model:
                tree.delete(k)
                del model[k]
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())

    def test_growth_through_index_rebuild(self):
        tree, _ = make_tree()
        for k in range(1, 400):
            tree.put(k, k)
        assert tree.pma.resizes >= 1
        assert tree.index_rebuilds >= 1
        assert len(tree) == 399
        tree.check_invariants()

    def test_delete_missing_charges_its_search_and_changes_nothing(self):
        # Unpinned index: the search of an absent key costs reads, like a get.
        tree, dev = make_tree(ram_bytes=0)
        tree.put_many([(k, k) for k in range(0, 400, 2)])
        before = list(tree.items())
        reads, writes = dev.stats.reads, dev.stats.writes
        for absent in (-5, 101, 10_000):
            tree.delete(absent)
        assert dev.stats.reads > reads and dev.stats.writes == writes
        assert list(tree.items()) == before
        assert tree.user_bytes_modified == 200 * tree.config.fmt.entry_bytes
        tree.check_invariants()

    def test_range_and_items(self):
        tree, _ = make_tree()
        for k in range(0, 100, 7):
            tree.put(k, -k)
        assert tree.range(10, 30) == [(14, -14), (21, -21), (28, -28)]
        assert tree.range(30, 10) == []
        assert tree.range(200, 300) == []
        assert list(tree.items()) == [(k, -k) for k in range(0, 100, 7)]

    def test_bulk_load_matches_serial(self):
        pairs = [(k, k * 2) for k in range(1, 200, 3)]
        loaded, _ = make_tree()
        loaded.bulk_load(pairs)
        serial, _ = make_tree()
        for k, v in pairs:
            serial.put(k, v)
        assert list(loaded.items()) == list(serial.items())
        loaded.check_invariants()
        with pytest.raises(TreeError):
            loaded.bulk_load(pairs)
        bad, _ = make_tree()
        with pytest.raises(KeyOrderError):
            bad.bulk_load([(3, 0), (1, 0)])

    def test_put_bulk_matches_serial_contents(self):
        base = [(k, k) for k in range(0, 50, 5)]
        bulk_tree, _ = make_tree()
        bulk_tree.bulk_load(base)
        serial, _ = make_tree()
        serial.bulk_load(base)
        batch = [(k, k * 3) for k in range(1, 40, 4)]
        bulk_tree.put_bulk(batch)
        for k, v in batch:
            serial.put(k, v)
        assert list(bulk_tree.items()) == list(serial.items())
        bulk_tree.check_invariants()
        with pytest.raises(KeyOrderError):
            bulk_tree.put_bulk([(9, 0), (2, 0)])

    def test_items_cover_extreme_keys(self):
        # Regression: items()/range() used +/-2^62 pseudo-infinities, so
        # legally stored keys beyond them vanished from iteration.
        lo_key, hi_key = -(1 << 62) - 7, (1 << 62) + 5
        tree, _ = make_tree()
        tree.put(hi_key, "hi")
        tree.put(lo_key, "lo")
        tree.put((1 << 63) - 1, "max")
        assert list(tree.items()) == [
            (lo_key, "lo"),
            (hi_key, "hi"),
            ((1 << 63) - 1, "max"),
        ]
        assert len(tree) == 3
        tree.check_invariants()

    def test_put_bulk_mixed_charges_outside_overwrites(self):
        # Regression: in a mixed fresh/overwrite batch, overwritten keys
        # outside the rebalanced window used to update only the value
        # dict, with zero device traffic.
        pairs = [(k, 0) for k in range(0, 1000, 10)]
        fresh_only, dev_f = make_tree()
        fresh_only.bulk_load(pairs)
        mixed, dev_m = make_tree()
        mixed.bulk_load(pairs)
        base_f = dev_f.stats.bytes_written
        base_m = dev_m.stats.bytes_written
        fresh_only.put_bulk([(501, "new")])
        mixed.put_bulk([(0, "x"), (501, "new"), (990, "y")])
        assert dev_m.stats.bytes_written - base_m > dev_f.stats.bytes_written - base_f
        assert mixed.get(0) == "x" and mixed.get(990) == "y"
        mixed.check_invariants()

    def test_put_bulk_pure_overwrite(self):
        tree, _ = make_tree()
        tree.bulk_load([(k, 0) for k in range(10)])
        rebalances = tree.pma.rebalances
        tree.put_bulk([(2, "x"), (5, "y")])
        assert tree.pma.rebalances == rebalances  # no structural change
        assert tree.get(2) == "x" and tree.get(5) == "y"
        tree.check_invariants()

    def test_queries_charge_io_beyond_pinned_top(self):
        # A tiny RAM budget leaves most index levels unpinned: queries on
        # a large-enough tree must touch the device.
        tree, dev = make_tree(ram_bytes=64)
        tree.bulk_load([(k, k) for k in range(2000)])
        reads_before = dev.stats.reads
        tree.get(1234)
        assert dev.stats.reads > reads_before

    def test_pinned_index_makes_searches_free(self):
        # A RAM budget bigger than the whole index: a miss above every key
        # reads nothing at all; any other get reads its segment only.
        tree, dev = make_tree(ram_bytes=1 << 24)
        tree.bulk_load([(k, 2 * k) for k in range(0, 1000, 2)])
        for key, want, reads in ((10**9, None, 0), (501, None, 1), (500, 1000, 1)):
            reads_before = dev.stats.reads
            assert tree.get(key) == want
            assert dev.stats.reads - reads_before == reads, key
        # Deleting an absent key costs the search that finds it absent.
        for key, reads in ((10**9, 0), (501, 1)):
            ios_before = dev.stats.ios
            tree.delete(key)
            assert dev.stats.ios - ios_before == reads, key

    def test_no_node_size_knob(self):
        # block_bytes prices IO but never changes the structure.
        small, _ = make_tree(block_bytes=512)
        large, _ = make_tree(block_bytes=1 << 20)
        for k in range(1, 300, 2):
            small.put(k, k)
            large.put(k, k)
        assert np.array_equal(small.pma.keys, large.pma.keys)
        assert small.pma.capacity == large.pma.capacity

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=1,
            max_size=120,
        )
    )
    def test_hypothesis_matches_dict(self, keys):
        tree, _ = make_tree()
        model = {}
        for k in keys:
            tree.put(k, k ^ 1)
            model[k] = k ^ 1
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())
        for k in keys:
            assert tree.get(k) == model[k]


class TestSegmentIndex:
    """The segment-granular host index: searches land where a heap over
    every slot would, and ``check_invariants`` notices when it drifts."""

    PROBES = (KEY_MIN, KEY_MIN + 1, -1, 0, 1, KEY_MAX - 1, KEY_MAX)

    def _check(self, tree, extra=()):
        present = tree.pma.present_keys().tolist()
        probes = set(self.PROBES).union(extra)
        for key in present:
            probes.update((key - 1, key, key + 1))
        for key in probes:
            if KEY_MIN <= key <= KEY_MAX:
                assert tree._search_slot(key) == successor_slot(tree.pma, key), key

    @pytest.mark.parametrize("initial_slots", [8, 64])
    def test_empty_tree(self, initial_slots):
        tree = COBTree(_null(), COBConfig(initial_slots=initial_slots))
        assert tree.pma.n_segments == (1 if initial_slots == 8 else 8)
        self._check(tree)
        assert tree.get(5) is None and tree.range(KEY_MIN, KEY_MAX) == []

    def test_single_segment_tree(self):
        tree = COBTree(_null(), COBConfig(initial_slots=8))
        for key in (40, KEY_MAX, 10, KEY_MIN, 30):
            tree.put(key, key)
            assert tree.pma.n_segments == 1
            self._check(tree)
        tree.delete(KEY_MAX)
        tree.delete(10)
        self._check(tree)
        tree.check_invariants()

    def test_random_trees_with_segments_blanked(self):
        # At its initial capacity the array has no floors, so deleting a
        # segment's keys blanks it; grown past it, the floors respread.
        rng = np.random.default_rng(8)
        for universe, initial_slots in itertools.product((500, 1 << 40), (64, 1024)):
            tree = COBTree(_null(), COBConfig(initial_slots=initial_slots))
            keys = {int(k) for k in rng.integers(-universe, universe, size=700)}
            for key in keys:
                tree.put(key, 0)
            grown = tree.pma.capacity > initial_slots
            assert tree.pma.resizes >= 2 if grown else tree.pma.resizes == 0
            self._check(tree)
            # Whole segments' keys: single ones, runs, the first and the last.
            width, n = tree.pma.segment_slots, tree.pma.n_segments
            for first, count in ((0, 1), (2, 3), (n // 2, n // 4), (n - 1, 1)):
                doomed = tree.pma.keys[first * width : (first + count) * width]
                for key in doomed[doomed != EMPTY].tolist():
                    tree.delete(key)
                blank = not any(tree.pma.seg_count[first : first + count])
                assert blank != grown
                self._check(tree, extra=doomed.tolist())
                tree.check_invariants()

    def test_across_doublings_and_at_the_domain_edges(self):
        tree = COBTree(_null(), COBConfig(initial_slots=8))
        tree.put(KEY_MIN, "min")
        tree.put(KEY_MAX, "max")
        resizes = 0
        for key in np.random.default_rng(4).integers(-(1 << 62), 1 << 62, size=300).tolist():
            tree.put(key, 0)
            if tree.pma.resizes > resizes:
                resizes = tree.pma.resizes
                self._check(tree)
        assert resizes >= 4
        self._check(tree)
        assert tree.get(KEY_MIN) == "min" and tree.get(KEY_MAX) == "max"

    def test_check_invariants_recomputes_the_summaries(self):
        tree, _ = make_tree()
        tree.put_many([(k, k) for k in range(0, 900, 3)])
        tree.check_invariants()
        seg = next(s for s, count in enumerate(tree.pma.seg_count) if count)
        for summary, wrong in (
            (tree.pma.seg_count, tree.pma.seg_count[seg] - 1),
            (tree.pma.seg_max, tree.pma.seg_max[seg] + 1),
        ):
            right, summary[seg] = summary[seg], wrong
            with pytest.raises(TreeError):
                tree.check_invariants()
            summary[seg] = right
        for node in (0, len(tree._seg_heap) // 2, len(tree._seg_heap) - 1):
            tree._seg_heap[node] += 1
            with pytest.raises(TreeError):
                tree.check_invariants()
            tree._seg_heap[node] -= 1
        tree.check_invariants()


class TestBufferedCOBTree:
    def test_roundtrip_through_buffers(self):
        tree, _ = make_tree(BufferedCOBTree)
        for k in (5, 1, 9):
            tree.put(k, k * 10)
        # Unflushed messages answer queries.
        assert tree.get(5) == 50
        tree.flush_all()
        assert tree.get(5) == 50
        assert tree.get(4) is None
        tree.check_invariants()

    def test_bucket_keeps_newest_value_and_counts_every_message(self):
        # A point query is one lookup of the newest message; the charges
        # still see every message the buffer extent holds.
        tree, _ = make_tree(BufferedCOBTree)
        for serial in range(5):
            tree.put(7, serial)
        tree.delete(8)
        bucket = tree.buckets[0]
        assert len(bucket.messages) == 2
        assert bucket.nbytes == 6 * tree.config.fmt.message_bytes
        assert tree.get(7) == 4 and tree.get(8) is None
        tree.check_invariants()

    def test_matches_dict_with_deletes(self):
        tree, _ = make_tree(BufferedCOBTree, buffer_bytes=1 << 10)
        model = {}
        rng = np.random.default_rng(3)
        for _ in range(800):
            k = int(rng.integers(0, 250))
            if rng.integers(0, 3) < 2:
                v = int(rng.integers(0, 10**6))
                tree.put(k, v)
                model[k] = v
            else:
                tree.delete(k)
                model.pop(k, None)
        assert sorted(tree.items()) == sorted(model.items())
        tree.flush_all()
        tree.check_invariants()
        assert sorted(tree.items()) == sorted(model.items())

    def test_small_buffers_force_flushes(self):
        tree, _ = make_tree(BufferedCOBTree, buffer_bytes=512)
        for k in range(300):
            tree.put(k, k)
        assert tree.flushes > 0
        assert len(tree.base) > 0
        tree.check_invariants()

    def test_skew_triggers_splitter_rebuild(self):
        tree, _ = make_tree(
            BufferedCOBTree, fanout=4, buffer_bytes=512, rebuild_factor=1.5
        )
        tree.bulk_load([(k, k) for k in range(0, 4000, 10)])
        assert len(tree.splitters) == 3  # seeded at load
        rebuilds = tree.splitter_rebuilds
        # Hammer one narrow key range: its bucket absorbs far more than
        # its fair share and must trigger a weight-balanced rebuild.
        for i in range(2000):
            tree.put(4000 + (i % 7), i)
        assert tree.splitter_rebuilds > rebuilds
        tree.check_invariants()

    def test_bulk_load_and_guard(self):
        pairs = [(k, k) for k in range(1, 100, 3)]
        tree, _ = make_tree(BufferedCOBTree)
        tree.bulk_load(pairs)
        assert sorted(tree.items()) == pairs
        tree.put(0, 0)
        with pytest.raises(TreeError):
            tree.bulk_load(pairs)

    def test_range_merges_buffers(self):
        tree, _ = make_tree(BufferedCOBTree)
        tree.bulk_load([(k, "old") for k in range(0, 40, 4)])
        tree.put(8, "new")
        tree.delete(12)
        got = tree.range(0, 20)
        assert (8, "new") in got
        assert all(k != 12 for k, _ in got)

    def test_append_reresolves_bucket_after_seeding_flush(self):
        # Regression: the overflow flush inside _append can seed (or
        # rebuild) the splitters, remapping the key space; the pending
        # message must land in the bucket that owns the key *after* the
        # flush, or it becomes unreachable.
        tree, _ = make_tree(
            BufferedCOBTree, fanout=4, buffer_bytes=512, rebuild_factor=3.9
        )
        k = 0
        while not tree.splitters:  # first overflow flush seeds them
            tree.put(k, k)
            k += 1
        tree.put(10_000_000, -1)
        assert tree.get(10_000_000) == -1
        tree.check_invariants()
        assert sorted(tree.items()) == sorted(
            [(i, i) for i in range(k)] + [(10_000_000, -1)]
        )

    def test_buffered_extreme_keys_visible(self):
        # Regression: bucket bounds used +/-2^62 pseudo-infinities, so a
        # key beyond them tripped check_invariants and vanished from
        # items() even though get() found it.
        big = (1 << 62) + 5
        tree, _ = make_tree(BufferedCOBTree)
        tree.put(big, 1)
        tree.check_invariants()  # bucket 0 owns the whole key domain
        assert sorted(tree.items()) == [(big, 1)]
        tree.flush_all()
        assert tree.get(big) == 1
        assert sorted(tree.items()) == [(big, 1)]

    def test_buffered_inserts_cost_less_io_than_base(self):
        # The Theorem 9 trade: buffering makes the insert path cheaper
        # (fewer, bigger PMA rebalances) at some query-read cost.
        pairs = [(int(k), 0) for k in np.random.default_rng(5).permutation(3000)]
        base, base_dev = make_tree(COBTree)
        base.put_many(pairs)
        buf, buf_dev = make_tree(BufferedCOBTree)
        buf.put_many(pairs)
        buf.flush_all()
        assert buf_dev.stats.bytes_written < base_dev.stats.bytes_written
        assert sorted(buf.items()) == sorted(base.items())
