"""COLA unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.storage.ram import NullDevice
from repro.trees.cola import COLA, COLAConfig
from repro.trees.sizing import EntryFormat


def make(ram_bytes=1 << 20, **kwargs):
    cfg = COLAConfig(fmt=EntryFormat(value_bytes=20), ram_bytes=ram_bytes, **kwargs)
    dev = NullDevice(capacity_bytes=1 << 30)
    return COLA(dev, cfg), dev


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            COLAConfig(block_bytes=0)
        with pytest.raises(ConfigurationError):
            COLAConfig(ram_bytes=-1)
        with pytest.raises(TypeError):  # every level is fenced
            COLAConfig(fence_every=64)

    def test_entries_per_block(self):
        cfg = COLAConfig(fmt=EntryFormat(value_bytes=20), block_bytes=4096)
        assert cfg.entries_per_block == 4096 // 28


class TestStructure:
    def test_binomial_counter_levels(self):
        cola, _ = make()
        for k in range(7):
            cola.insert(k, k)
        # 7 = 0b111: levels 0, 1, 2 occupied.
        occupied = [i for i, lvl in enumerate(cola.levels) if lvl is not None]
        assert occupied == [0, 1, 2]
        cola.check_invariants()

    def test_power_of_two_collapses(self):
        cola, _ = make()
        for k in range(8):
            cola.insert(k, k)
        occupied = [i for i, lvl in enumerate(cola.levels) if lvl is not None]
        assert occupied == [3]
        cola.check_invariants()

    def test_duplicates_shrink_levels(self):
        cola, _ = make()
        for _ in range(16):
            cola.insert(7, "same")
        # All inserts were the same key: far fewer than 16 live entries.
        total = sum(len(l.keys) for l in cola.levels if l is not None)
        assert total < 16
        assert cola.get(7) == "same"
        cola.check_invariants()


class TestCRUD:
    def test_empty(self):
        cola, _ = make()
        assert cola.get(1) is None
        assert len(cola) == 0

    def test_insert_get(self):
        cola, _ = make()
        cola.insert(5, "five")
        assert cola.get(5) == "five"
        assert 5 in cola

    def test_newer_wins(self):
        cola, _ = make()
        cola.insert(5, "old")
        for k in range(100, 120):  # push 'old' into a deeper level
            cola.insert(k, k)
        cola.insert(5, "new")
        assert cola.get(5) == "new"

    def test_delete(self):
        cola, _ = make()
        cola.insert(5, "x")
        cola.delete(5)
        assert cola.get(5) is None
        assert 5 not in cola

    def test_random_ops_match_dict(self):
        cola, _ = make()
        rng = np.random.default_rng(0)
        ref = {}
        for _ in range(5000):
            k = int(rng.integers(0, 1000))
            if rng.random() < 0.7:
                cola.insert(k, k * 3)
                ref[k] = k * 3
            else:
                cola.delete(k)
                ref.pop(k, None)
        cola.check_invariants()
        assert dict(cola.items()) == ref

    def test_range(self):
        cola, _ = make()
        ref = {}
        rng = np.random.default_rng(1)
        for k in rng.integers(0, 3000, size=5000):
            k = int(k)
            cola.insert(k, k)
            ref[k] = k
        cola.delete(500)
        ref.pop(500, None)
        expected = sorted((k, v) for k, v in ref.items() if 300 <= k <= 900)
        assert cola.range(300, 900) == expected

    def test_tombstones_eventually_dropped(self):
        cola, _ = make()
        for k in range(256):
            cola.insert(k, k)
        for k in range(256):
            cola.delete(k)
        for k in range(1000, 1000 + 512):  # force full-depth merges
            cola.insert(k, k)
        from repro.trees.merge import TOMBSTONE

        live = [
            v for lvl in cola.levels if lvl is not None for v in lvl.values
        ]
        assert sum(1 for v in live if v is TOMBSTONE) < 256


class TestIOAccounting:
    def test_inserts_write_sequentially_amortized(self):
        cola, dev = make(ram_bytes=0)  # force every level to disk
        n = 4096
        for k in range(n):
            cola.insert(k, k)
        fmt = cola.config.fmt
        # Each element is rewritten O(log n) times.
        amp = dev.stats.write_amplification(n * fmt.entry_bytes)
        assert amp < 2 * np.log2(n)

    def test_cold_query_charges_probes(self):
        cola, dev = make(ram_bytes=0)
        for k in range(5000):
            cola.insert(k, k)
        r0 = dev.stats.reads
        cola.get(2500)
        assert dev.stats.reads > r0

    def test_ram_resident_levels_free(self):
        cola_cold, dev_cold = make(ram_bytes=0)
        cola_warm, dev_warm = make(ram_bytes=1 << 26)
        for k in range(5000):
            cola_cold.insert(k, k)
            cola_warm.insert(k, k)
        r0c, r0w = dev_cold.stats.reads, dev_warm.stats.reads
        for k in range(0, 5000, 100):
            cola_cold.get(k)
            cola_warm.get(k)
        assert dev_warm.stats.reads == r0w           # everything pinned
        assert dev_cold.stats.reads > r0c            # every level probed


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 150), st.integers(0, 99)),
            st.tuples(st.just("delete"), st.integers(0, 150), st.just(0)),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_matches_dict_reference(ops):
    cola, _ = make()
    ref: dict[int, int] = {}
    for op, key, value in ops:
        if op == "insert":
            cola.insert(key, value)
            ref[key] = value
        else:
            cola.delete(key)
            ref.pop(key, None)
    cola.check_invariants()
    assert dict(cola.items()) == ref
