"""IO-trace analysis tests."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.analysis.traces import (
    io_size_histogram,
    summarize_trace,
)
from repro.storage.device import IORecord
from repro.storage.ram import ConstantLatencyDevice


def rec(kind, offset, nbytes, start=0.0, dur=1.0):
    return IORecord(kind, offset, nbytes, start, start + dur)


class TestSummarize:
    def test_basic_counts(self):
        trace = [rec("read", 0, 100), rec("write", 100, 200, start=1.0)]
        s = summarize_trace(trace)
        assert s.n_ios == 2 and s.n_reads == 1 and s.n_writes == 1
        assert s.total_bytes == 300
        assert s.mean_io_bytes == 150
        assert s.max_io_bytes == 200
        assert s.busy_seconds == pytest.approx(2.0)

    def test_sequentiality(self):
        trace = [rec("read", 0, 100), rec("read", 100, 100), rec("read", 500, 100)]
        s = summarize_trace(trace)
        assert s.sequential_fraction == pytest.approx(0.5)
        assert s.mean_seek_bytes == pytest.approx(150.0)  # gaps: 0 and 300

    def test_effective_bandwidth(self):
        trace = [rec("read", 0, 1000, dur=2.0)]
        assert summarize_trace(trace).effective_bandwidth == pytest.approx(500.0)

    def test_single_io_gap_stats_undefined(self):
        # Regression: a single IO has no inter-IO gaps, so the gap stats
        # used to report a measured-looking 0.0 ("fully random, zero seek").
        # They are undefined and must say so.
        s = summarize_trace([rec("read", 0, 1000)])
        assert math.isnan(s.sequential_fraction)
        assert math.isnan(s.mean_seek_bytes)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_trace([])

    def test_from_live_device(self):
        dev = ConstantLatencyDevice(0.5, trace=True)
        dev.read(0, 4096)
        dev.read(4096, 4096)
        dev.write(0, 512)
        s = summarize_trace(dev.trace)
        assert s.n_ios == 3
        assert s.busy_seconds == pytest.approx(1.5)


class TestHistogram:
    def test_bins(self):
        trace = [rec("read", 0, 512), rec("read", 0, 4096), rec("read", 0, 4096)]
        hist = io_size_histogram(trace, bins=[512, 4096])
        assert hist == [("(0, 512]", 1), ("(512, 4096]", 2)]

    def test_overflow_bin(self):
        trace = [rec("read", 0, 10**6)]
        hist = io_size_histogram(trace, bins=[512])
        assert hist == [("(512, inf)", 1)]

    def test_default_bins_cover_everything(self):
        trace = [rec("read", 0, n) for n in (100, 5000, 1 << 20)]
        hist = io_size_histogram(trace)
        assert sum(c for _, c in hist) == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            io_size_histogram([])


class TestOnRealWorkload:
    def test_btree_trace_mostly_node_sized(self):
        from repro.storage.ram import NullDevice
        from repro.storage.stack import StorageStack
        from repro.trees.btree import BTree, BTreeConfig
        from repro.trees.sizing import EntryFormat

        dev = NullDevice(capacity_bytes=1 << 30, trace=True)
        stack = StorageStack(dev, cache_bytes=8192)
        tree = BTree(stack, BTreeConfig(node_bytes=4096, fmt=EntryFormat(value_bytes=20)))
        for k in range(3000):
            tree.insert(k, k)
        # Reads are one node each; a write is a run of adjacent dirty nodes.
        s = summarize_trace([r for r in dev.trace if r.kind == "read"])
        assert s.mean_io_bytes == 4096
        assert all(r.nbytes % 4096 == 0 for r in dev.trace)
        assert summarize_trace(dev.trace).n_writes > 0

    def test_fresh_bulk_load_is_sequential(self):
        from repro.experiments.devices import default_hdd
        from repro.storage.stack import StorageStack
        from repro.trees.btree import BTree, BTreeConfig

        dev = default_hdd(trace=True)
        stack = StorageStack(dev, cache_bytes=1 << 20)
        tree = BTree(stack, BTreeConfig(node_bytes=16 << 10))
        tree.bulk_load([(i, i) for i in range(50_000)])
        stack.flush()
        writes = [r for r in dev.trace if r.kind == "write"]
        s = summarize_trace(writes)
        # First-fit allocation in creation order: the leaf stream is
        # overwhelmingly sequential.
        assert s.sequential_fraction > 0.6
