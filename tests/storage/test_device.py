"""BlockDevice base-class behaviour (validation, stats, tracing)."""

import pytest

from repro.errors import InvalidIOError
from repro.storage.ram import ConstantLatencyDevice, NullDevice


class TestValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(InvalidIOError):
            NullDevice().read(0, 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidIOError):
            NullDevice().read(-1, 10)

    def test_past_capacity_rejected(self):
        dev = NullDevice(capacity_bytes=100)
        with pytest.raises(InvalidIOError):
            dev.write(90, 20)

    def test_capacity_boundary_ok(self):
        dev = NullDevice(capacity_bytes=100)
        dev.write(90, 10)  # exactly to the end

    def test_bad_capacity_rejected(self):
        with pytest.raises(InvalidIOError):
            NullDevice(capacity_bytes=0)


class TestStats:
    def test_counters(self):
        dev = ConstantLatencyDevice(0.5)
        dev.read(0, 100)
        dev.read(100, 200)
        dev.write(0, 50)
        s = dev.stats
        assert s.reads == 2 and s.writes == 1
        assert s.bytes_read == 300 and s.bytes_written == 50
        assert s.ios == 3 and s.total_bytes == 350
        assert s.busy_seconds == pytest.approx(1.5)
        assert s.read_seconds == pytest.approx(1.0)

    def test_clock_advances(self):
        dev = ConstantLatencyDevice(0.25)
        dev.read(0, 1)
        dev.write(0, 1)
        assert dev.clock == pytest.approx(0.5)

    def test_write_amplification(self):
        dev = ConstantLatencyDevice(0.0)
        dev.write(0, 1000)
        assert dev.stats.write_amplification(100) == 10.0

    def test_write_amplification_needs_user_bytes(self):
        with pytest.raises(InvalidIOError):
            NullDevice().stats.write_amplification(0)

    def test_snapshot_delta(self):
        dev = ConstantLatencyDevice(1.0)
        dev.read(0, 10)
        snap = dev.stats.snapshot()
        dev.write(0, 20)
        delta = dev.stats.delta(snap)
        assert delta.reads == 0 and delta.writes == 1
        assert delta.bytes_written == 20
        assert delta.busy_seconds == pytest.approx(1.0)

    def test_reset(self):
        dev = ConstantLatencyDevice(1.0)
        dev.read(0, 10)
        dev.reset()
        assert dev.stats.ios == 0 and dev.clock == 0.0


class TestTrace:
    def test_trace_disabled_by_default(self):
        dev = NullDevice()
        dev.read(0, 10)
        assert dev.trace == []

    def test_trace_records(self):
        dev = ConstantLatencyDevice(2.0, trace=True)
        dev.read(0, 10)
        dev.write(100, 20)
        assert len(dev.trace) == 2
        r, w = dev.trace
        assert r.kind == "read" and r.offset == 0 and r.nbytes == 10
        assert r.duration == pytest.approx(2.0)
        assert w.kind == "write" and w.start == pytest.approx(2.0)
