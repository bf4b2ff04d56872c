"""WriteAheadLog: framing, group commit, torn tails, CRC, recovery."""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceCrashed, WALError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
from repro.recovery.wal import _frame, scan, WAL_OPS, WriteAheadLog
from repro.storage.ram import ConstantLatencyDevice


def make_wal(**kwargs):
    device = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 30)
    defaults = dict(offset=0, capacity_bytes=1 << 20, group_commit=4)
    defaults.update(kwargs)
    return device, WriteAheadLog(device, **defaults)


class TestValidation:
    def test_extent_must_fit_the_device(self):
        device = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            WriteAheadLog(device, offset=1 << 19, capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            WriteAheadLog(device, offset=-1, capacity_bytes=1 << 10)
        with pytest.raises(ConfigurationError):
            WriteAheadLog(device, offset=0, capacity_bytes=0)

    def test_group_commit_positive(self):
        device = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            WriteAheadLog(device, offset=0, capacity_bytes=1 << 10, group_commit=0)

    def test_append_rejects_bad_op(self):
        _, wal = make_wal()
        with pytest.raises(ConfigurationError):
            wal.append("x", 1)
        with pytest.raises(ConfigurationError):
            wal.append("c", 1)  # markers are commit's business


class TestFramingAndScan:
    def test_round_trip_one_group(self):
        blob = (
            _frame(1, "p", 10, "a")
            + _frame(2, "d", 11, None)
            + _frame(2, "c", None, None)
        )
        records, valid = scan(blob)
        assert records == [(1, "p", 10, "a"), (2, "d", 11, None)]
        assert valid == len(blob)

    def test_group_without_marker_is_discarded(self):
        blob = _frame(1, "p", 10, "a") + _frame(2, "p", 11, "b")
        assert scan(blob) == ([], 0)

    @pytest.mark.parametrize("cut", [1, 4, 8, 9])
    def test_torn_tail_cut_anywhere_keeps_committed_prefix(self, cut):
        good = _frame(1, "p", 10, "a") + _frame(1, "c", None, None)
        tail = _frame(2, "p", 11, "b") + _frame(2, "c", None, None)
        records, valid = scan(good + tail[:-cut])
        assert records == [(1, "p", 10, "a")]
        assert valid == len(good)

    def test_crc_flip_detected(self):
        good = _frame(1, "p", 10, "a") + _frame(1, "c", None, None)
        bad = bytearray(good + _frame(2, "p", 11, "b") + _frame(2, "c", None, None))
        flip = len(good) + struct.calcsize("<II")  # first payload byte of rec 2
        bad[flip] ^= 0xFF
        records, valid = scan(bytes(bad))
        assert records == [(1, "p", 10, "a")]
        assert valid == len(good)

    def test_unknown_op_stops_the_scan(self):
        assert "z" not in WAL_OPS
        blob = _frame(1, "z", 10, "a") + _frame(1, "c", None, None)
        assert scan(blob) == ([], 0)

    def test_empty_image(self):
        assert scan(b"") == ([], 0)

    def test_commit_group_golden_bytes(self):
        """The on-platter image of one group, byte for byte: what a torn
        write cuts, so no encoder or framing change may move it."""
        _, wal = make_wal(group_commit=2)
        wal.append("p", 7, "v")
        wal.append("d", 9)
        image = bytes(wal._durable)
        assert image.hex() == (
            "0d000000fe62191f5b312c2270222c372c2276225d"            # [1,"p",7,"v"]
            "0e000000628f9d6d5b322c2264222c392c6e756c6c5d"          # [2,"d",9,null]
            "1100000013fadf435b322c2263222c6e756c6c2c6e756c6c5d"    # [2,"c",null,null]
        )
        payloads = [b'[1,"p",7,"v"]', b'[2,"d",9,null]', b'[2,"c",null,null]']
        assert image == b"".join(
            struct.pack("<II", len(p), zlib.crc32(p)) + p for p in payloads
        )
        assert scan(image) == ([(1, "p", 7, "v"), (2, "d", 9, None)], len(image))

    @pytest.mark.parametrize(
        "value", ["text", "é\u2603", 7, -(1 << 62), None, [1, "a", None], {"a": {"b": [1, 2]}}]
    )
    def test_value_round_trips(self, value):
        _, wal = make_wal(group_commit=1)
        wal.append("p", 5, value)
        assert scan(bytes(wal._durable))[0] == [(1, "p", 5, value)]


class TestGroupCommit:
    def test_auto_commit_at_batch_size(self):
        _, wal = make_wal(group_commit=3)
        assert wal.append("p", 1, "a") == 1
        assert wal.append("p", 2, "b") == 2
        assert wal.committed_lsn == 0
        assert wal.pending_records == 2
        assert wal.append("d", 1) == 3  # third record trips the group
        assert wal.committed_lsn == 3
        assert wal.pending_records == 0
        assert wal.commits == 1

    def test_explicit_commit_flushes_early(self):
        _, wal = make_wal(group_commit=8)
        wal.append("p", 1, "a")
        wal.commit()
        assert wal.committed_lsn == 1
        wal.commit()  # empty flush is a no-op
        assert wal.commits == 1

    def test_commit_charges_one_sequential_write(self):
        device, wal = make_wal(group_commit=2)
        before = device.stats.writes
        wal.append("p", 1, "a")
        wal.append("p", 2, "b")
        assert device.stats.writes == before + 1
        assert wal.write_seconds > 0.0
        assert wal.durable_bytes > 0

    def test_extent_full_raises(self):
        _, wal = make_wal(capacity_bytes=64, group_commit=1)
        with pytest.raises(WALError, match="checkpoint"):
            for i in range(16):
                wal.append("p", i, "x" * 8)

    def test_truncate_resets_the_image(self):
        _, wal = make_wal(group_commit=1)
        wal.append("p", 1, "a")
        wal.truncate()
        assert wal.durable_bytes == 0
        assert wal.checkpoints == 1


class TestUnencodableValue:
    """A value JSON cannot encode is refused at its own append."""

    def test_bad_append_raises_and_leaves_the_log_as_it_was(self):
        _, wal = make_wal(group_commit=4)
        assert wal.append("p", 1, "a") == 1
        with pytest.raises(TypeError):
            wal.append("p", 2, np.int64(7))
        assert wal.next_lsn == 2
        assert wal.pending_records == 1
        assert wal.appends == 1

    def test_the_group_stays_usable(self):
        _, wal = make_wal(group_commit=4)
        wal.append("p", 1, "a")
        with pytest.raises(TypeError):
            wal.append("p", 2, np.int64(7))
        lsns = [wal.append("p", key, key) for key in (2, 3, 4)]
        assert lsns == [2, 3, 4]
        assert wal.committed_lsn == 4 and wal.commits == 1
        records, valid = scan(bytes(wal._durable))
        assert [r[0] for r in records] == [1, 2, 3, 4]
        assert valid == wal.durable_bytes
        wal.commit()  # nothing pending, nothing poisoned


class TestCrashAndRecover:
    def _crashing_wal(self, at_io, *, group_commit=2):
        inner = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 30)
        device = FaultyDevice(inner, FaultPlan())
        wal = WriteAheadLog(
            device, offset=0, capacity_bytes=1 << 20, group_commit=group_commit
        )
        device.arm_crash(CrashPlan(seed=9, at_io=at_io, torn=True))
        return device, wal

    def test_torn_commit_appends_only_the_persisted_prefix(self):
        device, wal = self._crashing_wal(at_io=1)
        wal.append("p", 1, "a")
        wal.append("p", 2, "b")  # commit 1 lands
        durable_before = wal.durable_bytes
        wal.append("p", 3, "c")
        with pytest.raises(DeviceCrashed):
            wal.append("p", 4, "d")  # commit 2 tears
        torn = device.crash_state.persisted_bytes
        assert wal.durable_bytes == durable_before + torn
        # The torn group is not acked.
        assert wal.committed_lsn == 2

    def test_recover_returns_committed_prefix_and_resyncs_lsns(self):
        device, wal = self._crashing_wal(at_io=1)
        wal.append("p", 1, "a")
        wal.append("d", 2)
        with pytest.raises(DeviceCrashed):
            wal.append("p", 3, "c")
            wal.append("p", 4, "d")
        device.recover()
        records = wal.recover()
        assert records == [(1, "p", 1, "a"), (2, "d", 2, None)]
        assert wal.committed_lsn == 2
        assert wal.next_lsn == 3
        assert wal.pending_records == 0
        # Debris past the last marker is gone from the image.
        again, valid = scan(bytes(wal._durable))
        assert again == records
        assert valid == wal.durable_bytes

    def test_recover_charges_a_log_read(self):
        device, wal = self._crashing_wal(at_io=1)
        wal.append("p", 1, "a")
        wal.append("p", 2, "b")
        with pytest.raises(DeviceCrashed):
            wal.append("p", 3, "c")
            wal.append("p", 4, "d")
        device.recover()
        reads_before = device.stats.reads
        wal.recover()
        assert device.stats.reads == reads_before + 1

    def test_recover_respects_base_lsn_floor(self):
        _, wal = make_wal()
        assert wal.recover(base_lsn=41) == []
        assert wal.committed_lsn == 41
        assert wal.next_lsn == 42
