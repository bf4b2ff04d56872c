"""DurableTree: logging, checkpointing, and crash recovery over the zoo."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceCrashed, WALError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
from repro.recovery import DurableConfig, DurableTree, RecoveryReport
from repro.storage.ram import ConstantLatencyDevice
from repro.trees import KINDS

SMALL = dict(
    node_bytes=4096,
    cache_bytes=32 << 10,
    wal_bytes=1 << 20,
    ckpt_bytes=1 << 20,
    group_commit=2,
)


def build(tree="btree", *, crash=None, **overrides):
    inner = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 30)
    device = FaultyDevice(inner, FaultPlan(), crash=crash)
    cfg = DurableConfig(tree=tree, **{**SMALL, **overrides})
    return device, DurableTree(device, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="KINDS"):
            DurableConfig(tree="splay")
        with pytest.raises(ConfigurationError):
            DurableConfig(group_commit=0)
        with pytest.raises(ConfigurationError):
            DurableConfig(checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            DurableConfig(wal_bytes=0)

    def test_reserved_extents_must_leave_tree_room(self):
        device = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError, match="no room"):
            DurableTree(device, DurableConfig(ckpt_bytes=1 << 20))

    def test_describe_is_jsonable(self):
        d = DurableConfig(**SMALL).describe()
        assert d["tree"] == "btree"
        assert d["group_commit"] == 2


class TestWritePath:
    def test_put_get_delete(self):
        _, durable = build()
        lsn = durable.put(5, "five")
        assert lsn == 1
        assert durable.get(5) == "five"
        durable.put(6, "six")
        assert durable.acked(1)  # group of 2 committed
        durable.delete(5)
        assert durable.get(5) is None
        assert durable.get_many([5, 6]) == [None, "six"]
        assert durable.range(0, 10) == [(6, "six")]

    def test_ack_follows_group_commit(self):
        _, durable = build(group_commit=3)
        lsn = durable.put(1, "a")
        assert not durable.acked(lsn)
        durable.sync()
        assert durable.acked(lsn)

    def test_load_is_unlogged_but_checkpointed(self):
        _, durable = build()
        durable.load([(1, "a"), (2, "b")])
        assert durable.wal.next_lsn == 1  # nothing logged
        assert durable.checkpoints_taken == 1
        assert durable.contents() == {1: "a", 2: "b"}

    @pytest.mark.parametrize("tree", KINDS)
    def test_delete_of_absent_key_is_logged_and_replays_harmlessly(self, tree):
        _, durable = build(tree)
        durable.load([(1, "a")])
        durable.put(2, "b")
        lsn = durable.delete(99)  # a no-op in every kind, cob included
        assert durable.contents() == {1: "a", 2: "b"}
        durable.sync()
        assert durable.acked(lsn)
        report = durable.recover()
        assert report.replayed_records == 2
        assert durable.contents() == {1: "a", 2: "b"}
        durable.check_invariants()


    @pytest.mark.parametrize("tree", KINDS)
    def test_unencodable_value_is_refused_at_its_own_put(self, tree):
        """A value the log cannot frame (a numpy scalar) fails at the put
        that carries it — not three ops later — and poisons nothing."""
        _, durable = build(tree, group_commit=4)
        first = durable.put(1, "a")
        with pytest.raises(TypeError):
            durable.put(2, np.int64(7))
        assert durable.get(2) is None  # write-ahead: never logged, never applied
        assert durable.wal.next_lsn == 2
        lsns = [durable.put(key, key) for key in (3, 4, 5)]
        assert lsns == [2, 3, 4]
        assert durable.wal.committed_lsn == 4
        assert all(durable.acked(lsn) for lsn in [first, *lsns])
        durable.sync()
        durable.checkpoint()
        assert durable.recover().replayed_records == 0
        assert durable.contents() == {1: "a", 3: 3, 4: 4, 5: 5}

    def test_items_charges_the_scan_at_the_call(self):
        device, durable = build(cache_bytes=8 << 10)
        durable.load([(key, "v") for key in range(400)])
        durable.stack.drop_cache()
        before = device.clock
        pairs = durable.items()
        charged = device.clock
        assert charged > before
        assert len(list(pairs)) == 400
        assert device.clock == charged


class TestCheckpoint:
    def test_checkpoint_truncates_the_log(self):
        _, durable = build()
        durable.load([])
        for i in range(6):
            durable.put(i, f"v{i}")
        assert durable.wal.durable_bytes > 0
        durable.checkpoint()
        assert durable.wal.durable_bytes == 0
        assert durable.checkpoint_lsn == 6
        assert durable.checkpoint_seconds > 0.0

    def test_checkpoint_every_triggers_automatically(self):
        _, durable = build(checkpoint_every=4)
        durable.load([])
        for i in range(8):
            durable.put(i, "x")
        assert durable.checkpoints_taken == 1 + 2  # load + two automatic

    def test_snapshot_too_big_for_region_raises(self):
        _, durable = build(ckpt_bytes=512)
        for i in range(64):
            durable.put(i, "x")
        with pytest.raises(WALError, match="exceeds"):
            durable.checkpoint()


@pytest.mark.parametrize("tree", KINDS)
class TestRecovery:
    def test_crash_and_recover_keeps_acked_prefix(self, tree):
        device, durable = build(tree, group_commit=2)
        durable.load([(100, "base")])
        device.arm_crash(CrashPlan(seed=3, at_io=30))
        applied = []
        try:
            for i in range(200):
                durable.put(i, f"v{i}")
                applied.append(i)
            pytest.fail("crash never fired")
        except DeviceCrashed:
            pass
        acked = durable.wal.committed_lsn
        report = durable.recover()
        assert isinstance(report, RecoveryReport)
        assert report.crash is not None
        assert report.recovery_seconds > 0.0
        expected = {100: "base"}
        expected.update((i, f"v{i}") for i in range(acked))
        assert durable.contents() == expected
        durable.check_invariants()
        # Recovered tree accepts new durable writes.
        durable.put(10_000, "after")
        durable.sync()
        assert durable.get(10_000) == "after"

    def test_recover_from_checkpoint_plus_log_suffix(self, tree):
        device, durable = build(tree, group_commit=1)
        durable.load([(1, "a"), (2, "b")])
        durable.put(3, "c")
        durable.checkpoint()
        durable.put(4, "d")
        durable.delete(1)
        report = durable.recover()  # no crash: rebuild from durable state
        assert report.crash is None
        assert report.checkpoint_lsn == 1
        assert report.replayed_records == 2
        assert durable.contents() == {2: "b", 3: "c", 4: "d"}


class TestIOAccounting:
    def test_io_seconds_tracks_the_device(self):
        device, durable = build()
        durable.put(1, "a")
        durable.sync()
        assert durable.io_seconds == device.stats.busy_seconds > 0.0
