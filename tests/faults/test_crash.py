"""CrashPlan validation/serialization and FaultyDevice crash semantics."""

import pytest

from repro.errors import ConfigurationError, DeviceCrashed
from repro.faults import CRASH_SCHEMA, CrashPlan, CrashState, FaultPlan, FaultyDevice
from repro.storage.ram import ConstantLatencyDevice


def faulty(*, crash=None, plan=None):
    inner = ConstantLatencyDevice(1e-3, capacity_bytes=1 << 30)
    return FaultyDevice(inner, plan if plan is not None else FaultPlan(), crash=crash)


class TestCrashPlanValidation:
    def test_exactly_one_trigger_required(self):
        with pytest.raises(ConfigurationError):
            CrashPlan()
        with pytest.raises(ConfigurationError):
            CrashPlan(at_io=3, at_seconds=1.0)

    def test_negative_triggers_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashPlan(at_io=-1)
        with pytest.raises(ConfigurationError):
            CrashPlan(at_seconds=-0.5)

    def test_fires_at(self):
        plan = CrashPlan(at_io=3)
        assert not plan.fires_at(2, 0.0)
        assert plan.fires_at(3, 0.0)
        assert plan.fires_at(7, 0.0)
        timed = CrashPlan(at_seconds=1.5)
        assert not timed.fires_at(0, 1.49)
        assert timed.fires_at(0, 1.5)


class TestCrashPlanSerialization:
    def test_round_trip(self):
        plan = CrashPlan(seed=9, at_io=42, torn=False)
        assert CrashPlan.from_json(plan.to_json()) == plan
        timed = CrashPlan(at_seconds=0.25)
        assert CrashPlan.from_json(timed.to_json()) == timed

    def test_schema_tag_present_and_checked(self):
        text = CrashPlan(at_io=1).to_json()
        assert CRASH_SCHEMA in text
        with pytest.raises(ConfigurationError, match="bogus/v9"):
            CrashPlan.from_json(text.replace(CRASH_SCHEMA, "bogus/v9"))

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="surprise"):
            CrashPlan.from_json('{"at_io": 1, "surprise": true}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashPlan.from_json("{not json")
        with pytest.raises(ConfigurationError):
            CrashPlan.from_json("[1]")

    def test_from_file(self, tmp_path):
        path = tmp_path / "crash.json"
        plan = CrashPlan(seed=4, at_io=7)
        path.write_text(plan.to_json())
        assert CrashPlan.from_file(path) == plan
        with pytest.raises(ConfigurationError):
            CrashPlan.from_file(tmp_path / "missing.json")


class TestCrashLifecycle:
    def test_crash_fires_at_ordinal_and_refuses_io(self):
        dev = faulty(crash=CrashPlan(seed=1, at_io=2))
        dev.write(0, 4096)
        dev.write(4096, 4096)
        with pytest.raises(DeviceCrashed):
            dev.write(8192, 4096)
        assert dev.crashed
        assert isinstance(dev.crash_state, CrashState)
        assert dev.crash_state.ordinal == 2
        with pytest.raises(DeviceCrashed):
            dev.read(0, 4096)

    def test_crashed_io_charges_nothing(self):
        dev = faulty(crash=CrashPlan(seed=1, at_io=1))
        dev.write(0, 4096)
        clock = dev.clock
        with pytest.raises(DeviceCrashed):
            dev.write(4096, 4096)
        assert dev.clock == clock
        assert dev.inner.clock == clock
        assert dev.stats.ios == 1

    def test_recover_spends_the_plan(self):
        dev = faulty(crash=CrashPlan(seed=1, at_io=0))
        with pytest.raises(DeviceCrashed):
            dev.read(0, 4096)
        state = dev.recover()
        assert state.ordinal == 0
        assert dev.recoveries == 1
        assert not dev.crashed
        # Spent: the same ordinal passes now, and every later one too.
        for i in range(5):
            dev.read(i * 4096, 4096)

    def test_recover_without_crash_rejected(self):
        dev = faulty(crash=CrashPlan(seed=1, at_io=99))
        with pytest.raises(ConfigurationError):
            dev.recover()

    def test_timed_crash_fires_on_clock(self):
        dev = faulty(crash=CrashPlan(seed=1, at_seconds=2.5e-3))
        dev.write(0, 4096)
        dev.write(4096, 4096)
        dev.write(8192, 4096)  # clock now 3ms >= 2.5ms at next IO
        with pytest.raises(DeviceCrashed):
            dev.write(0, 4096)
        assert dev.crash_state.kind == "write"

    def test_reset_rearms(self):
        dev = faulty(crash=CrashPlan(seed=1, at_io=0))
        with pytest.raises(DeviceCrashed):
            dev.read(0, 4096)
        dev.recover()
        dev.read(0, 4096)
        dev.reset()
        with pytest.raises(DeviceCrashed):
            dev.read(0, 4096)

    def test_arm_crash_restarts_ordinals(self):
        dev = faulty()
        for i in range(4):
            dev.read(i * 4096, 4096)
        dev.arm_crash(CrashPlan(seed=1, at_io=1))
        dev.read(0, 4096)  # ordinal 0 counted from arming
        with pytest.raises(DeviceCrashed):
            dev.read(4096, 4096)


class TestTornWrites:
    def test_torn_write_persists_a_prefix(self):
        dev = faulty(crash=CrashPlan(seed=5, at_io=0, torn=True))
        with pytest.raises(DeviceCrashed) as info:
            dev.write(0, 4096)
        persisted = info.value.state.persisted_bytes
        assert 0 <= persisted < 4096

    def test_torn_fraction_is_seeded(self):
        def persisted(seed):
            dev = faulty(crash=CrashPlan(seed=seed, at_io=0, torn=True))
            with pytest.raises(DeviceCrashed) as info:
                dev.write(0, 4096)
            return info.value.state.persisted_bytes

        assert persisted(5) == persisted(5)

    def test_untorn_crash_persists_nothing(self):
        dev = faulty(crash=CrashPlan(seed=5, at_io=0, torn=False))
        with pytest.raises(DeviceCrashed) as info:
            dev.write(0, 4096)
        assert info.value.state.persisted_bytes == 0

    def test_crashed_read_persists_nothing(self):
        dev = faulty(crash=CrashPlan(seed=5, at_io=0, torn=True))
        with pytest.raises(DeviceCrashed) as info:
            dev.read(0, 4096)
        assert info.value.state.persisted_bytes == 0
        assert info.value.state.kind == "read"


class TestFaultStreamIsolation:
    def test_crash_does_not_shift_the_fault_rng(self):
        # The torn-fraction draw uses a dedicated RNG: after recovery the
        # plan RNG must sit exactly where a crash-free device's sits
        # after the same number of *completed* IOs.
        plan = FaultPlan(seed=11, spike_prob=0.5, spike_seconds=0.01)
        ref = faulty(plan=plan)
        dev = faulty(plan=plan, crash=CrashPlan(seed=3, at_io=2, torn=True))
        for i in range(2):
            ref.write(i * 4096, 4096)
            dev.write(i * 4096, 4096)
        with pytest.raises(DeviceCrashed):
            dev.write(8192, 4096)
        dev.recover()
        # The retried IO and three more must cost exactly what the
        # crash-free device charges for the same stream.
        for i in range(2, 6):
            assert dev.write(i * 4096, 4096) == ref.write(i * 4096, 4096)
