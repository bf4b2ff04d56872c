"""AffineDevice / PDAMDevice tests — devices that ARE the models."""

import pytest

from repro.errors import ConfigurationError, InvalidIOError
from repro.models.affine import AffineModel
from repro.models.pdam import PDAMModel
from repro.storage.ideal import AffineDevice, PDAMDevice


class TestAffineDevice:
    def test_exact_model_timing(self):
        m = AffineModel(alpha=1e-6, setup_seconds=0.01)
        dev = AffineDevice(m)
        assert dev.read(0, 1000) == pytest.approx(m.seconds(1000))
        assert dev.write(0, 1) == pytest.approx(m.seconds(1))

    def test_no_noise(self):
        dev = AffineDevice(AffineModel(alpha=1e-6, setup_seconds=0.01))
        times = [dev.read(i * 4096, 4096) for i in range(10)]
        # Identical up to floating-point accumulation of the clock.
        assert max(times) - min(times) < 1e-12

    def test_sequential_detection_off_by_default(self):
        m = AffineModel(alpha=1e-6, setup_seconds=0.01)
        dev = AffineDevice(m)
        dev.read(0, 100)
        assert dev.read(100, 100) == pytest.approx(m.seconds(100))


class TestPDAMDevice:
    def make(self, P=4, B=4096):
        return PDAMDevice(PDAMModel(parallelism=P, block_bytes=B), capacity_bytes=1 << 30)

    def test_integer_parallelism_required(self):
        with pytest.raises(ConfigurationError):
            PDAMDevice(PDAMModel(parallelism=3.3, block_bytes=4096))

    def test_serial_read_steps(self):
        dev = self.make()
        # 5 blocks with P=4: 2 steps.
        dev.read(0, 5 * 4096)
        assert dev.steps_elapsed == 2
        assert dev.slots_used == 5 and dev.slots_wasted == 3

    def test_serve_step_accounting(self):
        dev = self.make()
        dev.serve_step([0, 4096, 8192])
        assert dev.steps_elapsed == 1
        assert dev.slots_used == 3 and dev.slots_wasted == 1
        assert dev.stats.reads == 3

    def test_serve_step_rejects_overflow(self):
        dev = self.make(P=2)
        with pytest.raises(InvalidIOError):
            dev.serve_step([0, 4096, 8192])

    def test_serve_step_rejects_misaligned(self):
        dev = self.make()
        with pytest.raises(InvalidIOError):
            dev.serve_step([100])

    def test_empty_step_wastes_all_slots(self):
        dev = self.make()
        dev.serve_step([])
        assert dev.slots_wasted == 4

    def test_block_of(self):
        dev = self.make()
        assert dev.block_of(0) == 0
        assert dev.block_of(4096) == 1
        assert dev.block_of(8191) == 1
        with pytest.raises(InvalidIOError):
            dev.block_of(1 << 40)

    def test_clock_advances_per_step(self):
        dev = PDAMDevice(
            PDAMModel(parallelism=2, block_bytes=4096, step_seconds=0.5),
            capacity_bytes=1 << 30,
        )
        dev.serve_step([0])
        dev.serve_step([4096])
        assert dev.clock == pytest.approx(1.0)

    def test_reset(self):
        dev = self.make()
        dev.serve_step([0])
        dev.reset()
        assert dev.steps_elapsed == 0 and dev.slots_used == 0 and dev.slots_wasted == 0


class TestPDAMCrew:
    def make(self, P=4, B=4096):
        return PDAMDevice(PDAMModel(parallelism=P, block_bytes=B), capacity_bytes=1 << 30)

    def test_mixed_reads_and_writes_in_one_step(self):
        # Definition 1: "the device can serve any combination of reads and
        # writes" within a step.
        dev = self.make()
        dev.serve_step([0, 4096], [8192, 12288])
        assert dev.steps_elapsed == 1
        assert dev.stats.reads == 2 and dev.stats.writes == 2

    def test_two_writes_same_block_rejected(self):
        dev = self.make()
        with pytest.raises(InvalidIOError):
            dev.serve_step([], [0, 0])

    def test_read_of_written_block_rejected(self):
        dev = self.make()
        with pytest.raises(InvalidIOError):
            dev.serve_step([4096], [4096])

    def test_concurrent_reads_of_same_block_allowed(self):
        # CREW: concurrent *reads* are fine.
        dev = self.make()
        dev.serve_step([0, 0, 0])
        assert dev.stats.reads == 3

    def test_total_slot_budget_shared(self):
        dev = self.make(P=3)
        with pytest.raises(InvalidIOError):
            dev.serve_step([0, 4096], [8192, 12288])

    def test_misaligned_write_rejected(self):
        dev = self.make()
        with pytest.raises(InvalidIOError):
            dev.serve_step([], [100])
