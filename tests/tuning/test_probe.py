"""Calibration probes: correct observations, correct cost accounting."""

import pytest

from repro import storage
from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.models.pdam import PDAMModel
from repro.storage.device import ReadRequest
from repro.storage.ideal import AffineDevice, PDAMDevice
from repro.tuning import probe_affine, probe_parallel, supports_parallel_probe


def affine_device(s=0.004, t=4e-9, **kw):
    return AffineDevice(AffineModel.from_hardware(s, t), **kw)


class TestAffineProbe:
    def test_observations_match_model_exactly(self):
        dev = affine_device()
        probe = probe_affine(dev, io_sizes=(4096, 65536), reads_per_size=3)
        assert probe.io_sizes == (4096,) * 3 + (65536,) * 3
        for size, sec in zip(probe.io_sizes, probe.seconds):
            assert sec == pytest.approx(0.004 + 4e-9 * size)

    def test_probe_cost_accounted(self):
        dev = affine_device()
        before = dev.clock
        probe = probe_affine(dev, io_sizes=(4096,), reads_per_size=5)
        assert probe.probe_ios == 5
        assert probe.probe_seconds == pytest.approx(dev.clock - before)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            probe_affine(affine_device(), io_sizes=())
        with pytest.raises(ConfigurationError):
            probe_affine(affine_device(), io_sizes=(4096,), reads_per_size=0)
        small = AffineDevice(AffineModel.from_hardware(0.004, 4e-9), capacity_bytes=2048)
        with pytest.raises(ConfigurationError):
            probe_affine(small, io_sizes=(4096,))

    def test_means_average_each_rung_in_size_order(self):
        probe = probe_affine(affine_device(), io_sizes=(65536, 4096), reads_per_size=3)
        sizes, secs = probe.means()
        assert sizes == [4096, 65536]
        assert secs == [pytest.approx(0.004 + 4e-9 * size) for size in sizes]

    def test_deterministic_under_seed(self):
        a = probe_affine(affine_device(), io_sizes=(4096, 8192), reads_per_size=4, seed=7)
        b = probe_affine(affine_device(), io_sizes=(4096, 8192), reads_per_size=4, seed=7)
        assert a.seconds == b.seconds


class TestParallelProbe:
    def test_serial_device_returns_none(self):
        dev = affine_device()
        if not supports_parallel_probe(dev):
            assert probe_parallel(dev) is None

    def test_pdam_ramp_flat_then_linear(self):
        dev = PDAMDevice(PDAMModel(parallelism=4, block_bytes=4096, step_seconds=1e-4))
        probe = probe_parallel(
            dev, threads=(1, 2, 4, 8, 16), bytes_per_thread=64 * 4096
        )
        assert probe is not None
        t = dict(zip(probe.threads, probe.completion_seconds))
        # Below saturation each client's 64 blocks fit in the free slots:
        # completion time stays one step per block.
        assert t[1] == pytest.approx(t[4])
        # Beyond saturation time grows linearly with the thread count.
        assert t[8] == pytest.approx(2 * t[4])
        assert t[16] == pytest.approx(4 * t[4])

    def test_pdam_request_bytes_is_device_block(self):
        dev = PDAMDevice(PDAMModel(parallelism=2, block_bytes=8192, step_seconds=1e-4))
        probe = probe_parallel(dev, threads=(1, 2), bytes_per_thread=16 * 8192)
        assert probe.request_bytes == 8192

    def test_live_device_probed_by_clock_delta(self):
        dev = PDAMDevice(PDAMModel(parallelism=2, block_bytes=4096, step_seconds=1e-4))
        dev.read(0, 4096)  # prior traffic advances the clock
        probe = probe_parallel(dev, threads=(1,), bytes_per_thread=8 * 4096)
        # 8 blocks, one client: exactly 8 steps, prior busy time excluded.
        assert probe.completion_seconds[0] == pytest.approx(8e-4)

    def test_bytes_per_thread_must_cover_a_request(self):
        dev = PDAMDevice(PDAMModel(parallelism=2, block_bytes=4096, step_seconds=1e-4))
        with pytest.raises(ConfigurationError):
            probe_parallel(dev, bytes_per_thread=1024)

    def test_ssd_ramp_point_on_a_live_device_reads_as_on_a_fresh_one(self):
        fresh = probe_parallel(storage.build("samsung-970-pro-sim"), threads=(4,))
        live = storage.build("samsung-970-pro-sim")
        first = probe_parallel(live, threads=(4,))
        again = probe_parallel(live, threads=(4,))
        assert first.completion_seconds == fresh.completion_seconds
        assert again.completion_seconds[0] == pytest.approx(
            fresh.completion_seconds[0], rel=1e-9
        )

    def test_ssd_closed_loop_starts_at_the_device_clock(self):
        dev = storage.build("samsung-970-pro-sim")
        dev.read(0, 1 << 20)  # prior traffic advances the clock
        clock = dev.clock
        assert clock > 0
        issued = []
        serve = dev.service_request

        def recording(request, at):
            issued.append(at)
            return serve(request, at)

        dev.service_request = recording
        streams = [[ReadRequest((c * 5 + r) * 65536, 65536) for r in range(3)] for c in range(4)]
        dev.run_closed_loop(streams)
        assert len(issued) == 12
        assert min(issued) == clock
