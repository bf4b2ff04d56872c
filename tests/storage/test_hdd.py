"""Simulated hard-disk tests: seek curve, rotation, transfer, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.storage.hdd import HDDGeometry, SimulatedHDD


def make(seed=0, **kwargs):
    defaults = dict(capacity_bytes=1 << 30)
    defaults.update(kwargs)
    return SimulatedHDD(HDDGeometry(**defaults), seed=seed)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HDDGeometry(track_to_track_seek_seconds=0.02, full_stroke_seek_seconds=0.01)
        with pytest.raises(ConfigurationError):
            HDDGeometry(bandwidth_bytes_per_second=0)
        with pytest.raises(ConfigurationError):
            HDDGeometry(rotation_seconds=0)

    def test_derived_quantities(self):
        g = HDDGeometry()
        assert g.seconds_per_byte == pytest.approx(1.0 / g.bandwidth_bytes_per_second)
        assert g.alpha == pytest.approx(g.seconds_per_byte / g.mean_setup_seconds)
        assert g.half_bandwidth_bytes == pytest.approx(
            g.mean_setup_seconds * g.bandwidth_bytes_per_second
        )

    def test_mean_setup_between_extremes(self):
        g = HDDGeometry()
        assert (
            g.track_to_track_seek_seconds + g.rotation_seconds / 2
            < g.mean_setup_seconds
            < g.full_stroke_seek_seconds + g.rotation_seconds
        )


class TestTiming:
    def test_sequential_io_pays_no_setup(self):
        hdd = make()
        hdd.read(0, 4096)
        t = hdd.read(4096, 4096)  # head is exactly there
        assert t == pytest.approx(4096 * hdd.geometry.seconds_per_byte)

    def test_random_io_pays_seek_and_rotation(self):
        hdd = make()
        t = hdd.read(512 << 20, 4096)
        g = hdd.geometry
        assert t >= g.track_to_track_seek_seconds + 4096 * g.seconds_per_byte

    def test_longer_seeks_cost_more_on_average(self):
        near, far = [], []
        for i in range(200):
            hdd = make(seed=i)
            hdd.read(0, 512)  # park head at ~0
            near.append(hdd.read(1 << 20, 4096))
            hdd2 = make(seed=i)
            hdd2.read(0, 512)
            far.append(hdd2.read(1000 << 20, 4096))
        assert np.mean(far) > np.mean(near)

    def test_transfer_linear_in_size(self):
        hdd = make()
        hdd.read(0, 512)
        t1 = hdd.read(512, 1 << 20)       # sequential: pure transfer
        t2_start = hdd.head_position
        t2 = hdd.read(t2_start, 2 << 20)  # sequential again
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_mean_setup_matches_geometry(self):
        # Empirical intercept over many random reads ~ mean_setup_seconds.
        hdd = make(seed=42)
        rng = np.random.default_rng(7)
        times = []
        for _ in range(800):
            off = int(rng.integers(0, (1 << 30) - 4096))
            times.append(hdd.read(off, 4096))
        transfer = 4096 * hdd.geometry.seconds_per_byte
        mean_setup = np.mean(times) - transfer
        assert mean_setup == pytest.approx(hdd.geometry.mean_setup_seconds, rel=0.08)

    def test_writes_cost_like_reads(self):
        h1, h2 = make(seed=3), make(seed=3)
        t_r = h1.read(100 << 20, 8192)
        t_w = h2.write(100 << 20, 8192)
        assert t_r == pytest.approx(t_w)

    def test_deterministic_with_seed(self):
        def total(seed):
            hdd = make(seed=seed)
            rng = np.random.default_rng(0)
            return sum(
                hdd.read(int(rng.integers(0, 1 << 29)), 4096) for _ in range(50)
            )

        assert total(5) == total(5)
        assert total(5) != total(6)

    def test_reset_restores_rng_stream(self):
        hdd = make(seed=9)
        seq1 = [hdd.read(i * (1 << 20), 4096) for i in range(1, 20)]
        hdd.reset()
        seq2 = [hdd.read(i * (1 << 20), 4096) for i in range(1, 20)]
        assert seq1 == seq2


class TestReadBatch:
    def _serial_reference(self, offsets, nbytes, **kwargs):
        hdd = make(**kwargs)
        return hdd, [hdd.read(off, nbytes) for off in offsets]

    def test_bit_identical_to_serial_reads(self):
        rng = np.random.default_rng(3)
        offsets = [int(o) * 512 for o in rng.integers(0, (1 << 30) // 512 - 64, size=50)]
        ref_hdd, ref = self._serial_reference(offsets, 4096, seed=11)
        hdd = make(seed=11)
        batch = hdd.read_batch(offsets, 4096)
        assert batch == ref  # exact float equality, not approx
        assert hdd.clock == ref_hdd.clock
        assert hdd.head_position == ref_hdd.head_position
        assert vars(hdd.stats) == vars(ref_hdd.stats)

    def test_rng_stream_position_matches(self):
        # After a batch, further serial reads must see the same rotational
        # draws as if the batch had been issued serially.
        offsets = [512, 1 << 20, 4096, 2 << 20]
        ref_hdd, _ = self._serial_reference(offsets, 4096, seed=5)
        hdd = make(seed=5)
        hdd.read_batch(offsets, 4096)
        assert hdd.read(3 << 20, 8192) == ref_hdd.read(3 << 20, 8192)

    def test_sequential_runs_skip_rotation_draws(self):
        # Offsets forming a sequential run draw no rotation inside the run.
        start = 1 << 20
        offsets = [start, start + 4096, start + 8192, 1 << 24]
        ref_hdd, ref = self._serial_reference(offsets, 4096, seed=9)
        hdd = make(seed=9)
        assert hdd.read_batch(offsets, 4096) == ref
        assert ref[1] == pytest.approx(4096 / hdd.geometry.bandwidth_bytes_per_second)

    def test_empty_batch(self):
        hdd = make()
        assert hdd.read_batch([], 4096) == []
        assert hdd.stats.reads == 0

    def test_invalid_batch_charges_nothing(self):
        from repro.errors import InvalidIOError

        hdd = make()
        with pytest.raises(InvalidIOError):
            hdd.read_batch([0, hdd.capacity_bytes], 4096)
        assert hdd.stats.reads == 0 and hdd.clock == 0.0

    def test_trace_matches_serial(self):
        offsets = [512, 1 << 20, 4096]
        ref_hdd = SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=2, trace=True)
        for off in offsets:
            ref_hdd.read(off, 4096)
        hdd = SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=2, trace=True)
        hdd.read_batch(offsets, 4096)
        assert hdd.trace == ref_hdd.trace
