"""Fitting: round-trips on ideal devices, gating, retry rounds."""

import pytest

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.models.pdam import PDAMModel
from repro import storage
from repro.storage.ideal import AffineDevice, PDAMDevice
from repro.tuning import DEFAULT_IO_SIZES, calibrate_device


def affine_device(s=0.004, t=4e-9):
    return AffineDevice(AffineModel.from_hardware(s, t))


class TestRoundTrip:
    """Acceptance criterion: planted parameters recovered within 5%."""

    @pytest.mark.parametrize("s,t", [(0.004, 4e-9), (0.05, 9.26e-10), (2e-5, 9.26e-9)])
    def test_affine_alpha_within_5pct(self, s, t):
        profile = calibrate_device(affine_device(s, t))
        true_alpha = t / s
        assert abs(profile.alpha_per_byte - true_alpha) / true_alpha < 0.05
        assert abs(profile.setup_seconds - s) / s < 0.05
        assert profile.affine.r2 >= 0.98
        assert profile.confident()

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_pdam_parallelism_within_5pct(self, P):
        dev = PDAMDevice(PDAMModel(parallelism=P, block_bytes=4096, step_seconds=1e-4))
        profile = calibrate_device(dev)
        assert profile.pdam is not None
        assert abs(profile.pdam.parallelism - P) / P < 0.05
        assert profile.pdam.r2 >= 0.98

    def test_serial_device_has_no_pdam_half(self):
        profile = calibrate_device(affine_device())
        assert profile.pdam is None

    def test_profile_charges_probe_cost(self):
        dev = affine_device()
        profile = calibrate_device(dev)
        assert profile.probe_ios > 0
        assert profile.probe_seconds == pytest.approx(dev.clock)


class TestRetryRounds:
    @pytest.mark.parametrize(
        "name, reads_per_size",
        # The 2002 disk's rotational noise keeps 32 reads a size below the
        # R² gate at seed 0; the second round, 64 a size, clears it.
        [("seagate-2tb-2002-sim", 64), ("wd-black-1tb-2011-sim", 32)],
    )
    def test_a_missed_gate_reprobes_with_twice_the_reads(self, name, reads_per_size):
        profile = calibrate_device(storage.build(name, seed=0))
        assert profile.confident()
        assert profile.probe_ios == reads_per_size * len(DEFAULT_IO_SIZES)


class TestProfileUnits:
    def test_alpha_per_entry_scales_by_entry_bytes(self):
        profile = calibrate_device(affine_device())
        assert profile.alpha_per_entry(108) == pytest.approx(108 * profile.alpha_per_byte)
        with pytest.raises(ConfigurationError):
            profile.alpha_per_entry(0)
