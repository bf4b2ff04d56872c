"""Fit device parameters from probe data.

The output, :class:`DeviceProfile`, is the solver's picture of a device:

* affine ``(s, t, alpha)`` from the Table 2 regression over an IO-size
  ladder, with R² gating and an adaptive retry that trims the largest
  sizes when the top of the ladder leaves the affine regime (internally
  parallel devices flatten there — striping across dies is exactly the
  behaviour the PDAM models and the affine model does not);
* PDAM ``(P, PB)`` from the Table 1 segmented regression over a thread
  ramp, when the device has a concurrent interface and actually saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.fitting import AffineFit, PDAMFit, fit_affine_model, fit_pdam_model
from repro.errors import ConfigurationError, FitError
from repro.storage.device import BlockDevice
from repro.tuning.probe import AffineProbe, probe_affine, probe_parallel

#: R² floor of a confident affine fit.
MIN_R2 = 0.98

#: Calibration rounds before the last round's fit is kept unconfident.
PROBE_ROUNDS = 3

#: Random reads per IO size in the first round; each retry doubles it.
READS_PER_SIZE = 32

#: Worst relative error allowed at the two smallest ladder rungs.
MAX_SMALL_REL_ERR = 0.25


@dataclass(frozen=True)
class DeviceProfile:
    """Everything the solver needs to know about one measured device."""

    affine: AffineFit
    pdam: PDAMFit | None
    probe_seconds: float       # simulated time the fitted round's probes cost
    probe_ios: int

    @property
    def alpha_per_byte(self) -> float:
        """Normalized bandwidth cost per byte, ``t / s``."""
        return self.affine.seconds_per_byte / self.affine.setup_seconds

    @property
    def setup_seconds(self) -> float:
        """Fitted setup cost ``s``."""
        return self.affine.setup_seconds

    def alpha_per_entry(self, entry_bytes: int) -> float:
        """Alpha in the paper's unit-size-entry convention."""
        if entry_bytes <= 0:
            raise ConfigurationError(f"entry_bytes must be positive, got {entry_bytes}")
        return self.alpha_per_byte * entry_bytes

    def confident(self) -> bool:
        """Whether the affine fit clears the R² gate."""
        return self.affine.r2 >= MIN_R2


def _small_size_rel_err(sizes: Sequence[int], secs: Sequence[float], fit: AffineFit) -> float:
    """Worst relative error of the fit at the two smallest ladder rungs."""
    errs = []
    for size, observed in list(zip(sizes, secs))[:2]:
        predicted = fit.setup_seconds + fit.seconds_per_byte * size
        errs.append(abs(predicted - observed) / observed)
    return max(errs)


def fit_affine_probe(probe: AffineProbe) -> AffineFit:
    """Table 2 regression over probe data, trimming out-of-regime sizes.

    Per-IO timings are first collapsed to a mean per ladder rung
    (:meth:`~repro.tuning.probe.AffineProbe.means`).

    Two gates decide whether a fit is usable: the R² floor, and a relative
    error bound at the *smallest* rungs.  The second matters on internally
    parallel devices: IOs past the stripe size flatten (exactly what the
    PDAM models and one line cannot express), and because OLS weighs
    absolute error, those large-size samples can drag the intercept far
    above the true small-IO cost while R² stays high — yet the small-IO
    end is where optimal node sizes live.  While either gate fails and at
    least four rungs remain, the largest size is dropped and the fit
    retried; if no attempt passes both gates the best-R² attempt among
    those passing the small-size gate wins, then the best overall.
    """
    sizes, secs = probe.means()
    best: AffineFit | None = None
    best_small: AffineFit | None = None
    while True:
        try:
            fit = fit_affine_model(sizes, secs, alpha_unit_bytes=1)
        except FitError:
            fit = None
        if fit is not None:
            small_ok = _small_size_rel_err(sizes, secs, fit) <= MAX_SMALL_REL_ERR
            if fit.r2 >= MIN_R2 and small_ok:
                return fit
            if best is None or fit.r2 > best.r2:
                best = fit
            if small_ok and (best_small is None or fit.r2 > best_small.r2):
                best_small = fit
        if len(sizes) <= 4:
            break
        sizes = sizes[:-1]
        secs = secs[:-1]
    if best_small is not None:
        return best_small
    if best is None:
        raise FitError("affine calibration failed: no valid fit at any size range")
    return best


def calibrate_device(device: BlockDevice, *, seed: int = 0) -> DeviceProfile:
    """Active calibration, doubling the sample count until confident.

    Noisy devices (a disk's rotational latency is uniform over a full
    revolution) may need more than one round; each of up to
    :data:`PROBE_ROUNDS` rounds probes afresh with twice the previous
    round's reads per size (:data:`READS_PER_SIZE` first), so the sample
    mean tightens.  The last round's profile is kept even if it misses
    the gate — callers can check ``profile.confident()`` when they need
    the distinction.
    """
    for round_idx in range(PROBE_ROUNDS):
        profile = _calibrate_once(
            device, READS_PER_SIZE << round_idx, seed + 101 * round_idx
        )
        if profile.confident():
            break
    return profile


def _calibrate_once(device: BlockDevice, reads_per_size: int, seed: int) -> DeviceProfile:
    """One calibration round: probe -> fit, both model families.

    The affine probe (the default IO-size ladder) always runs: every
    device answers serial reads.  The parallel ramp (the default thread
    ramp) runs only on devices with a concurrent interface; a ramp that
    never saturates (FitError) or fits a degenerate knee yields
    ``pdam=None`` rather than a bogus parameter.
    """
    affine_probe = probe_affine(device, reads_per_size=reads_per_size, seed=seed)
    affine = fit_affine_probe(affine_probe)
    probe_seconds = affine_probe.probe_seconds
    probe_ios = affine_probe.probe_ios

    pdam: PDAMFit | None = None
    ramp = probe_parallel(device, seed=seed + 1)
    if ramp is not None:
        probe_seconds += ramp.probe_seconds
        probe_ios += ramp.probe_ios
        try:
            fit = fit_pdam_model(
                list(ramp.threads),
                list(ramp.completion_seconds),
                bytes_per_thread=ramp.bytes_per_thread,
            )
        except FitError:
            fit = None
        if fit is not None and not fit.segmented.degenerate:
            pdam = fit
    return DeviceProfile(
        affine=affine,
        pdam=pdam,
        probe_seconds=probe_seconds,
        probe_ios=probe_ios,
    )
