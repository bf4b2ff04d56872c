"""Device-parameter and overlay fits.

Three fitting tasks appear in the paper's evaluation:

* **Table 2**: regress IO time against IO size on an HDD; the intercept is
  the setup cost ``s``, the slope the bandwidth cost ``t``, and
  ``alpha = t/s``.  The paper reports ``t`` per 4 KiB block, which we follow
  (``alpha_unit_bytes``).
* **Table 1**: segmented linear regression of completion time against the
  number of client threads on an SSD; the breakpoint estimates the device
  parallelism ``P``, and the right segment's slope gives the saturation
  throughput ``∝ PB``.
* **Figures 2-3**: overlay an affine-model prediction curve on measured
  per-operation times as a function of node size, fitting the model's
  ``alpha`` and a vertical scale (the paper reports the fitted alpha and
  the RMS error).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.metrics import r_squared, rms_error
from repro.analysis.regression import SegmentedFit, linear_fit, segmented_linear_fit
from repro.errors import FitError


@dataclass(frozen=True)
class AffineFit:
    """Affine hardware parameters recovered from an IO-size sweep (Table 2)."""

    setup_seconds: float          # s
    seconds_per_byte: float       # t (per byte)
    alpha: float                  # t/s, per `alpha_unit_bytes`
    alpha_unit_bytes: int         # the unit alpha is quoted in (paper: 4 KiB)
    r2: float

    def predict_seconds(self, nbytes) -> np.ndarray:
        """Predicted IO time ``s + t * nbytes``."""
        return self.setup_seconds + self.seconds_per_byte * np.asarray(nbytes, dtype=float)


@dataclass(frozen=True)
class PDAMFit:
    """PDAM parameters recovered from a thread-scaling sweep (Table 1)."""

    parallelism: float            # P, from the segmented-fit breakpoint
    saturation_bytes_per_second: float  # the paper's "∝ PB"
    r2: float
    segmented: SegmentedFit

    def predict_seconds(self, threads) -> np.ndarray:
        """Predicted completion time at each thread count."""
        return self.segmented.predict(threads)


def fit_affine_model(
    io_sizes_bytes, seconds, *, alpha_unit_bytes: int = 4096
) -> AffineFit:
    """Recover ``(s, t, alpha)`` from measured per-IO times (Table 2 fit).

    Parameters
    ----------
    io_sizes_bytes, seconds:
        Paired observations: each IO's size and its measured duration.
    alpha_unit_bytes:
        Unit in which ``alpha`` is quoted.  The paper uses 4 KiB blocks
        (``alpha = t[s/4K] / s``); pass 1 for a per-byte alpha.
    """
    fit = linear_fit(io_sizes_bytes, seconds)
    if fit.intercept <= 0:
        raise FitError(
            f"fitted setup cost is non-positive ({fit.intercept:.3g}); "
            "data does not look affine"
        )
    if fit.slope <= 0:
        raise FitError(
            f"fitted bandwidth cost is non-positive ({fit.slope:.3g}); "
            "data does not look affine"
        )
    alpha = fit.slope * alpha_unit_bytes / fit.intercept
    return AffineFit(
        setup_seconds=fit.intercept,
        seconds_per_byte=fit.slope,
        alpha=alpha,
        alpha_unit_bytes=alpha_unit_bytes,
        r2=fit.r2,
    )


def fit_pdam_model(threads, seconds, *, bytes_per_thread: float) -> PDAMFit:
    """Recover ``(P, PB)`` from a thread-scaling sweep (Table 1 fit).

    The experiment reads ``bytes_per_thread`` per client with ``p`` clients,
    so total data grows linearly in ``p``.  Below saturation (``p <= P``)
    completion time is flat; above it, time grows linearly with slope
    ``bytes_per_thread / (PB-throughput)``.  The segmented regression's
    breakpoint estimates ``P`` and the right slope the saturation
    throughput.
    """
    if bytes_per_thread <= 0:
        raise FitError(f"bytes_per_thread must be positive, got {bytes_per_thread}")
    # The PDAM predicts a *flat* below-saturation regime, so constrain the
    # left segment to horizontal; P is then where the saturated line crosses
    # the flat level (the knee), which is robust to a soft transition.
    seg = segmented_linear_fit(threads, seconds, flat_left=True)
    if seg.right.slope <= 0:
        raise FitError(
            f"right-segment slope is non-positive ({seg.right.slope:.3g}); "
            "device never saturated — extend the thread sweep"
        )
    saturation = bytes_per_thread / seg.right.slope
    knee = (seg.left.intercept - seg.right.intercept) / seg.right.slope
    parallelism = knee if knee > 0 else seg.breakpoint
    return PDAMFit(
        parallelism=parallelism,
        saturation_bytes_per_second=saturation,
        r2=seg.r2,
        segmented=seg,
    )


# ---------------------------------------------------------------------------
# Figure 2-3 overlay fits
# ---------------------------------------------------------------------------

def _btree_shape(B: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 + alpha * B) / np.log(B + 1.0)


def _betree_insert_shape(B: np.ndarray, alpha: float) -> np.ndarray:
    F = np.sqrt(B)
    return (F / B + alpha * F) / np.log(F)


def _betree_query_shape(B: np.ndarray, alpha: float) -> np.ndarray:
    F = np.sqrt(B)
    return (1.0 + alpha * B / F + alpha * F) / np.log(F)


_SHAPES: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "btree": _btree_shape,
    "betree_insert": _betree_insert_shape,
    "betree_query": _betree_query_shape,
}


@dataclass(frozen=True)
class OverlayFit:
    """Affine overlay line for a node-size sweep (the Figure 2/3 black lines)."""

    kind: str
    alpha: float       # fitted normalized bandwidth cost (per byte of node)
    scale: float       # vertical scale (folds in s and log(N/M))
    rms: float
    r2: float

    def predict(self, node_bytes) -> np.ndarray:
        """Predicted per-op time at each node size."""
        B = np.asarray(node_bytes, dtype=float)
        return self.scale * _SHAPES[self.kind](B, self.alpha)


def fit_affine_overlay(node_bytes, per_op_seconds, *, kind: str = "btree") -> OverlayFit:
    """Fit the affine cost-curve family to measured per-op times.

    ``kind`` selects the Table 3 cost shape: ``"btree"`` fits
    ``scale*(1+alpha*B)/ln(B+1)`` (used for Figure 2); ``"betree_insert"``
    and ``"betree_query"`` fit the ``F = sqrt(B)`` Bε-tree shapes (used for
    Figure 3).  ``alpha`` and ``scale`` are chosen by least squares.
    """
    if kind not in _SHAPES:
        raise FitError(f"unknown overlay kind {kind!r}; choose from {sorted(_SHAPES)}")
    B = np.asarray(node_bytes, dtype=float)
    y = np.asarray(per_op_seconds, dtype=float)
    if B.ndim != 1 or B.shape != y.shape:
        raise FitError("node_bytes and per_op_seconds must be 1-D and the same length")
    if B.size < 3:
        raise FitError(f"need at least 3 node sizes to fit an overlay, got {B.size}")
    if np.any(B <= 1):
        raise FitError("node sizes must exceed 1 byte")

    shape = _SHAPES[kind]

    def model(Bv: np.ndarray, log_alpha: float, log_scale: float) -> np.ndarray:
        # Clip so the optimizer's exploratory steps cannot overflow exp().
        la = min(max(log_alpha, -80.0), 80.0)
        ls = min(max(log_scale, -200.0), 200.0)
        return math.exp(ls) * shape(Bv, math.exp(la))

    # Log-parameterization keeps alpha and scale positive; the initial alpha
    # guess is the reciprocal of the largest node (the half-bandwidth scale).
    p0 = (math.log(1.0 / float(B.max())), math.log(max(float(y.mean()), 1e-300)))
    # Deferred: scipy is ~45 MiB resident and half a second to import, and
    # no sweep kernel fits — only a process that overlays a curve pays.
    from scipy import optimize

    try:
        with warnings.catch_warnings():
            # Few-point sweeps can make the covariance estimate singular;
            # we only use the point estimate.
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, _ = optimize.curve_fit(model, B, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:  # pragma: no cover - pathological data only
        raise FitError(f"affine overlay fit did not converge: {exc}") from exc
    alpha, scale = math.exp(popt[0]), math.exp(popt[1])
    pred = scale * shape(B, alpha)
    return OverlayFit(
        kind=kind,
        alpha=alpha,
        scale=scale,
        rms=rms_error(y, pred),
        r2=r_squared(y, pred),
    )
