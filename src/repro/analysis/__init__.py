"""Regression and model-fitting tools used by the validation experiments.

* :mod:`repro.analysis.metrics` — goodness-of-fit metrics (R², RMS).
* :mod:`repro.analysis.regression` — ordinary least squares and the
  *segmented* linear regression the paper uses to recover the PDAM's ``P``
  from the thread-scaling benchmark (Table 1).
* :mod:`repro.analysis.fitting` — device-parameter fits: affine ``(s, t,
  alpha)`` from IO-size sweeps (Table 2) and PDAM ``(P, PB)`` from thread
  sweeps (Table 1), plus the affine overlay lines of Figures 2-3.
"""

from repro.analysis.metrics import r_squared, rms_error
from repro.analysis.regression import (
    LinearFit,
    SegmentedFit,
    linear_fit,
    segmented_linear_fit,
)
from repro.analysis.traces import (
    TraceSummary,
    io_size_histogram,
    summarize_trace,
)
from repro.analysis.fitting import (
    AffineFit,
    PDAMFit,
    fit_affine_model,
    fit_pdam_model,
    fit_affine_overlay,
)

__all__ = [
    "r_squared",
    "rms_error",
    "LinearFit",
    "SegmentedFit",
    "linear_fit",
    "segmented_linear_fit",
    "AffineFit",
    "PDAMFit",
    "fit_affine_model",
    "fit_pdam_model",
    "fit_affine_overlay",
    "TraceSummary",
    "io_size_histogram",
    "summarize_trace",
]
