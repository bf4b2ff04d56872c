"""Device calibration and model-driven node sizing.

The paper's Corollaries 6/7 say: measure alpha, then size the node.  This
package is that loop, one path each step:

1. :func:`~repro.tuning.calibrate.calibrate_device` probes the device
   (:mod:`~repro.tuning.probe`) and fits affine ``(s, t, alpha)`` and, on
   devices with a concurrent interface, PDAM ``(P, PB)``, retrying with
   more samples until the affine fit clears the R² gate;
2. :func:`~repro.tuning.solve.solve` evaluates the serial Corollary 6/7
   B-tree optimum of :mod:`repro.models.analysis` at the *measured* alpha;
3. :func:`~repro.tuning.reconfigure.rebuild_tree` bulk-rebuilds a live
   tree at the recommended node size.
"""

from repro.tuning.calibrate import DeviceProfile, calibrate_device
from repro.tuning.probe import (
    DEFAULT_IO_SIZES,
    DEFAULT_THREAD_RAMP,
    AffineProbe,
    ParallelProbe,
    closed_loop_point,
    probe_affine,
    probe_parallel,
    supports_parallel_probe,
)
from repro.tuning.reconfigure import MigrationReport, rebuild_tree
from repro.tuning.solve import Recommendation, solve, solve_btree_node_entries

__all__ = [
    "DeviceProfile",
    "calibrate_device",
    "DEFAULT_IO_SIZES",
    "DEFAULT_THREAD_RAMP",
    "AffineProbe",
    "ParallelProbe",
    "closed_loop_point",
    "probe_affine",
    "probe_parallel",
    "supports_parallel_probe",
    "MigrationReport",
    "rebuild_tree",
    "Recommendation",
    "solve",
    "solve_btree_node_entries",
]
