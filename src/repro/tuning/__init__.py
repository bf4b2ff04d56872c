"""Online device calibration and model-driven auto-tuning.

The subsystem closes the loop the paper leaves open: it *measures* a
device's affine ``(s, t, alpha)`` and PDAM ``(P, B)`` parameters with
calibration workloads (:mod:`~repro.tuning.probe`), gates the fits on R²
(:mod:`~repro.tuning.calibrate`), solves the models of
:mod:`repro.models.analysis` for the best tree configuration at the
*measured* parameters (:mod:`~repro.tuning.solve`), and migrates a live
tree to that configuration when the payback rule says the move is worth
its IO (:mod:`~repro.tuning.reconfigure`).  :class:`~repro.tuning.autotuner.AutoTuner`
drives the whole chain.
"""

from repro.tuning.autotuner import (
    AutoTuner,
    TuningOutcome,
    estimate_migration_seconds,
)
from repro.tuning.calibrate import (
    PARALLEL_THRESHOLD,
    DeviceProfile,
    calibrate_device,
    fit_affine_probe,
    refit_from_samples,
    refit_profile,
)
from repro.tuning.probe import (
    DEFAULT_IO_SIZES,
    DEFAULT_THREAD_RAMP,
    AffineProbe,
    ParallelProbe,
    probe_affine,
    probe_parallel,
    supports_parallel_probe,
)
from repro.tuning.reconfigure import (
    IncrementalMigrator,
    MigrationReport,
    migration_pays_off,
    rebuild_tree,
)
from repro.tuning.solve import (
    Recommendation,
    solve,
    solve_betree_params,
    solve_btree_node_entries,
)

__all__ = [
    "AutoTuner",
    "TuningOutcome",
    "estimate_migration_seconds",
    "PARALLEL_THRESHOLD",
    "DeviceProfile",
    "calibrate_device",
    "fit_affine_probe",
    "refit_from_samples",
    "refit_profile",
    "DEFAULT_IO_SIZES",
    "DEFAULT_THREAD_RAMP",
    "AffineProbe",
    "ParallelProbe",
    "probe_affine",
    "probe_parallel",
    "supports_parallel_probe",
    "IncrementalMigrator",
    "MigrationReport",
    "migration_pays_off",
    "rebuild_tree",
    "Recommendation",
    "solve",
    "solve_betree_params",
    "solve_btree_node_entries",
]
