"""The closed loop: probe -> fit -> solve -> reconfigure.

:class:`AutoTuner` owns one device and walks the whole chain:

1. **calibrate** — active probes with escalating sample counts until the
   affine fit clears the R² gate (or rounds run out);
2. **refit** — passive refresh from the device's IO sampler, free of
   probe traffic;
3. **recommend** — solve the fitted model for the best configuration of a
   tree family (:mod:`repro.tuning.solve`);
4. **apply** — migrate a live tree to the recommendation, bulk or
   incremental, guarded by the payback rule: predicted migration cost
   must be recovered from predicted per-op savings within the op horizon.

Every quantity is simulated device seconds, the repository's common
currency, so probe cost, migration cost and steady-state savings are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.storage.device import BlockDevice
from repro.trees import KVTree
from repro.trees.sizing import EntryFormat
from repro.tuning.calibrate import (
    DeviceProfile,
    calibrate_device,
    refit_profile,
)
from repro.tuning.probe import DEFAULT_IO_SIZES, DEFAULT_THREAD_RAMP
from repro.tuning.reconfigure import (
    IncrementalMigrator,
    MigrationReport,
    rebuild_tree,
)
from repro.tuning.solve import Recommendation, solve

from repro.runner.cache import ResultCache, fingerprint as _runner_fingerprint


def _calibration_fingerprint(
    device: BlockDevice,
    *,
    io_sizes: tuple[int, ...],
    reads_per_size: int,
    threads: tuple[int, ...],
    bytes_per_thread: int,
    request_bytes: int,
    min_r2: float,
    seed: int,
    max_probe_rounds: int,
) -> str:
    """Content address of one calibration run on a fresh device."""
    return _runner_fingerprint(
        "autotuner_calibrate",
        {
            "device": device.describe(),
            "io_sizes": list(io_sizes),
            "reads_per_size": reads_per_size,
            "threads": list(threads),
            "bytes_per_thread": bytes_per_thread,
            "request_bytes": request_bytes,
            "min_r2": min_r2,
            "seed": seed,
            "max_probe_rounds": max_probe_rounds,
        },
    )


def estimate_migration_seconds(
    profile: DeviceProfile,
    n_entries: int,
    old_node_bytes: int,
    new_node_bytes: int,
    fmt: EntryFormat = EntryFormat(),
) -> float:
    """Model-predicted cost of rebuilding ``n_entries`` at a new node size.

    A rebuild reads every old leaf once and writes every new leaf once;
    each IO costs ``s + t * node_bytes`` under the fitted affine model.
    Internal levels add a lower-order term that the estimate ignores —
    the payback rule only needs the right magnitude.
    """
    if n_entries < 0:
        raise ConfigurationError(f"n_entries must be non-negative, got {n_entries}")
    s = profile.setup_seconds
    t = profile.affine.seconds_per_byte
    total = 0.0
    for node_bytes in (old_node_bytes, new_node_bytes):
        leaves = max(1.0, n_entries / fmt.leaf_capacity(node_bytes))
        total += leaves * (s + t * node_bytes)
    return total


@dataclass
class TuningOutcome:
    """What one full tuning pass measured, decided, and did."""

    profile: DeviceProfile
    recommendation: Recommendation
    migrated: bool
    tree: KVTree                      # the live tree after the pass
    report: MigrationReport | None      # None when migration was skipped
    predicted_migration_seconds: float
    predicted_payback_ops: float


class AutoTuner:
    """Online calibration and model-driven reconfiguration for one device."""

    def __init__(
        self,
        device: BlockDevice,
        *,
        fmt: EntryFormat = EntryFormat(),
        min_r2: float = 0.98,
        seed: int = 0,
        max_probe_rounds: int = 3,
        cache: "ResultCache | None" = None,
    ) -> None:
        if not 0.0 < min_r2 <= 1.0:
            raise ConfigurationError(f"min_r2 must be in (0, 1], got {min_r2}")
        if max_probe_rounds <= 0:
            raise ConfigurationError(
                f"max_probe_rounds must be positive, got {max_probe_rounds}"
            )
        self.device = device
        self.fmt = fmt
        self.min_r2 = float(min_r2)
        self.seed = int(seed)
        self.max_probe_rounds = int(max_probe_rounds)
        self.cache = cache
        self.profile: DeviceProfile | None = None

    # -- probe + fit -------------------------------------------------------

    def calibrate(
        self,
        *,
        io_sizes: tuple[int, ...] = DEFAULT_IO_SIZES,
        reads_per_size: int = 32,
        threads: tuple[int, ...] = DEFAULT_THREAD_RAMP,
        bytes_per_thread: int = 4 << 20,
        request_bytes: int = 64 << 10,
    ) -> DeviceProfile:
        """Active calibration, doubling the sample count until confident.

        Noisy devices (a disk's rotational latency is uniform over a full
        revolution) may need more than one round; each retry doubles
        ``reads_per_size`` so the sample mean tightens.  The last round's
        profile is kept even if it misses the gate — callers can check
        ``profile.confident()`` when they need the distinction.

        When the tuner was built with a result ``cache``, the fitted
        profile is memoized under the device's :meth:`describe` identity
        plus every probe parameter.  **Caveat:** a cache hit skips the
        probe IOs entirely, so the device's clock, RNG stream and head
        position are left untouched instead of advanced — only reuse the
        cache on a *fresh* device (or when downstream work does not depend
        on device state), never mid-measurement.
        """
        fp: str | None = None
        if self.cache is not None:
            fp = _calibration_fingerprint(
                self.device,
                io_sizes=io_sizes,
                reads_per_size=reads_per_size,
                threads=threads,
                bytes_per_thread=bytes_per_thread,
                request_bytes=request_bytes,
                min_r2=self.min_r2,
                seed=self.seed,
                max_probe_rounds=self.max_probe_rounds,
            )
            cached = self.cache.get(fp)
            if not self.cache.is_miss(cached):
                self.profile = cached
                return cached
        rps = reads_per_size
        profile: DeviceProfile | None = None
        for round_idx in range(self.max_probe_rounds):
            profile = calibrate_device(
                self.device,
                io_sizes=io_sizes,
                reads_per_size=rps,
                threads=threads,
                bytes_per_thread=bytes_per_thread,
                request_bytes=request_bytes,
                min_r2=self.min_r2,
                seed=self.seed + 101 * round_idx,
            )
            if profile.confident(self.min_r2):
                break
            rps *= 2
        assert profile is not None
        if self.cache is not None and fp is not None:
            self.cache.put(fp, profile)
        self.profile = profile
        return profile

    def refit(self, *, min_samples: int = 16, min_r2: float = 0.9) -> DeviceProfile | None:
        """Passive re-fit from the device's IO sampler; updates the profile.

        Returns the refreshed profile, or ``None`` when no probe-free fit
        was possible (sampler off, too few samples, too narrow an IO-size
        spread, or a sub-gate R²) — in that case the active profile stays.
        """
        if self.profile is None:
            return None
        updated = refit_profile(
            self.profile, self.device, min_samples=min_samples, min_r2=min_r2
        )
        if updated is not None:
            self.profile = updated
        return updated

    # -- solve -------------------------------------------------------------

    def recommend(
        self,
        *,
        n_entries: int,
        cache_bytes: int,
        tree: str = "btree",
        query_fraction: float = 1.0,
        write_cost_multiplier: float = 1.0,
        prefer_parallel_layout: bool = True,
    ) -> Recommendation:
        """Solve the fitted model for the given tree family and workload.

        ``prefer_parallel_layout`` selects Lemma 13's PB/vEB configuration
        on devices with fitted parallelism; pass ``False`` when the target
        workload is serial (one outstanding IO cannot use the extra slots,
        so the serial Corollary 6/7 optimum is the right choice).
        """
        if self.profile is None:
            raise ConfigurationError("calibrate() before recommend()")
        return solve(
            self.profile,
            n_entries=n_entries,
            cache_bytes=cache_bytes,
            fmt=self.fmt,
            tree=tree,
            query_fraction=query_fraction,
            write_cost_multiplier=write_cost_multiplier,
            prefer_parallel_layout=prefer_parallel_layout,
        )

    # -- reconfigure -------------------------------------------------------

    def apply(
        self,
        old_tree: KVTree,
        recommendation: Recommendation,
        make_new,
        *,
        current_node_bytes: int,
        current_per_op_seconds: float | None = None,
        horizon_ops: float | None = None,
        mode: str = "bulk",
        universe: int | None = None,
    ) -> TuningOutcome:
        """Migrate ``old_tree`` to the recommendation if it pays for itself.

        When ``current_per_op_seconds`` and ``horizon_ops`` are given, the
        payback rule gates the migration: predicted rebuild cost (from the
        fitted model, *before* moving anything) must be recoverable from
        the predicted per-op savings within the horizon.  Without them the
        migration is unconditional.
        """
        if self.profile is None:
            raise ConfigurationError("calibrate() before apply()")
        if mode not in ("bulk", "incremental"):
            raise ConfigurationError(f"unknown migration mode {mode!r}")
        n_entries = len(old_tree)
        predicted_cost = estimate_migration_seconds(
            self.profile,
            n_entries,
            current_node_bytes,
            recommendation.node_bytes,
            self.fmt,
        )
        predicted_payback = float("inf")
        if current_per_op_seconds is not None:
            saving = current_per_op_seconds - recommendation.predicted_per_op_seconds
            if saving > 0:
                predicted_payback = predicted_cost / saving
        if horizon_ops is not None and predicted_payback > horizon_ops:
            return TuningOutcome(
                profile=self.profile,
                recommendation=recommendation,
                migrated=False,
                tree=old_tree,
                report=None,
                predicted_migration_seconds=predicted_cost,
                predicted_payback_ops=predicted_payback,
            )
        if mode == "bulk":
            new_tree, report = rebuild_tree(
                old_tree,
                make_new,
                old_per_op_seconds=current_per_op_seconds,
                new_per_op_seconds=recommendation.predicted_per_op_seconds,
            )
        else:
            if universe is None:
                raise ConfigurationError("incremental migration needs the key universe")
            migrator = IncrementalMigrator(old_tree, make_new(), universe=universe)
            report = migrator.run_to_completion()
            report.old_per_op_seconds = current_per_op_seconds
            report.new_per_op_seconds = recommendation.predicted_per_op_seconds
            new_tree = migrator.new
        return TuningOutcome(
            profile=self.profile,
            recommendation=recommendation,
            migrated=True,
            tree=new_tree,
            report=report,
            predicted_migration_seconds=predicted_cost,
            predicted_payback_ops=predicted_payback,
        )
