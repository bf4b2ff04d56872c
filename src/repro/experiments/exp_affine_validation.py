"""E3 — Table 2: validating the affine model on simulated hard disks.

Protocol (paper Section 4.2, scaled):

    "we chose an IO size, I, and issued 64 I-sized reads to block-aligned
    offsets chosen randomly within the device's full LBA range.  We
    repeated this experiment for a variety of IO sizes, with I ranging
    from 1 disk block up to 16 MiB."

We regress the per-size *mean* IO time against IO size: the intercept is
the setup cost ``s``, the slope the bandwidth cost ``t``, and
``alpha = t/s`` (quoted per 4 KiB, as in the paper's table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import storage
from repro.analysis.fitting import AffineFit, fit_affine_model
from repro.experiments import report
from repro.experiments.common import check_devices
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep
from repro.storage.registry import HDD_ZOO
from repro.tuning.probe import probe_affine

DEFAULT_IO_SIZES = tuple(4096 * 4**k for k in range(7))  # 4 KiB .. 16 MiB


@dataclass
class AffineValidationResult:
    """Table 2 fits plus the configured ground truth."""

    io_sizes: tuple[int, ...]
    reads_per_size: int
    fits: dict[str, AffineFit] = field(default_factory=dict)
    truth: dict[str, tuple[float, float]] = field(default_factory=dict)  # (s, t/4K)

    def rows(self) -> list[list[object]]:
        rows = []
        for name, fit in self.fits.items():
            year = HDD_ZOO[name][0]
            s_true, t4k_true = self.truth[name]
            rows.append(
                [
                    name,
                    year,
                    f"{fit.setup_seconds:.4f}",
                    f"{fit.seconds_per_byte * 4096:.6f}",
                    f"{fit.alpha:.4f}",
                    f"{fit.r2:.4f}",
                    f"{s_true:.4f}",
                    f"{t4k_true:.6f}",
                ]
            )
        return rows

    def render(self) -> str:
        return report.render_table(
            "Table 2 (simulated): affine fits for the HDD zoo",
            ["device", "year", "s (s)", "t (s/4K)", "alpha", "R^2", "s true", "t true"],
            self.rows(),
            note=(
                f"Fit on per-size mean of {self.reads_per_size} random reads, "
                f"IO sizes {report.format_bytes(self.io_sizes[0])}.."
                f"{report.format_bytes(self.io_sizes[-1])}.  alpha = t/s per 4 KiB."
            ),
        )


@register("affine_validation_device")
def affine_validation_device(
    *,
    device: str,
    io_sizes: tuple[int, ...],
    reads_per_size: int,
    seed: int,
) -> dict[str, Any]:
    """Random-read size ladder on one zoo disk; per-size mean IO times."""
    hdd = storage.build(device, seed=seed)
    probe = probe_affine(hdd, io_sizes=io_sizes, reads_per_size=reads_per_size, seed=seed + 1)
    sizes, times = probe.means()
    return {"mean_sizes": [float(s) for s in sizes], "mean_times": times}


def sweep_spec(
    *,
    io_sizes: tuple[int, ...] = DEFAULT_IO_SIZES,
    reads_per_size: int = 64,
    devices: tuple[str, ...] | None = None,
    seed: int = 0,
) -> SweepSpec:
    """The E3 sweep: one ``affine_validation_device`` point per zoo disk."""
    names = check_devices(devices if devices is not None else sorted(HDD_ZOO), HDD_ZOO)
    return SweepSpec.make(
        "affine_validation",
        [
            SweepPoint.make(
                "affine_validation_device",
                device=name,
                io_sizes=tuple(io_sizes),
                reads_per_size=reads_per_size,
                seed=seed,
            )
            for name in names
        ],
    )


def run(
    *,
    io_sizes: tuple[int, ...] = DEFAULT_IO_SIZES,
    reads_per_size: int = 64,
    devices: tuple[str, ...] | None = None,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> AffineValidationResult:
    """Issue the random-read sweep on each zoo disk and fit (s, t, alpha)."""
    names = devices if devices is not None else tuple(sorted(HDD_ZOO))
    spec = sweep_spec(
        io_sizes=tuple(io_sizes),
        reads_per_size=reads_per_size,
        devices=names,
        seed=seed,
    )
    result = AffineValidationResult(io_sizes=tuple(io_sizes), reads_per_size=reads_per_size)
    for name, point in zip(names, run_sweep(spec, jobs=jobs, cache=cache)):
        result.fits[name] = fit_affine_model(point["mean_sizes"], point["mean_times"])
        _, s_true, t4k_true = HDD_ZOO[name]
        result.truth[name] = (s_true, t4k_true)
    return result
