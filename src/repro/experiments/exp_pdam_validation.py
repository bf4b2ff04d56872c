"""E1/E2 — Figure 1 and Table 1: validating the PDAM on simulated SSDs.

Protocol (paper Section 4.1, scaled):

    "we spawned p = 1, 2, 4, 8, ..., 64 OS threads that each read 10 GiB of
    data.  We selected ... random logical block address (LBA) offsets and
    read 64 KiB starting from each."

Here each closed-loop client reads ``bytes_per_thread`` (default 8 MiB —
a 1280x scale-down; completion times scale linearly so the flat-then-
linear shape and the fitted ``P`` are unaffected).  We add intermediate
thread counts to the paper's powers of two so the segmented regression can
place the knee precisely.

Outputs: the Figure 1 series (time vs p per device) and the Table 1 rows
(fitted P, saturation throughput ∝PB, R²).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import storage
from repro.analysis.fitting import PDAMFit, fit_pdam_model
from repro.experiments import report
from repro.tuning.probe import closed_loop_point

DEFAULT_THREADS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)


@dataclass
class PDAMValidationResult:
    """Figure 1 series and Table 1 fits for every device."""

    threads: tuple[int, ...]
    bytes_per_thread: int
    times: dict[str, list[float]] = field(default_factory=dict)
    fits: dict[str, PDAMFit] = field(default_factory=dict)
    expected_parallelism: dict[str, float] = field(default_factory=dict)

    def table1_rows(self) -> list[list[object]]:
        """Rows shaped like the paper's Table 1 (plus ground truth)."""
        rows = []
        for name, fit in self.fits.items():
            rows.append(
                [
                    name,
                    f"{fit.parallelism:.1f}",
                    f"{self.expected_parallelism[name]:.1f}",
                    f"{fit.saturation_bytes_per_second / 1e6:.0f}",
                    f"{fit.r2:.4f}",
                ]
            )
        return rows

    def render(self) -> str:
        """Figure 1 series plus the Table 1 fit table."""
        fig = report.render_series(
            "Figure 1 (simulated): time to read "
            f"{report.format_bytes(self.bytes_per_thread)} per thread",
            "p",
            list(self.threads),
            {name: times for name, times in self.times.items()},
            note=(
                "DAM predicts time growing linearly from p=1; instead it is "
                "flat until p ~ P (the knee softens with bank conflicts)."
            ),
        )
        table = report.render_table(
            "Table 1 (simulated): PDAM fits via segmented linear regression",
            ["device", "P (fit)", "P (geometry)", "~PB (MB/s)", "R^2"],
            self.table1_rows(),
            note="P (geometry) is the device model's saturation/single-stream ratio.",
        )
        return fig + "\n\n" + table

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            "Figure 1 (simulated): completion time vs threads",
            list(self.threads),
            {name: times for name, times in self.times.items()},
            log_x=True,
            log_y=True,
            x_label="p threads",
            y_label="seconds",
        )

    def dam_overestimate_factor(self, device: str) -> float:
        """How badly the DAM over-predicts the largest-p completion time.

        The DAM (serial unit-cost IOs) predicts time growing linearly from
        p=1; the ratio of that prediction to the measured time at max p is
        ~P, the paper's "overestimates ... by roughly P".
        """
        times = self.times[device]
        dam_prediction = times[0] * self.threads[-1] / self.threads[0]
        return dam_prediction / times[-1]


def run(
    *,
    threads: tuple[int, ...] = DEFAULT_THREADS,
    bytes_per_thread: int = 8 << 20,
    request_bytes: int = 64 << 10,
    devices: tuple[str, ...] | None = None,
    write_fraction: float = 0.0,
    seed: int = 0,
) -> PDAMValidationResult:
    """Run the thread-scaling benchmark on each zoo SSD and fit it.

    ``write_fraction`` mixes writes into the request stream (the paper's
    Definition 1 allows any combination of reads and writes per step; the
    Figure 1 benchmark itself is read-only).  Writes saturate the dies at
    the slower program rate, so the fitted ``PB`` falls as the fraction
    rises while the flat-then-linear shape is preserved.
    """
    zoo_ssds = (name for name, (kind, _) in storage.ZOO.items() if kind == "ssd")
    names = devices if devices is not None else tuple(sorted(zoo_ssds))
    result = PDAMValidationResult(threads=tuple(threads), bytes_per_thread=bytes_per_thread)
    n_requests = max(1, bytes_per_thread // request_bytes)
    for name in names:
        times = []
        for p in threads:
            ssd = storage.build(name)
            times.append(
                closed_loop_point(
                    ssd, p, n_requests, request_bytes,
                    seed=seed + p, write_fraction=write_fraction,
                )
            )
        result.times[name] = times
        result.fits[name] = fit_pdam_model(
            list(threads), times, bytes_per_thread=bytes_per_thread
        )
        result.expected_parallelism[name] = ssd.geometry.expected_pdam_parallelism
    return result
