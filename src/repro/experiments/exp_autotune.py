"""E17 — autotuner convergence across the device zoo.

The closed-loop claim of :mod:`repro.tuning`: starting from a node size a
factor of 16 away from each device's sweep optimum, one
probe -> fit -> solve -> rebuild pass lands within 2x of the optimum that
an exhaustive per-device node-size sweep finds — on *every* device in the
zoo, HDDs and SSDs and affine extremes alike.

The foil is the static-configuration check: over the same fitted device
models at the paper's reference scale (``N/M = 1000``, where tree height
actually varies with node size), *no* single node size stays within 2x of
optimal on all devices — the alpha spread of the zoo (about three decades)
makes per-device tuning necessary, not just nice (Figure 2's point,
stretched across devices).

Protocol per device:

1. sweep ``node_sizes``, bulk-loading a fresh B-tree per size and
   measuring warm random point queries (per-op simulated seconds);
2. build the tree at a deliberately bad size (sweep optimum shifted 16x,
   direction chosen to stay inside the sweep range);
3. run one :mod:`repro.tuning` pass on the live device: calibrate,
   solve, bulk-rebuild; measure the tuned tree the same way;
4. report ``tuned / sweep-best`` — the convergence ratio.

The calibration round-trip on ideal devices (alpha and P recovered within
5%, R² >= 0.98) is covered by ``tests/tuning/test_calibrate.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from typing import Any

from repro import storage
from repro.experiments import report
from repro.experiments.common import build_load, check_devices, measure_tree_ops
from repro.models.analysis import btree_op_cost
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep
from repro.storage.registry import HDD_ZOO
from repro.trees import build
from repro.trees.sizing import EntryFormat
from repro.tuning import DeviceProfile, calibrate_device, rebuild_tree, solve

DEFAULT_NODE_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)

#: The zoo the tuner is exercised against: every Table 2 disk, a SATA and an
#: NVMe SSD, and the two affine extremes -- three decades of alpha, a range
#: wide enough that no static node size can be near-optimal everywhere.
DEFAULT_DEVICES = (
    *HDD_ZOO, "samsung-860-pro-sim", "samsung-970-pro-sim",
    "affine-lowalpha-sim", "affine-highalpha-sim",
)

#: Reference scale for the static-config impossibility check: a big-data
#: regime where the tree is far bigger than the cache, so node size moves
#: the uncached height (2-3 levels) — not the scaled-down loads the
#: measured sweep can afford, whose height clamps at one uncached level.
REFERENCE_N_OVER_M = 1e6
REFERENCE_M_ENTRIES = 1e6


@dataclass
class DeviceTuneRow:
    """One device's sweep, bad start, and tuned outcome."""

    name: str
    profile: DeviceProfile
    sweep_ms: list[float]
    sweep_best_bytes: int
    sweep_best_ms: float
    start_bytes: int
    start_ms: float
    tuned_bytes: int
    tuned_ms: float

    @property
    def convergence_ratio(self) -> float:
        """Tuned per-op time over the sweep optimum (the 2x criterion)."""
        return self.tuned_ms / self.sweep_best_ms

    @property
    def start_ratio(self) -> float:
        """How bad the deliberately bad start was, for contrast."""
        return self.start_ms / self.sweep_best_ms


@dataclass
class AutotuneResult:
    """E17: per-device convergence plus the static-config foil."""

    node_sizes: tuple[int, ...]
    n_entries: int
    cache_bytes: int
    rows: list[DeviceTuneRow] = field(default_factory=list)
    best_static_bytes: int | None = None
    best_static_worst_ratio: float | None = None

    @property
    def max_convergence_ratio(self) -> float:
        """Worst tuned/optimal ratio across the zoo (must be <= 2)."""
        return max(row.convergence_ratio for row in self.rows)

    def render(self) -> str:
        columns = [
            "device", "alpha/entry", "P", "sweep best", "best ms/op",
            "start", "start ms/op", "tuned", "tuned ms/op", "ratio",
        ]
        fmt = EntryFormat()
        table_rows = []
        for row in self.rows:
            pdam = row.profile.pdam
            table_rows.append([
                row.name,
                f"{row.profile.alpha_per_entry(fmt.entry_bytes):.3g}",
                f"{pdam.parallelism:.1f}" if pdam is not None else "-",
                report.format_bytes(row.sweep_best_bytes),
                f"{row.sweep_best_ms:.4g}",
                report.format_bytes(row.start_bytes),
                f"{row.start_ms:.4g}",
                report.format_bytes(row.tuned_bytes),
                f"{row.tuned_ms:.4g}",
                f"{row.convergence_ratio:.2f}",
            ])
        note = (
            f"Worst tuned/optimal ratio: {self.max_convergence_ratio:.2f} "
            f"(criterion: <= 2 on every device)."
        )
        if self.best_static_worst_ratio is not None:
            note += (
                f"  Static foil at N/M={REFERENCE_N_OVER_M:.0f}: the best "
                f"single node size ({report.format_bytes(self.best_static_bytes)}) "
                f"is {self.best_static_worst_ratio:.2f}x off optimal on its "
                f"worst device (criterion: > 2, so no static config suffices)."
            )
        return report.render_table(
            f"E17: autotune convergence, 16x-off start "
            f"(N={self.n_entries}, M={report.format_bytes(self.cache_bytes)})",
            columns,
            table_rows,
            note=note,
        )


def _measure_query_ms(device, node_bytes, pairs, keys, universe, *,
                      cache_bytes, n_queries, warmup_queries, seed):
    """Bulk-load a fresh B-tree at ``node_bytes`` and time warm queries."""
    tree = build("btree", device, node_bytes=node_bytes, cache_bytes=cache_bytes)
    tree.load(pairs)
    times = measure_tree_ops(
        tree, keys, universe, n_queries=n_queries, n_inserts=1,
        warmup_queries=warmup_queries, seed=seed,
    )
    return tree, times.query_seconds_per_op * 1e3


def _bad_start(best_bytes: int, node_sizes: tuple[int, ...]) -> int:
    """Shift the sweep optimum 16x, staying inside the sweep range."""
    lo, hi = min(node_sizes), max(node_sizes)
    candidate = best_bytes // 16
    if candidate < lo:
        candidate = best_bytes * 16
    return max(lo, min(hi, candidate))


def static_config_worst_ratios(
    profiles: dict[str, DeviceProfile],
    *,
    fmt: EntryFormat = EntryFormat(),
    n_grid: int = 160,
) -> dict[float, float]:
    """Model-predicted worst-case ratio of each static node size (entries).

    For every candidate node size ``B`` (log grid, 4 entries .. 1M entries)
    and every fitted device model, compute ``cost(B) / min_B cost`` at the
    reference scale; return ``B -> max over devices`` of that ratio.  The
    impossibility claim is ``min over B of max over devices > 2``.
    """
    N = REFERENCE_N_OVER_M * REFERENCE_M_ENTRIES
    M = REFERENCE_M_ENTRIES
    grid = [
        math.exp(math.log(4.0) + i * (math.log(1e6) - math.log(4.0)) / (n_grid - 1))
        for i in range(n_grid)
    ]
    worst: dict[float, float] = {b: 0.0 for b in grid}
    for profile in profiles.values():
        alpha_e = profile.alpha_per_entry(fmt.entry_bytes)
        costs = {b: btree_op_cost(b, alpha_e, N, M) for b in grid}
        best = min(costs.values())
        for b, c in costs.items():
            worst[b] = max(worst[b], c / best)
    return worst


@register("autotune_device")
def measure_device(
    *,
    device: str,
    node_sizes: tuple[int, ...],
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, Any]:
    """The per-device E17 protocol: sweep, mis-configure, tune, re-measure.

    Builds only the device it measures (device state — clock, RNG, head
    position — carries across the sweep/bad-start/tuned phases) and returns a
    picklable dict of every :class:`DeviceTuneRow` field plus the fitted
    :class:`~repro.tuning.DeviceProfile`, which the cross-device
    static-configuration foil needs once all points are in.
    """
    fmt = EntryFormat()
    pairs, keys = build_load(n_entries, universe, seed=seed)
    zoo_device = storage.build(device, seed=seed)
    sweep_ms = []
    for node_bytes in node_sizes:
        _, ms = _measure_query_ms(
            zoo_device, node_bytes, pairs, keys, universe,
            cache_bytes=cache_bytes, n_queries=n_queries,
            warmup_queries=warmup_queries, seed=seed,
        )
        sweep_ms.append(ms)
    best_idx = min(range(len(node_sizes)), key=sweep_ms.__getitem__)
    best_bytes, best_ms = node_sizes[best_idx], sweep_ms[best_idx]

    start_bytes = _bad_start(best_bytes, node_sizes)
    bad_tree, start_ms = _measure_query_ms(
        zoo_device, start_bytes, pairs, keys, universe,
        cache_bytes=cache_bytes, n_queries=n_queries,
        warmup_queries=warmup_queries, seed=seed + 1,
    )

    profile = calibrate_device(zoo_device, seed=seed)
    rec = solve(profile, n_entries=n_entries, cache_bytes=cache_bytes, fmt=fmt)
    tuned_tree, _ = rebuild_tree(
        bad_tree,
        lambda: build(
            "btree", zoo_device, node_bytes=rec.node_bytes, cache_bytes=cache_bytes
        ),
    )
    times = measure_tree_ops(
        tuned_tree, keys, universe, n_queries=n_queries, n_inserts=1,
        warmup_queries=warmup_queries, seed=seed + 2,
    )
    return {
        "name": device,
        "profile": profile,
        "sweep_ms": sweep_ms,
        "sweep_best_bytes": best_bytes,
        "sweep_best_ms": best_ms,
        "start_bytes": start_bytes,
        "start_ms": start_ms,
        "tuned_bytes": rec.node_bytes,
        "tuned_ms": times.query_seconds_per_op * 1e3,
    }


def sweep_spec(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_entries: int = 600_000,
    cache_bytes: int = 16 << 20,
    universe: int = 1 << 31,
    n_queries: int = 150,
    warmup_queries: int = 200,
    devices: tuple[str, ...] | None = None,
    seed: int = 0,
) -> SweepSpec:
    """The E17 sweep: one ``autotune_device`` point per zoo device."""
    names = check_devices(devices if devices is not None else DEFAULT_DEVICES, storage.ZOO)
    return SweepSpec.make(
        "autotune",
        [
            SweepPoint.make(
                "autotune_device",
                device=name,
                node_sizes=tuple(node_sizes),
                n_entries=n_entries,
                cache_bytes=cache_bytes,
                universe=universe,
                n_queries=n_queries,
                warmup_queries=warmup_queries,
                seed=seed,
            )
            for name in names
        ],
    )


def run(*, jobs: int = 1, cache: ResultCache | None = None, **params) -> AutotuneResult:
    """Sweep, mis-configure, tune, and compare on every zoo device;
    ``params`` are :func:`sweep_spec`'s."""
    args = {**sweep_spec.__kwdefaults__, **params}
    fmt = EntryFormat()
    result = AutotuneResult(
        node_sizes=tuple(args["node_sizes"]),
        n_entries=args["n_entries"],
        cache_bytes=args["cache_bytes"],
    )
    profiles: dict[str, DeviceProfile] = {}
    for row in run_sweep(sweep_spec(**params), jobs=jobs, cache=cache):
        profiles[row["name"]] = row["profile"]
        result.rows.append(DeviceTuneRow(**row))

    if len(profiles) >= 2:
        worst = static_config_worst_ratios(profiles, fmt=fmt)
        best_b = min(worst, key=worst.__getitem__)
        result.best_static_bytes = fmt.leaf_bytes(max(2, round(best_b)))
        result.best_static_worst_ratio = worst[best_b]
    return result
