"""E14 (extension) — read/write asymmetry and the optimal fanout.

Paper Section 3, motivating write amplification as a first-class metric:

    "with some storage technologies (e.g., NVMe) writes are more expensive
    than reads, and this has algorithmic consequences [7, 18, 19, 40]."

This experiment makes one such consequence concrete in the affine model:
for a mixed query/insert workload on a device whose writes cost ``w``
times its reads, the Bε-tree fanout that minimizes total cost *decreases*
as ``w`` grows — expensive writes push the design toward more aggressive
write-optimization (smaller ε).  Both the closed-form optimum and a
measured sweep on an asymmetric :class:`~repro.storage.ideal.AffineDevice`
are reported; the sweep is one node-size kernel point
(:func:`~repro.experiments.common.nodesize_point`) per (multiplier, fanout),
run on the sweep runner (``--jobs``, the result cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.experiments import report
from repro.experiments.common import nodesize_sweep_point
from repro.models.analysis import optimal_fanout_asymmetric
from repro.runner import ResultCache, SweepSpec, run_sweep
from repro.trees.sizing import EntryFormat

DEFAULT_MULTIPLIERS = (1.0, 2.0, 5.0, 10.0)
DEFAULT_FANOUTS = (2, 4, 8, 16, 32, 64)


@dataclass
class AsymmetryResult:
    """Model-optimal and measured-best fanout per write multiplier."""

    write_multipliers: tuple[float, ...]
    fanouts: tuple[int, ...]
    node_bytes: int
    model_optimal_fanout: list[float] = field(default_factory=list)
    measured_best_fanout: list[int] = field(default_factory=list)
    measured_cost_ms: list[dict[int, float]] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for i, w in enumerate(self.write_multipliers):
            costs = self.measured_cost_ms[i]
            rows.append(
                [
                    f"{w:g}x",
                    f"{self.model_optimal_fanout[i]:.1f}",
                    self.measured_best_fanout[i],
                    "  ".join(f"F{f}:{costs[f]:.2f}" for f in self.fanouts),
                ]
            )
        return report.render_table(
            f"Read/write asymmetry vs optimal fanout "
            f"(B={report.format_bytes(self.node_bytes)}, 50/50 query/insert mix)",
            ["write cost", "F* (model)", "F* (measured)", "measured ms/op by fanout"],
            rows,
            note=(
                "As writes get more expensive the optimal fanout falls: "
                "flush write traffic scales with F, query reads only "
                "improve logarithmically in it."
            ),
        )


def sweep_spec(
    *,
    write_multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS,
    fanouts: tuple[int, ...] = DEFAULT_FANOUTS,
    node_bytes: int = 256 << 10,
    alpha_per_byte: float = 2e-6,
    setup_seconds: float = 0.01,
    n_entries: int = 100_000,
    cache_bytes: int = 2 << 20,
    universe: int = 1 << 31,
    n_queries: int = 150,
    seed: int = 0,
) -> SweepSpec:
    """The E14 sweep: one Bε-tree ``nodesize_point`` per write multiplier
    and fanout, on an affine device whose writes cost that multiple.

    A point pre-fills its root buffer once (one amortization unit, which
    ``node_bytes`` never caps) and measures two more fills of inserts,
    3000 to 30 000, with no warm-up.
    """
    return SweepSpec.make(
        "asymmetry",
        [
            nodesize_sweep_point(
                kind="betree",
                device="affine",
                device_fields=(
                    ("alpha", alpha_per_byte),
                    ("capacity_bytes", 1 << 31),
                    ("setup_seconds", setup_seconds),
                    ("write_multiplier", w),
                ),
                node_bytes=node_bytes,
                cache_bytes=cache_bytes,
                tree_fields=(("fanout", fanout),),
                n_entries=n_entries,
                universe=universe,
                n_queries=n_queries,
                warmup_queries=0,
                prefill_units=1.0,
                max_prefill=node_bytes,
                insert_units=2.0,
                min_inserts=3000,
                max_inserts=30_000,
                seed=seed,
            )
            for w in write_multipliers
            for fanout in fanouts
        ],
    )


def run(*, jobs: int = 1, cache: ResultCache | None = None, **params) -> AsymmetryResult:
    """Sweep write multipliers x fanouts; report model and measured optima.
    ``params`` are :func:`sweep_spec`'s; a fanout's cost is the 50/50 mean
    of its query and insert ms/op."""
    args = {**sweep_spec.__kwdefaults__, **params}
    rows = iter(run_sweep(sweep_spec(**params), jobs=jobs, cache=cache))
    result = AsymmetryResult(
        write_multipliers=tuple(args["write_multipliers"]),
        fanouts=tuple(args["fanouts"]),
        node_bytes=args["node_bytes"],
    )
    fmt = EntryFormat()
    alpha_entry = args["alpha_per_byte"] * fmt.entry_bytes
    b_entries = fmt.leaf_capacity(args["node_bytes"])
    m_entries = args["cache_bytes"] // fmt.entry_bytes

    for w in result.write_multipliers:
        result.model_optimal_fanout.append(
            optimal_fanout_asymmetric(
                b_entries, alpha_entry, args["n_entries"], m_entries,
                write_cost_multiplier=w,
            )
        )
        costs = {
            fanout: 0.5 * row["query_ms"] + 0.5 * row["insert_ms"]
            for fanout, row in zip(result.fanouts, islice(rows, len(result.fanouts)))
        }
        result.measured_cost_ms.append(costs)
        result.measured_best_fanout.append(min(costs, key=costs.__getitem__))
    return result
