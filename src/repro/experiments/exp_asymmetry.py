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
are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import storage
from repro.experiments import report
from repro.experiments.common import build_load, measure_tree_ops
from repro.models.analysis import optimal_fanout_asymmetric
from repro.trees import build
from repro.trees.sizing import EntryFormat
from repro.workloads.generators import insert_stream

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


def run(
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
) -> AsymmetryResult:
    """Sweep write multipliers x fanouts; report model and measured optima."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    result = AsymmetryResult(
        write_multipliers=tuple(write_multipliers),
        fanouts=tuple(fanouts),
        node_bytes=node_bytes,
    )
    fmt = EntryFormat()
    alpha_entry = alpha_per_byte * fmt.entry_bytes
    b_entries = fmt.leaf_capacity(node_bytes)
    m_entries = cache_bytes // fmt.entry_bytes

    for w in write_multipliers:
        result.model_optimal_fanout.append(
            optimal_fanout_asymmetric(
                b_entries, alpha_entry, n_entries, m_entries,
                write_cost_multiplier=w,
            )
        )
        costs: dict[int, float] = {}
        for fanout in fanouts:
            device = storage.build(
                "affine",
                alpha=alpha_per_byte,
                setup_seconds=setup_seconds,
                capacity_bytes=1 << 31,
                write_multiplier=w,
            )
            tree = build(
                "betree", device, node_bytes=node_bytes, cache_bytes=cache_bytes,
                fanout=fanout,
            )
            tree.load(pairs)
            config = tree.config
            buffer_msgs = max(1, config.buffer_budget_bytes // config.fmt.message_bytes)
            tree.put_many(insert_stream(universe, buffer_msgs, seed=seed + 7))
            times = measure_tree_ops(
                tree, keys, universe,
                n_queries=n_queries,
                n_inserts=min(30_000, max(3000, 2 * buffer_msgs)),
                warmup_queries=0,
                seed=seed,
            )
            costs[fanout] = (
                0.5 * times.query_seconds_per_op + 0.5 * times.insert_seconds_per_op
            ) * 1e3
        result.measured_cost_ms.append(costs)
        result.measured_best_fanout.append(min(costs, key=costs.__getitem__))
    return result
