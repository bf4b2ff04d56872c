"""E4 — Table 3: analytical node-size sensitivity of B-trees vs Bε-trees.

Evaluates the paper's Table 3 cost functions over a node-size grid at a
concrete ``(alpha, N, M)``:

* B-tree insert/query: ``(1 + alpha*B) / log(B)`` — grows nearly linearly
  in ``B`` once ``B >> 1/alpha``.
* Bε-tree (F = sqrt(B)) insert: ``~(1 + alpha*B) / (sqrt(B) log B)`` —
  grows like ``sqrt(B)``.
* Bε-tree (F = sqrt(B)) query: ``~(1 + alpha*sqrt(B)) / log B``.

The rendered table includes each structure's cost *relative to its own
minimum* over the grid, which is the sensitivity claim in one number: the
B-tree's worst/best ratio is much larger than the Bε-tree's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments import report
from repro.models.analysis import (
    betree_insert_cost,
    betree_query_cost_optimized,
    btree_op_cost,
)

DEFAULT_NODE_ENTRIES = tuple(2**k for k in range(5, 21, 2))  # 32 .. 1M entries


@dataclass
class SensitivityResult:
    """Table 3 cost curves over the node-size grid."""

    node_entries: tuple[int, ...]
    alpha: float
    N: float
    M: float
    btree: list[float] = field(default_factory=list)
    betree_insert: list[float] = field(default_factory=list)
    betree_query: list[float] = field(default_factory=list)

    def sensitivity(self, series: list[float]) -> float:
        """max/min cost ratio over the swept grid."""
        return max(series) / min(series)

    def optimum_entries(self, series: list[float]) -> int:
        """Grid point minimizing a series."""
        return self.node_entries[min(range(len(series)), key=series.__getitem__)]

    def render(self) -> str:
        rows = []
        for i, b in enumerate(self.node_entries):
            rows.append(
                [
                    b,
                    f"{self.btree[i]:.3f}",
                    f"{self.betree_insert[i]:.4f}",
                    f"{self.betree_query[i]:.3f}",
                ]
            )
        note = (
            f"alpha={self.alpha:g}/entry, N={self.N:g}, M={self.M:g}.  "
            f"Sensitivity (max/min over grid): B-tree "
            f"{self.sensitivity(self.btree):.1f}x, Bε insert "
            f"{self.sensitivity(self.betree_insert):.1f}x, Bε query "
            f"{self.sensitivity(self.betree_query):.1f}x."
        )
        return report.render_table(
            "Table 3 (evaluated): affine per-op costs vs node size (entries)",
            ["B (entries)", "B-tree op", "Bε insert (F=√B)", "Bε query (F=√B)"],
            rows,
            note=note,
        )


def run(
    *,
    node_entries: tuple[int, ...] = DEFAULT_NODE_ENTRIES,
    alpha: float = 1e-4,
    N: float = 1e9,
    M: float = 1e6,
) -> SensitivityResult:
    """Evaluate the Table 3 formulas over the grid."""
    result = SensitivityResult(node_entries=tuple(node_entries), alpha=alpha, N=N, M=M)
    for b in node_entries:
        result.btree.append(btree_op_cost(b, alpha, N, M))
        f = math.sqrt(b)
        if f >= 2:
            result.betree_insert.append(betree_insert_cost(b, f, alpha, N, M))
            result.betree_query.append(betree_query_cost_optimized(b, f, alpha, N, M))
        else:  # degenerate tiny nodes: fall back to the B-tree cost
            result.betree_insert.append(btree_op_cost(b, alpha, N, M))
            result.betree_query.append(btree_op_cost(b, alpha, N, M))
    return result
