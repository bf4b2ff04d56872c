"""E10 — Corollaries 6, 7, 11, 12: optimal node sizes across alpha.

For a grid of hardware parameters ``alpha``:

* the numeric optimum of the B-tree per-op cost (Corollary 7) against its
  closed form ``1/(alpha * ln(1/alpha))`` and against the half-bandwidth
  point ``1/alpha`` (Corollary 6) — the optimum sits well *below* the
  half-bandwidth point, which is the paper's first explanation for small
  B-tree nodes;
* the Corollary 12 Bε-tree parameters ``F = 1/(alpha ln(1/alpha))``,
  ``B = F^2``, with the per-node query IO overhead of Corollary 11 and the
  insert speedup ``Theta(log(1/alpha))`` over the optimal B-tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.models.analysis import (
    betree_speedup_over_btree,
    btree_node_size_closed_form,
    corollary11_io_overhead,
    optimal_betree_params,
    optimal_btree_node_size,
)

DEFAULT_ALPHAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


@dataclass
class OptimaResult:
    """Closed-form vs numeric optima across the alpha grid."""

    alphas: tuple[float, ...]
    N: float
    M: float
    numeric_btree: list[float] = field(default_factory=list)
    closed_btree: list[float] = field(default_factory=list)
    betree_F: list[float] = field(default_factory=list)
    betree_B: list[float] = field(default_factory=list)
    query_overhead: list[float] = field(default_factory=list)
    insert_speedup: list[float] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for i, a in enumerate(self.alphas):
            rows.append(
                [
                    f"{a:g}",
                    f"{1/a:.3g}",
                    f"{self.numeric_btree[i]:.3g}",
                    f"{self.closed_btree[i]:.3g}",
                    f"{self.numeric_btree[i] * a:.3f}",
                    f"{self.betree_F[i]:.3g}",
                    f"{self.betree_B[i]:.3g}",
                    f"{self.query_overhead[i]:.3f}",
                    f"{self.insert_speedup[i]:.2f}",
                ]
            )
        return report.render_table(
            f"Corollaries 6/7/11/12: optima vs alpha (N={self.N:g}, M={self.M:g}; "
            "sizes in entries)",
            [
                "alpha",
                "1/a (half-bw)",
                "B* numeric",
                "B* closed",
                "B*/half-bw",
                "Bε F*",
                "Bε B*=F^2",
                "q overhead",
                "ins speedup",
            ],
            rows,
            note=(
                "B*/half-bw << 1: the optimal B-tree node is far below the "
                "half-bandwidth point (Cor. 7).  Bε B* ~ (B-tree B*)^2 in "
                "entries (Cor. 12); q overhead is Cor. 11's alpha*B/F+alpha*F "
                "per-level slack; ins speedup ~ ln(1/alpha)."
            ),
        )


def run(
    *,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    N: float = 1e9,
    M: float = 1e6,
) -> OptimaResult:
    """Evaluate the corollaries over the alpha grid."""
    result = OptimaResult(alphas=tuple(alphas), N=N, M=M)
    for a in alphas:
        x = optimal_btree_node_size(a)
        result.numeric_btree.append(x)
        result.closed_btree.append(btree_node_size_closed_form(a))
        F, B = optimal_betree_params(a)
        result.betree_F.append(F)
        result.betree_B.append(B)
        result.query_overhead.append(corollary11_io_overhead(B, F, a))
        result.insert_speedup.append(betree_speedup_over_btree(a, N, M))
    return result
