"""E5 — Figure 2: B-tree node-size sensitivity on a simulated HDD.

Paper protocol (Section 7, BerkeleyDB): load 16 GB, cap RAM at 4 GiB, then
run random queries and random inserts while sweeping the node size from
4 KiB to 1 MiB.  Scaled here to ~32 MiB of data with an 8 MiB cache (same
1:4 cache ratio).

Expected shape (paper): per-op cost is flat up to the optimum (~64 KiB on
their disk), then "the insert and query costs start increasing roughly
linearly with the node size, as predicted."  The affine overlay line fits
``scale * (1 + alpha*B) / ln(B+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fitting import OverlayFit, fit_affine_overlay
from repro.experiments import report
from repro.experiments.common import build_load, measure_tree_ops
from repro.experiments.devices import default_hdd
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep
from repro.trees import build

DEFAULT_NODE_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)


@dataclass
class BTreeNodeSizeResult:
    """Per-node-size op times plus the affine overlay fits."""

    node_sizes: tuple[int, ...]
    n_entries: int
    cache_bytes: int
    query_ms: list[float] = field(default_factory=list)
    insert_ms: list[float] = field(default_factory=list)
    query_fit: OverlayFit | None = None
    insert_fit: OverlayFit | None = None

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.node_sizes]
        series: dict[str, list[float]] = {
            "query (ms/op)": self.query_ms,
            "insert (ms/op)": self.insert_ms,
        }
        if self.query_fit is not None:
            series["query affine fit"] = [
                float(v) * 1e3 for v in self.query_fit.predict(list(self.node_sizes))
            ]
        note = None
        if self.query_fit is not None and self.insert_fit is not None:
            note = (
                f"Affine overlay: query alpha={self.query_fit.alpha:.3g}/byte "
                f"(RMS {self.query_fit.rms * 1e3:.2g} ms), insert "
                f"alpha={self.insert_fit.alpha:.3g}/byte "
                f"(RMS {self.insert_fit.rms * 1e3:.2g} ms)."
            )
        return report.render_series(
            f"Figure 2 (simulated): B-tree ms/op vs node size "
            f"(N={self.n_entries}, M={report.format_bytes(self.cache_bytes)})",
            "node size",
            labels,
            series,
            note=note,
        )

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            "Figure 2 (simulated): B-tree ms/op vs node size",
            list(self.node_sizes),
            {"query": self.query_ms, "insert": self.insert_ms},
            log_x=True,
            x_label="node bytes",
            y_label="ms/op",
        )

    @property
    def best_query_node(self) -> int:
        """Node size minimizing query time."""
        return self.node_sizes[min(range(len(self.query_ms)), key=self.query_ms.__getitem__)]

    @property
    def best_insert_node(self) -> int:
        """Node size minimizing insert time."""
        return self.node_sizes[min(range(len(self.insert_ms)), key=self.insert_ms.__getitem__)]


@register("btree_nodesize_point")
def btree_nodesize_point(
    *,
    node_bytes: int,
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, float]:
    """Load a fresh B-tree at one node size on the default HDD; measure."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    device = default_hdd(seed=seed + node_bytes % 97)
    tree = build("btree", device, node_bytes=node_bytes, cache_bytes=cache_bytes)
    tree.load(pairs)
    times = measure_tree_ops(
        tree,
        keys,
        universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        seed=seed,
    )
    return {
        "query_ms": times.query_seconds_per_op * 1e3,
        "insert_ms": times.insert_seconds_per_op * 1e3,
    }


def sweep_spec(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_entries: int = 300_000,
    cache_bytes: int = 8 << 20,
    universe: int = 1 << 31,
    n_queries: int = 400,
    n_inserts: int = 400,
    warmup_queries: int = 200,
    seed: int = 0,
) -> SweepSpec:
    """The E5 sweep: one ``btree_nodesize_point`` per node size."""
    return SweepSpec.make(
        "btree_nodesize",
        [
            SweepPoint.make(
                "btree_nodesize_point",
                node_bytes=node_bytes,
                n_entries=n_entries,
                cache_bytes=cache_bytes,
                universe=universe,
                n_queries=n_queries,
                n_inserts=n_inserts,
                warmup_queries=warmup_queries,
                seed=seed,
            )
            for node_bytes in node_sizes
        ],
    )


def run(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_entries: int = 300_000,
    cache_bytes: int = 8 << 20,
    universe: int = 1 << 31,
    n_queries: int = 400,
    n_inserts: int = 400,
    warmup_queries: int = 200,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> BTreeNodeSizeResult:
    """Sweep node sizes over a freshly loaded B-tree on the default HDD."""
    spec = sweep_spec(
        node_sizes=tuple(node_sizes),
        n_entries=n_entries,
        cache_bytes=cache_bytes,
        universe=universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        seed=seed,
    )
    result = BTreeNodeSizeResult(
        node_sizes=tuple(node_sizes), n_entries=n_entries, cache_bytes=cache_bytes
    )
    for point in run_sweep(spec, jobs=jobs, cache=cache):
        result.query_ms.append(point["query_ms"])
        result.insert_ms.append(point["insert_ms"])
    result.query_fit = fit_affine_overlay(
        list(node_sizes), [v / 1e3 for v in result.query_ms], kind="btree"
    )
    result.insert_fit = fit_affine_overlay(
        list(node_sizes), [v / 1e3 for v in result.insert_ms], kind="btree"
    )
    return result
