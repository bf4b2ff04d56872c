"""E6 — Figure 3: Bε-tree node-size sensitivity on a simulated HDD.

Paper protocol (Section 7, TokuDB with compression off): same load and
machine as Figure 2, sweeping node sizes 64 KiB to 4 MiB with the fanout
fixed near TokuDB's target of 16.

Expected shape (paper): much flatter than the B-tree.  "The optimal node
size is around 512 KiB for queries and 4 MiB for inserts.  In both cases,
the next few larger node sizes decrease performance, but only slightly
compared to the BerkeleyDB results."

Inserts are measured over a much longer stream than the paper's per-size
op count: Bε-tree insert cost is amortized over flush cascades, so the
measured phase must cover several root-buffer fills (see DESIGN.md).  The
tree here is the Theorem 9 (TokuDB-like, basement-node) variant, matching
the system the paper measured; the naive whole-node tree appears in the
E9 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fitting import OverlayFit, fit_affine_overlay
from repro.experiments import report
from repro.experiments.common import build_load, measure_tree_ops
from repro.experiments.devices import default_hdd
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep
from repro.trees import build
from repro.workloads.generators import insert_stream

DEFAULT_NODE_SIZES = (64 << 10, 256 << 10, 1 << 20, 4 << 20)


@dataclass
class BeTreeNodeSizeResult:
    """Per-node-size op times plus affine overlay fits."""

    node_sizes: tuple[int, ...]
    n_entries: int
    cache_bytes: int
    fanout: int
    query_ms: list[float] = field(default_factory=list)
    insert_ms: list[float] = field(default_factory=list)
    query_fit: OverlayFit | None = None
    insert_fit: OverlayFit | None = None

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.node_sizes]
        note = None
        if self.query_fit is not None and self.insert_fit is not None:
            note = (
                f"Affine overlays (F=sqrt(B) shapes): query alpha="
                f"{self.query_fit.alpha:.3g}, insert alpha={self.insert_fit.alpha:.3g}."
            )
        return report.render_series(
            f"Figure 3 (simulated): Bε-tree ms/op vs node size "
            f"(N={self.n_entries}, F={self.fanout}, "
            f"M={report.format_bytes(self.cache_bytes)})",
            "node size",
            labels,
            {
                "query (ms/op)": self.query_ms,
                "insert (ms/op)": self.insert_ms,
            },
            note=note,
        )

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            "Figure 3 (simulated): Bε-tree ms/op vs node size",
            list(self.node_sizes),
            {"query": self.query_ms, "insert": self.insert_ms},
            log_x=True,
            log_y=True,
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

    def sensitivity(self, series: str = "query") -> float:
        """max/min ratio of a series — the 'how V-shaped is it' metric."""
        values = self.query_ms if series == "query" else self.insert_ms
        return max(values) / min(values)


@register("betree_nodesize_point")
def betree_nodesize_point(
    *,
    node_bytes: int,
    n_entries: int,
    cache_bytes: int,
    fanout: int,
    universe: int,
    n_queries: int,
    inserts_per_buffer_fill: float,
    max_inserts: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, float]:
    """Load a fresh Bε-tree at one node size; prefill the root buffer, measure."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    device = default_hdd(seed=seed + node_bytes % 97)
    tree = build(
        "betree", device, node_bytes=node_bytes, cache_bytes=cache_bytes, fanout=fanout
    )
    tree.load(pairs)
    # Pre-fill the (empty-after-load) root buffer with unmeasured inserts,
    # then measure over enough further inserts to cover flush cascades —
    # Bε insert cost only exists as an amortized quantity.
    config = tree.config
    buffer_msgs = config.buffer_budget_bytes // config.fmt.message_bytes
    tree.put_many(insert_stream(universe, min(buffer_msgs, max_inserts), seed=seed + 7))
    n_inserts = min(max_inserts, max(3000, int(inserts_per_buffer_fill * buffer_msgs)))
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
    fanout: int = 16,
    universe: int = 1 << 31,
    n_queries: int = 300,
    inserts_per_buffer_fill: float = 4.0,
    max_inserts: int = 100_000,
    warmup_queries: int = 200,
    seed: int = 0,
) -> SweepSpec:
    """The E6 sweep: one ``betree_nodesize_point`` per node size."""
    return SweepSpec.make(
        "betree_nodesize",
        [
            SweepPoint.make(
                "betree_nodesize_point",
                node_bytes=node_bytes,
                n_entries=n_entries,
                cache_bytes=cache_bytes,
                fanout=fanout,
                universe=universe,
                n_queries=n_queries,
                inserts_per_buffer_fill=inserts_per_buffer_fill,
                max_inserts=max_inserts,
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
    fanout: int = 16,
    universe: int = 1 << 31,
    n_queries: int = 300,
    inserts_per_buffer_fill: float = 4.0,
    max_inserts: int = 100_000,
    warmup_queries: int = 200,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> BeTreeNodeSizeResult:
    """Sweep node sizes over a freshly loaded Bε-tree on the default HDD."""
    spec = sweep_spec(
        node_sizes=tuple(node_sizes),
        n_entries=n_entries,
        cache_bytes=cache_bytes,
        fanout=fanout,
        universe=universe,
        n_queries=n_queries,
        inserts_per_buffer_fill=inserts_per_buffer_fill,
        max_inserts=max_inserts,
        warmup_queries=warmup_queries,
        seed=seed,
    )
    result = BeTreeNodeSizeResult(
        node_sizes=tuple(node_sizes),
        n_entries=n_entries,
        cache_bytes=cache_bytes,
        fanout=fanout,
    )
    for point in run_sweep(spec, jobs=jobs, cache=cache):
        result.query_ms.append(point["query_ms"])
        result.insert_ms.append(point["insert_ms"])
    result.query_fit = fit_affine_overlay(
        list(node_sizes), [v / 1e3 for v in result.query_ms], kind="betree_query"
    )
    result.insert_fit = fit_affine_overlay(
        list(node_sizes), [v / 1e3 for v in result.insert_ms], kind="betree_insert"
    )
    return result
