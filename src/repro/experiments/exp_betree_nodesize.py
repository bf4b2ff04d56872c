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

from repro.analysis.fitting import fit_affine_overlay
from repro.experiments import report
from repro.experiments.common import NodeSizeResult, nodesize_sweep_point
from repro.experiments.devices import DEFAULT_HDD
from repro.runner import ResultCache, SweepSpec, run_sweep

DEFAULT_NODE_SIZES = (64 << 10, 256 << 10, 1 << 20, 4 << 20)


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
    """The E6 sweep: one Bε-tree ``nodesize_point`` per node size.

    Each point pre-fills the (empty-after-load) root buffer with one
    buffer fill of unmeasured inserts, then measures over enough further
    fills to cover flush cascades — Bε insert cost only exists as an
    amortized quantity.  ``max_inserts`` caps both windows.
    """
    return SweepSpec.make(
        "betree_nodesize",
        [
            nodesize_sweep_point(
                kind="betree",
                device=DEFAULT_HDD,
                device_fields=(("seed", seed + node_bytes % 97),),
                node_bytes=node_bytes,
                cache_bytes=cache_bytes,
                tree_fields=(("fanout", fanout),),
                n_entries=n_entries,
                universe=universe,
                n_queries=n_queries,
                warmup_queries=warmup_queries,
                prefill_units=1.0,
                max_prefill=max_inserts,
                insert_units=inserts_per_buffer_fill,
                min_inserts=3000,
                max_inserts=max_inserts,
                seed=seed,
            )
            for node_bytes in node_sizes
        ],
    )


def run(*, jobs: int = 1, cache: ResultCache | None = None, **params) -> NodeSizeResult:
    """Sweep node sizes over a freshly loaded Bε-tree on the default HDD;
    ``params`` are :func:`sweep_spec`'s."""
    args = {**sweep_spec.__kwdefaults__, **params}
    result = NodeSizeResult.of_rows(
        "Figure 3 (simulated): Bε-tree ms/op vs node size",
        args["node_sizes"],
        run_sweep(sweep_spec(**params), jobs=jobs, cache=cache),
        caption=(
            f"(N={args['n_entries']}, F={args['fanout']}, "
            f"M={report.format_bytes(args['cache_bytes'])})"
        ),
        log_y=True,
    )
    sizes = list(result.node_sizes)
    query = result.query_fit = fit_affine_overlay(
        sizes, [v / 1e3 for v in result.query_ms], kind="betree_query"
    )
    insert = result.insert_fit = fit_affine_overlay(
        sizes, [v / 1e3 for v in result.insert_ms], kind="betree_insert"
    )
    result.note = (
        f"Affine overlays (F=sqrt(B) shapes): query alpha="
        f"{query.alpha:.3g}, insert alpha={insert.alpha:.3g}."
    )
    return result
