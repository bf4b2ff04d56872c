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

from repro.analysis.fitting import fit_affine_overlay
from repro.experiments import report
from repro.experiments.common import NodeSizeResult, nodesize_sweep_point
from repro.experiments.devices import DEFAULT_HDD
from repro.runner import ResultCache, SweepSpec, run_sweep

DEFAULT_NODE_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)


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
    """The E5 sweep: one B-tree ``nodesize_point`` per node size, each on
    a disk seeded by its size."""
    return SweepSpec.make(
        "btree_nodesize",
        [
            nodesize_sweep_point(
                kind="btree",
                device=DEFAULT_HDD,
                device_fields=(("seed", seed + node_bytes % 97),),
                node_bytes=node_bytes,
                cache_bytes=cache_bytes,
                n_entries=n_entries,
                universe=universe,
                n_queries=n_queries,
                warmup_queries=warmup_queries,
                min_inserts=n_inserts,
                max_inserts=n_inserts,
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
) -> NodeSizeResult:
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
    result = NodeSizeResult.of_rows(
        "Figure 2 (simulated): B-tree ms/op vs node size",
        node_sizes,
        run_sweep(spec, jobs=jobs, cache=cache),
        caption=f"(N={n_entries}, M={report.format_bytes(cache_bytes)})",
    )
    sizes = list(result.node_sizes)
    query = result.query_fit = fit_affine_overlay(
        sizes, [v / 1e3 for v in result.query_ms], kind="btree"
    )
    insert = result.insert_fit = fit_affine_overlay(
        sizes, [v / 1e3 for v in result.insert_ms], kind="btree"
    )
    result.extra["query affine fit"] = [float(v) * 1e3 for v in query.predict(sizes)]
    result.note = (
        f"Affine overlay: query alpha={query.alpha:.3g}/byte "
        f"(RMS {query.rms * 1e3:.2g} ms), insert "
        f"alpha={insert.alpha:.3g}/byte "
        f"(RMS {insert.rms * 1e3:.2g} ms)."
    )
    return result
