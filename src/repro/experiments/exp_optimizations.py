"""E9 — Theorem 9 ablation: where does the optimized query cost come from?

Three layouts of the same Bε-tree (``BeTreeConfig.layout``), measured on
the same workload:

1. ``whole-node`` — Lemma 8 tree, whole-node IOs: per level ``1 + alpha*B``.
2. ``segments``   — per-child segments and basement chunks, but each node's
   pivots still live in the node: per level *two* IOs,
   ``2 + alpha*(B/F + F)``.
3. ``theorem9``   — segments + pivots-in-parent: per level *one* IO,
   ``1 + alpha*(B/F + F)``.

The paper's claim: the DAM cannot see any of this (all variants do the
same number of node visits), but in the affine model the optimization is
asymptotic — it is what lets Corollary 12's tree match B-tree queries.
Inserts keep Lemma 8's cost up to constants: the segmented variants flush
B/F messages at a time and write only the segments a flush changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import nodesize_sweep_point
from repro.experiments.devices import DEFAULT_HDD
from repro.runner import ResultCache, SweepSpec, run_sweep

#: The rows, in ``BeTreeConfig.layout`` terms; ``naive`` is ``whole-node``.
VARIANTS = {"naive": "whole-node", "segments": "segments", "theorem9": "theorem9"}


@dataclass
class Theorem9AblationResult:
    """Per-variant query and insert times."""

    node_bytes: int
    fanout: int
    n_entries: int
    cache_bytes: int
    query_ms: dict[str, float] = field(default_factory=dict)
    insert_ms: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [v, f"{self.query_ms[v]:.3f}", f"{self.insert_ms[v]:.4f}"]
            for v in VARIANTS
        ]
        return report.render_table(
            f"Theorem 9 ablation (B={report.format_bytes(self.node_bytes)}, "
            f"F={self.fanout}, N={self.n_entries}, "
            f"M={report.format_bytes(self.cache_bytes)})",
            ["variant", "query (ms/op)", "insert (ms/op)"],
            rows,
            note=(
                "naive reads 1+aB per level; segments reads 2+a(B/F+F); "
                "theorem9 reads 1+a(B/F+F).  Inserts flush B/F messages at "
                "a time in the segmented variants, writing only the segments "
                "a flush changes."
            ),
        )

    @property
    def query_speedup(self) -> float:
        """Query speedup of the full Theorem 9 tree over the naive tree."""
        return self.query_ms["naive"] / self.query_ms["theorem9"]


def sweep_spec(
    *,
    node_bytes: int = 1 << 20,
    fanout: int = 16,
    n_entries: int = 200_000,
    cache_bytes: int = 64 << 10,
    universe: int = 1 << 31,
    n_queries: int = 300,
    n_inserts: int = 30_000,
    seed: int = 0,
) -> SweepSpec:
    """The E9 sweep: one Bε-tree ``nodesize_point`` per layout, in
    :data:`VARIANTS` order, on one disk.

    The cache is deliberately tiny (64 KiB default): Theorem 9's advantage
    is about per-level *IO counts and sizes* in the uncached regime, and a
    warm cache would hide the second (pivot-area) IO of the ``segments``
    layout — real pivot arrays are small and hot.  It is smaller than one
    root segment, but an insert appends to its segment without reading the
    segment back, so the root's buffer is read once per flush out of it, not
    paged per insert.  The root buffer is pre-filled (one amortization unit) before measuring so the lazy naive
    tree cannot defer its flush work past the ``n_inserts`` window.
    """
    return SweepSpec.make(
        "theorem9",
        [
            nodesize_sweep_point(
                kind="betree", device=DEFAULT_HDD, device_fields=(("seed", seed),),
                node_bytes=node_bytes, cache_bytes=cache_bytes,
                tree_fields=(("fanout", fanout), ("layout", layout)),
                n_entries=n_entries, universe=universe, n_queries=n_queries,
                warmup_queries=200, prefill_units=1.0, max_prefill=node_bytes,
                min_inserts=n_inserts, max_inserts=n_inserts, seed=seed,
            )
            for layout in VARIANTS.values()
        ],
    )


def run(*, jobs: int = 1, cache: ResultCache | None = None, **params) -> Theorem9AblationResult:
    """Measure every layout on identical workloads; ``params`` are
    :func:`sweep_spec`'s."""
    args = {**sweep_spec.__kwdefaults__, **params}
    rows = run_sweep(sweep_spec(**params), jobs=jobs, cache=cache)
    return Theorem9AblationResult(
        **{name: args[name] for name in ("node_bytes", "fanout", "n_entries", "cache_bytes")},
        query_ms={v: row["query_ms"] for v, row in zip(VARIANTS, rows)},
        insert_ms={v: row["insert_ms"] for v, row in zip(VARIANTS, rows)},
    )
