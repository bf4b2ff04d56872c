"""E9 — Theorem 9 ablation: where does the optimized query cost come from?

Three configurations of the same Bε-tree, measured on the same workload:

1. ``naive``      — Lemma 8 tree, whole-node IOs: per level ``1 + alpha*B``.
2. ``segments``   — per-child segments and basement chunks, but each node's
   pivots still live in the node: per level *two* IOs,
   ``2 + alpha*(B/F + F)``.
3. ``theorem9``   — segments + pivots-in-parent: per level *one* IO,
   ``1 + alpha*(B/F + F)``.

The paper's claim: the DAM cannot see any of this (all variants do the
same number of node visits), but in the affine model the optimization is
asymptotic — it is what lets Corollary 12's tree match B-tree queries.
Insert costs should be roughly unchanged across variants (flushes move
whole nodes regardless).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import build_load, measure_tree_ops
from repro.experiments.devices import default_hdd
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTree, BeTreeConfig, OptimizedBeTree
from repro.workloads.generators import insert_stream

VARIANTS = ("naive", "segments", "theorem9")


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
                "theorem9 reads 1+a(B/F+F).  Inserts move whole nodes in "
                "every variant, so they should be comparable."
            ),
        )

    @property
    def query_speedup(self) -> float:
        """Query speedup of the full Theorem 9 tree over the naive tree."""
        return self.query_ms["naive"] / self.query_ms["theorem9"]


def _build(variant: str, storage: StorageStack, config: BeTreeConfig):
    if variant == "naive":
        return BeTree(storage, config)
    if variant == "segments":
        return OptimizedBeTree(storage, config, pivots_in_parent=False)
    if variant == "theorem9":
        return OptimizedBeTree(storage, config, pivots_in_parent=True)
    raise ValueError(f"unknown variant {variant!r}")


def run(
    *,
    node_bytes: int = 1 << 20,
    fanout: int = 16,
    n_entries: int = 200_000,
    cache_bytes: int = 64 << 10,
    universe: int = 1 << 31,
    n_queries: int = 300,
    n_inserts: int = 30_000,
    seed: int = 0,
) -> Theorem9AblationResult:
    """Measure all variants on identical workloads.

    The cache is deliberately tiny (64 KiB default): Theorem 9's advantage
    is about per-level *IO counts and sizes* in the uncached regime, and a
    warm cache would hide the second (pivot-area) IO of the ``segments``
    variant — real pivot arrays are small and hot.  The root buffer is
    pre-filled before measuring so the lazy naive tree cannot defer its
    flush work past the measurement window.
    """
    pairs, keys = build_load(n_entries, universe, seed=seed)
    result = Theorem9AblationResult(
        node_bytes=node_bytes, fanout=fanout, n_entries=n_entries, cache_bytes=cache_bytes
    )
    config = BeTreeConfig(node_bytes=node_bytes, fanout=fanout)
    buffer_msgs = config.buffer_budget_bytes // config.fmt.message_bytes
    for variant in VARIANTS:
        device = default_hdd(seed=seed)
        storage = StorageStack(device, cache_bytes)
        tree = _build(variant, storage, config)
        tree.bulk_load(pairs)
        for key, value in insert_stream(universe, buffer_msgs, seed=seed + 7):
            tree.insert(key, value)
        times = measure_tree_ops(
            tree, keys, universe, n_queries=n_queries, n_inserts=n_inserts, seed=seed
        )
        result.query_ms[variant] = times.query_seconds_per_op * 1e3
        result.insert_ms[variant] = times.insert_seconds_per_op * 1e3
    return result
