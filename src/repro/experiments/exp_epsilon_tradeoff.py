"""E12 (extension) — the insert/query tradeoff across the WOD design space.

Section 6 of the paper frames the Bε-tree's tuning knob:

    "Setting ε = 1 optimizes for point queries and the Bε-tree reduces to
    a B-tree.  Setting ε = 0 optimizes for insertions/deletions, and the
    Bε-tree reduce to a buffered repository tree. ... In the DAM model, a
    Bε-tree (for 0 < ε < 1) performs inserts a factor of εB^{1-ε} faster
    than a B-tree, but point queries run a factor of 1/ε times slower."

This experiment traces that tradeoff curve *empirically* on the simulated
HDD: one Bε-tree per fanout from 2 (≈ buffered repository tree) up to the
node's pivot capacity (= B-tree), measuring amortized insert cost and
point-query cost.  A B-tree, an LSM-tree, and a COLA are placed on the
same axes for reference — the three write-optimized families the paper's
introduction names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import build_load, measure_tree_ops
from repro.experiments.devices import default_hdd
from repro.trees import build
from repro.workloads.generators import insert_stream


@dataclass
class TradeoffPoint:
    """One structure's (insert, query) cost pair."""

    label: str
    insert_ms: float
    query_ms: float


@dataclass
class EpsilonTradeoffResult:
    """The measured tradeoff curve."""

    node_bytes: int
    n_entries: int
    cache_bytes: int
    points: list[TradeoffPoint] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [p.label, f"{p.insert_ms:.4f}", f"{p.query_ms:.3f}"]
            for p in self.points
        ]
        return report.render_table(
            f"Insert/query tradeoff across the WOD space "
            f"(B={report.format_bytes(self.node_bytes)}, N={self.n_entries}, "
            f"M={report.format_bytes(self.cache_bytes)})",
            ["structure", "insert (ms/op)", "query (ms/op)"],
            rows,
            note=(
                "Bε fanout sweeps ε from ~0 (buffered repository tree) to "
                "~1 (B-tree): inserts get costlier, queries cheaper — the "
                "Brodal-Fagerberg tradeoff the paper's Section 6 discusses."
            ),
        )

    def betree_points(self) -> list[TradeoffPoint]:
        """Just the Bε-tree fanout sweep, in fanout order."""
        return [p for p in self.points if p.label.startswith("betree")]


def _point(label, tree, keys, universe, n_queries, n_inserts, seed, *, warmup=100):
    times = measure_tree_ops(
        tree, keys, universe,
        n_queries=n_queries, n_inserts=n_inserts, warmup_queries=warmup, seed=seed,
    )
    return TradeoffPoint(
        label, times.insert_seconds_per_op * 1e3, times.query_seconds_per_op * 1e3
    )


def run(
    *,
    node_bytes: int = 256 << 10,
    fanouts: tuple[int, ...] = (2, 4, 16, 64, 256),
    n_entries: int = 150_000,
    cache_bytes: int = 4 << 20,
    universe: int = 1 << 31,
    n_queries: int = 200,
    seed: int = 0,
) -> EpsilonTradeoffResult:
    """Measure the tradeoff curve plus the three reference structures."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    result = EpsilonTradeoffResult(
        node_bytes=node_bytes, n_entries=n_entries, cache_bytes=cache_bytes
    )

    for fanout in fanouts:
        tree = build(
            "betree",
            default_hdd(seed=seed),
            node_bytes=node_bytes,
            cache_bytes=cache_bytes,
            fanout=fanout,
        )
        tree.load(pairs)
        config = tree.config
        buffer_msgs = max(1, config.buffer_budget_bytes // config.fmt.message_bytes)
        tree.put_many(insert_stream(universe, buffer_msgs, seed=seed + 7))
        n_inserts = min(40_000, max(4000, 3 * buffer_msgs))
        result.points.append(
            _point(f"betree F={fanout}", tree, keys, universe, n_queries, n_inserts, seed)
        )

    # The references: the ε = 1 endpoint (a B-tree at its own favourable
    # node size), an LSM at its 2 MiB defaults, and the COLA, which has no
    # node-size knob at all.  The two device-backed ones have no cache to
    # re-warm (warm-up reads would only move the disk head).
    for label, kind, fields, n_inserts, warmup in (
        ("btree 64KiB", "btree", dict(node_bytes=64 << 10), 1000, 100),
        ("lsm 2MiB", "lsm", dict(l0_trigger=2), 40_000, 0),
        ("cola", "cola", {}, 40_000, 0),
    ):
        tree = build(kind, default_hdd(seed=seed), cache_bytes=cache_bytes, **fields)
        tree.load(pairs)
        result.points.append(
            _point(label, tree, keys, universe, n_queries, n_inserts, seed, warmup=warmup)
        )

    return result
