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
introduction names.  Every structure is one point of a sweep over the
node-size kernel (:func:`~repro.experiments.common.nodesize_point`), so the
experiment runs on the sweep runner (``--jobs``, the result cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import nodesize_sweep_point
from repro.experiments.devices import DEFAULT_HDD
from repro.runner import ResultCache, SweepSpec, run_sweep

#: The references: the ε = 1 endpoint (a B-tree at its own favourable node
#: size), an LSM at its 2 MiB defaults, and the COLA, which has no
#: node-size knob at all.  Each is ``(label, kind, node bytes, tree fields,
#: measured inserts, warm-up queries)``.  The COLA caches blocks in the RAM
#: its small levels leave, so it warms up as the B-tree does; the LSM has no
#: cache to warm (warm-up reads would only move the disk head).
REFERENCES = (
    ("btree 64KiB", "btree", 64 << 10, (), 1000, 100),
    ("lsm 2MiB", "lsm", None, (("l0_trigger", 2),), 40_000, 0),
    ("cola", "cola", None, (), 40_000, 100),
)


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


def sweep_spec(
    *,
    node_bytes: int = 256 << 10,
    fanouts: tuple[int, ...] = (2, 4, 16, 64, 256),
    n_entries: int = 150_000,
    cache_bytes: int = 4 << 20,
    universe: int = 1 << 31,
    n_queries: int = 200,
    seed: int = 0,
) -> SweepSpec:
    """The E12 sweep: one Bε-tree ``nodesize_point`` per fanout, then the
    :data:`REFERENCES`, all on one disk.

    A Bε point pre-fills its root buffer once (one amortization unit,
    which ``node_bytes`` never caps) and measures three more fills of
    inserts, 4000 to 40 000.
    """
    measure = dict(
        device=DEFAULT_HDD,
        device_fields=(("seed", seed),),
        cache_bytes=cache_bytes,
        n_entries=n_entries,
        universe=universe,
        n_queries=n_queries,
        seed=seed,
    )
    points = [
        nodesize_sweep_point(
            kind="betree",
            node_bytes=node_bytes,
            tree_fields=(("fanout", fanout),),
            warmup_queries=100,
            prefill_units=1.0,
            max_prefill=node_bytes,
            insert_units=3.0,
            min_inserts=4000,
            max_inserts=40_000,
            **measure,
        )
        for fanout in fanouts
    ]
    points += [
        nodesize_sweep_point(
            kind=kind,
            node_bytes=ref_node_bytes,
            tree_fields=tree_fields,
            warmup_queries=warmup,
            min_inserts=n_inserts,
            max_inserts=n_inserts,
            **measure,
        )
        for _, kind, ref_node_bytes, tree_fields, n_inserts, warmup in REFERENCES
    ]
    return SweepSpec.make("epsilon_tradeoff", points)


def run(
    *, jobs: int = 1, cache: ResultCache | None = None, **params
) -> EpsilonTradeoffResult:
    """Measure the tradeoff curve plus the three reference structures;
    ``params`` are :func:`sweep_spec`'s."""
    args = {**sweep_spec.__kwdefaults__, **params}
    labels = [f"betree F={fanout}" for fanout in args["fanouts"]]
    labels += [label for label, *_ in REFERENCES]
    rows = run_sweep(sweep_spec(**params), jobs=jobs, cache=cache)
    return EpsilonTradeoffResult(
        node_bytes=args["node_bytes"],
        n_entries=args["n_entries"],
        cache_bytes=args["cache_bytes"],
        points=[
            TradeoffPoint(label, row["insert_ms"], row["query_ms"])
            for label, row in zip(labels, rows)
        ],
    )
