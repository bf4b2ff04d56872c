"""E8 — Lemma 3 / Theorem 4(4): write amplification of B-trees vs Bε-trees.

Under random inserts with a cache much smaller than the data, a B-tree
writes back a whole ``B``-byte leaf after ``O(1)`` entry modifications —
write amplification ``Theta(B / entry)`` (Lemma 3), *linear in the node
size*.  A Bε-tree rewrites a node only when a flush moves ``~B/F`` entries
through it, so its amplification is ``O(F * height)`` (Theorem 4(4)) —
*independent of the node size* to first order.

This is the paper's second explanation for small B-tree nodes: "Since the
B-tree write amplification is linear in the node size, there is downward
pressure towards small B-tree nodes."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import trees
from repro.experiments import report
from repro.experiments.common import nodesize_sweep_point
from repro.runner import ResultCache, SweepSpec, run_sweep
from repro.trees.sizing import BULK_FILL

# Starts at 16 KiB: a 4 KiB node cannot hold a fanout-16 buffer at all.
DEFAULT_NODE_SIZES = (16 << 10, 64 << 10, 256 << 10, 1 << 20)


@dataclass
class WriteAmpResult:
    """Measured write amplification per structure and node size."""

    node_sizes: tuple[int, ...]
    n_loaded: int
    n_inserts: int
    fanout: int
    btree: list[float] = field(default_factory=list)
    betree: list[float] = field(default_factory=list)  # the whole-node layout
    theorem9: list[float] = field(default_factory=list)

    def render(self) -> str:
        return report.render_series(
            f"Write amplification under random inserts "
            f"(N={self.n_loaded} loaded, {self.n_inserts} measured B-tree inserts, "
            f"Bε fanout {self.fanout})",
            "node size",
            [report.format_bytes(b) for b in self.node_sizes],
            {"B-tree": self.btree, "Bε whole-node": self.betree, "Bε Theorem 9": self.theorem9},
            note=(
                "Device bytes written / user bytes modified (Definition 3).  "
                "B-tree amplification grows ~linearly with B (Lemma 3); the "
                "whole-node Bε-tree's stays ~flat at ~F*height (Theorem 4(4)).  "
                "A Bε point measures F^(h-2) root-buffer fills, h its height."
            ),
        )


def loaded_height(config, n_entries: int) -> int:
    """Levels of a Bε-tree ``bulk_load`` of ``n_entries``: nodes filled to
    :data:`BULK_FILL`, a last group of one joining its left neighbour."""
    nodes = -(-n_entries // max(2, int(config.leaf_capacity * BULK_FILL)))
    per = max(2, int(config.target_fanout * BULK_FILL))
    height = 1
    while nodes > 1:
        nodes, height = nodes // per + (nodes % per > 1), height + 1
    return height


def sweep_spec(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_loaded: int = 150_000,
    n_inserts: int = 8_000,
    cache_bytes: int = 1 << 20,
    fanout: int = 16,
    universe: int = 1 << 31,
    seed: int = 0,
) -> SweepSpec:
    """The E8 sweep on the ``null`` device: per node size a B-tree, a
    whole-node and a Theorem 9 Bε-tree.

    The cache is deliberately tiny (1 MiB against ~16 MiB of data) so
    every dirtied B-tree leaf is written back before it absorbs a second
    insert — the Lemma 3 worst case.  The B-tree measures ``n_inserts``.
    A Bε-tree pre-fills its root buffer once, then measures ``F^(h-2)``
    fills (:func:`loaded_height`): enough for flushes to reach the leaves.
    """
    def point(kind, node_bytes, inserts, **fields):
        return nodesize_sweep_point(
            kind=kind, device="null", node_bytes=node_bytes, cache_bytes=cache_bytes,
            n_entries=n_loaded, universe=universe, n_queries=100, warmup_queries=200,
            min_inserts=inserts, max_inserts=inserts, seed=seed, **fields,
        )

    unit_of = trees.check_kind("betree").amortization_unit
    points = []
    for node_bytes in node_sizes:
        config = trees.configure("betree", node_bytes=node_bytes, fanout=fanout)
        fills = fanout ** max(0, loaded_height(config, n_loaded) - 2) * unit_of(config)
        points.append(point("btree", node_bytes, n_inserts))
        points += [
            point(
                "betree", node_bytes, fills, tree_fields=(("fanout", fanout), ("layout", layout)),
                prefill_units=1.0, max_prefill=node_bytes,
            )
            for layout in ("whole-node", "theorem9")
        ]
    return SweepSpec.make("write_amp", points)


def run(*, jobs: int = 1, cache: ResultCache | None = None, **params) -> WriteAmpResult:
    """Measure write amplification across node sizes; ``params`` are
    :func:`sweep_spec`'s."""
    args = {**sweep_spec.__kwdefaults__, **params}
    amps = [row["write_amp"] for row in run_sweep(sweep_spec(**params), jobs=jobs, cache=cache)]
    return WriteAmpResult(
        **{name: args[name] for name in ("node_sizes", "n_loaded", "n_inserts", "fanout")},
        btree=amps[0::3], betree=amps[1::3], theorem9=amps[2::3],
    )
