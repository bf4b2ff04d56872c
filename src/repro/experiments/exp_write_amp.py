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

from repro.experiments import report
from repro.storage.ram import NullDevice
from repro.storage.stack import StorageStack
from repro.trees import KVTree, build

# The naive whole-node-IO Bε-tree is the ablation this experiment exists
# for; the registry's "betree" is the Theorem 9 tree.
from repro.trees.betree import BeTree, BeTreeConfig
from repro.workloads.generators import insert_stream, random_load_pairs

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
    betree: list[float] = field(default_factory=list)

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.node_sizes]
        return report.render_series(
            f"Write amplification under random inserts "
            f"(N={self.n_loaded} loaded, {self.n_inserts} measured inserts, "
            f"Bε fanout {self.fanout})",
            "node size",
            labels,
            {"B-tree": self.btree, "Bε-tree": self.betree},
            note=(
                "Device bytes written / user bytes modified (Definition 3).  "
                "B-tree amplification grows ~linearly with B (Lemma 3); the "
                "Bε-tree's stays ~flat at ~F*height (Theorem 4(4))."
            ),
        )


def _measure(tree: KVTree, universe: int, n_inserts: int, seed: int) -> float:
    tree.drop_cache()
    fmt = tree.config.fmt
    base = tree.device.stats.snapshot()
    tree.user_bytes_modified = 0
    for key, value in insert_stream(universe, n_inserts, seed=seed):
        tree.insert(key, value)
    tree.settle()
    delta = tree.device.stats.delta(base)
    return delta.write_amplification(n_inserts * fmt.entry_bytes)


def run(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_loaded: int = 150_000,
    n_inserts: int = 8_000,
    cache_bytes: int = 1 << 20,
    fanout: int = 16,
    universe: int = 1 << 31,
    seed: int = 0,
) -> WriteAmpResult:
    """Measure write amplification for both trees across node sizes.

    The cache is deliberately tiny (1 MiB against ~16 MiB of data) so
    every dirtied B-tree leaf is written back before it absorbs a second
    insert — the Lemma 3 worst case.
    """
    pairs = random_load_pairs(n_loaded, universe, seed=seed)
    result = WriteAmpResult(
        node_sizes=tuple(node_sizes),
        n_loaded=n_loaded,
        n_inserts=n_inserts,
        fanout=fanout,
    )
    for node_bytes in node_sizes:
        btree = build("btree", NullDevice(), node_bytes=node_bytes, cache_bytes=cache_bytes)
        btree.load(pairs)
        result.btree.append(_measure(btree, universe, n_inserts, seed + 1))

        betree = BeTree(
            StorageStack(NullDevice(), cache_bytes),
            BeTreeConfig(node_bytes=node_bytes, fanout=fanout),
        )
        betree.load(pairs)
        result.betree.append(_measure(betree, universe, n_inserts, seed + 1))
    return result
