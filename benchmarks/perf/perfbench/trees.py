"""Building the six tree kinds the tree workloads share.

Every kind gets its own ``default_hdd`` (own seed), 8 B keys and 20 B
values, the same sorted load, and ``cache_bytes`` of cache or pinned RAM.
Construction goes through the public constructors only; there is no
registry in ``src/`` yet (ROADMAP item 2), so the per-kind ladder lives
here once.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from perfbench.catalogue import TREE_KINDS
from perfbench.harness import Run, derive_seed
from perfbench.layers import adopt_tree
from repro.experiments.devices import default_hdd
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTreeConfig, OptimizedBeTree
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.cob import BufferedCOBTree, COBConfig, COBTree
from repro.trees.cola import COLA, COLAConfig
from repro.trees.lsm import LSMConfig, LSMTree
from repro.trees.sizing import EntryFormat
from repro.workloads.generators import random_load_pairs

FMT = EntryFormat(key_bytes=8, value_bytes=20)
UNIVERSE = 1 << 31
#: Entries loaded at ``--scale 1`` and the cache they run against
#: (data is about 7x the cache once node overheads are counted).
LOAD_ENTRIES = 200_000
CACHE_BYTES = 1 << 20
BLOCK_BYTES = 4096


class BuiltTree:
    """One loaded tree plus what the workloads need to know about it."""

    def __init__(self, kind: str, tree: Any, device: Any, allocator: Any,
                 settle: Callable[[], Any]) -> None:
        self.kind = kind
        self.tree = tree
        self.device = device
        self.allocator = allocator
        #: Charges whatever the tree defers (dirty write-backs, memtable).
        self.settle = settle
        self.get_many = getattr(tree, "get_many", None)


def load_pairs(run: Run) -> list[tuple[int, int]]:
    """The sorted load every kind receives (distinct uniform keys)."""
    n = run.sized(LOAD_ENTRIES, floor=2_000)
    with run.span("random_load_pairs", "workloads", n):
        return random_load_pairs(n, UNIVERSE, seed=derive_seed(run.seed, "load"))


def cache_bytes(run: Run) -> int:
    """The cache budget at this scale; never below four Bε nodes."""
    return max(256 << 10, int(CACHE_BYTES * run.scale))


def build(
    run: Run, kind: str, pairs: list[tuple[int, int]], *, btree_placement: str = "first_fit"
) -> BuiltTree:
    """Construct, load and register one tree kind on its own disk."""
    device = default_hdd(seed=derive_seed(run.seed, "hdd", kind))
    cache = cache_bytes(run)
    if kind in ("btree", "betree"):
        stack = StorageStack(
            device,
            cache,
            allocator_policy=btree_placement if kind == "btree" else "first_fit",
            allocator_seed=derive_seed(run.seed, "placement", kind),
        )
        if kind == "btree":
            tree: Any = BTree(stack, BTreeConfig(node_bytes=16 << 10, fmt=FMT))
        else:
            tree = OptimizedBeTree(
                stack, BeTreeConfig(node_bytes=64 << 10, fanout=16, fmt=FMT)
            )
        adopt_tree(run, kind, tree)
        tree.bulk_load(pairs)
        stack.drop_cache()
        return BuiltTree(kind, tree, device, stack.allocator, stack.flush)
    if kind == "lsm":
        tree = LSMTree(
            device,
            LSMConfig(
                sstable_bytes=64 << 10, memtable_bytes=64 << 10,
                level1_bytes=256 << 10, block_bytes=BLOCK_BYTES, fmt=FMT,
            ),
        )
        adopt_tree(run, kind, tree)
        tree.put_many(pairs)  # the LSM loads through its own flush path
        tree.flush_memtable()
        return BuiltTree(kind, tree, device, tree.allocator, tree.flush_memtable)
    if kind == "cola":
        tree = COLA(device, COLAConfig(fmt=FMT, block_bytes=BLOCK_BYTES, ram_bytes=cache))
        adopt_tree(run, kind, tree)
        tree.put_many(pairs)  # the COLA loads through its merge path
        return BuiltTree(kind, tree, device, tree.allocator, lambda: None)
    if kind in ("cob", "cob_buffered"):
        cls = COBTree if kind == "cob" else BufferedCOBTree
        tree = cls(device, COBConfig(fmt=FMT, block_bytes=BLOCK_BYTES, ram_bytes=cache))
        adopt_tree(run, kind, tree)
        tree.bulk_load(pairs)
        return BuiltTree(kind, tree, device, tree.allocator, lambda: None)
    raise ValueError(f"unknown tree kind {kind!r}; expected one of {TREE_KINDS}")


def build_all(
    run: Run, *, btree_placement: str = "first_fit"
) -> tuple[list[BuiltTree], dict[int, int], np.ndarray]:
    """All six kinds on one load: ``(trees, dict model, sorted key array)``."""
    pairs = load_pairs(run)
    built = [build(run, kind, pairs, btree_placement=btree_placement) for kind in TREE_KINDS]
    keys = np.fromiter((k for k, _ in pairs), dtype=np.int64, count=len(pairs))
    return built, dict(pairs), keys
