"""Section 8: PDAM-adaptive B-tree layouts (Lemma 13).

The paper's dilemma: with ``P`` query clients, a B-tree wants nodes of size
``B`` (one block per level, all clients progress every step); with one
client it wants nodes of size ``PB`` (the lone client's read-ahead fills all
``P`` slots).  The resolution is nodes of size ``PB`` organized internally
in a **van Emde Boas layout**, so that a client can consume any prefix of a
node usefully: with ``k`` clients each getting ``P/k`` slots of read-ahead,
a client resolves ``~log2((P/k)·B)`` comparison levels per step, for
``Theta(log_{PB/k} N)`` steps per query (Lemma 13).

This module provides:

* :class:`StaticSearchTree` — a perfect binary search tree over sorted
  keys (heap-indexed, keys at internal nodes = max of left subtree).
* :class:`VEBLayout` — the recursive van Emde Boas ordering of a perfect
  binary tree; recursive *bottom* subtrees are contiguous at every scale,
  which is the property that makes consecutive-block read-ahead useful.
* :class:`PDAMQuerySimulator` — runs ``k`` closed-loop query clients over
  a :class:`~repro.storage.ideal.PDAMDevice` through the
  :class:`~repro.storage.scheduler.ReadAheadScheduler`, in one of three
  layouts: ``"flat_b"`` (size-``B`` nodes), ``"flat_pb"`` (size-``PB``
  nodes, whole-node reads), ``"veb_pb"`` (size-``PB`` nodes, vEB order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.storage.ideal import PDAMDevice
from repro.storage.scheduler import ReadAheadScheduler


class StaticSearchTree:
    """Perfect binary search tree over sorted keys, heap-indexed.

    Leaves sit at depth ``height - 1`` and hold the sorted keys (padded to
    a power of two with ``+inf`` sentinels); each internal node stores the
    maximum key of its left subtree, so search goes left iff
    ``key <= node_key``.
    """

    def __init__(self, sorted_keys) -> None:
        keys = np.asarray(sorted_keys, dtype=np.int64)
        if keys.ndim != 1 or keys.size == 0:
            raise ConfigurationError("need a non-empty 1-D array of keys")
        if np.any(np.diff(keys) <= 0):
            raise ConfigurationError("keys must be strictly increasing")
        self.n_keys = int(keys.size)
        n_leaves = 1 << max(1, math.ceil(math.log2(self.n_keys)))
        self.height = int(math.log2(n_leaves)) + 1  # levels, root inclusive
        self.n_nodes = 2 * n_leaves - 1
        self._first_leaf = n_leaves - 1
        # Sentinel: pad with a value larger than every real key.  When the
        # largest key is INT64_MAX, ``keys[-1] + 1`` would wrap to
        # INT64_MIN and corrupt every search path right of the real keys —
        # only a problem when padding is actually needed (an exact
        # power-of-two key count has no pad leaves).
        self._leaf_keys = np.empty(n_leaves, dtype=np.int64)
        self._leaf_keys[: self.n_keys] = keys
        if n_leaves > self.n_keys:
            if keys[-1] == np.iinfo(np.int64).max:
                raise ConfigurationError(
                    "largest key is INT64_MAX but the leaf level needs "
                    f"padding ({self.n_keys} keys, {n_leaves} leaves): the "
                    "pad sentinel must exceed every real key; use an exact "
                    "power-of-two key count or a smaller largest key"
                )
            self._leaf_keys[self.n_keys :] = np.int64(keys[-1]) + 1
        # Internal node i's key = max key of its left subtree, computed
        # bottom-up: the "max of subtree" of leaves is themselves.
        subtree_max = np.empty(self.n_nodes, dtype=np.int64)
        subtree_max[self._first_leaf :] = self._leaf_keys
        node_key = np.empty(self._first_leaf, dtype=np.int64)
        for i in range(self._first_leaf - 1, -1, -1):
            left, right = 2 * i + 1, 2 * i + 2
            node_key[i] = subtree_max[left]
            subtree_max[i] = subtree_max[right]
        self._node_key = node_key

    def leaf_of(self, key: int) -> int:
        """Heap index of the leaf a search for ``key`` ends at."""
        return self.search_path(key)[-1]

    def search_path(self, key: int) -> list[int]:
        """Heap indices of the root-to-leaf comparison path for ``key``."""
        path = []
        i = 0
        while i < self._first_leaf:
            path.append(i)
            i = 2 * i + 1 if key <= self._node_key[i] else 2 * i + 2
        path.append(i)
        return path

    def contains(self, key: int) -> bool:
        """Whether ``key`` is one of the stored keys.

        Padded leaves are excluded: a search for the pad sentinel value
        (``keys[-1] + 1``) lands on a pad leaf, which holds it but does
        not store it.
        """
        leaf = self.leaf_of(key)
        idx = leaf - self._first_leaf
        return idx < self.n_keys and bool(self._leaf_keys[idx] == key)

    def nodes_at_depth(self, root: int, depth: int) -> range:
        """Heap indices of ``root``'s descendants ``depth`` levels down.

        Heap numbering keeps each such cohort contiguous:
        ``[(root+1)*2^d - 1, (root+2)*2^d - 1)``.
        """
        return range(((root + 1) << depth) - 1, ((root + 2) << depth) - 1)


class VEBLayout:
    """Van Emde Boas ordering of a perfect binary tree of ``height`` levels.

    ``position[heap_index]`` gives each node's rank in the layout.  The
    recursion: a tree of height ``h`` lays out its top ``ceil(h/2)`` levels
    (recursively), then each bottom subtree (recursively) left to right —
    so every recursive bottom subtree occupies a *contiguous* range.
    """

    def __init__(self, height: int) -> None:
        if height < 1:
            raise ConfigurationError(f"height must be >= 1, got {height}")
        self.height = height
        self.n_nodes = (1 << height) - 1
        self.position = self._positions(height)

    @classmethod
    def _positions(cls, h: int) -> np.ndarray:
        """``position[heap_index]`` of a height-``h`` tree, built level by
        level from the layouts of its top tree and of one bottom subtree
        (all bottom subtrees are laid out alike, one after the other)."""
        if h == 1:
            return np.zeros(1, dtype=np.int64)
        top_h = (h + 1) // 2
        top, bottom = cls._positions(top_h), cls._positions(h - top_h)
        position = np.empty((1 << h) - 1, dtype=np.int64)
        # The top tree shares its heap indices with the whole tree.
        position[: top.size] = top
        # Rank of each bottom subtree's first node, left to right.
        starts = top.size + np.arange(1 << top_h, dtype=np.int64) * bottom.size
        for depth in range(h - top_h):
            # Level ``depth`` of every bottom subtree, side by side, is level
            # ``top_h + depth`` of the whole tree in heap order.
            level = bottom[(1 << depth) - 1 : (2 << depth) - 1]
            first = (1 << (top_h + depth)) - 1
            position[first : 2 * first + 1] = (starts[:, None] + level).ravel()
        return position


@dataclass(frozen=True)
class QueryThroughputResult:
    """Outcome of one concurrent-query simulation."""

    mode: str
    clients: int
    queries_completed: int
    steps: int

    @property
    def throughput(self) -> float:
        """Queries completed per PDAM time step."""
        return self.queries_completed / self.steps if self.steps else 0.0


class _Client:
    """One closed-loop query client's traversal state."""

    __slots__ = ("queries", "qi", "path", "pi", "fetched", "done")

    def __init__(self, queries: list[int]) -> None:
        self.queries = queries
        self.qi = 0            # which query
        self.path: list[int] = []
        self.pi = 0            # next unresolved path position
        self.fetched: set[int] = set()
        self.done = False


class PDAMQuerySimulator:
    """Concurrent point queries over a PDAM device in three node layouts.

    Parameters
    ----------
    device:
        The :class:`~repro.storage.ideal.PDAMDevice`; its ``P`` and ``B``
        define the slot structure.
    tree:
        The static search tree holding the keys.
    mode:
        ``"flat_b"``, ``"flat_pb"``, or ``"veb_pb"`` (see module docs).
    pivot_bytes:
        Bytes per binary comparison node (key + pointer); determines how
        many tree levels fit in one block.
    """

    def __init__(
        self,
        device: PDAMDevice,
        tree: StaticSearchTree,
        *,
        mode: str = "veb_pb",
        pivot_bytes: int = 16,
    ) -> None:
        if mode not in ("flat_b", "flat_pb", "veb_pb"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        if pivot_bytes <= 0:
            raise ConfigurationError(f"pivot_bytes must be positive, got {pivot_bytes}")
        self.device = device
        self.tree = tree
        self.mode = mode
        entries_per_block = device.block_bytes // pivot_bytes
        if entries_per_block < 1:
            raise ConfigurationError(
                f"block of {device.block_bytes} bytes holds no {pivot_bytes}-byte pivots"
            )
        # Levels of the binary tree that fit in one block / one PB node.
        self.levels_per_block = max(1, int(math.log2(entries_per_block + 1)))
        self.levels_per_supernode = max(
            self.levels_per_block,
            int(math.log2(device.parallelism * entries_per_block + 1)),
        )
        self.blocks_per_supernode = math.ceil(
            ((1 << self.levels_per_supernode) - 1) / entries_per_block
        )
        self._entries_per_block = entries_per_block

        if mode == "veb_pb":
            self._veb = VEBLayout(tree.height)
            # Align blocks to whole recursive subtrees: a block holds
            # 2^levels - 1 nodes (one slot is sacrificed), so the vEB
            # recursion's contiguous bottom trees never straddle blocks.
            self._veb_block_entries = (1 << self.levels_per_block) - 1
            self._block_of = self._block_of_veb
        elif mode == "flat_b":
            self._block_of = self._block_of_flat(self.levels_per_block)
        else:  # flat_pb
            self._block_of = self._block_of_flat(self.levels_per_supernode)

    # -- block address maps --------------------------------------------------

    def _block_of_veb(self, node: int) -> int:
        return int(self._veb.position[node]) // self._veb_block_entries

    def _block_of_flat(self, levels_per_group: int):
        """Block address map for BFS-grouped supernodes.

        The binary tree is cut into supernodes of ``levels_per_group``
        levels.  Each supernode's nodes are packed into consecutive blocks.
        Supernode ids are *scattered* across the block address space with a
        bijective bit-mix: real B-tree nodes land wherever the allocator put
        them, so consecutive block addresses are unrelated nodes and
        read-ahead must not accidentally prefetch the next path node (that
        advantage is exactly what the vEB layout earns and the flat layouts
        lack).  The map is computed lazily because only visited nodes
        matter.
        """
        group_nodes = (1 << levels_per_group) - 1
        group_blocks = math.ceil(group_nodes / self._entries_per_block)
        max_blocks = self.device.capacity_bytes // self.device.block_bytes
        slot_bits = max(1, int(math.log2(max(2, max_blocks // group_blocks))))
        n_slots = 1 << slot_bits

        def scatter(idx: int) -> int:
            # Odd multiplier modulo a power of two is a bijection, so
            # distinct supernodes never collide.
            return (idx * 0x9E3779B1) & (n_slots - 1)

        supernode_index: dict[tuple[int, int], int] = {}

        def supernode_of(node: int) -> tuple[tuple[int, int], int]:
            # Climb to the supernode root: depth within tree mod group levels.
            depth = int(math.floor(math.log2(node + 1)))
            rel = depth % levels_per_group
            root = node
            for _ in range(rel):
                root = (root - 1) // 2
            key = (root, depth - rel)
            idx = supernode_index.setdefault(key, len(supernode_index))
            return key, scatter(idx)

        def block_of(node: int) -> int:
            (root, _), slot = supernode_of(node)
            if group_blocks == 1:
                return slot
            # Position within the supernode in BFS order.
            depth_in = int(math.floor(math.log2(node + 1))) - int(
                math.floor(math.log2(root + 1))
            )
            first_at_depth = ((root + 1) << depth_in) - 1
            pos = ((1 << depth_in) - 1) + (node - first_at_depth)
            return slot * group_blocks + pos // self._entries_per_block

        block_of.blocks_per_group = group_blocks  # type: ignore[attr-defined]
        return block_of

    def _supernode_blocks(self, node: int) -> list[int]:
        """All block addresses of the supernode containing ``node`` (flat_pb)."""
        assert self.mode == "flat_pb", "only flat_pb reads whole supernodes"
        base = self._block_of(node)
        group_blocks = self._block_of.blocks_per_group  # type: ignore[attr-defined]
        start = (base // group_blocks) * group_blocks
        return list(range(start, start + group_blocks))

    # -- simulation -----------------------------------------------------------

    def run(
        self,
        n_clients: int,
        queries_per_client: int,
        *,
        seed: int = 0,
    ) -> QueryThroughputResult:
        """Run ``n_clients`` closed-loop clients for the given query count.

        Each client issues uniform-random point queries; a query is resolved
        once every comparison node on its root-to-leaf path has had its
        block fetched.  No blocks are cached across queries (pessimal but
        uniform across modes, matching Lemma 13's accounting).
        """
        if n_clients <= 0 or queries_per_client <= 0:
            raise ConfigurationError("need positive client and query counts")
        rng = np.random.default_rng(seed)
        clients = []
        for _ in range(n_clients):
            qs = rng.integers(0, self.tree.n_keys, size=queries_per_client)
            clients.append(_Client([int(q) for q in qs]))

        scheduler = ReadAheadScheduler(self.device, expand_readahead=True)
        completed = 0
        active = set(range(n_clients))
        awaiting: set[int] = set()

        while active:
            for ci in sorted(active - awaiting):
                c = clients[ci]
                if not c.path:
                    c.path = self.tree.search_path(c.queries[c.qi])
                    c.pi = 0
                    c.fetched = set()
                demand = self._next_demand(c)
                scheduler.submit(ci, demand)
                awaiting.add(ci)
            served = scheduler.step()
            for ci, blocks in served.items():
                awaiting.discard(ci)
                c = clients[ci]
                c.fetched.update(blocks)
                completed += self._advance(c)
                if c.done:
                    active.discard(ci)
        return QueryThroughputResult(
            mode=self.mode,
            clients=n_clients,
            queries_completed=completed,
            steps=scheduler.steps,
        )

    def _next_demand(self, c: _Client) -> int:
        if self.mode == "flat_pb":
            for blk in self._supernode_blocks(c.path[c.pi]):
                if blk not in c.fetched:
                    return blk
            raise AssertionError("supernode fully fetched but client not advanced")
        return self._block_of(c.path[c.pi])

    def _advance(self, c: _Client) -> int:
        """Advance a client as far as its fetched blocks allow.

        Returns the number of queries completed (0 or more — a client can
        finish a query and immediately begin the next with fetched = {}).
        """
        finished = 0
        while True:
            if self.mode == "flat_pb":
                while c.pi < len(c.path) and all(
                    b in c.fetched for b in self._supernode_blocks(c.path[c.pi])
                ):
                    c.pi += 1
            else:
                while c.pi < len(c.path) and self._block_of(c.path[c.pi]) in c.fetched:
                    c.pi += 1
            if c.pi < len(c.path):
                return finished
            # Query resolved.
            finished += 1
            c.qi += 1
            c.path = []
            c.fetched = set()
            c.pi = 0
            if c.qi >= len(c.queries):
                c.done = True
                return finished
            c.path = self.tree.search_path(c.queries[c.qi])
