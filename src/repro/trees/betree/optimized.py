"""The Theorem 9 Bε-tree: variable-size IOs, simultaneously-optimal ops.

Three refinements over the naive tree of Lemma 8 (paper Section 6):

1. **Per-child buffer segments with a ~B/F cap.**  "We maintain the
   invariant that no more than B/F elements in a node can be destined for
   a particular child, so the cost to read all these elements is only
   1 + alpha*B/F."  A segment exceeding the cap triggers a flush of that
   child, regardless of the node's total buffer occupancy.
2. **Pivots stored in the parent.**  "The pivots for u are stored next to
   the buffer that stores elements destined for u" — so a query performs
   *one* IO per level, reading the relevant segment plus the child's pivot
   set (``~B/F + F`` bytes) instead of the whole node (``B`` bytes).
3. **Basement chunks.**  Leaves are divided into ``~B/F``-byte chunks
   paged independently, so the final leaf access of a point query is also
   small.  This is TokuDB's "basement nodes" design, which the paper says
   this analysis explains.

The paper's third algorithmic ingredient, weight-balanced rebuilds keeping
fanouts within ``(1 ± 1/log F) F``, is not reproduced: it pins down only
*lower-order terms*, and measured on E9's shape it took under 1 % off a
query beyond what draining the buffers does while making inserts dearer
(docs/architecture.md, "The two Bε-trees").  Both
Bε-trees rebalance by splits alone.  Fanout is at most ``2F``, after
``flush_all`` too (``check_invariants`` enforces it), with no lower bound:
internal nodes never merge, and dropping emptied leaves can leave a node
one child.

IO accounting
-------------
Nodes are plain in-memory structures; device time is charged through
fine-grained cache entries — one per pivot area (``('p', nid)``), buffer
segment (``('s', nid, i)``), and basement chunk (``('b', nid, j)``).  Each
node owns one device extent with *fixed slot offsets* for its components,
so components of one node are contiguous.  Charging granularity follows
what a real implementation would issue:

* query paths read exactly one component (one setup + its bytes);
* whole-node rewrites (flush targets, splits, leaf application) are
  charged as a *single* batched IO — one setup plus the bytes of whatever
  components were missing (read) and one setup plus the node's occupied
  bytes (write), exactly like the naive tree's node IOs — rather than one
  seek per chunk, which no real system would pay.

The LRU cache pages components in and out independently, which is the
"sub-nodes paged in and out independently" behaviour the paper attributes
to TokuDB.

It implements two ``BeTreeConfig.layout``s, E9's arms beside the naive
``"whole-node"`` :class:`~repro.trees.betree.tree.BeTree`:

* ``"segments"`` — partial reads, but each level needs two IOs (the
  node's own pivot area, then the segment).
* ``"theorem9"`` (default) — the full Theorem 9 design: one IO per level
  of ``1 + alpha*(B/F + F)``.
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable

from repro.storage.stack import StorageStack
from repro.trees.api import TreeKind
from repro.trees.betree.messages import Message
from repro.trees.betree.node import BeNode
from repro.trees.betree.tree import BeTree, BeTreeConfig

_GRAIN = 512  # charged-size granularity in bytes


def _round_grain(nbytes: int) -> int:
    return max(_GRAIN, ((nbytes + _GRAIN - 1) // _GRAIN) * _GRAIN)


class OptimizedBeTree(BeTree):
    """Bε-tree with per-child segments, pivots-in-parent and basements."""

    layouts = ("theorem9", "segments")

    def __init__(self, storage: StorageStack, config: BeTreeConfig | None = None) -> None:
        self._nodes: dict[int, BeNode] = {}
        self._base: dict[int, int] = {}      # node id -> extent base offset
        self._parts: dict[int, list[Hashable]] = {}  # node id -> component ids
        # The layout and the slot geometry, read once into plain attributes:
        # the insert path recomputes segment sizes on every message, and
        # chasing ``config`` properties each time dominated the profile.
        config = config or BeTreeConfig()
        self.pivots_in_parent = config.layout == "theorem9"
        fmt = config.fmt
        self._msg_bytes = fmt.message_bytes
        self._key_bytes = fmt.key_bytes
        self._pivot_bytes = fmt.pivot_bytes
        self._entry_bytes = fmt.entry_bytes
        self._header_bytes = fmt.node_header_bytes
        max_children = config.max_children
        self._pivot_slot = fmt.node_header_bytes + max_children * fmt.pivot_bytes
        self._seg_slot = max(
            fmt.message_bytes, (config.node_bytes - self._pivot_slot) // max_children
        )
        self._basement = max(1, config.leaf_capacity // config.target_fanout)
        self._chunk_slot = fmt.node_header_bytes + self._basement * fmt.entry_bytes
        self._max_children = config.max_children
        super().__init__(storage, config)

    # -- slot geometry ---------------------------------------------------------

    @property
    def segment_cap_bytes(self) -> int:
        """Theorem 9's per-child buffer cap (one fixed slot, ``~B/F``)."""
        return self._seg_slot

    @property
    def basement_entries(self) -> int:
        """Entries per basement chunk (``~leaf_capacity / F``)."""
        return self._basement

    #: Extent over-allocation factor: leaves can transiently exceed capacity
    #: between a flush application and the split it triggers.
    _EXTENT_SLACK = 2

    def _segment_overflow_bytes(self) -> int:
        return self.segment_cap_bytes

    # -- fused insert fast path ------------------------------------------------

    def _put(self, msg) -> None:
        """One-frame insert hot path; behaviorally identical to the base.

        The base ``_put`` spends most of its time in call overhead:
        ``_get`` → ``_child_index`` → ``add_message`` → ``_dirty_segment``
        → ``_segment_read_bytes`` → ``_round_grain`` → ``mark_dirty``,
        each a Python frame.  This override performs the same
        dict/bisect/arithmetic steps inline, then defers to the shared
        flush/split machinery the moment anything overflows — so cache
        traffic, device IO and tree state match the base path exactly.
        """
        self.user_bytes_modified += self._entry_bytes
        root = self._nodes[self.root_id]
        if root.is_leaf:
            self._apply_to_leaf(None, 0, [msg])
            return
        key = msg.key
        idx = bisect.bisect_right(root.pivots, key)
        seg = root.segments[idx]
        lst = seg.msgs.get(key)
        if lst is None:
            seg.msgs[key] = [msg]
        else:
            lst.append(msg)
        count = seg.count + 1
        seg.count = count
        root.buffered_count += 1
        # _dirty_segment, inlined: charged bytes = messages (+ child pivots).
        nbytes = count * self._msg_bytes
        if self.pivots_in_parent:
            child = self._nodes[root.children[idx]]
            if child.is_leaf:
                per = self._basement
                nbytes += (-(-len(child.keys) // per) or 1) * self._key_bytes
            else:
                nbytes += self._header_bytes + len(child.children) * self._pivot_bytes
        self.storage.cache.mark_dirty(
            ("s", root.node_id, idx), ((nbytes + _GRAIN - 1) // _GRAIN) * _GRAIN
        )
        budget = self._budget_msgs
        if budget is None:
            budget = self._ensure_thresholds()
        if root.buffered_count > budget or count > self._seg_cap_msgs:
            self._flush_overflows(root)
        if len(root.children) > self._max_children:
            self._split_internal(None, 0)

    def _chunk_count(self, leaf: BeNode) -> int:
        per = self._basement
        return max(1, -(-len(leaf.keys) // per))

    def _chunk_bytes(self, leaf: BeNode, j: int) -> int:
        per = self._basement
        n = max(0, min(len(leaf.keys) - j * per, per))
        return self._header_bytes + n * self._entry_bytes

    def _segment_read_bytes(self, node: BeNode, idx: int) -> int:
        """Charged size of segment ``idx``: messages (+ child pivots)."""
        nbytes = node.segments[idx].count * self._msg_bytes
        if self.pivots_in_parent:
            child = self._nodes[node.children[idx]]
            if child.is_leaf:
                # The parent stores the leaf's basement-chunk index instead.
                per = self._basement
                nbytes += max(1, -(-len(child.keys) // per)) * self._key_bytes
            else:
                nbytes += self._header_bytes + len(child.children) * self._pivot_bytes
        return nbytes

    def _pivot_area_bytes(self, node: BeNode) -> int:
        return self.config.fmt.internal_bytes(len(node.children))

    def _component_plan(self, node: BeNode) -> list[tuple[Hashable, int, int]]:
        """``(component id, slot offset, occupied bytes)`` for the node."""
        nid = node.node_id
        base = self._base[nid]
        if node.is_leaf:
            slot = self._chunk_slot
            return [
                (("b", nid, j), base + j * slot, self._chunk_bytes(node, j))
                for j in range(self._chunk_count(node))
            ]
        plan: list[tuple[Hashable, int, int]] = [
            (("p", nid), base, self._pivot_area_bytes(node))
        ]
        seg_base = base + self._pivot_slot
        slot = self._seg_slot
        plan.extend(
            (("s", nid, i), seg_base + i * slot, self._segment_read_bytes(node, i))
            for i in range(len(node.segments))
        )
        return plan

    # -- charging primitives -------------------------------------------------------

    def _rewrite_node(self, node: BeNode) -> None:
        """Whole-node rewrite: batched read of missing parts + one write.

        This is the charging model of a real flush/split: the node is read
        (what is not already cached), modified, and written back with one
        large IO each way — not one seek per chunk.
        """
        cache = self.storage.cache
        plan = self._component_plan(node)
        nid = node.node_id
        new_ids = [cid for cid, _, _ in plan]
        old_ids = self._parts.get(nid, [])
        if old_ids != new_ids:
            keep = set(new_ids)
            for cid in old_ids:
                if cid not in keep:
                    # Components live in slots of the node's own extent;
                    # dropping one releases no allocator space.
                    cache.delete(cid)
        contains = cache.contains
        missing = 0
        total = 0
        items = []
        for cid, offset, nb in plan:
            r = _round_grain(nb)
            total += r
            if not contains(cid):
                missing += r
            items.append((cid, offset, r))
        base = self._base[nid]
        if missing:
            self.storage.device.read(base, missing)
        self.storage.device.write(base, total)
        # Components are now resident and *clean* — the write-back just
        # happened as the batched write above.
        cache.readmit_clean(items)
        self._parts[nid] = new_ids

    # -- storage hooks overridden from BeTree ---------------------------------------

    def _create_storage(self, node: BeNode) -> None:
        nid = node.node_id
        self._nodes[nid] = node
        extent = self.config.node_bytes * self._EXTENT_SLACK
        self._base[nid] = self.storage.allocator.alloc(extent)
        self._parts[nid] = []
        cache = self.storage.cache
        for cid, offset, nb in self._component_plan(node):
            cache.insert(cid, None, offset, _round_grain(nb), dirty=True)
            self._parts[nid].append(cid)

    def _get(self, node_id: int) -> BeNode:
        return self._nodes[node_id]

    def _dirty(self, node: BeNode) -> None:
        self._rewrite_node(node)

    def _dirty_segment(self, node: BeNode, idx: int) -> None:
        self.storage.cache.mark_dirty(
            ("s", node.node_id, idx), _round_grain(self._segment_read_bytes(node, idx))
        )

    def _dirty_pivots(self, node: BeNode) -> None:
        # Pivot/segment arities changed: component positions shifted; a
        # split rewrites the node in a real system too.
        self._rewrite_node(node)

    def _free(self, node: BeNode) -> None:
        nid = node.node_id
        for cid in self._parts.pop(nid, []):
            self.storage.cache.delete(cid)
        self.storage.allocator.free(self._base.pop(nid), self.config.node_bytes * self._EXTENT_SLACK)
        del self._nodes[nid]

    # -- query paths ------------------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        """One component per step of the descent: the root's pivot area (it
        has no parent to live in; LRU-resident in practice), then per level
        the segment for ``key``'s child — which under Theorem 9's placement
        carries that child's pivots, and otherwise is followed by a second
        IO for the child's own pivot area — then one basement chunk."""
        nodes = self._nodes
        get = self.storage.cache.get
        own_pivots = not self.pivots_in_parent
        node = nodes[self.root_id]
        msgs: list[Message] = []
        if not node.is_leaf:
            get(("p", node.node_id))
        while not node.is_leaf:
            ci = bisect.bisect_right(node.pivots, key)
            get(("s", node.node_id, ci))
            pending = node.segments[ci].msgs.get(key)
            if pending:
                msgs.extend(pending)
            node = nodes[node.children[ci]]
            if own_pivots and not node.is_leaf:
                get(("p", node.node_id))
        keys = node.keys
        i = bisect.bisect_left(keys, key)
        per = self._basement
        # A key past the leaf's largest reads the last chunk there is
        # (``_chunk_count(node) - 1``, in place).
        get(("b", node.node_id, min(i // per, max(1, -(-len(keys) // per)) - 1)))
        return self._answer(node, i, key, msgs)

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        The answers of a :meth:`_lookup` loop, read level-synchronized: the
        root's pivot area, then per level one
        :meth:`~repro.storage.cache.BufferCache.get_many` of the distinct
        segments the batch's keys descend through, gathering each key's
        buffered messages (without pivots in the parent, a second one of
        the children's pivot areas follows), then one of the distinct
        basement chunks.  Each ``get_many`` is one planned read of its
        misses.  A batch of one (or none) has nothing to plan: it is
        :meth:`_lookup`.
        """
        if len(keys) <= 1:
            return [self._lookup(key) for key in keys]
        nodes = self._nodes
        get_many = self.storage.cache.get_many
        bisect_right = bisect.bisect_right
        own_pivots = not self.pivots_in_parent
        distinct = list(dict.fromkeys(keys))
        root = nodes[self.root_id]
        at = [root] * len(distinct)
        msgs: list[list[Message]] = [[] for _ in distinct]
        live = [] if root.is_leaf else list(range(len(distinct)))  # keys above a leaf
        if live:
            self.storage.cache.get(("p", root.node_id))
        while live:
            segments: dict[Hashable, None] = {}
            for j in live:
                node = at[j]
                key = distinct[j]
                ci = bisect_right(node.pivots, key)
                segments[("s", node.node_id, ci)] = None
                pending = node.segments[ci].msgs.get(key)
                if pending:
                    msgs[j].extend(pending)
                at[j] = nodes[node.children[ci]]
            get_many(list(segments))
            live = [j for j in live if not at[j].is_leaf]
            if own_pivots and live:
                get_many(list(dict.fromkeys(("p", at[j].node_id) for j in live)))
        per = self._basement
        chunks: dict[Hashable, None] = {}
        positions = []
        for j, key in enumerate(distinct):
            leaf = at[j]
            leaf_keys = leaf.keys
            i = bisect.bisect_left(leaf_keys, key)
            positions.append(i)
            # The last chunk there is for a key past the leaf's largest, as
            # in _lookup.
            chunks[("b", leaf.node_id, min(i // per, max(1, -(-len(leaf_keys) // per)) - 1))] = None
        get_many(list(chunks))
        answer = self._answer
        values = {key: answer(at[j], positions[j], key, msgs[j]) for j, key in enumerate(distinct)}
        return [values[key] for key in keys]

    def _read_for_range(self, node_id: int) -> BeNode:
        node = self._nodes[node_id]
        cache = self.storage.cache
        # A range scan streams the whole node: its resident components are
        # read (hits), the rest in one batched read, then admitted clean.
        missing = []
        for cid, offset, nb in self._component_plan(node):
            if cache.contains(cid):
                cache.get(cid)
            else:
                missing.append((cid, offset, _round_grain(nb)))
        if missing:
            self.storage.device.read(self._base[node_id], sum(nb for _, _, nb in missing))
            cache.readmit_clean(missing)
        return node


#: Registry entry (:mod:`repro.trees.registry`): one kind, whose
#: ``config.layout`` picks the class; ``node_bytes`` is the node size.
#: One root-buffer fill amortizes a flush.
KIND = TreeKind(
    "betree",
    lambda storage, config: (
        BeTree if config.layout == "whole-node" else OptimizedBeTree
    )(storage, config),
    BeTreeConfig,
    lambda node_bytes, _cache: {"node_bytes": node_bytes},
    stacked=True,
    amortization_unit=lambda config: config.buffer_budget_bytes // config.fmt.message_bytes,
)
