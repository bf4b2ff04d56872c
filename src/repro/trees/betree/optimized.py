"""The Theorem 9 Bε-tree: variable-size IOs, simultaneously-optimal ops.

Three refinements over the naive tree of Lemma 8 (paper Section 6):

1. **Per-child buffer segments with a B/F cap.**  "We maintain the
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
* an insert appends its message to the root's segment for its key: a
  segment on disk is not read back for it
  (:meth:`~repro.storage.cache.BufferCache.append`), only when a query,
  a scan or a flush needs the segment whole.
* a flush into a node is one batched IO each way — one setup plus the
  bytes of whatever it needs that is not resident (read), then one setup
  plus the bytes it changed (write) — rather than one seek per chunk,
  which no real system would pay.  Into an internal node that is the
  segments the flush fills or empties (without pivots in the parent, the
  pivot area is read too, to route the messages); into a leaf, the whole
  leaf.  A segment a flush moves messages out of, or a split moves to a
  new sibling, is read first unless resident or already read.  A node is
  written once per flush into it, after its own overflow flushes and its
  split if they made it too wide, whole if a split reshaped it.
* a split rewrites each node it makes or reshapes the same way, whole.

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

from repro.errors import TreeError
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
        pivot_area = fmt.node_header_bytes + max_children * fmt.pivot_bytes
        # Theorem 9's cap: "no more than B/F elements in a node can be
        # destined for a particular child", B/F counted as the buffer budget
        # over F (not through ``buffer_budget_bytes``, which refuses nodes
        # too small to buffer: a query-only tree at such a size still works).
        self._seg_cap = fmt.message_bytes * max(
            1, (config.node_bytes - pivot_area) // config.target_fanout // fmt.message_bytes
        )
        # Fixed slots in an internal node, each a multiple of the charging
        # grain, so no component reaches past its own: the pivot area, then
        # one per child holding a full segment plus that child's pivots (or
        # basement index).
        self._pivot_slot = _round_grain(pivot_area)
        self._seg_slot = _round_grain(self._seg_cap + pivot_area)
        self._internal_extent = self._pivot_slot + max_children * self._seg_slot
        self._basement = max(1, config.leaf_capacity // config.target_fanout)
        self._chunk_slot = chunk = fmt.node_header_bytes + self._basement * fmt.entry_bytes
        self._leaf_extent = max(
            config.node_bytes * self._EXTENT_SLACK,
            (-(-config.leaf_capacity // self._basement) - 1) * chunk + _round_grain(chunk),
        )
        self._max_children = config.max_children
        self._flushing: dict[int, _Flush] = {}  # node id -> its open flush
        super().__init__(storage, config)

    # -- slot geometry ---------------------------------------------------------

    @property
    def segment_cap_bytes(self) -> int:
        """Theorem 9's per-child buffer cap: ``B/F`` in whole messages."""
        return self._seg_cap

    @property
    def basement_entries(self) -> int:
        """Entries per basement chunk (``~leaf_capacity / F``)."""
        return self._basement

    #: A leaf's extent is this many node sizes (or, in a node too small for
    #: that, what its last basement chunk's grain-rounded charge reaches).
    _EXTENT_SLACK = 2

    def extent_bytes(self, node: BeNode) -> int:
        """Bytes of the device extent that holds ``node``'s components."""
        return self._leaf_extent if node.is_leaf else self._internal_extent

    def _segment_overflow_bytes(self) -> int:
        return self.segment_cap_bytes

    # -- fused insert fast path ------------------------------------------------

    def _put(self, msg) -> None:
        """One-frame insert hot path.

        The base ``_put``'s steps inline (``_get`` → ``_child_index`` →
        ``add_message`` → ``_dirty_segment``, each a Python frame, dominated
        the profile), then the shared flush/split machinery the moment
        anything overflows.  One step differs: the message is appended to
        its root segment, so a segment that is not resident whole is not
        read back for it (:meth:`~repro.storage.cache.BufferCache.append`);
        a resident one is resized to its charged size, as
        ``_dirty_segment`` does.
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
        cache = self.storage.cache
        sid = ("s", root.node_id, idx)
        if cache.contains(sid):
            # _dirty_segment, inlined: charged bytes = messages (+ child pivots).
            nbytes = count * self._msg_bytes
            if self.pivots_in_parent:
                child = self._nodes[root.children[idx]]
                if child.is_leaf:
                    per = self._basement
                    nbytes += (-(-len(child.keys) // per) or 1) * self._key_bytes
                else:
                    nbytes += self._header_bytes + len(child.children) * self._pivot_bytes
            cache.mark_dirty(sid, ((nbytes + _GRAIN - 1) // _GRAIN) * _GRAIN)
        else:
            cache.append(sid, self._msg_bytes)
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

    def _read_missing(self, node: BeNode, items: list[tuple[Hashable, int, int]]) -> None:
        """Read the ``(component id, offset, bytes)`` items not resident, in
        one IO from the node's extent, and admit them clean."""
        cache = self.storage.cache
        contains = cache.contains
        missing = [item for item in items if not contains(item[0])]
        if missing:
            self.storage.device.read(self._base[node.node_id], sum(nb for _, _, nb in missing))
            cache.readmit_clean(missing)

    def _write(self, node: BeNode, items: list[tuple[Hashable, int, int]]) -> None:
        """Write ``items`` of ``node`` in one IO; they are resident and clean."""
        self.storage.device.write(self._base[node.node_id], sum(nb for _, _, nb in items))
        self.storage.cache.readmit_clean(items)

    def _plan_items(self, node: BeNode) -> list[tuple[Hashable, int, int]]:
        return [(cid, offset, _round_grain(nb)) for cid, offset, nb in self._component_plan(node)]

    def _segment_items(self, node: BeNode, idxs) -> list[tuple[Hashable, int, int]]:
        nid = node.node_id
        seg_base = self._base[nid] + self._pivot_slot
        slot = self._seg_slot
        return [
            (("s", nid, i), seg_base + i * slot, _round_grain(self._segment_read_bytes(node, i)))
            for i in idxs
        ]

    def _rewrite_node(self, node: BeNode, held: set | frozenset = frozenset()) -> None:
        """Whole-node rewrite: batched read of missing parts + one write.

        This is the charging model of a split: the node is read (what is
        not already cached, nor ``held``, the components its flush holds),
        modified, and written back with one large IO each way — not one
        seek per chunk.  A component the node did not have (a leaf's new
        chunk, a new child's segment) has nothing on the device to read:
        what a split moves into it was held first (:meth:`_hold_segments`).
        """
        cache = self.storage.cache
        items = self._plan_items(node)
        nid = node.node_id
        new_ids = [cid for cid, _, _ in items]
        old_ids = self._parts.get(nid, [])
        on_disk = set(old_ids)
        if old_ids != new_ids:
            keep = set(new_ids)
            for cid in old_ids:
                if cid not in keep:
                    # Components live in slots of the node's own extent;
                    # dropping one releases no allocator space.
                    cache.delete(cid)
            self._parts[nid] = new_ids
        self._read_missing(
            node, [item for item in items if item[0] in on_disk and item[0] not in held]
        )
        self._write(node, items)

    # -- storage hooks overridden from BeTree ---------------------------------------

    def _create_storage(self, node: BeNode) -> None:
        nid = node.node_id
        self._nodes[nid] = node
        self._base[nid] = self.storage.allocator.alloc(self.extent_bytes(node))
        self._parts[nid] = []
        cache = self.storage.cache
        for cid, offset, nb in self._component_plan(node):
            cache.insert(cid, None, offset, _round_grain(nb), dirty=True)
            self._parts[nid].append(cid)

    def _get(self, node_id: int) -> BeNode:
        return self._nodes[node_id]

    def _dirty(self, node: BeNode) -> None:
        # A split changes arities and shifts component positions: it
        # rewrites the node in a real system too.
        flush = self._flushing.get(node.node_id)
        if flush is not None:
            flush.changed = None  # rewritten whole when its flush ends
        else:
            self._rewrite_node(node)

    def _dirty_segment(self, node: BeNode, idx: int) -> None:
        flush = self._flushing.get(node.node_id)
        if flush is not None:
            if flush.changed is not None:
                flush.changed[idx] = None  # written when its flush ends
            return
        self.storage.cache.mark_dirty(
            ("s", node.node_id, idx), _round_grain(self._segment_read_bytes(node, idx))
        )

    def _hold_segments(self, node: BeNode, idxs) -> None:
        """Read segments ``idxs`` of ``node`` that are neither resident nor
        held by a flush open on it, in one IO, before messages leave them.

        Under an open flush they are held until it ends, as what it read
        is.  Otherwise (a flush out of the root, or of a node ``flush_all``
        visits, which the cache pages) they are one
        :meth:`~repro.storage.cache.BufferCache.get_many`, which reads only
        what an appended-to segment still has on disk.
        """
        flush = self._flushing.get(node.node_id)
        if flush is None:
            cache = self.storage.cache
            nid = node.node_id
            missing = [("s", nid, i) for i in idxs if not cache.contains(("s", nid, i))]
            if missing:
                cache.get_many(missing)
            return
        items = [item for item in self._segment_items(node, idxs) if item[0] not in flush.held]
        self._read_missing(node, items)
        flush.held.update(cid for cid, _, _ in items)

    def _free(self, node: BeNode) -> None:
        nid = node.node_id
        for cid in self._parts.pop(nid, []):
            self.storage.cache.delete(cid)
        self.storage.allocator.free(self._base.pop(nid), self.extent_bytes(node))
        del self._nodes[nid]

    # -- flushes ------------------------------------------------------------------------

    def _open(
        self, node: BeNode, items: list[tuple[Hashable, int, int]], changed: dict[int, None]
    ) -> None:
        """Start a flush into ``node`` that changes segments ``changed``:
        read what of ``items`` is not resident; the flush holds them until
        it ends.  Until :meth:`_close`, dirtying the node only records what
        changed, so the flush writes it once, however often its own flushes
        and its split change it."""
        self._read_missing(node, items)
        self._flushing[node.node_id] = _Flush({cid for cid, _, _ in items}, changed)

    def _close(self, node: BeNode) -> None:
        """End the flush into ``node``: one write of the segments it changed,
        or of the whole node (reading what it lacks) if it was reshaped."""
        flush = self._flushing.pop(node.node_id)
        if node.node_id not in self._nodes:
            return  # an emptied leaf, dropped
        if flush.changed is None:
            self._rewrite_node(node, flush.held)
        elif flush.changed:
            self._write(node, self._segment_items(node, flush.changed))

    def _split_internal(self, parent: BeNode | None, idx: int) -> None:
        """A split outside a flush (the root's, or one ``flush_all`` makes)
        opens its node as a flush does, so what it moves to the new sibling
        is held and the node is rewritten once, when the split ends."""
        nid = parent.children[idx] if parent is not None else self.root_id
        if nid in self._flushing:
            super()._split_internal(parent, idx)
            return
        node = self._nodes[nid]
        self._open(node, [], {})
        try:
            super()._split_internal(parent, idx)
        finally:
            self._close(node)

    def _flush_into(self, parent: BeNode, idx: int, child: BeNode, msgs: list[Message]) -> None:
        """A flush reads and writes only the segments it changes.

        One read of those not resident (without pivots in the parent, the
        child's pivot area too, to route the messages), then the child's
        own overflow flushes, then one write of every segment that took
        messages or was flushed on — where the naive tree rewrites the
        whole child.  A child those flushes made too wide is split before
        that write, which then rewrites it whole, once.
        """
        nid = child.node_id
        pivots = child.pivots
        routed = [(bisect.bisect_right(pivots, m.key), m) for m in msgs]
        changed = dict.fromkeys(ci for ci, _ in routed)
        reads = self._segment_items(child, changed)
        if not self.pivots_in_parent:
            reads.append((("p", nid), self._base[nid], _round_grain(self._pivot_area_bytes(child))))
        self._open(child, reads, changed)
        try:
            for ci, m in routed:
                child.add_message(ci, m)
            self._flush_overflows(child)
            if len(child.children) > self._max_children:
                self._split_internal(parent, idx)
        finally:
            self._close(child)

    def _apply_to_leaf(self, parent: BeNode | None, idx: int, msgs: list[Message]) -> None:
        """A flush reads the whole leaf as it is, then writes it (or the
        pieces a split makes of it) once."""
        leaf = self._nodes[parent.children[idx] if parent is not None else self.root_id]
        self._open(leaf, self._plan_items(leaf), {})
        try:
            super()._apply_to_leaf(parent, idx, msgs)
        finally:
            self._close(leaf)

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

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> None:
        """The base tree's invariants, then Theorem 9's: every segment holds
        at most ``B/F`` messages, and every component lies in its node's
        extent."""
        super().check_invariants()
        cap = self._seg_cap // self._msg_bytes
        for nid, node in self._nodes.items():
            if any(seg.count > cap for seg in node.segments):
                raise TreeError(f"node {nid} has a segment over the cap of {cap} messages")
            base = self._base[nid]
            end = base + self.extent_bytes(node)
            for cid, offset, nb in self._component_plan(node):
                if offset < base or offset + _round_grain(nb) > end:
                    raise TreeError(f"component {cid} outside its node's extent")


class _Flush:
    """A flush into one node (or a split of it), from
    :meth:`OptimizedBeTree._open` to :meth:`~OptimizedBeTree._close`: the
    component ids it holds in memory (read, or resident when it took them)
    and the segments it changed (``None``: a split reshaped the node, which
    is rewritten whole)."""

    __slots__ = ("held", "changed")

    def __init__(self, held: set, changed: dict[int, None] | None) -> None:
        self.held = held
        self.changed = changed


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
