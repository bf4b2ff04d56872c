"""The Bε-tree of Lemma 8: message buffers, whole-node IOs.

Mutations enter the root as messages; when a node's buffer overflows, the
node *flushes*: it moves all messages destined for the child with the most
pending messages down one level (recursing if that child overflows in
turn).  Queries read the root-to-leaf path and logically apply every
relevant buffered message.

The fanout ``F`` is the paper's tuning knob ``F = B^ε + 1``: ``F ~ B``
degenerates to a B-tree, small constant ``F`` to a buffered repository
tree; practical trees use 10-20 (TokuDB targets 16).

All IOs move whole ``node_bytes`` extents — the naive cost model of
Lemma 8.  The Theorem 9 refinements live in
:class:`repro.trees.betree.optimized.OptimizedBeTree`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Any

from repro.errors import ConfigurationError, TreeError
from repro.obs import OBS
from repro.storage.stack import StorageStack
from repro.trees.api import KVTree
from repro.trees.betree.messages import Message, MessageOp, apply_messages
from repro.trees.betree.node import BeNode, SegmentBuffer
from repro.trees.sizing import BULK_FILL, EntryFormat


@dataclass(frozen=True)
class BeTreeConfig:
    """Tuning of one Bε-tree instance.

    Parameters
    ----------
    node_bytes:
        Node size ``B`` in bytes (the Figure 3 sweep knob).
    fanout:
        Target fanout ``F``.  If ``None``, computed from ``epsilon`` as
        ``F = ceil(leaf_entries ** epsilon)`` (clamped to at least 2).
    epsilon:
        The ε of Bε; only used when ``fanout`` is ``None``.
    """

    node_bytes: int = 1 << 20
    fmt: EntryFormat = EntryFormat()
    fanout: int | None = 16
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.fanout is not None and self.fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {self.fanout}")
        cap = self.fmt.leaf_capacity(self.node_bytes)  # validates node size
        f = self.target_fanout
        if self.fmt.internal_bytes(2 * f) > self.node_bytes:
            raise ConfigurationError(
                f"fanout {f} cannot fit in {self.node_bytes}-byte nodes"
            )
        del cap

    @property
    def leaf_capacity(self) -> int:
        """Max entries per leaf."""
        return self.fmt.leaf_capacity(self.node_bytes)

    @property
    def target_fanout(self) -> int:
        """The fanout ``F``, from ``fanout`` or ``leaf_entries ** epsilon``."""
        if self.fanout is not None:
            return self.fanout
        return max(2, math.ceil(self.leaf_capacity**self.epsilon))

    @property
    def max_children(self) -> int:
        """Split threshold: fanout may drift up to ``2F`` before splitting."""
        return 2 * self.target_fanout

    @property
    def buffer_budget_bytes(self) -> int:
        """Bytes of a node available for buffered messages."""
        budget = (
            self.node_bytes
            - self.fmt.node_header_bytes
            - self.max_children * self.fmt.pivot_bytes
        )
        if budget < self.fmt.message_bytes * self.max_children:
            raise ConfigurationError(
                f"node size {self.node_bytes} leaves no buffer room at fanout "
                f"{self.target_fanout}"
            )
        return budget


class BeTree(KVTree):
    """A Bε-tree dictionary storing ``int -> value`` pairs."""

    kind = "betree"

    def __init__(self, storage: StorageStack, config: BeTreeConfig | None = None) -> None:
        self.storage = storage
        self.device = storage.device
        self.allocator = storage.allocator
        self.config = config or BeTreeConfig()
        # Byte thresholds inverted to message-count thresholds:
        # buffer_bytes(n) = n * message_bytes is linear and monotonic, so
        # ``bytes > cap`` is exactly ``count > cap // message_bytes``.  The
        # per-insert budget check then needs no byte arithmetic at all.
        # Computed lazily on the first overflow check (not here) because
        # ``buffer_budget_bytes`` rejects configs whose nodes are too small
        # to buffer — and query-only trees at such sizes must still work.
        self._budget_msgs: int | None = None
        self._seg_cap_msgs = 0
        self._next_id = 0
        self._next_seq = 0
        self.user_bytes_modified = 0
        root = self._new_node(is_leaf=True)
        self.root_id = root.node_id

    # -- node lifecycle (overridden by the optimized tree) ---------------------

    def _new_node(self, *, is_leaf: bool) -> BeNode:
        node = BeNode(self._next_id, is_leaf)
        self._next_id += 1
        self._create_storage(node)
        return node

    def _create_storage(self, node: BeNode) -> None:
        self.storage.create(node.node_id, node, self.config.node_bytes)

    def _get(self, node_id: int) -> BeNode:
        node = self.storage.cache.get(node_id)
        assert isinstance(node, BeNode)
        return node

    def _read_for_range(self, node_id: int) -> BeNode:
        """Fetch a node during a range scan (whole node in both trees)."""
        return self._get(node_id)

    def _dirty(self, node: BeNode) -> None:
        self.storage.cache.mark_dirty(node.node_id)

    def _dirty_segment(self, node: BeNode, idx: int) -> None:
        """Segment-granularity dirtying; whole node in the naive tree."""
        self.storage.cache.mark_dirty(node.node_id)

    def _dirty_pivots(self, node: BeNode) -> None:
        self.storage.cache.mark_dirty(node.node_id)

    def _free(self, node: BeNode) -> None:
        self.storage.destroy(node.node_id)

    # -- helpers ---------------------------------------------------------------

    def _seq(self) -> int:
        self._next_seq += 1
        return self._next_seq

    @staticmethod
    def _child_index(node: BeNode, key: int) -> int:
        return bisect.bisect_right(node.pivots, key)

    def _segment_overflow_bytes(self) -> int:
        """Per-segment byte cap; unbounded in the naive tree."""
        return self.config.buffer_budget_bytes

    # -- mutations ---------------------------------------------------------------

    def _insert(self, key: int, value: Any) -> None:
        self._put(Message(self._seq(), MessageOp.INSERT, key, value))

    def _put_many(self, pairs) -> None:
        """Insert every ``(key, value)`` pair, in order.

        The batched write-side counterpart of the batched read paths:
        accounting (device traffic, cache stats, message sequence numbers)
        is identical to a serial loop of :meth:`insert` — the batching only
        removes per-call Python overhead, it never reorders messages.
        """
        seq = self._next_seq
        put = self._put
        make = Message
        op = MessageOp.INSERT
        for key, value in pairs:
            seq += 1
            self._next_seq = seq
            put(make(seq, op, key, value))
            seq = self._next_seq  # _put may cascade into further mutations

    def _delete(self, key: int) -> None:
        """Delete ``key`` (a no-op if absent; encoded as a tombstone)."""
        self._put(Message(self._seq(), MessageOp.DELETE, key))

    def upsert(self, key: int, delta: int) -> None:
        """Add ``delta`` to the value of ``key`` (0 base if absent)."""
        self._put(Message(self._seq(), MessageOp.UPSERT, key, delta))

    def _put(self, msg: Message) -> None:
        self.user_bytes_modified += self.config.fmt.entry_bytes
        root = self._get(self.root_id)
        if root.is_leaf:
            self._apply_to_leaf(None, 0, [msg])
            return
        idx = self._child_index(root, msg.key)
        root.add_message(idx, msg)
        self._dirty_segment(root, idx)
        self._flush_overflows(root, changed_idx=idx)
        self._maybe_grow_root()

    def _ensure_thresholds(self) -> int:
        """Compute the count thresholds on first use; returns the budget.

        Deferred from ``__init__`` so that configs whose nodes cannot
        buffer (``buffer_budget_bytes`` raises) still support the
        query-only lifecycle; the error surfaces on the first insert,
        exactly where the old per-insert byte arithmetic raised it.
        """
        mb = self.config.fmt.message_bytes
        self._budget_msgs = self.config.buffer_budget_bytes // mb
        self._seg_cap_msgs = self._segment_overflow_bytes() // mb
        return self._budget_msgs

    def _buffer_over_budget(self, node: BeNode, changed_idx: int | None = None) -> bool:
        """Whether the node must flush, via precomputed count thresholds.

        ``changed_idx`` is the O(1) fast path: between public operations
        every segment respects the cap (flush restores it, and splits only
        redistribute messages), so after a single ``add_message(idx)`` the
        only segment that can newly exceed the cap is ``idx`` — the full
        scan and the single check return the same answer.
        """
        budget = self._budget_msgs
        if budget is None:
            budget = self._ensure_thresholds()
        if node.buffered_count > budget:
            return True
        cap = self._seg_cap_msgs
        if changed_idx is not None:
            return node.segments[changed_idx].count > cap
        return any(s.count > cap for s in node.segments)

    def _flush_overflows(self, node: BeNode, changed_idx: int | None = None) -> None:
        """Flush the fullest child until the node's buffer fits again."""
        while self._buffer_over_budget(node, changed_idx):
            self._flush_child(node, node.fullest_segment())
            changed_idx = None  # a flush may leave any segment the fullest

    def _flush_child(self, parent: BeNode, idx: int) -> None:
        """Move child ``idx``'s pending messages down one level."""
        if OBS.enabled:
            start = self.storage.device.clock
        msgs = parent.take_segment(idx)
        self._dirty_segment(parent, idx)
        if not msgs:
            raise TreeError("flushing an empty segment would loop forever")
        child = self._get(parent.children[idx])
        if child.is_leaf:
            self._apply_to_leaf(parent, idx, msgs)
        else:
            for m in msgs:
                child.add_message(self._child_index(child, m.key), m)
            # The flush rewrites the child (its buffer changed wholesale).
            self._dirty(child)
            self._flush_overflows(child)
            if len(child.children) > self.config.max_children:
                self._split_internal(parent, idx)
        if OBS.enabled:
            OBS.op_event("betree.flush", start, self.storage.device.clock)

    def _apply_to_leaf(self, parent: BeNode | None, idx: int, msgs: list[Message]) -> None:
        """Apply seq-sorted messages to a leaf; split/shrink as needed.

        ``parent`` is ``None`` only when the root itself is the leaf.
        """
        leaf = self._get(parent.children[idx]) if parent is not None else self._get(self.root_id)
        assert leaf.is_leaf
        pending: dict[int, Any] | None = None
        if len(msgs) > 8:
            # One pass both classifies and collects: a non-insert op aborts
            # into the serial loop below with `pending` discarded.
            pending = {}
            insert_op = MessageOp.INSERT
            for m in msgs:
                if m.op is not insert_op:
                    pending = None
                    break
                pending[m.key] = m.value  # seq order: last write wins
        if pending is not None:
            # All-insert batch (the flush hot path): the serial loop's final
            # state is fully determined by the key -> last-value map plus
            # sortedness, so overwrite present keys in place and merge the
            # fresh ones in a single O(n + k log n) pass instead of k
            # bisect-inserts, each of which memmoves the whole tail.
            keys, values = leaf.keys, leaf.values
            n = len(keys)
            fresh: list[tuple[int, Any]] = []
            for k, v in pending.items():
                i = bisect.bisect_left(keys, k)
                if i < n and keys[i] == k:
                    values[i] = v
                else:
                    fresh.append((k, v))
            if fresh:
                fresh.sort()
                mk: list[int] = []
                mv: list[Any] = []
                i = 0
                for k, v in fresh:
                    j = bisect.bisect_left(keys, k, i)
                    if j > i:
                        mk.extend(keys[i:j])
                        mv.extend(values[i:j])
                        i = j
                    mk.append(k)
                    mv.append(v)
                mk.extend(keys[i:])
                mv.extend(values[i:])
                leaf.keys, leaf.values = mk, mv
        else:
            for m in msgs:
                i = bisect.bisect_left(leaf.keys, m.key)
                present = i < len(leaf.keys) and leaf.keys[i] == m.key
                if m.op is MessageOp.INSERT:
                    if present:
                        leaf.values[i] = m.value
                    else:
                        leaf.keys.insert(i, m.key)
                        leaf.values.insert(i, m.value)
                elif m.op is MessageOp.DELETE:
                    if present:
                        del leaf.keys[i]
                        del leaf.values[i]
                else:  # UPSERT
                    if present:
                        leaf.values[i] = leaf.values[i] + m.value
                    else:
                        leaf.keys.insert(i, m.key)
                        leaf.values.insert(i, m.value)
        self._dirty(leaf)
        cap = self.config.leaf_capacity
        if len(leaf.keys) > cap:
            self._split_leaf(parent, idx, leaf)
        elif parent is not None and not leaf.keys:
            self._drop_empty_leaf(parent, idx, leaf)

    def _split_leaf(self, parent: BeNode | None, idx: int, leaf: BeNode) -> None:
        """Split an overfull leaf into ~2/3-full pieces."""
        if OBS.enabled:
            start = self.storage.device.clock
        cap = self.config.leaf_capacity
        pieces = math.ceil(len(leaf.keys) / math.ceil(cap * 2 / 3))
        per = math.ceil(len(leaf.keys) / pieces)
        new_nodes: list[BeNode] = []
        for lo in range(per, len(leaf.keys), per):
            piece = self._new_node(is_leaf=True)
            piece.keys = leaf.keys[lo : lo + per]
            piece.values = leaf.values[lo : lo + per]
            self._dirty(piece)
            new_nodes.append(piece)
        del leaf.keys[per:]
        del leaf.values[per:]
        self._dirty(leaf)
        if parent is None:
            parent = self._new_node(is_leaf=False)
            parent.children = [leaf.node_id]
            parent.segments = [SegmentBuffer()]
            self.root_id = parent.node_id
            idx = 0
        for j, piece in enumerate(new_nodes):
            parent.pivots.insert(idx + j, piece.keys[0])
            parent.children.insert(idx + j + 1, piece.node_id)
            parent.segments.insert(idx + j + 1, SegmentBuffer())
        self._dirty_pivots(parent)
        if OBS.enabled:
            OBS.op_event("betree.split", start, self.storage.device.clock, kind="leaf")

    def _drop_empty_leaf(self, parent: BeNode, idx: int, leaf: BeNode) -> None:
        """Remove a fully-emptied leaf, keeping at least one child."""
        if len(parent.children) <= 1:
            return  # a lone empty leaf under the root is allowed
        leftover = parent.segments[idx]
        if leftover.count:
            raise TreeError("dropping a leaf whose segment still holds messages")
        del parent.children[idx]
        del parent.segments[idx]
        # Removing child idx removes the separator on its left (or, for the
        # leftmost child, the one on its right): the neighbour absorbs the
        # emptied key range.
        del parent.pivots[idx - 1 if idx > 0 else 0]
        self._free(leaf)
        self._dirty_pivots(parent)

    def _split_internal(self, parent: BeNode | None, idx: int) -> None:
        """Split internal node ``parent.children[idx]`` in half."""
        if OBS.enabled:
            start = self.storage.device.clock
        node = (
            self._get(parent.children[idx]) if parent is not None else self._get(self.root_id)
        )
        mid = len(node.children) // 2
        right = self._new_node(is_leaf=False)
        separator = node.pivots[mid - 1]
        right.pivots = node.pivots[mid:]
        right.children = node.children[mid:]
        right.segments = node.segments[mid:]
        del node.pivots[mid - 1 :]
        del node.children[mid:]
        del node.segments[mid:]
        node.recount()
        right.recount()
        self._dirty(node)
        self._dirty(right)
        if parent is None:
            parent = self._new_node(is_leaf=False)
            parent.children = [node.node_id]
            parent.segments = [SegmentBuffer()]
            self.root_id = parent.node_id
            idx = 0
        parent.pivots.insert(idx, separator)
        parent.children.insert(idx + 1, right.node_id)
        # Partition the parent's pending messages for the split child: keys
        # at or above the separator now route to the right half.
        parent.segments.insert(idx + 1, parent.segments[idx].extract_ge(separator))
        self._dirty_pivots(parent)
        if OBS.enabled:
            OBS.op_event("betree.split", start, self.storage.device.clock, kind="internal")

    def _maybe_grow_root(self) -> None:
        root = self._get(self.root_id)
        if not root.is_leaf and len(root.children) > self.config.max_children:
            self._split_internal(None, 0)

    # -- queries ----------------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        """Read the root-to-leaf path, whole nodes, collecting ``key``'s
        buffered messages on the way down."""
        get = self._get
        node = get(self.root_id)
        msgs: list[Message] = []
        while not node.is_leaf:
            ci = bisect.bisect_right(node.pivots, key)
            pending = node.segments[ci].msgs.get(key)
            if pending:
                msgs.extend(pending)
            node = get(node.children[ci])
        return self._answer(node, bisect.bisect_left(node.keys, key), key, msgs)

    @staticmethod
    def _answer(leaf: BeNode, i: int, key: int, msgs: list[Message]) -> Any | None:
        """What a point query returns: the leaf's entry for ``key`` (``i`` is
        its ``bisect_left`` position) with the path's messages replayed over it."""
        present = i < len(leaf.keys) and leaf.keys[i] == key
        base = leaf.values[i] if present else None
        if not msgs:
            return base
        msgs.sort()
        value, exists = apply_messages(base, present, msgs)
        return value if exists else None

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        entries: dict[int, Any] = {}
        msgs: list[Message] = []
        self._collect_range(self.root_id, lo, hi, entries, msgs)
        msgs.sort()
        for m in msgs:
            if m.op is MessageOp.INSERT:
                entries[m.key] = m.value
            elif m.op is MessageOp.DELETE:
                entries.pop(m.key, None)
            else:
                entries[m.key] = entries.get(m.key, 0) + m.value
        return sorted(entries.items())

    def _collect_range(
        self, node_id: int, lo: int, hi: int, entries: dict, msgs: list[Message]
    ) -> None:
        node = self._read_for_range(node_id)
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, lo)
            j = bisect.bisect_right(node.keys, hi)
            entries.update(zip(node.keys[i:j], node.values[i:j]))
            return
        first = bisect.bisect_right(node.pivots, lo)
        last = bisect.bisect_right(node.pivots, hi)
        for ci in range(first, last + 1):
            for key, key_msgs in node.segments[ci].items():
                if lo <= key <= hi:
                    msgs.extend(key_msgs)
            self._collect_range(node.children[ci], lo, hi, entries, msgs)

    # -- maintenance ---------------------------------------------------------------

    def flush_all(self) -> None:
        """Push every buffered message down to the leaves (test/bench aid)."""
        changed = True
        while changed:
            changed = self._flush_everything(self.root_id)
            self._maybe_grow_root()

    def _flush_everything(self, node_id: int, parent: BeNode | None = None) -> bool:
        node = self._get(node_id)
        if node.is_leaf:
            return False
        changed = False
        while node.buffered_messages() > 0:
            self._flush_child(node, node.fullest_segment())
            changed = True
        for child_id in list(node.children):
            changed |= self._flush_everything(child_id, node)
        # Flushes into leaves split them under this node, as they do on the
        # normal path, where _flush_child then splits an over-wide child;
        # the root is _maybe_grow_root's.
        if parent is not None and len(node.children) > self.config.max_children:
            self._split_internal(parent, parent.children.index(node_id))
        return changed

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Replace the tree's contents with sorted ``pairs`` (empty tree only)."""
        # Pristine: no message ever sent and no node beyond the first root.
        # Structural, so a refused load charges nothing (len() would scan).
        if self._next_seq or self._next_id > 1:
            raise TreeError("bulk_load requires a pristine tree")
        all_keys = [k for k, _ in pairs]
        if not all(map(lt, all_keys, islice(all_keys, 1, None))):
            raise TreeError("bulk_load requires strictly increasing keys")
        if not pairs:
            return
        self._free(self._get(self.root_id))
        per_leaf = max(2, int(self.config.leaf_capacity * BULK_FILL))
        all_values = [v for _, v in pairs]
        level: list[tuple[int, int]] = []
        for start in range(0, len(pairs), per_leaf):
            leaf = self._new_node(is_leaf=True)
            leaf.keys = all_keys[start : start + per_leaf]
            leaf.values = all_values[start : start + per_leaf]
            self._dirty(leaf)
            level.append((leaf.keys[0], leaf.node_id))
        self.user_bytes_modified += len(pairs) * self.config.fmt.entry_bytes

        per_internal = max(2, int(self.config.target_fanout * BULK_FILL))
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for start in range(0, len(level), per_internal):
                group = level[start : start + per_internal]
                if len(group) == 1 and next_level:
                    prev = self._get(next_level[-1][1])
                    prev.pivots.append(group[0][0])
                    prev.children.append(group[0][1])
                    prev.segments.append(SegmentBuffer())
                    self._dirty(prev)
                    continue
                node = self._new_node(is_leaf=False)
                node.children = [nid for _, nid in group]
                node.pivots = [first for first, _ in group[1:]]
                node.segments = [SegmentBuffer() for _ in group]
                self._dirty(node)
                next_level.append((group[0][0], node.node_id))
            level = next_level
        self.root_id = level[0][1]

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert ordering, structure and byte budgets."""
        leaf_depths: set[int] = set()
        self._check_node(self.root_id, None, None, 0, leaf_depths)
        if len(leaf_depths) > 1:
            raise TreeError(f"leaves at multiple depths: {sorted(leaf_depths)}")

    def _check_node(
        self, node_id: int, lo: int | None, hi: int | None, depth: int, leaf_depths: set[int]
    ) -> None:
        node = self._get(node_id)
        fmt = self.config.fmt
        if node.is_leaf:
            if len(node.keys) != len(node.values):
                raise TreeError(f"leaf {node_id} keys/values mismatch")
            if len(node.keys) > self.config.leaf_capacity:
                raise TreeError(f"leaf {node_id} over capacity")
            for a, b in zip(node.keys, node.keys[1:]):
                if a >= b:
                    raise TreeError(f"leaf {node_id} keys out of order")
            for k in node.keys:
                if (lo is not None and k < lo) or (hi is not None and k >= hi):
                    raise TreeError(f"leaf {node_id} key {k} outside ({lo}, {hi})")
            leaf_depths.add(depth)
            return
        if len(node.children) != len(node.pivots) + 1:
            raise TreeError(f"node {node_id} pivot/children arity mismatch")
        if len(node.segments) != len(node.children):
            raise TreeError(f"node {node_id} segment/children arity mismatch")
        if node.buffered_count != sum(s.count for s in node.segments):
            raise TreeError(f"node {node_id} buffered_count out of sync")
        if len(node.children) > self.config.max_children:
            raise TreeError(f"node {node_id} fanout {len(node.children)} over max")
        if fmt.buffer_bytes(node.buffered_messages()) > self.config.buffer_budget_bytes:
            raise TreeError(f"node {node_id} buffer over budget")
        for a, b in zip(node.pivots, node.pivots[1:]):
            if a >= b:
                raise TreeError(f"node {node_id} pivots out of order")
        bounds = [lo] + list(node.pivots) + [hi]
        for ci in range(len(node.children)):
            c_lo, c_hi = bounds[ci], bounds[ci + 1]
            for key in node.segments[ci].msgs:
                if (c_lo is not None and key < c_lo) or (c_hi is not None and key >= c_hi):
                    raise TreeError(
                        f"node {node_id} segment {ci} message key {key} outside range"
                    )
                for m in node.segments[ci].msgs[key]:
                    if m.key != key:
                        raise TreeError(f"node {node_id} message filed under wrong key")
            self._check_node(node.children[ci], c_lo, c_hi, depth + 1, leaf_depths)
