"""Bε-tree node representation.

A leaf is exactly a B-tree leaf: sorted ``keys`` with parallel ``values``.

An internal node has ``pivots`` / ``children`` like a B-tree node plus a
message buffer.  The buffer is organized *per child* from the start
(``segments[i]`` holds the messages destined for ``children[i]``): the
naive tree of Lemma 8 still moves whole nodes per IO, so the segmentation
is invisible to it, while the Theorem 9 tree charges IO per segment.

Each segment is a :class:`SegmentBuffer` — a per-key message map with an
incrementally-maintained count, so overflow checks are O(fanout) per
operation instead of O(buffered messages).
"""

from __future__ import annotations

from typing import Any, Iterator

from operator import attrgetter

from repro.trees.betree.messages import Message
from repro.trees.sizing import EntryFormat

_by_seq = attrgetter("seq")


class SegmentBuffer:
    """Messages destined for one child, grouped per key, with a live count."""

    __slots__ = ("msgs", "count")

    def __init__(self) -> None:
        self.msgs: dict[int, list[Message]] = {}
        self.count = 0

    def add(self, message: Message) -> None:
        """Append one message (arrival order within a key = seq order)."""
        lst = self.msgs.get(message.key)
        if lst is None:
            self.msgs[message.key] = [message]
        else:
            lst.append(message)
        self.count += 1

    def for_key(self, key: int) -> list[Message]:
        """Messages buffered for ``key``, in seq order."""
        return self.msgs.get(key, [])

    def take_sorted(self) -> list[Message]:
        """Drain the buffer; returns all messages sequence-sorted."""
        out = [m for msgs in self.msgs.values() for m in msgs]
        # Sequence numbers are globally unique, so sorting on seq alone
        # yields the same order as full Message comparison — without the
        # tuple-building dataclass __lt__ per comparison.
        out.sort(key=_by_seq)
        self.msgs = {}
        self.count = 0
        return out

    def extract_ge(self, separator: int) -> "SegmentBuffer":
        """Split off all messages with ``key >= separator`` (node splits)."""
        right = SegmentBuffer()
        move = [k for k in self.msgs if k >= separator]
        for k in move:
            lst = self.msgs.pop(k)
            right.msgs[k] = lst
            right.count += len(lst)
            self.count -= len(lst)
        return right

    def items(self) -> Iterator[tuple[int, list[Message]]]:
        """Per-key message lists."""
        return iter(self.msgs.items())

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentBuffer(keys={len(self.msgs)}, count={self.count})"


class BeNode:
    """One Bε-tree node (leaf or internal)."""

    __slots__ = (
        "node_id", "height", "is_leaf", "keys", "values", "pivots", "children",
        "segments", "buffered_count",
    )

    def __init__(self, node_id: int, height: int) -> None:
        self.node_id = node_id
        self.height = height  # levels above the leaves; a node keeps its height
        self.is_leaf = height == 0
        self.keys: list[int] = []
        self.values: list[Any] = []
        self.pivots: list[int] = []       # len == len(children) - 1
        self.children: list[int] = []
        self.segments: list[SegmentBuffer] = []  # len == len(children)
        # Running total of messages across all segments.  add_message /
        # take_segment maintain it incrementally; code that rearranges the
        # ``segments`` list wholesale (splits) must call recount().
        self.buffered_count = 0

    # -- segment accounting ----------------------------------------------------

    def buffered_messages(self) -> int:
        """Total messages buffered in this node (O(1))."""
        return self.buffered_count

    def recount(self) -> None:
        """Recompute ``buffered_count`` after direct ``segments`` surgery."""
        self.buffered_count = sum(s.count for s in self.segments)

    def nbytes(self, fmt: EntryFormat) -> int:
        """Whole-node byte footprint (leaf entries or pivots + buffer)."""
        if self.is_leaf:
            return fmt.leaf_bytes(len(self.keys))
        return (
            fmt.internal_bytes(len(self.children))
            + fmt.buffer_bytes(self.buffered_messages())
        )

    def fullest_segment(self) -> int:
        """Index of the child with the most pending messages.

        This is the paper's flush policy: "Typically v is chosen to be the
        child with the most pending messages."
        """
        return max(range(len(self.segments)), key=lambda i: self.segments[i].count)

    def add_message(self, idx: int, message: Message) -> None:
        """Buffer ``message`` for child ``idx``."""
        self.segments[idx].add(message)
        self.buffered_count += 1

    def take_segment(self, idx: int) -> list[Message]:
        """Remove and return child ``idx``'s messages, sequence-sorted."""
        self.buffered_count -= self.segments[idx].count
        return self.segments[idx].take_sorted()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_leaf:
            return f"BeNode(id={self.node_id}, leaf, n={len(self.keys)})"
        return (
            f"BeNode(id={self.node_id}, internal, fanout={len(self.children)}, "
            f"buffered={self.buffered_messages()})"
        )
