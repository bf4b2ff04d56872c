"""The RAM a run-based tree leaves unpinned, spent as an LRU set of blocks.

The B-tree and the Bε-trees spend their memory ``M`` in a
:class:`~repro.storage.cache.BufferCache`, which holds node objects by id
and writes dirty ones back.  The COLA and the cob tier place their own
byte extents on a bare device and pin part of their RAM budget (their
small levels, the top of their index); :class:`BlockCache` is what they do
with the rest.  It holds no data and no dirty bits, only which
``block_bytes``-aligned blocks of the device are resident, in LRU order:

* a read of an extent whose blocks are all resident is free (a hit) and
  turns its blocks MRU; any other read is charged to the device as it is
  without the cache — the whole extent, even when some of its blocks are
  resident — and admits its blocks, unless there are more of them than
  the cache holds (it declines those);
* writes go to the device and allocate nothing: the writer held the bytes,
  so a resident block it overwrote stays valid, and write IOs, bytes
  written and write amplification are those of the tree without a cache;
* a freed extent's blocks are dropped (:meth:`drop`).

The owning tree sets the capacity, ``(ram_bytes - pinned bytes) //
block_bytes`` whole blocks, wherever its pinned part changes
(:meth:`resize`).  At capacity zero every read is charged as before.
A ``get``'s hot path tests residency inline, as :meth:`read` does, rather
than calling it: a get costs no extra Python frame.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.errors import ConfigurationError
from repro.storage.cache import CacheStats
from repro.storage.device import BlockDevice


class BlockCache:
    """Resident ``block_bytes`` blocks of one device, least recent first."""

    __slots__ = ("block_bytes", "capacity", "blocks", "stats")

    def __init__(self, block_bytes: int, capacity: int = 0) -> None:
        if block_bytes <= 0:
            raise ConfigurationError(f"block_bytes must be positive, got {block_bytes}")
        self.block_bytes = block_bytes
        self.capacity = 0
        #: Block number (``offset // block_bytes``) -> ``None``, LRU first.
        self.blocks: OrderedDict[int, None] = OrderedDict()
        #: A hit or a miss per extent read; an eviction per block.
        self.stats = CacheStats()
        self.resize(capacity)

    @property
    def resident_bytes(self) -> int:
        """RAM the resident blocks take."""
        return len(self.blocks) * self.block_bytes

    def resize(self, capacity: int) -> None:
        """Hold at most ``capacity`` blocks (none when negative), evicting
        the least recent ones beyond it."""
        self.capacity = max(0, capacity)
        self._admit(())

    def clear(self) -> None:
        """Forget every block: the next read of anything is charged."""
        self.blocks.clear()

    def read(self, device: BlockDevice, offset: int, nbytes: int, *, admit: bool = True) -> None:
        """Read ``[offset, offset + nbytes)`` from ``device`` unless every
        block of it is resident.  ``admit=False`` is for an extent the
        caller frees next: it is read, or found resident, but not kept."""
        block = self.block_bytes
        first, last = offset // block, (offset + nbytes - 1) // block
        blocks = self.blocks
        if first in blocks and last in blocks and (
            last - first < 2 or all(map(blocks.__contains__, range(first + 1, last)))
        ):
            self.stats.hits += 1
            touch = blocks.move_to_end
            for b in range(first, last + 1):
                touch(b)
            return
        stats = self.stats
        stats.misses += 1
        device.read(offset, nbytes)
        capacity = self.capacity
        if admit and last - first < capacity:  # _admit of one span, inline
            touch = blocks.move_to_end
            for b in range(first, last + 1):
                blocks[b] = None
                touch(b)
            while len(blocks) > capacity:
                blocks.popitem(False)
                stats.evictions += 1

    def read_set(
        self, device: BlockDevice, extents: Iterable[tuple[int, int]], *, limit: int
    ) -> None:
        """:meth:`~repro.storage.device.BlockDevice.read_set` of the distinct
        extents not wholly resident; the resident ones are touched first and
        the others admitted after the read, in disk order."""
        block = self.block_bytes
        blocks = self.blocks
        touch = blocks.move_to_end
        spans = sorted(set(extents))
        missed, spanned = [], []
        for offset, nbytes in spans:
            first, last = offset // block, (offset + nbytes - 1) // block
            # The ends first: most extents span one or two blocks.
            if first in blocks and last in blocks and (
                last - first < 2 or all(map(blocks.__contains__, range(first + 1, last)))
            ):
                for b in range(first, last + 1):
                    touch(b)
            else:
                missed.append((offset, nbytes))
                spanned.append((first, last))
        stats = self.stats
        stats.hits += len(spans) - len(missed)
        stats.misses += len(missed)
        if missed:
            device.read_set(missed, limit=limit)
            self._admit(spanned)

    def _admit(self, spans: Iterable[tuple[int, int]]) -> None:
        """Make blocks ``first .. last`` of each of ``spans`` resident and
        MRU, in order, declining a span of more blocks than the capacity;
        then evict the least recent blocks beyond the capacity."""
        blocks = self.blocks
        touch = blocks.move_to_end
        capacity = self.capacity
        for first, last in spans:
            if last - first < capacity:
                for b in range(first, last + 1):
                    blocks[b] = None
                    touch(b)
        evict, stats = blocks.popitem, self.stats
        while len(blocks) > capacity:
            evict(False)
            stats.evictions += 1

    def drop(self, offset: int, nbytes: int) -> None:
        """Forget the blocks of a freed extent (and of the neighbours that
        share its first or last block)."""
        blocks = self.blocks
        block = self.block_bytes
        first, last = offset // block, (offset + nbytes - 1) // block
        if last - first >= len(blocks):  # a long extent: walk the residents
            doomed = [b for b in blocks if first <= b <= last]
        else:
            doomed = range(first, last + 1)
        for b in doomed:
            blocks.pop(b, None)
