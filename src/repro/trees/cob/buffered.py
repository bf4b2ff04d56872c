"""Theorem 9 variant: per-child buffer segments over the cache-oblivious tree.

The paper's Theorem 9 observes that a Bε-tree under the *affine* model
should not buffer at every node: one layer of per-child buffer
*segments* in front of the leaf structure captures the insert win
(messages move in big sequential chunks) without paying the extra seek
levels.  :class:`BufferedCOBTree` is that design grafted onto the
:class:`~repro.trees.cob.tree.COBTree`: ``fanout`` key-range buckets,
each with its own device buffer extent, absorb writes; a full bucket
flushes its messages — puts and tombstones alike — into the base tree as
**one** :meth:`~repro.trees.cob.tree.COBTree.put_bulk` (one search pair,
one PMA rebalance or resize and one index repair for the whole batch,
amortizing the ``O(log^2 n)`` movement across the bucket; the PMA's
density floors keep a delete-heavy flush from leaving sparse segments).

Bucket boundaries are *weight-balanced* rather than static: a bucket
that has absorbed more than ``rebuild_factor`` times its fair share of
all messages since the last rebuild triggers a rebuild — every bucket
flushes, the splitters are recomputed as equal-weight quantiles of the
stored keys, and the absorption counters reset.  Skewed workloads
therefore keep every buffer segment equally useful, which is what makes
the amortized insert bound hold without knowing the key distribution.

IO accounting: appends charge one block write each time the bucket's
byte count fills a new block (the in-RAM tail is free, as in a real
write buffer); flushes charge the unwritten tail block plus a
sequential read of the occupied buffer span; queries that touch a
non-empty bucket pay a read of its occupied span before the base
lookup — buffered inserts get cheaper, queries strictly dearer, exactly
the trade Theorem 9 prices.  Every read goes through the base tree's block
cache (:class:`~repro.storage.blocks.BlockCache`): a bucket span whose
blocks are resident is free, as in the base.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.errors import TreeError
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.trees.api import KVTree, TreeKind
from repro.trees.cob.tree import KIND as _COB
from repro.trees.cob.tree import COBConfig, COBTree
from repro.trees.merge import TOMBSTONE
from repro.trees.sizing import KEY_MAX, KEY_MIN


class _Bucket:
    """One key-range buffer segment: a device extent + its messages.

    Only a key's newest message matters to a flush or a query, so
    ``messages`` maps key to newest value; every message still occupies
    the extent, and ``nbytes`` — what all charges derive from — counts it.
    """

    __slots__ = ("offset", "messages", "nbytes")

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self.messages: dict[int, Any] = {}
        self.nbytes = 0  # buffered message bytes (tail may be unwritten)


class BufferedCOBTree(KVTree):
    """Cache-oblivious tree with per-child buffer segments (Theorem 9)."""

    kind = "cob-buffered"

    def __init__(
        self,
        device: BlockDevice,
        config: COBConfig | None = None,
        *,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        self.config = config or COBConfig()
        self.device = device
        self.allocator = allocator or ExtentAllocator(
            device.capacity_bytes, alignment=512
        )
        self.base = COBTree(device, self.config, allocator=self.allocator)
        #: One RAM budget: the buckets' reads share the base's block cache.
        self.block_cache = self.base.block_cache
        self.user_bytes_modified = 0
        self.flushes = 0
        self.splitter_rebuilds = 0
        #: Upper-bound keys of buckets 0..fanout-2; bucket fanout-1 is open.
        self.splitters: list[int] = []
        # A bucket is read and written in whole blocks, so its extent is
        # whole blocks too: no charge runs into a neighbouring bucket.
        block_bytes = self.config.block_bytes
        extent = -(-self.config.buffer_bytes // block_bytes) * block_bytes
        self.buckets = [_Bucket(self.allocator.alloc(extent)) for _ in range(self.config.fanout)]
        #: Messages absorbed per bucket since the last splitter rebuild.
        self.absorbed = [0] * self.config.fanout
        self._rebuilding = False

    # -- bucket geometry -----------------------------------------------------

    def _bucket_of(self, key: int) -> int:
        return bisect.bisect_left(self.splitters, key)

    def _occupied_blocks(self, bucket: _Bucket) -> int:
        return -(-bucket.nbytes // self.config.block_bytes)

    def _bucket_bounds(self, b: int) -> tuple[int, int]:
        """Closed key range owned by bucket ``b`` (empty if inactive).

        Before the first splitter rebuild only bucket 0 is active and owns
        everything; inactive buckets report an inverted range.
        """
        if b > len(self.splitters):
            return 1, 0
        lo = self.splitters[b - 1] + 1 if b > 0 else KEY_MIN
        hi = self.splitters[b] if b < len(self.splitters) else KEY_MAX
        return lo, hi

    # -- write path ----------------------------------------------------------

    def _append(self, key: int, value: Any) -> None:
        self.user_bytes_modified += self.config.fmt.message_bytes
        b = self._bucket_of(key)
        bucket = self.buckets[b]
        if bucket.nbytes + self.config.fmt.message_bytes > self.config.buffer_bytes:
            self._flush(b)
            # The flush may have seeded or rebuilt the splitters, so the
            # bucket geometry can differ now; re-resolve the key's bucket
            # (every bucket involved is freshly drained either way).
            b = self._bucket_of(key)
            bucket = self.buckets[b]
        before_blocks = self._occupied_blocks(bucket)
        bucket.messages[key] = value
        bucket.nbytes += self.config.fmt.message_bytes
        after_blocks = self._occupied_blocks(bucket)
        if after_blocks > before_blocks and after_blocks > 1:
            # A block just filled; it goes to the device.  (The first,
            # still-filling block stays in RAM until then.)
            self.device.write(
                bucket.offset + (after_blocks - 2) * self.config.block_bytes,
                self.config.block_bytes,
            )
        self.absorbed[b] += 1
        fair = 1 + sum(self.absorbed) / self.config.fanout
        # The full-buffer floor keeps rebuild cost amortized against at
        # least one flush cycle (a freshly reset counter would otherwise
        # re-trigger after a handful of skewed inserts).
        full = self.config.buffer_bytes // self.config.fmt.message_bytes
        if (
            self.absorbed[b] >= full
            and self.absorbed[b] > self.config.rebuild_factor * fair
        ):
            self._rebuild_splitters()

    def _insert(self, key: int, value: Any) -> None:
        self._append(int(key), value)

    def _delete(self, key: int) -> None:
        """Delete ``key`` (buffered tombstone)."""
        self._append(int(key), TOMBSTONE)

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Load a key-sorted batch into an *empty* tree sequentially.

        Delegates to the base tree's :meth:`COBTree.bulk_load`, then seeds
        the splitters from the loaded keys so the buckets partition the
        key space from the first buffered insert on.
        """
        if any(bucket.messages for bucket in self.buckets):
            raise TreeError("bulk_load requires an empty tree")
        self.base.bulk_load(pairs)
        self.user_bytes_modified += self.config.fmt.entry_bytes * len(pairs)
        if self.base.pma.n >= self.config.fanout:
            self._rebuild_splitters()

    def _flush(self, b: int) -> None:
        """Move bucket ``b``'s messages into the base tree in one batch."""
        bucket = self.buckets[b]
        if not bucket.messages:
            return
        self.flushes += 1
        blocks = self._occupied_blocks(bucket)
        tail = bucket.nbytes - (blocks - 1) * self.config.block_bytes
        if tail > 0:
            # The in-RAM tail block reaches the device before the read-back.
            self.device.write(
                bucket.offset + (blocks - 1) * self.config.block_bytes,
                self.config.block_bytes,
            )
        self.block_cache.read(self.device, bucket.offset, blocks * self.config.block_bytes)
        # One window for puts and tombstones alike; a tombstone for a key
        # the base does not hold is dropped there for free.
        puts = sorted((k, v) for k, v in bucket.messages.items() if v is not TOMBSTONE)
        gone = sorted(k for k, v in bucket.messages.items() if v is TOMBSTONE)
        self.base.put_bulk(puts, gone)
        bucket.messages = {}
        bucket.nbytes = 0
        # Until the first flush there is nothing to split on (all traffic
        # funnels through bucket 0, so the weight trigger alone can never
        # fire); seed the splitters as soon as the base holds enough keys.
        if (
            not self._rebuilding
            and not self.splitters
            and self.base.pma.n >= self.config.fanout
        ):
            self._rebuild_splitters()

    def flush_all(self) -> None:
        """Drain every bucket (queries afterwards see only the base tree)."""
        for b in range(self.config.fanout):
            self._flush(b)

    def _rebuild_splitters(self) -> None:
        """Weight-balanced rebuild: flush everything, re-split by quantiles."""
        self.splitter_rebuilds += 1
        self._rebuilding = True
        try:
            self.flush_all()
        finally:
            self._rebuilding = False
        keys = self.base.pma.present_keys()
        # Choosing the quantiles reads the stored keys once, sequentially.
        self.block_cache.read(self.device, self.base.pma.offset, self.base.pma.nbytes)
        if keys.size >= self.config.fanout:
            idx = [
                (keys.size * (j + 1)) // self.config.fanout - 1
                for j in range(self.config.fanout - 1)
            ]
            self.splitters = [int(keys[i]) for i in idx]
        self.absorbed = [0] * self.config.fanout

    # -- read path -----------------------------------------------------------

    @property
    def pinned_bytes(self) -> int:
        """RAM the base's pinned index top takes (the buckets' in-RAM tail
        blocks are write buffer, not budget)."""
        return self.base.pinned_bytes

    def _charge_bucket_read(self, bucket: _Bucket) -> None:
        if bucket.nbytes:
            self.block_cache.read(
                self.device, bucket.offset, self._occupied_blocks(bucket) * self.config.block_bytes
            )

    def _lookup(self, key: int) -> Any | None:
        """Point query: the key's bucket first (newest message wins), then
        the base tree.  A non-empty bucket costs one read of its occupied
        blocks, as :meth:`_charge_bucket_read` charges a scan, unless the
        block cache holds them (tested inline)."""
        key = int(key)
        bucket = self.buckets[bisect.bisect_left(self.splitters, key)]
        nbytes = bucket.nbytes
        if nbytes:
            block_bytes = self.config.block_bytes
            offset, span = bucket.offset, -(-nbytes // block_bytes) * block_bytes
            # BlockCache.read, inline (a get's hot path): the ends first.
            cache = self.block_cache
            blocks = cache.blocks
            first, last = offset // block_bytes, (offset + span - 1) // block_bytes
            if first in blocks and last in blocks and (
                last - first < 2 or all(map(blocks.__contains__, range(first + 1, last)))
            ):
                cache.stats.hits += 1
                for b in range(first, last + 1):
                    blocks.move_to_end(b)
            else:
                stats, capacity = cache.stats, cache.capacity
                stats.misses += 1
                self.device.read(offset, span)
                if last - first < capacity:
                    for b in range(first, last + 1):
                        blocks[b] = None
                        blocks.move_to_end(b)
                    while len(blocks) > capacity:
                        blocks.popitem(False)
                        stats.evictions += 1
        messages = bucket.messages
        if key in messages:
            value = messages[key]
            return None if value is TOMBSTONE else value
        return self.base._lookup(key)

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        The answers of a :meth:`_lookup` loop: the distinct non-empty
        buckets the batch touches are read once, as one
        :meth:`~repro.storage.device.BlockDevice.read_set`, then the keys no
        bucket answered go to the base tree as one
        :meth:`COBTree._lookup_many`.  A batch of one is :meth:`_lookup`.
        """
        if len(keys) <= 1:
            return [self._lookup(key) for key in keys]
        block_bytes = self.config.block_bytes
        splitters, buckets = self.splitters, self.buckets
        found: dict[int, Any] = {}
        extents = set()
        rest = []
        for key in dict.fromkeys(int(key) for key in keys):
            bucket = buckets[bisect.bisect_left(splitters, key)]
            if bucket.nbytes:
                extents.add((bucket.offset, -(-bucket.nbytes // block_bytes) * block_bytes))
            messages = bucket.messages
            if key in messages:
                value = messages[key]
                found[key] = None if value is TOMBSTONE else value
            else:
                rest.append(key)
        if extents:
            limit = max(self.config.ram_bytes, *(nbytes for _, nbytes in extents))
            self.block_cache.read_set(self.device, extents, limit=limit)
        if rest:
            found.update(zip(rest, self.base._lookup_many(rest)))
        return [found.get(int(key)) for key in keys]

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi``, merging unflushed buffers."""
        if lo > hi:
            return []
        result = dict(self.base._range(lo, hi))
        for b in range(self.config.fanout):
            b_lo, b_hi = self._bucket_bounds(b)
            if b_lo > b_hi or b_hi < lo or b_lo > hi:
                continue
            bucket = self.buckets[b]
            if not bucket.messages:
                continue
            self._charge_bucket_read(bucket)
            for k, v in bucket.messages.items():
                if lo <= k <= hi:
                    if v is TOMBSTONE:
                        result.pop(k, None)
                    else:
                        result[k] = v
        return sorted(result.items())

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert base-tree state plus bucket bookkeeping."""
        self.base.check_invariants()
        if self.splitters != sorted(self.splitters):
            raise TreeError("splitters out of order")
        if len(self.splitters) not in (0, self.config.fanout - 1):
            raise TreeError(
                f"{len(self.splitters)} splitters for fanout {self.config.fanout}"
            )
        for b, bucket in enumerate(self.buckets):
            count, partial = divmod(bucket.nbytes, self.config.fmt.message_bytes)
            # Overwrites within the bucket share a key, never a message slot.
            if partial or len(bucket.messages) > count or (count and not bucket.messages):
                raise TreeError(f"bucket {b}: byte counter drifted")
            if bucket.nbytes > self.config.buffer_bytes:
                raise TreeError(f"bucket {b}: over its buffer extent")
            b_lo, b_hi = self._bucket_bounds(b)
            if b_lo > b_hi and bucket.messages:
                raise TreeError(f"bucket {b}: inactive but holds messages")
            for k in bucket.messages:
                if not b_lo <= k <= b_hi:
                    raise TreeError(f"bucket {b}: key {k} outside its range")


#: Registry entry (:mod:`repro.trees.registry`): sized like the plain cob
#: tree; filling every bucket once amortizes one flush each.
KIND = TreeKind(
    "cob-buffered", BufferedCOBTree, COBConfig, _COB.sizing,
    amortization_unit=lambda config: config.fanout * config.buffer_bytes
    // config.fmt.message_bytes,
)
