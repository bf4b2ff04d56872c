"""Byte-budgeted LRU buffer cache with dirty write-back.

This is the DAM's memory level: the cache holds up to ``M`` bytes of node
data; everything else lives "on disk" and costs device time to touch.  The
paper's analyses all assume "the top ``Theta(log M)`` levels can be cached";
LRU achieves that automatically for tree workloads.

The cache is also where *write amplification* physically happens: an
insert dirties a whole node, and when the node is evicted the device writes
the full node even though only a few bytes of user data changed (paper
Lemma 3).

Objects are arbitrary Python values; the cache tracks their device extent
``(offset, nbytes)`` and charges the device on miss (read) and on dirty
eviction (write).  Both directions move runs of extents when they can,
because under the affine model an IO of ``x`` bytes costs ``1 + alpha*x``.
A batch of independent misses (a B-tree level, a Bε-tree level's
components, a scan's level) is one planned read,
:meth:`BufferCache.get_many`: the device reads the distinct extents in disk
order, bridging gaps cheaper to transfer than to seek over
(:meth:`~repro.storage.device.BlockDevice.read_set`; ``ceil(n/P)`` steps on
the PDAM).  A dirty write-back writes the victim together with the
resident dirty extents adjacent to it on disk, in both directions, as one
IO (the neighbours turn clean and stay resident); :meth:`BufferCache.flush`
writes every dirty extent in disk order, one IO per run.  No run moves
more than ``M`` bytes, and write runs change only the write schedule —
residency, LRU order, hits, misses and reads are those of a per-node
write-back.  Evicted objects are retained as non-resident "disk images" —
devices in this repository price IO time but do not store bytes (see
:mod:`repro.storage.device`).

Implementation: one dict maps node id to an intrusive :class:`_Entry`
that is simultaneously the cache record, the disk image, and a link in a
doubly-linked LRU list of the resident entries.  A lookup is one dict hit
plus a pointer splice; eviction and re-admission flip a residency bit on
the same object instead of shuttling tuples between two maps, so the
steady-state hot path (hit, miss, evict) allocates nothing.  A write-back
finds its disk neighbours through an offset index of every entry's extent
(by first and by one-past-last byte), which changes only when an extent
is created, resized, moved or dropped: hits, misses, evictions and dirty
bits never touch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Hashable, Iterator, Sequence

from repro.errors import CacheError, ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 if none yet)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter in place.

        Experiments call this at a phase boundary (e.g. after cache warm-up)
        so reported hit rates describe only the measured phase.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0


class _Entry:
    """One node, resident or evicted, threaded into the LRU list when resident.

    ``prev``/``next`` are only meaningful while ``resident`` is true; the
    list order is LRU at the head side, MRU at the tail side, matching the
    iteration order the previous ``OrderedDict`` implementation exposed.
    """

    __slots__ = (
        "node_id", "obj", "offset", "nbytes", "missing", "dirty", "resident", "prev", "next",
    )

    def __init__(self, node_id: Hashable, obj: Any, offset: int, nbytes: int, dirty: bool) -> None:
        self.node_id = node_id
        self.obj = obj
        self.offset = offset
        self.nbytes = nbytes
        self.missing = 0  # leading bytes of a resident node still on disk (see append)
        self.dirty = dirty
        self.resident = False
        self.prev: "_Entry | None" = None
        self.next: "_Entry | None" = None


class BufferCache:
    """LRU cache of node objects over a :class:`BlockDevice`.

    One read verb and two write verbs: :meth:`get` (a hit turns the entry
    MRU, a miss reads it in), :meth:`mark_dirty` (an entry on disk is read
    in as :meth:`get` does, then optionally resized and dirtied) and
    :meth:`append` (bytes added to an entry's end, which needs none of its
    old bytes: an entry on disk is not read back).
    :meth:`get_many` is :meth:`get`'s batch form: the misses of a batch of
    independent nodes are one planned device read.  New nodes go in with
    :meth:`insert`; bytes a caller moved itself (a whole-node rewrite, a
    scan's batched read) go in with :meth:`readmit_clean`.

    Parameters
    ----------
    device:
        Where misses and write-backs are charged.
    capacity_bytes:
        The memory budget ``M``.  At least one entry is always held even if
        it alone exceeds the budget.
    """

    def __init__(self, device: BlockDevice, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(f"cache capacity must be positive, got {capacity_bytes}")
        self.device = device
        self.capacity_bytes = int(capacity_bytes)
        self.stats = CacheStats()
        self._index: dict[Hashable, _Entry] = {}
        # LRU list sentinel: _root.next is the LRU end, _root.prev the MRU end.
        self._root = _Entry(None, None, 0, 1, dirty=False)
        self._root.prev = self._root
        self._root.next = self._root
        self._n_resident = 0
        # Offset index of every entry's extent, resident or not, by first
        # and by one-past-last byte: how a write-back finds its disk
        # neighbours.  Kept where an extent is created, changed or
        # dropped, so reads and dirty bits never touch it.
        self._by_start: dict[int, _Entry] = {}
        self._by_end: dict[int, _Entry] = {}
        self.cached_bytes = 0

    # -- LRU list internals ---------------------------------------------------

    def _link_mru(self, entry: _Entry) -> None:
        """Splice ``entry`` in at the MRU end and mark it resident."""
        tail = self._root.prev
        entry.prev = tail
        entry.next = self._root
        tail.next = entry
        self._root.prev = entry
        entry.resident = True
        self._n_resident += 1

    def _unlink(self, entry: _Entry) -> None:
        """Remove ``entry`` from the LRU list and mark it non-resident."""
        entry.prev.next = entry.next
        entry.next.prev = entry.prev
        entry.prev = None
        entry.next = None
        entry.resident = False
        self._n_resident -= 1

    def _touch(self, entry: _Entry) -> None:
        """Move a resident entry to the MRU end."""
        if entry.next is self._root:
            return  # already MRU
        entry.prev.next = entry.next
        entry.next.prev = entry.prev
        tail = self._root.prev
        entry.prev = tail
        entry.next = self._root
        tail.next = entry
        self._root.prev = entry

    def _resident_lru_order(self) -> Iterator[_Entry]:
        """Resident entries, least recently used first."""
        entry = self._root.next
        while entry is not self._root:
            nxt = entry.next  # survive unlinking of `entry` mid-iteration
            yield entry
            entry = nxt

    # -- eviction internals ---------------------------------------------------

    def _evict_until_fits(self) -> None:
        root = self._root
        while self.cached_bytes > self.capacity_bytes and self._n_resident > 1:
            self._evict(root.next)  # the LRU end

    def _evict(self, entry: _Entry) -> None:
        if entry.dirty:
            self._write_run(entry)
            self.stats.dirty_evictions += 1
            if OBS.enabled:
                OBS.counter("cache.dirty_evictions").inc()
        self._unlink(entry)
        self.stats.evictions += 1
        if OBS.enabled:
            OBS.counter("cache.evictions").inc()
        self.cached_bytes -= entry.nbytes - entry.missing
        entry.missing = 0

    # -- write-back internals -------------------------------------------------

    def _index_extent(self, entry: _Entry) -> None:
        """Enter ``entry``'s extent in the offset index."""
        self._by_start[entry.offset] = entry
        self._by_end[entry.offset + entry.nbytes] = entry

    def _unindex_extent(self, entry: _Entry) -> None:
        """Take ``entry``'s extent out of the offset index.

        A key another entry has since claimed (two extents sharing a first
        or one-past-last byte, which only a caller reusing an address
        makes) stays with that entry.
        """
        offset = entry.offset
        if self._by_start.get(offset) is entry:
            del self._by_start[offset]
        end = offset + entry.nbytes
        if self._by_end.get(end) is entry:
            del self._by_end[end]

    def _move(self, entry: _Entry, offset: int, nbytes: int) -> None:
        """Give ``entry`` the extent ``[offset, offset + nbytes)``."""
        self._unindex_extent(entry)
        entry.offset = offset
        entry.nbytes = nbytes
        self._index_extent(entry)

    def _write_run(self, entry: _Entry) -> float:
        """Write the dirty run around ``entry`` as one IO; returns its seconds.

        The run is ``entry`` (resident and dirty) plus the dirty extents
        adjacent to it on disk — a non-resident entry is never dirty —
        taken first leftwards while each ends where the run starts, then
        rightwards while each starts where the run ends, each only while
        the run still fits in ``capacity_bytes`` (as in :meth:`get_many`,
        no IO moves more than ``M``).  An entry holding only appended bytes
        (:meth:`append`) writes those alone and takes no neighbour, nor is
        taken as one.  Every node of the run turns clean and keeps its
        residency and LRU place.
        """
        limit = self.capacity_bytes
        run = [entry]
        start = entry.offset + entry.missing
        end = entry.offset + entry.nbytes
        by_end = self._by_end
        left = None if entry.missing else by_end.get(start)
        while left is not None and left.dirty and not left.missing and end - left.offset <= limit:
            run.append(left)
            start = left.offset
            left = by_end.get(start)
        by_start = self._by_start
        right = by_start.get(end)
        while (
            right is not None and right.dirty and not right.missing
            and end + right.nbytes - start <= limit
        ):
            run.append(right)
            end += right.nbytes
            right = by_start.get(end)
        spent = self.device.write(start, end - start)
        for node in run:
            node.dirty = False
        return spent

    # -- public API ------------------------------------------------------------

    def contains(self, node_id: Hashable) -> bool:
        """True if ``node_id`` is resident whole (no LRU effect): not on
        disk, nor holding only bytes appended to it (:meth:`append`)."""
        entry = self._index.get(node_id)
        return entry is not None and entry.resident and not entry.missing

    def get(self, node_id: Hashable) -> Any:
        """Fetch a node, charging a device read on miss; it becomes MRU.

        A node holding only bytes appended to it (:meth:`append`) is a miss
        too: its bytes still on disk are read, and it is whole again.
        """
        entry = self._index.get(node_id)
        if entry is not None and entry.resident and not entry.missing:
            self.stats.hits += 1
            if OBS.enabled:
                OBS.counter("cache.hits").inc()
            root = self._root
            if entry.next is not root:  # _touch, inline: a read's hot path
                entry.prev.next = entry.next
                entry.next.prev = entry.prev
                tail = root.prev
                entry.prev = tail
                entry.next = root
                tail.next = entry
                root.prev = entry
            return entry.obj
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        self.stats.misses += 1
        if OBS.enabled:
            OBS.counter("cache.misses").inc()
        if entry.resident:
            self.device.read(entry.offset, entry.missing)
            self.cached_bytes += entry.missing
            entry.missing = 0
            self._touch(entry)
        else:
            self.device.read(entry.offset, entry.nbytes)
            self._link_mru(entry)
            self.cached_bytes += entry.nbytes
        self._evict_until_fits()
        return entry.obj

    def get_many(self, node_ids: "Sequence[Hashable]") -> list[Any]:
        """Fetch a batch of independent nodes; objects in input order.

        The batch's one planned read: every id counts one hit or one miss,
        and a repeated id that is not resident counts one miss and then
        hits.  Resident nodes are LRU-touched first, in input order.  A
        node holding only appended bytes (:meth:`append`) is a miss whose
        bytes still on disk are read; it is made whole and MRU before the
        other misses are admitted.  The distinct misses go to the device as one
        :meth:`~repro.storage.device.BlockDevice.read_set` (sorted,
        deduplicated, bridged over any gap cheaper to read than to seek
        over, runs capped at ``capacity_bytes``: no IO moves more than
        ``M``), then are admitted in disk order, evictions following each
        admission.  So a resident node that a miss's admission would have
        evicted in a :meth:`get` loop still counts a hit here, and on
        :class:`~repro.storage.ideal.PDAMDevice` the ``n`` distinct misses
        cost ``ceil(n / P)`` steps.  An unknown id raises before anything
        is charged or counted.
        """
        index = self._index
        out: list[Any] = []
        missing: list[_Entry] = []
        pending: set[Hashable] = set()
        for node_id in node_ids:
            entry = index.get(node_id)
            if entry is None:
                raise CacheError(f"unknown node id {node_id!r}")
            out.append(entry.obj)
            if entry.resident and not entry.missing:
                self._touch(entry)
            elif node_id not in pending:
                pending.add(node_id)
                missing.append(entry)
        hits = len(out) - len(missing)
        self.stats.hits += hits
        if OBS.enabled and hits:
            OBS.counter("cache.hits").inc(hits)
        if not missing:
            return out
        self.stats.misses += len(missing)
        if OBS.enabled:
            OBS.counter("cache.misses").inc(len(missing))
        missing.sort(key=attrgetter("offset"))
        self.device.read_set(
            [(entry.offset, entry.missing or entry.nbytes) for entry in missing],
            limit=self.capacity_bytes,
        )
        fresh = []
        for entry in missing:
            if entry.resident:
                self.cached_bytes += entry.missing
                entry.missing = 0
                self._touch(entry)
            else:
                fresh.append(entry)
        for entry in fresh:
            self._link_mru(entry)
            self.cached_bytes += entry.nbytes
            self._evict_until_fits()
        if len(fresh) < len(missing):
            self._evict_until_fits()
        return out

    def insert(
        self, node_id: Hashable, obj: Any, offset: int, nbytes: int, *, dirty: bool = True
    ) -> None:
        """Add a brand-new node (e.g. from a split), resident and dirty."""
        if node_id in self._index:
            raise CacheError(f"node id {node_id!r} already exists")
        if nbytes <= 0:
            raise CacheError(f"node size must be positive, got {nbytes}")
        entry = _Entry(node_id, obj, offset, nbytes, dirty=dirty)
        self._index[node_id] = entry
        self._index_extent(entry)
        self._link_mru(entry)
        self.cached_bytes += nbytes
        self._evict_until_fits()

    def readmit_clean(self, items: "Sequence[tuple[Hashable, int, int]]") -> None:
        """Admit each ``(node_id, offset, nbytes)`` as resident and clean.

        No device read is charged: the caller has already moved the bytes
        itself, as one batched IO — a whole-node rewrite (one device write
        for every component, so a resident entry's dirty bit is *cleared*)
        or a scan's read of a node's missing components.  Unknown ids are
        created, evicted ones brought back, resident ones resized in place
        and made MRU.  A resident node holding only appended bytes
        (:meth:`append`) is made whole and keeps its dirty bit: a read of
        the rest of it does not write them.  One index lookup per item;
        evictions follow each admission.
        """
        index = self._index
        for node_id, offset, nbytes in items:
            if nbytes <= 0:
                raise CacheError(f"node size must be positive, got {nbytes}")
            entry = index.get(node_id)
            if entry is not None and entry.resident:
                self.cached_bytes += nbytes - entry.nbytes + entry.missing
                entry.obj = None
                if entry.offset != offset or entry.nbytes != nbytes:
                    self._move(entry, offset, nbytes)
                if entry.missing:
                    entry.missing = 0
                else:
                    entry.dirty = False
                if entry.next is not self._root:
                    self._touch(entry)
            else:
                if entry is None:
                    entry = _Entry(node_id, None, offset, nbytes, dirty=False)
                    index[node_id] = entry
                    self._index_extent(entry)
                else:
                    entry.obj = None
                    if entry.offset != offset or entry.nbytes != nbytes:
                        self._move(entry, offset, nbytes)
                    entry.dirty = False
                self._link_mru(entry)
                self.cached_bytes += nbytes
            if self.cached_bytes > self.capacity_bytes:
                self._evict_until_fits()

    def mark_dirty(self, node_id: Hashable, nbytes: int | None = None) -> Any:
        """Record that a node's contents changed; it becomes MRU.

        A node on disk is read in first, exactly as :meth:`get`'s miss path
        does — modifying an on-disk node requires reading it back.  A
        ``nbytes`` other than the registered size resizes the extent in
        place (the offset, a fixed slot, stays), then evicts what no longer
        fits; the node is dirty by then, so a victim's write run may take it
        along.
        """
        entry = self._index.get(node_id)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        if not entry.resident or entry.missing:
            self.get(node_id)  # the miss path
        entry.dirty = True
        if entry.next is not self._root:
            self._touch(entry)
        if nbytes is not None and nbytes != entry.nbytes:
            if nbytes <= 0:
                raise CacheError(f"node size must be positive, got {nbytes}")
            self.cached_bytes += nbytes - entry.nbytes
            self._move(entry, entry.offset, nbytes)
            if self.cached_bytes > self.capacity_bytes:
                self._evict_until_fits()
        return entry.obj

    def append(self, node_id: Hashable, nbytes: int) -> Any:
        """Record ``nbytes`` appended to a node's end; it becomes MRU and dirty.

        :meth:`mark_dirty` for a change that needs none of the node's old
        bytes, so a node on disk is not read back: it becomes resident
        holding only the appended bytes, which count against the budget,
        its old ones left on disk.  The next :meth:`get`, :meth:`get_many`
        or :meth:`mark_dirty` of it reads those (a miss); written back
        before that, it writes the appended bytes alone, after them.  A
        resident node grows by ``nbytes`` in memory.
        """
        entry = self._index.get(node_id)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        if nbytes <= 0:
            raise CacheError(f"appended size must be positive, got {nbytes}")
        if not entry.resident:
            entry.missing = entry.nbytes
            self._link_mru(entry)
        elif entry.next is not self._root:
            self._touch(entry)
        entry.dirty = True
        self._move(entry, entry.offset, entry.nbytes + nbytes)
        self.cached_bytes += nbytes
        if self.cached_bytes > self.capacity_bytes:
            self._evict_until_fits()
        return entry.obj

    def delete(self, node_id: Hashable) -> None:
        """Drop a node entirely (after a merge frees it); no write-back."""
        entry = self._index.pop(node_id, None)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        self._unindex_extent(entry)
        if entry.resident:
            self._unlink(entry)
            self.cached_bytes -= entry.nbytes - entry.missing

    def extent_of(self, node_id: Hashable) -> tuple[int, int]:
        """The ``(offset, nbytes)`` extent of a node, resident or not."""
        entry = self._index.get(node_id)
        if entry is None:
            raise CacheError(f"unknown node id {node_id!r}")
        return entry.offset, entry.nbytes

    def flush(self) -> float:
        """Write back every dirty resident node; returns device seconds.

        The dirty extents are written in disk order, one device write per
        run of adjacent ones: :meth:`_write_run` from the lowest dirty
        offset not yet written, so each run grows rightwards only and is
        cut at a gap, a clean node or ``capacity_bytes``.  Residency and
        LRU order do not change.
        """
        spent = 0.0
        dirty = [e for e in self._resident_lru_order() if e.dirty]
        dirty.sort(key=attrgetter("offset"))
        for entry in dirty:
            if entry.dirty:  # not written by an earlier run
                spent += self._write_run(entry)
        return spent

    def drop_clean(self) -> None:
        """:meth:`flush`, then evict every resident node.

        Used between the load phase and the measured phase of experiments to
        start from a cold cache.
        """
        self.flush()
        for entry in self._resident_lru_order():
            self._evict(entry)

    def check_invariants(self) -> None:
        """Assert byte accounting, list integrity and residency consistency."""
        resident = [e for e in self._index.values() if e.resident]
        assert self.cached_bytes == sum(e.nbytes - e.missing for e in resident)
        for e in resident:
            assert 0 <= e.missing < e.nbytes
        walked = list(self._resident_lru_order())
        assert len(walked) == self._n_resident == len(resident)
        assert {id(e) for e in walked} == {id(e) for e in resident}
        for e in walked:
            assert e.next.prev is e and e.prev.next is e
        for e in self._index.values():
            if not e.resident:
                assert e.prev is None and e.next is None and not e.dirty and not e.missing
        # The offset index holds live entries under their own first and
        # one-past-last byte.  It is complete unless two extents ever
        # shared a key (the later one holds it): a missed neighbour, never
        # a missed write, since a victim and every node flush finds dirty
        # are written whether indexed or not.
        for offset, e in self._by_start.items():
            assert self._index.get(e.node_id) is e and e.offset == offset
        for end, e in self._by_end.items():
            assert self._index.get(e.node_id) is e and e.offset + e.nbytes == end

    def __len__(self) -> int:
        return self._n_resident
