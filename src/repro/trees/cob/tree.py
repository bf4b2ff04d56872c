"""Cache-oblivious B-tree: PMA storage + vEB-ordered search layer.

The dynamic dictionary the paper's "better designs" half calls for: keys
live in a :class:`~repro.trees.cob.pma.PackedMemoryArray` (one device
extent, gapped and sorted), and searches run through a perfect binary
tree over the PMA's *segments* whose nodes are stored in **van Emde Boas
order** in a second extent.  Because every recursive bottom subtree of
the vEB order is contiguous, a root-to-leaf walk touches
``O(log_B N)`` index blocks with no node-size parameter anywhere — the
structure is near-optimal under DAM, affine, and PDAM pricing alike
(Lemma 13's layout, made dynamic), where a B-tree must re-tune its node
size per model.

The index is an implicit max-augmented heap with one leaf per PMA
segment (``2 * n_segments - 1`` nodes): node ``i`` holds the largest
present key in its segments, with the PMA's blank sentinel
(``INT64_MIN``) doubling as ``-inf`` so blanks need no special casing.
A search for ``key`` descends left iff ``key <= node_max[left]`` down to
the segment holding its successor, and the segment read that follows
finds the successor slot (the last slot when no successor exists) —
which is also the insertion hint the PMA wants.  The host runs the same
heap (a list over ``pma.seg_max``), so the nodes charged are arithmetic
on its indices.  A get is the unpinned path plus one segment read; an
overwrite or a delete is the path plus a read-modify-write of the
segment, since a segment-granular index cannot locate a slot without
reading it.  After a PMA rebalance the index is repaired *lazily over
the touched range only*: leaves for the rewritten segments, then the
ancestor cone up to the root, charged as writes to the distinct vEB
blocks covering them.  A capacity doubling or halving rebuilds the index
extent outright with one sequential write.  Every mutation reaches the
PMA this way — an insert, a delete (which rebalances only when its
segment drops below the PMA's density floor) and
:meth:`COBTree.put_bulk`, which takes a sorted run of puts *and* deletes
and lands it as one window.

IO accounting follows :mod:`repro.trees.lsm` / :mod:`repro.trees.cola`:
devices price simulated seconds only; values live beside the structure
in Python.  The top levels of the index (sized by ``ram_bytes``) are
pinned and free to search, the analogue of COLA's pinned small levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence
from weakref import WeakValueDictionary

import numpy as np

from repro.errors import ConfigurationError, KeyOrderError, TreeError
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.trees.api import KVTree, TreeKind
from repro.trees.btree.veb import VEBLayout
from repro.trees.cob.pma import EMPTY, PackedMemoryArray
from repro.trees.sizing import EntryFormat


@dataclass(frozen=True)
class COBConfig:
    """Tuning of one cache-oblivious B-tree.

    Like the COLA, the structure has **no node-size knob** — that is its
    point.  ``block_bytes`` only prices IO (any value gives the same
    structure), ``ram_bytes`` bounds the pinned index top, and the
    buffer fields configure :class:`BufferedCOBTree` (Theorem 9).
    """

    fmt: EntryFormat = EntryFormat()
    block_bytes: int = 4096
    ram_bytes: int = 1 << 20
    initial_slots: int = 1 << 10
    max_density: float = 0.8
    #: Buffered variant only: bucket count and per-bucket buffer extent.
    fanout: int = 16
    buffer_bytes: int = 64 << 10
    #: Buffered variant only: a bucket rebuilds the splitters when it has
    #: absorbed more than ``rebuild_factor`` times its fair share.
    rebuild_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.ram_bytes < 0:
            raise ConfigurationError("ram_bytes must be non-negative")
        if self.initial_slots < 8 or self.initial_slots & (self.initial_slots - 1):
            raise ConfigurationError(
                f"initial_slots must be a power of two >= 8, got {self.initial_slots}"
            )
        if not 0.0 < self.max_density < 1.0:
            raise ConfigurationError("max_density must be in (0, 1)")
        if self.fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {self.fanout}")
        if self.buffer_bytes <= 0:
            raise ConfigurationError("buffer_bytes must be positive")
        if self.rebuild_factor < 1.0:
            raise ConfigurationError("rebuild_factor must be >= 1.0")
        if self.rebuild_factor >= self.fanout:
            # A bucket absorbs at most fanout x its fair share, so the
            # weight trigger would be unreachable.
            raise ConfigurationError(
                f"rebuild_factor ({self.rebuild_factor}) must be < fanout "
                f"({self.fanout})"
            )


#: ``(height, nodes_per_block) -> block_of[heap_index]``, read-only and
#: shared by every live tree of that shape (see ``COBTree._block_table``).
_BLOCK_TABLES: WeakValueDictionary[tuple[int, int], np.ndarray] = WeakValueDictionary()


def _max_heap(leaves: np.ndarray) -> list[int]:
    """The implicit max-heap (root at 0) over a power-of-two leaf level."""
    first = leaves.size - 1
    heap = np.empty(2 * leaves.size - 1, dtype=np.int64)
    heap[first:] = leaves
    while first:
        parents = first >> 1
        heap[parents:first] = np.maximum(
            heap[first : 2 * first + 1 : 2], heap[first + 1 : 2 * first + 1 : 2]
        )
        first = parents
    return heap.tolist()


class COBTree(KVTree):
    """A cache-oblivious B-tree storing ``int -> value`` pairs."""

    kind = "cob"
    plans_puts = True

    def __init__(
        self,
        device: BlockDevice,
        config: COBConfig | None = None,
        *,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        self.device = device
        self.config = config or COBConfig()
        self.allocator = allocator or ExtentAllocator(
            device.capacity_bytes, alignment=512
        )
        self.pma = PackedMemoryArray(
            device,
            entry_bytes=self.config.fmt.entry_bytes,
            block_bytes=self.config.block_bytes,
            initial_slots=self.config.initial_slots,
            max_density=self.config.max_density,
            allocator=self.allocator,
        )
        self.values: dict[int, Any] = {}
        self.user_bytes_modified = 0
        self.index_rebuilds = 0
        self._index_offset = -1
        self._index_nbytes = 0
        # Nodes per vEB index block: 2^levels - 1, so the recursion's
        # contiguous bottom subtrees never straddle block boundaries
        # (same packing as PDAMQuerySimulator's veb_pb mode).
        entries_per_block = self.config.block_bytes // self.config.fmt.pivot_bytes
        if entries_per_block < 1:
            raise ConfigurationError(
                f"block of {self.config.block_bytes} bytes holds no "
                f"{self.config.fmt.pivot_bytes}-byte pivots"
            )
        levels_per_block = max(1, int(math.log2(entries_per_block + 1)))
        self._nodes_per_block = (1 << levels_per_block) - 1
        self._build_index(charge=False)

    # -- index layout --------------------------------------------------------

    def _build_index(self, *, charge: bool) -> None:
        """(Re)compute the whole max-heap and rewrite the index extent.

        Runs at construction, on a bulk load and on every capacity
        doubling or halving — the only places the tree height changes — so the state
        that depends on the height alone is (re)derived here once instead
        of per operation: the leaf offset, the pinned depth, and (dropped
        here, looked up on first use) the vEB block table.
        """
        n_segments = self.pma.n_segments
        n_nodes = 2 * n_segments - 1
        self._first_seg = n_segments - 1
        self._height = n_segments.bit_length()  # n_segments is a power of two
        # The top ``L`` complete levels are RAM-pinned (free to read) when
        # ``(2^L - 1) * pivot_bytes <= ram_bytes``; pinning whole levels
        # keeps residency independent of the vEB permutation.
        budget = self.config.ram_bytes // self.config.fmt.pivot_bytes
        self._pinned_levels = min(self._height, max(0, (budget + 1).bit_length() - 1))
        self._block_of: np.ndarray | None = None
        self._seg_heap = _max_heap(np.array(self.pma.seg_max, dtype=np.int64))
        if self._index_offset >= 0:
            self.allocator.free(self._index_offset, self._index_nbytes)
        n_blocks = math.ceil(n_nodes / self._nodes_per_block)
        self._index_nbytes = n_blocks * self.config.block_bytes
        self._index_offset = self.allocator.alloc(self._index_nbytes)
        if charge:
            self.index_rebuilds += 1
            self.device.write(self._index_offset, self._index_nbytes)

    def _block_table(self) -> np.ndarray:
        """``block_of[heap_index]``: the vEB index block storing each node.

        A function of the height and the block size only, so it is looked
        up once per height (a tree whose index is fully pinned never needs
        it), every path charge and index repair is a table lookup, and
        trees of one shape share one read-only table.  ``int32`` on purpose:
        half the footprint of the ``int64`` vEB positions it is derived from.
        """
        if self._block_of is None:
            shape = (self._height, self._nodes_per_block)
            table = _BLOCK_TABLES.get(shape)
            if table is None:
                position = VEBLayout(self._height).position
                position //= self._nodes_per_block
                table = position.astype(np.int32)
                table.setflags(write=False)
                _BLOCK_TABLES[shape] = table
            self._block_of = table
        return self._block_of

    def _charge_index_path(self, slot: int) -> None:
        """Charge reads of the distinct unpinned vEB blocks on the path from
        the root to the leaf of ``slot``'s segment, in ascending block order
        (deterministic).

        In vEB order an ancestor is stored before its descendants and a block
        is a contiguous position range, so blocks never decrease down a path:
        when the topmost unpinned node shares the leaf's block, that block is
        the whole path (``tests/trees/test_veb.py`` checks it exhaustively).
        """
        unpinned = self._height - self._pinned_levels
        if not unpinned:
            return
        block_of = self._block_table().item
        read = self.device.read
        block_bytes = self.config.block_bytes
        offset = self._index_offset
        node = self._first_seg + slot // self.pma.segment_slots
        blk = block_of(node)
        if blk == block_of(((node + 1) >> (unpinned - 1)) - 1):
            read(offset + blk * block_bytes, block_bytes)
            return
        blocks = {blk}
        for _ in range(unpinned - 1):
            node = (node - 1) >> 1
            blocks.add(block_of(node))
        for blk in sorted(blocks):
            read(offset + blk * block_bytes, block_bytes)

    def _update_index(self, slot_lo: int, slot_hi: int, resized: bool) -> None:
        """Repair the heap over slots ``[slot_lo, slot_hi)`` (whole segments)
        after the PMA rewrote them; charge writes of the covering vEB blocks."""
        if resized:
            self._build_index(charge=True)
            return
        # The host heap: the touched segments' maxima, then the ancestor
        # cone level by level (the heap-index range ``[a, b)`` halved), up
        # to the first level none of whose maxima moved — usually the
        # lowest: most rebalances leave their window's largest key alone.
        heap = self._seg_heap
        segment_slots = self.pma.segment_slots
        seg_lo, seg_hi = slot_lo // segment_slots, slot_hi // segment_slots
        a, b = self._first_seg + seg_lo, self._first_seg + seg_hi
        maxima = self.pma.seg_max[seg_lo:seg_hi]
        while heap[a:b] != maxima:
            heap[a:b] = maxima
            if a == 0:
                break
            a, b = (a - 1) >> 1, ((b - 2) >> 1) + 1
            maxima = list(map(max, heap[2 * a + 1 : 2 * b : 2], heap[2 * a + 2 : 2 * b + 1 : 2]))
        # The device index: every node of the cone is rewritten, moved or
        # not, so every unpinned one dirties its block (pinned levels are
        # whole levels: the walk stops at the first).  Blocks never decrease
        # along a level, so one block at both ends of a level range means
        # that block only.
        pinned_below = (1 << self._pinned_levels) - 1
        lo, hi = self._first_seg + seg_lo, self._first_seg + seg_hi
        if lo < pinned_below:
            return
        block_of = self._block_table()
        dirty: set[int] = set()
        while lo >= pinned_below:
            first = block_of.item(lo)
            if first == block_of.item(hi - 1):
                dirty.add(first)
            else:
                dirty.update(block_of[lo:hi].tolist())
            if lo == 0:
                break
            lo, hi = (lo - 1) >> 1, ((hi - 2) >> 1) + 1
        # Coalesce adjacent dirty blocks into sequential writes; the -1
        # sentinel (adjacent to no block) closes the last run.
        block_bytes = self.config.block_bytes
        blocks = sorted(dirty)
        start = prev = blocks[0]
        for blk in blocks[1:] + [-1]:
            if blk != prev + 1:
                self.device.write(
                    self._index_offset + start * block_bytes,
                    (prev - start + 1) * block_bytes,
                )
                start = blk
            prev = blk

    # -- search --------------------------------------------------------------

    def _search_slot(self, key: int) -> int:
        """Slot of ``key``'s successor (the smallest present key ``>= key``),
        or the last slot when the tree holds no such key."""
        heap = self._seg_heap
        first_seg = self._first_seg
        i = 0
        while i < first_seg:
            i = 2 * i + 1
            if key > heap[i]:
                i += 1
        if key > heap[i]:
            # Only the all-right descent can end above its subtree's maximum.
            return self.pma.capacity - 1
        pma = self.pma
        width = pma.segment_slots
        lo = (i - first_seg) * width
        return lo + int((pma.keys[lo : lo + width] >= key).argmax())

    # -- write path ----------------------------------------------------------

    def _insert(self, key: int, value: Any) -> None:
        key = int(key)
        self._put(key, value, self._search_slot(key))

    def _put(self, key: int, value: Any, slot: int) -> None:
        """Insert or overwrite ``key``, whose successor is at ``slot``."""
        self.user_bytes_modified += self.config.fmt.entry_bytes
        self._charge_index_path(slot)
        if key in self.values:
            # Overwrite in place: a read-modify-write of the key's segment;
            # the index is untouched.
            self.values[key] = value
            self.pma.charge_segment(slot, write=True)
            return
        self.values[key] = value
        lo, hi, resized = self.pma.insert(key, slot)
        self._update_index(lo, hi, resized)

    def _put_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Insert every pair in input order, then issue the loop's charges
        as one plan.

        The pairs are applied one by one by the scalar body while a
        :class:`_WritePlan` stands in for the device, so the PMA, the
        index and the values come out as an :meth:`insert` loop leaves
        them.  The plan then reads every extent the loop reads as one
        :meth:`~repro.storage.device.BlockDevice.read_set` (each byte
        once, bridged, runs capped at ``max(ram_bytes, a segment)`` as in
        :meth:`_lookup_many`), and writes every extent the loop writes
        once, in disk order, one write per run of extents that touch or
        overlap: no gap is written through, so the bytes written are the
        loop's.  A pair that resizes the PMA first issues the plan open so
        far, then charges as the loop does.  So a fault surfaces at a
        planned IO with every pair applied, up to the next resize.
        """
        pma, values = self.pma, self.values
        search, put = self._search_slot, self._put
        plan = _WritePlan(self)
        plan.attach()
        try:
            for key, value in pairs:
                key = int(key)
                slot = search(key)
                if key not in values and pma.insert_resizes(slot):
                    plan.issue()
                    put(key, value, slot)
                    plan.attach()
                else:
                    put(key, value, slot)
        finally:
            plan.issue()

    def _delete(self, key: int) -> None:
        """Remove ``key``: the index path, then a read-modify-write of its
        segment.  An absent key costs its search and nothing else, as in
        every other kind: the path, and the segment read that finds the key
        missing when it is inside the key range (what a ``get`` costs)."""
        key = int(key)
        slot = self._search_slot(key)
        self._charge_index_path(slot)
        if key not in self.values:
            if self.pma.keys.item(slot) >= key:
                self.pma.charge_segment(slot, write=False)
            return
        if self.pma.keys.item(slot) != key:
            raise TreeError(f"index search missed stored key {key}")
        self.user_bytes_modified += self.config.fmt.entry_bytes
        del self.values[key]
        lo, hi, resized = self.pma.delete(slot)
        self._update_index(lo, hi, resized)

    def put_bulk(
        self, pairs: list[tuple[int, Any]], deletes: Sequence[int] = ()
    ) -> None:
        """Merge a key-sorted batch of puts, and of deletes, in one PMA
        rebalance.

        The primitive behind the buffered variant's flushes: one window
        covering every fresh key and every deleted key is redistributed
        once, so ``m`` inserts and ``d`` deletes cost one search pair, one
        rebalance (or one resize) and one index repair instead of ``m + d``
        of each.  Both runs must be strictly increasing and share no key;
        existing keys are overwritten in place (a read-modify-write of the
        slot span covering them), and a delete of a key the tree does not
        hold costs nothing.
        """
        values = self.values
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        dead = np.array(deletes, dtype=np.int64)
        # Compare, don't diff: int64 subtraction overflows when adjacent
        # keys are more than 2^63 apart.
        if np.any(keys[1:] <= keys[:-1]) or np.any(dead[1:] <= dead[:-1]):
            raise KeyOrderError("put_bulk needs strictly increasing keys")
        if dead.size and not set(keys.tolist()).isdisjoint(dead.tolist()):
            raise TreeError("put_bulk cannot put and delete one key")
        gone = dead[np.array([k in values for k in dead.tolist()], dtype=bool)]
        if not pairs and not gone.size:
            return
        self.user_bytes_modified += self.config.fmt.entry_bytes * (len(pairs) + gone.size)
        fresh = np.array([k not in values for k in keys.tolist()], dtype=bool)
        for k, v in pairs:
            values[int(k)] = v
        for k in gone.tolist():
            del values[k]
        new_keys = keys[fresh]
        if not new_keys.size and not gone.size:
            # Pure overwrite: read-modify-write of the covered slots, index
            # untouched.
            slot_lo = self._search_slot(int(keys[0]))
            self._charge_index_path(slot_lo)
            slot_hi = self._search_slot(int(keys[-1]))
            self.pma._charge_span(slot_lo, slot_hi + 1, read=True, write=True)
            return
        runs = [run for run in (new_keys, gone) if run.size]
        slot_lo = self._search_slot(min(int(run[0]) for run in runs))
        self._charge_index_path(slot_lo)
        slot_hi = self._search_slot(max(int(run[-1]) for run in runs))
        lo, hi, resized = self.pma.bulk_update(new_keys, gone, slot_lo, slot_hi)
        self._update_index(lo, hi, resized)
        if resized or fresh.all():
            return
        # Mixed batch: overwritten keys outside the rebalanced window never
        # moved, so the window rewrite above did not cover them.  Charge
        # them like the pure-overwrite branch does, one covering span on
        # each side of the window.
        slots = [self._search_slot(key) for key in keys[~fresh].tolist()]
        for side in ([s for s in slots if s < lo], [s for s in slots if s >= hi]):
            if side:
                self.pma._charge_span(side[0], side[-1] + 1, read=True, write=True)

    def bulk_load(self, pairs: list[tuple[int, Any]]) -> None:
        """Load a key-sorted batch into an *empty* tree sequentially."""
        if len(self.values):
            raise TreeError("bulk_load requires an empty tree")
        if not pairs:
            return
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        if np.any(keys[1:] <= keys[:-1]):
            raise KeyOrderError("bulk_load needs strictly increasing keys")
        self.user_bytes_modified += self.config.fmt.entry_bytes * len(pairs)
        self.values = {int(k): v for k, v in pairs}
        self.pma.load(keys)
        self._build_index(charge=True)

    # -- read path -----------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``: the index path to the
        segment of the key's successor, then one read of that segment,
        priced as ``pma._charge_span`` prices it.  A key above every stored
        key has no successor and costs the path only."""
        key = int(key)
        slot = self._search_slot(key)
        self._charge_index_path(slot)
        pma = self.pma
        value = None
        found = pma.keys.item(slot)
        if found >= key:
            width = pma.segment_slots
            span = max(width * pma.entry_bytes, min(pma.block_bytes, pma.nbytes))
            self.device.read(
                pma.offset
                + min((slot - slot % width) * pma.entry_bytes, pma.nbytes - span),
                span,
            )
            if found == key:
                value = self.values.get(key)
        return value

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        The answers of a :meth:`_lookup` loop, with one device step per
        dependent read instead of one per key: the unpinned index blocks of
        every key's path one vEB block-level at a time (the ``d``-th block
        each path crosses, for every path that long), then the segments,
        each step one :meth:`~repro.storage.device.BlockDevice.read_set`
        (sorted, deduplicated, bridged, runs capped at ``ram_bytes``).  A
        batch of one has nothing to plan: it is :meth:`_lookup`.
        """
        if len(keys) <= 1:
            return [self._lookup(key) for key in keys]
        config = self.config
        pma = self.pma
        read_set = self.device.read_set
        distinct = list(dict.fromkeys(int(key) for key in keys))
        slots = [self._search_slot(key) for key in distinct]
        width = pma.segment_slots
        unpinned = self._height - self._pinned_levels
        if unpinned:
            block_of = self._block_table().item
            block_bytes = config.block_bytes
            offset = self._index_offset
            first_seg = self._first_seg
            # The walk of _charge_index_path, which a get keeps inline.
            paths = []
            for slot in slots:
                node = first_seg + slot // width
                blk = block_of(node)
                if blk == block_of(((node + 1) >> (unpinned - 1)) - 1):
                    paths.append([blk])
                    continue
                blocks = {blk}
                for _ in range(unpinned - 1):
                    node = (node - 1) >> 1
                    blocks.add(block_of(node))
                paths.append(sorted(blocks))  # root to leaf: blocks never decrease
            limit = max(config.ram_bytes, block_bytes)
            for depth in range(max(map(len, paths))):
                read_set(
                    [(offset + path[depth] * block_bytes, block_bytes)
                     for path in paths if len(path) > depth],
                    limit=limit,
                )
        span = max(width * pma.entry_bytes, min(pma.block_bytes, pma.nbytes))
        last = pma.nbytes - span
        found: dict[int, Any] = {}
        segments = []
        for key, slot in zip(distinct, slots):
            successor = pma.keys.item(slot)
            if successor >= key:
                segments.append(
                    (pma.offset + min((slot - slot % width) * pma.entry_bytes, last), span)
                )
                if successor == key:
                    found[key] = self.values.get(key)
        read_set(segments, limit=max(config.ram_bytes, span))
        return [found.get(int(key)) for key in keys]

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order.

        One index descent to the start, then one sequential read of the
        slot span covering the answer — the PMA's gapped-but-sorted
        layout is what makes ranges a single scan.  The host does the same:
        a second (uncharged) search bounds the scan at ``hi``'s successor,
        so the work is ``O(log N + k)``, not a pass over the array.
        """
        if lo > hi:
            return []
        start = self._search_slot(int(lo))
        self._charge_index_path(start)
        window = self.pma.keys[start : self._search_slot(int(hi)) + 1]
        # The mask drops blanks, ``hi``'s successor when it is not ``hi``,
        # and the last slot's key when ``lo`` had no successor.
        slots = np.flatnonzero((window != EMPTY) & (window >= lo) & (window <= hi))
        if slots.size == 0:
            return []
        self.pma._charge_span(
            start + int(slots[0]), start + int(slots[-1]) + 1, read=True, write=False
        )
        values = self.values
        return [(k, values[k]) for k in window[slots].tolist()]

    def __len__(self) -> int:
        return self.pma.n

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert PMA state, heap consistency, and value bookkeeping."""
        self.pma.check_invariants()
        if self.pma.n != len(self.values):
            raise TreeError(
                f"{self.pma.n} slots occupied but {len(self.values)} values"
            )
        present = self.pma.present_keys()
        if set(int(k) for k in present) != set(self.values):
            raise TreeError("PMA keys and value map diverged")
        leaves = self.pma.keys.reshape(self.pma.n_segments, -1).max(axis=1)
        if self._seg_heap != _max_heap(leaves):
            raise TreeError("index heap does not mirror the PMA's segment maxima")
        n_blocks = math.ceil((2 * self.pma.n_segments - 1) / self._nodes_per_block)
        if self._index_nbytes != n_blocks * self.config.block_bytes:
            raise TreeError(
                f"index extent of {self._index_nbytes} bytes is not the "
                f"{n_blocks} blocks of a heap over {self.pma.n_segments} segments"
            )


class _WritePlan:
    """Stands in for a :class:`COBTree`'s device while its batch applies:
    records each charge, then issues them as one planned read and one
    write per run of written extents that touch or overlap."""

    def __init__(self, tree: COBTree) -> None:
        self.tree = tree
        self.device = tree.device
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int]] = []

    def read(self, offset: int, nbytes: int) -> float:
        self.reads.append((offset, nbytes))
        return 0.0

    def write(self, offset: int, nbytes: int) -> float:
        self.writes.append((offset, nbytes))
        return 0.0

    def attach(self) -> None:
        """Record the tree's charges from here on."""
        self.tree.device = self.tree.pma.device = self

    def issue(self) -> None:
        """Give the tree its device back and issue what was recorded."""
        tree, device = self.tree, self.device
        tree.device = tree.pma.device = device
        reads, writes = self.reads, sorted(self.writes)
        self.reads, self.writes = [], []
        if reads:
            pma = tree.pma
            span = max(pma.segment_slots * pma.entry_bytes, min(pma.block_bytes, pma.nbytes))
            device.read_set(reads, limit=max(tree.config.ram_bytes, span))
        runs: list[list[int]] = []
        for offset, nbytes in writes:
            if runs and offset <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], offset + nbytes)
            else:
                runs.append([offset, offset + nbytes])
        for start, end in runs:
            device.write(start, end - start)


#: Registry entry (:mod:`repro.trees.registry`): ``node_bytes`` only prices
#: IO; ``cache_bytes`` is the RAM the top of the index may pin.
KIND = TreeKind(
    "cob", COBTree, COBConfig,
    lambda node_bytes, cache_bytes: {"block_bytes": node_bytes, "ram_bytes": cache_bytes},
)
