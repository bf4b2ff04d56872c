"""Packed-memory array: the storage layer of the cache-oblivious tier.

A PMA keeps ``n`` sorted keys in a power-of-two array of ``capacity``
*slots*, some of which are blank, stored in one contiguous device extent.
The array is cut into equal power-of-two *segments* (size ``~log2 C``,
as in Bender's structure); windows of ``2^j`` aligned segments form the
rebalancing hierarchy.  Each level has a density band: ceilings
interpolate from 1.0 at a single segment down to ``max_density`` for the
whole array, floors from ``max_density / 4`` at a segment up to
``3/8 max_density`` for the whole array (below ``max_density / 2``, so a
doubling lands above the root floor and a halving below the root
ceiling).  The floors apply once the array has grown past
``initial_slots``; at that size there is nothing to shrink to.

Every change walks the same way (:meth:`_rebalance_window`): from the
smallest aligned window covering it, up to the first window whose density
*after* the change is inside its band, which is then evenly respread.  An
insert walks when its segment is full, a run of puts and deletes
(:meth:`bulk_update`) walks from the window covering all of them, and a
scalar delete blanks its slot and walks only when its segment drops
below the floor.  When even the whole array is outside its band, the
capacity doubles (overflow) or halves (underflow, never below
``initial_slots``).  That is what bounds the amortized movement per
operation to ``O(log^2 n)`` slots (``O((log^2 n)/B)`` block IOs).

What is guaranteed, and checked by :meth:`check_invariants`: once
``capacity > initial_slots`` every segment holds at least
``floor(max_density / 4 * segment_slots)`` keys, so a scan of ``k`` keys
reads ``O(1 + k/B)`` blocks whatever was deleted before it.  What is
*not*: every window inside its band after every operation.  A band is
read only when a walk reaches its window, so windows no walk has visited
may sit above their ceiling — on the ``tree_write`` benchmark the whole
array runs at density 0.878 in 2^18 slots against ``max_density`` 0.8.
Enforcing the root ceiling per insert would double the array early; a
prototype that did measured +7 % peak RSS on that benchmark.

IO accounting mirrors :mod:`repro.trees.lsm` / :mod:`repro.trees.cola`:
the PMA owns a device extent of ``capacity * entry_bytes``; redistributing
a window reads and rewrites its byte range sequentially (min one block);
a resize reads the whole old extent and writes the whole new one.  The
search layer on top (:class:`~repro.trees.cob.tree.COBTree`) does its own
accounting for the vEB-ordered index.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from repro.errors import ConfigurationError, TreeError
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.trees.sizing import KEY_MAX, KEY_MIN

#: Reserved slot-is-blank sentinel; user keys must be strictly greater.
EMPTY = np.int64(np.iinfo(np.int64).min)
#: The same value as a Python int, for the list-backed summaries.
_BLANK = int(EMPTY)
#: No keys: the run a scalar insert deletes, or a delete's rebalance merges.
_NONE = np.empty(0, dtype=np.int64)
#: Density floors, as fractions of ``max_density``: a single segment's and
#: the whole array's (below 1/2, the density a doubling leaves).
_SEGMENT_FLOOR = 0.25
_ROOT_FLOOR = 0.375


def _segment_slots_for(capacity: int) -> int:
    """Segment size for ``capacity`` slots: ``~log2 C`` rounded to a power
    of two, at least 8, never more than the capacity itself."""
    target = max(8, 1 << math.ceil(math.log2(max(2, math.log2(capacity)))))
    return min(target, capacity)


class PackedMemoryArray:
    """Gapped sorted int64 array over a :class:`BlockDevice` extent."""

    def __init__(
        self,
        device: BlockDevice,
        *,
        entry_bytes: int,
        block_bytes: int = 4096,
        initial_slots: int = 1024,
        max_density: float = 0.8,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        if entry_bytes <= 0:
            raise ConfigurationError(f"entry_bytes must be positive, got {entry_bytes}")
        if block_bytes <= 0:
            raise ConfigurationError(f"block_bytes must be positive, got {block_bytes}")
        if initial_slots < 8 or initial_slots & (initial_slots - 1):
            raise ConfigurationError(
                f"initial_slots must be a power of two >= 8, got {initial_slots}"
            )
        if not 0.0 < max_density < 1.0:
            raise ConfigurationError(
                f"max_density must be in (0, 1), got {max_density}"
            )
        self.device = device
        self.entry_bytes = int(entry_bytes)
        self.block_bytes = int(block_bytes)
        self.max_density = float(max_density)
        self.initial_slots = int(initial_slots)
        self.allocator = allocator or ExtentAllocator(
            device.capacity_bytes, alignment=512
        )
        self.n = 0
        self.rebalances = 0
        self.resizes = 0
        self._init_storage(initial_slots)

    # -- layout --------------------------------------------------------------

    def _init_storage(self, capacity: int) -> None:
        """(Re)allocate the array at ``capacity`` slots; contents empty."""
        self.capacity = capacity
        self.segment_slots = _segment_slots_for(capacity)
        self.n_segments = capacity // self.segment_slots
        self.keys = np.full(capacity, EMPTY, dtype=np.int64)
        # Per-segment summaries, in plain lists because an insert touches
        # one or two entries: occupancy, and the largest present key (the
        # blank sentinel when empty) — the leaves of the search layer's heap.
        self.seg_count = [0] * self.n_segments
        self.seg_max = [_BLANK] * self.n_segments
        #: Density band of a window of ``2^j`` segments, by ``j``; no floors
        #: at ``initial_slots``, where the array cannot shrink.
        levels = range(self.n_segments.bit_length())
        self._ceilings = [self._upper_density(1 << j) for j in levels]
        self._floors = [
            0.0 if capacity == self.initial_slots else self._lower_density(1 << j)
            for j in levels
        ]
        #: A delete that leaves its segment with fewer keys walks.
        self._segment_floor = self._floors[0] * self.segment_slots
        self.nbytes = capacity * self.entry_bytes
        self.offset = self.allocator.alloc(self.nbytes)

    def _upper_density(self, window_segments: int) -> float:
        """Density ceiling for a window of ``window_segments`` segments.

        Interpolates linearly in the window's level: a single segment may
        fill completely, the whole array only to ``max_density``.
        """
        levels = int(math.log2(self.n_segments)) if self.n_segments > 1 else 0
        if levels == 0:
            return self.max_density
        j = int(math.log2(window_segments))
        return 1.0 - (1.0 - self.max_density) * j / levels

    def _lower_density(self, window_segments: int) -> float:
        """Density floor for a window of ``window_segments`` segments.

        :meth:`_upper_density` mirrored: loosest at a single segment, which
        may thin to ``_SEGMENT_FLOOR * max_density``, tightest for the whole
        array, ``_ROOT_FLOOR * max_density``.
        """
        levels = int(math.log2(self.n_segments)) if self.n_segments > 1 else 0
        if levels == 0:
            return _ROOT_FLOOR * self.max_density
        j = int(math.log2(window_segments))
        return (_SEGMENT_FLOOR + (_ROOT_FLOOR - _SEGMENT_FLOOR) * j / levels) * self.max_density

    def segment_of(self, slot: int) -> int:
        """Index of the segment containing ``slot``."""
        return slot // self.segment_slots

    def _spread(self, merged: np.ndarray, seg_lo: int, seg_hi: int) -> None:
        """Lay sorted ``merged`` evenly over the segments ``[seg_lo, seg_hi)``
        (key ``i`` of ``m`` at slot ``i * width // m``) and take their
        summaries from the result: array work, in numpy."""
        window = self.keys[seg_lo * self.segment_slots : seg_hi * self.segment_slots]
        window[:] = EMPTY
        m = merged.size
        window[(np.arange(m, dtype=np.int64) * window.size) // max(1, m)] = merged
        rows = window.reshape(seg_hi - seg_lo, self.segment_slots)
        self.seg_count[seg_lo:seg_hi] = (rows != EMPTY).sum(axis=1).tolist()
        self.seg_max[seg_lo:seg_hi] = rows.max(axis=1).tolist()

    def _spread_list(self, merged: list[int], seg_lo: int, seg_hi: int) -> None:
        """:meth:`_spread` for a non-empty list: the same slots and
        summaries in plain Python, cheaper than numpy on a segment or two."""
        lo, hi = seg_lo * self.segment_slots, seg_hi * self.segment_slots
        m, width = len(merged), hi - lo
        spread = [_BLANK] * width
        at = 0
        for key in merged:
            spread[at // m] = key
            at += width
        self.keys[lo:hi] = spread
        # Slot i * width // m is window segment i * segs // m: the segments
        # hold consecutive runs of ``merged``, cut at ceil(s * m / segs).
        segs = seg_hi - seg_lo
        seg_count, seg_max = self.seg_count, self.seg_max
        cut = 0
        for seg in range(segs):
            below, cut = cut, -(-(seg + 1) * m // segs)
            seg_count[seg_lo + seg] = cut - below
            seg_max[seg_lo + seg] = merged[cut - 1] if cut > below else _BLANK

    # -- updates -------------------------------------------------------------

    def insert(self, key: int, slot: int) -> tuple[int, int, bool]:
        """Insert ``key`` whose successor lives at ``slot``.

        ``slot`` is where a search for ``key`` lands (the slot of the
        smallest present key ``>= key``, or the last slot when no such key
        exists); the caller's search layer provides it.  Returns
        ``(slot_lo, slot_hi, resized)``: the half-open slot range whose
        contents changed (the whole array after a resize).
        """
        if not KEY_MIN <= key <= KEY_MAX:  # the minimum int64 is the blank sentinel
            raise TreeError(f"key {key} is outside [KEY_MIN, KEY_MAX]")
        return self._update(key, _NONE, 1, slot, slot)

    def insert_resizes(self, slot: int) -> bool:
        """Whether :meth:`insert` of a key whose successor lives at
        ``slot`` resizes the array: no window covering its segment would
        stay inside its band."""
        seg = slot // self.segment_slots
        return self._rebalance_window(seg, seg, delta=1) is None

    def bulk_update(
        self, new_keys: np.ndarray, gone_keys: np.ndarray, slot_lo: int, slot_hi: int
    ) -> tuple[int, int, bool]:
        """Merge in a sorted, distinct run and remove another in one window.

        ``slot_lo``/``slot_hi`` are the search-layer slots of the smallest
        and the largest key of either run, so the window covering both
        holds every key to remove and every new key's successor.  That
        window is rebalanced once — the batched counterpart of
        ``len(new_keys)`` inserts and ``len(gone_keys)`` deletes, and the
        flush primitive of the Theorem 9 buffered variant — or, when the
        whole array leaves its density band, the array is resized once.
        New keys that already exist in the array replace in place (the
        caller owns the values); every key to remove must be present.
        Returns what :meth:`insert` returns.
        """
        new_keys = np.asarray(new_keys, dtype=np.int64)
        gone_keys = np.asarray(gone_keys, dtype=np.int64)
        if new_keys.size == 0 and gone_keys.size == 0:
            lo = self.segment_of(slot_lo) * self.segment_slots
            return lo, lo, False
        # Compare, don't diff: int64 subtraction overflows when adjacent
        # keys are more than 2^63 apart.
        for run in (new_keys, gone_keys):
            if np.any(run[1:] <= run[:-1]):
                raise TreeError("bulk_update needs strictly increasing keys")
        if new_keys.size and bool(new_keys[0] == EMPTY):
            raise TreeError("the minimum int64 is reserved as the blank sentinel")
        return self._update(
            new_keys, gone_keys, new_keys.size - gone_keys.size, slot_lo, slot_hi
        )

    def delete(self, slot: int) -> tuple[int, int, bool]:
        """Blank ``slot`` (read-modify-write of its segment's byte range).

        Only a segment left below its floor walks (and respreads or halves
        on top of that charge).  Returns what :meth:`insert` returns.
        """
        key = self.keys.item(slot)
        if key == _BLANK:
            raise TreeError(f"slot {slot} is already blank")
        self.keys[slot] = EMPTY
        seg = self.segment_of(slot)
        lo = seg * self.segment_slots
        self.seg_count[seg] -= 1
        if key == self.seg_max[seg]:
            self.seg_max[seg] = self.keys[lo : lo + self.segment_slots].max().item()
        self.n -= 1
        self.charge_segment(slot, write=True)
        if self.seg_count[seg] >= self._segment_floor:
            return lo, lo + self.segment_slots, False
        return self._update(_NONE, _NONE, 0, slot, slot)

    def _update(
        self, new: int | np.ndarray, gone: np.ndarray, delta: int, slot_lo: int, slot_hi: int
    ) -> tuple[int, int, bool]:
        """Merge ``new`` (one key or a sorted run) in and ``gone`` out, a net
        change of ``delta`` keys, in the smallest window whose density stays
        inside its band — or resize the whole array."""
        window = self._rebalance_window(
            slot_lo // self.segment_slots, slot_hi // self.segment_slots, delta=delta
        )
        if window is None:
            self._resize(self._merge(self.keys[self.keys != EMPTY], new, gone))
            return 0, self.capacity, True
        lo_seg, hi_seg = window
        self._redistribute(lo_seg, hi_seg, new, gone)
        return lo_seg * self.segment_slots, hi_seg * self.segment_slots, False

    def _rebalance_window(
        self, seg_lo: int, seg_hi: int, *, delta: int
    ) -> tuple[int, int] | None:
        """Smallest aligned window covering ``[seg_lo, seg_hi]`` whose
        density after a net change of ``delta`` entries is within its
        level's ``[floor, ceiling]``, or ``None`` when even the whole array
        would not be.

        One upward walk: the first covering window is counted, every wider
        one only adds its new half (the sibling's sum).
        """
        counts = self.seg_count
        lo, w, level = seg_lo, 1, 0
        while seg_hi >= lo + w:
            w *= 2
            level += 1
            lo = seg_lo // w * w
        occupied = sum(counts[lo : lo + w])
        floors, ceilings = self._floors, self._ceilings
        while not (
            floors[level] <= (occupied + delta) / (w * self.segment_slots) <= ceilings[level]
        ):
            if w == self.n_segments:
                return None
            sibling = lo ^ w
            occupied += sum(counts[sibling : sibling + w])
            lo &= ~w
            w *= 2
            level += 1
        return lo, lo + w

    @staticmethod
    def _merge(present: np.ndarray, new: int | np.ndarray, gone: np.ndarray) -> np.ndarray:
        """``present`` with ``new`` merged in, then ``gone`` removed (found
        by binary search: no temporaries the size of the window)."""
        merged = np.union1d(present, new) if np.size(new) else present
        if gone.size:
            at = np.searchsorted(merged, gone)
            if at[-1] >= merged.size or np.any(merged[at] != gone):
                raise TreeError("a key to remove is not in the rebalanced window")
            merged = np.delete(merged, at)
        return merged

    def _redistribute(
        self, seg_lo: int, seg_hi: int, new: int | np.ndarray, gone: np.ndarray
    ) -> None:
        """Evenly respread the window ``[seg_lo, seg_hi)`` of segments,
        merging ``new`` in and ``gone`` out; charges one sequential read +
        write of the window's byte range.

        One key (``insert``) is scalar work on a segment or a few and runs
        on plain lists; a run (``bulk_update``) or a delete's rebalance is
        array work on a window that may be most of the array and stays in
        numpy.
        """
        lo = seg_lo * self.segment_slots
        hi = seg_hi * self.segment_slots
        window = self.keys[lo:hi]
        present = window[window != EMPTY]
        if isinstance(new, int):
            merged, spread = present.tolist(), self._spread_list
            at = bisect_left(merged, new)
            if at == len(merged) or merged[at] != new:
                merged.insert(at, new)
        else:
            merged, spread = self._merge(present, new, gone), self._spread
        if len(merged) > hi - lo:
            raise TreeError(f"window [{lo}, {hi}) cannot hold {len(merged)} entries")
        spread(merged, seg_lo, seg_hi)
        self.n += len(merged) - present.size
        self.rebalances += 1
        self._charge_span(lo, hi, read=True, write=True)

    def _resize(self, merged: np.ndarray) -> None:
        """Double on overflow or halve on underflow (repeatedly, for runs;
        never below ``initial_slots``) and spread ``merged`` over the whole
        new array."""
        capacity = self.capacity
        while merged.size > self.max_density * capacity:
            capacity *= 2
        while (
            capacity > self.initial_slots
            and merged.size < _ROOT_FLOOR * self.max_density * capacity
        ):
            capacity //= 2
        # The old extent is read out once, sequentially, then freed.
        self.device.read(self.offset, self.nbytes)
        self.allocator.free(self.offset, self.nbytes)
        self._init_storage(capacity)
        self.n = int(merged.size)
        self._spread(merged, 0, self.n_segments)
        self.resizes += 1
        self.device.write(self.offset, self.nbytes)

    def load(self, sorted_keys: np.ndarray) -> None:
        """Bulk-load an empty PMA: one sequential write of the new extent."""
        if self.n:
            raise TreeError("load requires an empty array")
        keys = np.asarray(sorted_keys, dtype=np.int64)
        if keys.size and bool(keys[0] == EMPTY):
            raise TreeError("the minimum int64 is reserved as the blank sentinel")
        if keys.size and np.any(keys[1:] <= keys[:-1]):
            raise TreeError("load needs strictly increasing keys")
        capacity = self.capacity
        while keys.size > self.max_density * capacity:
            capacity *= 2
        if capacity != self.capacity:
            self.allocator.free(self.offset, self.nbytes)
            self._init_storage(capacity)
        self.n = int(keys.size)
        self._spread(keys, 0, self.n_segments)
        self.device.write(self.offset, self.nbytes)

    # -- IO accounting -------------------------------------------------------

    def _charge_span(self, slot_lo: int, slot_hi: int, *, read: bool, write: bool) -> None:
        """Charge sequential IO over a slot range, min one block."""
        span = (slot_hi - slot_lo) * self.entry_bytes
        span = max(span, min(self.block_bytes, self.nbytes))
        off = min(self.offset + slot_lo * self.entry_bytes, self.offset + self.nbytes - span)
        if read:
            self.device.read(off, span)
        if write:
            self.device.write(off, span)

    def charge_segment(self, slot: int, *, write: bool) -> None:
        """Charge a read of ``slot``'s segment and, with ``write``, its
        write-back: how the search layer, whose index ends at segments,
        reaches a slot."""
        lo = slot - slot % self.segment_slots
        self._charge_span(lo, lo + self.segment_slots, read=True, write=write)

    def present_keys(self) -> np.ndarray:
        """All present keys in sorted order (a copy)."""
        return self.keys[self.keys != EMPTY].copy()

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert sortedness, counts, density bookkeeping and the segment
        floor (not the per-window bands; see the module docstring)."""
        present = self.keys[self.keys != EMPTY]
        if present.size != self.n:
            raise TreeError(f"count mismatch: {present.size} present, n={self.n}")
        if np.any(present[1:] <= present[:-1]):
            raise TreeError("present keys out of order")
        rows = self.keys.reshape(self.n_segments, -1)
        if (rows != EMPTY).sum(axis=1).tolist() != self.seg_count:
            raise TreeError("segment occupancy counters drifted")
        if rows.max(axis=1).tolist() != self.seg_max:
            raise TreeError("segment maxima drifted")
        if self.capacity % self.segment_slots:
            raise TreeError("segment size does not divide capacity")
        if self.n > self.capacity:
            raise TreeError("more entries than slots")
        least = math.floor(self._segment_floor)
        if min(self.seg_count) < least:
            raise TreeError(f"a segment holds fewer than its floor of {least} keys")
