"""Basic (amortized) cache-oblivious lookahead array.

Structure [Bender et al., "Cache-Oblivious Streaming B-trees", SPAA 2007]:
``log N`` levels, level ``k`` holding a sorted array of exactly ``2^k``
entries or nothing.  An insert places a 1-element array at level 0 and,
binomial-counter style, repeatedly merges equal-size full levels upward
until it lands in an empty slot.  Each element therefore moves ``O(log N)``
times, always inside *sequential* merges of big arrays — the
write-optimized property — at an amortized IO cost of
``O((log N) / B_entries)`` per insert.  A query binary-searches every
non-empty level: ``O(log^2 N)`` comparisons and, with RAM-resident fence
keys standing in for fractional cascading (not implemented — the paper's
citation is for the structural idea), one block probe per uncached level.

Deletes are tombstones, resolved during merges and dropped when a merge
produces the (new) largest level.

Why this is in a DAM-refinement reproduction: the COLA is the
*cache-oblivious* point in the write-optimized design space the paper
surveys — it has no node-size knob at all, so under the affine model its
insert cost is automatically near-optimal at any ``alpha``, while its
query cost pays the ``log N`` levels.  The epsilon-tradeoff experiment
(``exp_epsilon_tradeoff``) places it on the same axes as the Bε-tree.

IO accounting mirrors :mod:`repro.trees.lsm`: levels are stored in device
extents; merges read their inputs and write their output sequentially;
a search charges the one block its fence keys bracket.  Levels small enough to
fit a configured RAM budget (taken greedily from level 0 upward, matching
what a real implementation pins) are free to search, and the budget they
leave caches device blocks (:class:`~repro.storage.blocks.BlockCache`): a
probe, a scan or a merge input whose blocks are resident is free.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from operator import is_, itemgetter, lt
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError, TreeError
from repro.storage.allocator import ExtentAllocator
from repro.storage.blocks import BlockCache
from repro.storage.device import BlockDevice
from repro.trees.api import KVTree, TreeKind
from repro.trees.merge import TOMBSTONE, Run, merge_runs
from repro.trees.sizing import EntryFormat


@dataclass(frozen=True)
class COLAConfig:
    """Tuning of one COLA instance.

    The COLA has no node-size parameter — that is its point.  The only
    knobs are the entry format, the block size used to price search
    probes, and the RAM budget: the top levels pin part of it, and the
    rest caches device blocks.  Every on-disk level
    is fenced: RAM-resident fence keys bracket a search to one block
    probe per level, the engineering analogue of the COLA paper's
    fractional cascading (which exists to achieve the same bound
    cache-obliviously).
    """

    fmt: EntryFormat = EntryFormat()
    block_bytes: int = 4096
    ram_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.ram_bytes < 0:
            raise ConfigurationError("ram_bytes must be non-negative")

    @property
    def entries_per_block(self) -> int:
        """Entries per search-probe block."""
        return max(1, self.block_bytes // self.fmt.entry_bytes)


class _Level:
    """One sorted run of exactly ``2^k`` logical slots."""

    __slots__ = ("keys", "values", "offset", "nbytes")

    def __init__(self, keys: list[int], values: list[Any]) -> None:
        self.keys = keys
        self.values = values
        self.offset = -1
        self.nbytes = 0


class COLA(KVTree):
    """A cache-oblivious lookahead array storing ``int -> value`` pairs."""

    kind = "cola"

    def __init__(
        self,
        device: BlockDevice,
        config: COLAConfig | None = None,
        *,
        allocator: ExtentAllocator | None = None,
    ) -> None:
        self.device = device
        self.config = config or COLAConfig()
        self.allocator = allocator or ExtentAllocator(device.capacity_bytes, alignment=512)
        self.levels: list[_Level | None] = []
        self.user_bytes_modified = 0
        self.merges = 0
        self._entry_bytes = self.config.fmt.entry_bytes  # the config is frozen
        #: RAM the pinned levels take when full; the rest of the budget is
        #: the block cache.
        pinned = self._pinned_levels
        self.pinned_bytes = (
            pinned * self.config.fmt.node_header_bytes + ((1 << pinned) - 1) * self._entry_bytes
        )
        block_bytes = self.config.block_bytes
        self.block_cache = BlockCache(
            block_bytes, (self.config.ram_bytes - self.pinned_bytes) // block_bytes
        )

    # -- write path --------------------------------------------------------------

    def _insert(self, key: int, value: Any) -> None:
        self._push(key, value)

    def _delete(self, key: int) -> None:
        """Delete ``key`` (tombstone)."""
        self._push(key, TOMBSTONE)

    def _put_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Insert many pairs, identical in accounting to an insert loop.

        Same contract as every other tree's ``put_many``
        (``tests/trees/test_put_many.py``): device clock, stats, merge
        counts and level structure equal calling :meth:`insert` once per
        pair exactly.  The occupied levels are a binary counter, and the
        levels that fit the pin threshold even when full never reach the
        device, so a run of pushes that does not carry out of them is one
        counter step (:meth:`_carry`).  The push that does carry out is a
        :meth:`_push`: every device call, hence every fault, lives there.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        pinned = self._pinned_levels
        full = (1 << pinned) - 1
        levels = self.levels
        push = self._push
        n = len(pairs)
        pos = 0
        while pos < n:
            count = 0
            for k, lvl in enumerate(levels[:pinned]):
                if lvl is not None:
                    count |= 1 << k
            end = min(pos + full - count, n)
            if end > pos:
                chunk = pairs[pos:end]
                values = list(map(_VALUE, chunk))
                if any(map(is_, values, repeat(TOMBSTONE))):
                    # Only a tombstone can merge to nothing and un-set a
                    # counter bit: such a run takes the loop.
                    for key, value in chunk:
                        push(key, value)
                else:
                    self._carry(count, list(map(_KEY, chunk)), values)
                pos = end
            if pos < n:
                push(*pairs[pos])
                pos += 1

    def load(self, pairs: list[tuple[int, Any]]) -> None:
        """Load through the merge path (a COLA has no bulk load)."""
        if any(lvl is not None for lvl in self.levels):
            raise TreeError("load requires an empty tree")
        self._put_many(pairs)

    def _carry(self, count: int, keys: Sequence[int], values: Sequence[Any]) -> None:
        """Apply ``len(keys)`` pushes that stay inside the pinned levels.

        ``count`` is the pinned levels' occupancy as a binary counter and
        the pushes take it to ``after = count + len(keys)``.  Lay the
        occupied levels (highest = oldest) and then the new pairs out in
        age order and cut that sequence at the set bits of ``after`` from
        the top: the bits above the highest changed one, ``top``, are
        levels the step leaves alone; level ``top`` takes every level
        below it plus the oldest new pairs, in one merge; the remaining
        new pairs fill the lower set bits, oldest in the highest.  No new
        pair is a tombstone, so no cut comes out empty, and tombstones of
        the old levels all end in level ``top``, which drops them exactly
        when the loop would have: when nothing above it is occupied.
        """
        n = len(keys)
        after = count + n
        self.user_bytes_modified += n * self._entry_bytes
        self.merges += n - (after.bit_count() - count.bit_count())
        levels = self.levels
        top = (count ^ after).bit_length() - 1
        while len(levels) <= top:
            levels.append(None)
        below = count & ((1 << top) - 1)
        pos = (1 << top) - below
        run = _newest_wins(keys[:pos], values[:pos])
        if below:
            runs = [run]
            for k in range(top):
                lvl = levels[k]
                if lvl is not None:
                    runs.append((lvl.keys, lvl.values))
                    levels[k] = None
            # As in _merge: tombstones die when the result is the largest level.
            run = merge_runs(runs, drop_tombstones=not any(levels[top + 1 :]))
        levels[top] = _Level(*run)
        while pos < n:
            k = (n - pos).bit_length() - 1
            end = pos + (1 << k)
            levels[k] = _Level(*_newest_wins(keys[pos:end], values[pos:end]))
            pos = end

    def _push(self, key: int, value: Any) -> None:
        self.user_bytes_modified += self._entry_bytes
        levels = self.levels
        # Binomial-counter carry: the new entry and every full level below
        # the first empty one collapse into that slot.  The intermediate
        # carries of the level-by-level formulation never reach the device,
        # so the whole cascade is one k-way merge, newest run first; the
        # result has <= 2^k logical entries (duplicates collapse, which is
        # fine: a level only needs to be *at most* its capacity here).
        runs: list[tuple[list[int], list[Any]]] = [([key], [value])]
        k = 0
        while k < len(levels) and levels[k] is not None:
            resident = levels[k]
            # Charge the read of the input (RAM-pinned levels were never
            # written), unless it is cached; it is freed, so not kept.
            if resident.offset >= 0:
                self.block_cache.read(self.device, resident.offset, resident.nbytes, admit=False)
                self._free_level(resident)
            runs.append((resident.keys, resident.values))
            levels[k] = None
            k += 1
        if k == len(levels):
            levels.append(None)
        carry = self._merge(runs, k) if k else _Level(*runs[0])
        levels[k] = carry
        self._write_level(carry, k)

    def _merge(self, runs: list[tuple[list[int], list[Any]]], k: int) -> _Level:
        """Merge a carry cascade (newest run first) into the run for level ``k``."""
        self.merges += k
        # Tombstones die when the result becomes the largest level.
        drop_tombstones = not any(self.levels[k + 1 :])
        return _Level(*merge_runs(runs, drop_tombstones=drop_tombstones))

    def _level_bytes(self, level: _Level) -> int:
        return self.config.fmt.node_header_bytes + len(level.keys) * self.config.fmt.entry_bytes

    @property
    def _pin_threshold_bytes(self) -> int:
        """Largest level kept purely in RAM (never written).

        Level sizes double, so pinning every level of at most ``ram/4``
        bytes costs at most ``ram/2`` in total — a real COLA behaves the
        same way, which is what makes its small-level churn free.
        """
        return self.config.ram_bytes // 4

    @property
    def _pinned_levels(self) -> int:
        """Levels ``0 .. n-1`` fit the pin threshold even when full (level
        ``k`` holds at most ``2^k`` entries), so nothing in them is ever
        read from, written to or freed on the device."""
        slots = (
            self._pin_threshold_bytes - self.config.fmt.node_header_bytes
        ) // self._entry_bytes
        return slots.bit_length() if slots > 0 else 0

    def _write_level(self, level: _Level, k: int) -> None:
        if not level.keys:
            # A merge can produce an empty run (all tombstones dropped).
            self.levels[k] = None
            return
        nbytes = self._level_bytes(level)
        if nbytes <= self._pin_threshold_bytes:
            return  # stays in RAM; offset remains -1
        level.offset = self.allocator.alloc(nbytes)
        level.nbytes = nbytes
        self.device.write(level.offset, nbytes)

    def _free_level(self, level: _Level) -> None:
        if level.offset >= 0:
            self.block_cache.drop(level.offset, level.nbytes)
            self.allocator.free(level.offset, level.nbytes)
            level.offset = -1
            level.nbytes = 0

    # -- read path --------------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``.

        One search per level, newest (smallest) first.  A level on the
        device (``offset >= 0``; the pinned ones were never written) charges
        the block its RAM-resident fence keys bracket the search to, unless
        the block cache holds it (tested inline: a probe spans at most two
        cache blocks).
        """
        config = self.config
        entry_bytes = config.fmt.entry_bytes
        block_bytes = config.block_bytes
        read = self.device.read
        cache = self.block_cache
        blocks, stats, capacity = cache.blocks, cache.stats, cache.capacity
        touch = blocks.move_to_end
        for lvl in self.levels:
            if lvl is None:
                continue
            keys = lvl.keys
            i = bisect_left(keys, key)
            offset = lvl.offset
            if offset >= 0:
                nbytes = lvl.nbytes
                block = min(block_bytes, nbytes)
                at = offset + min((i * entry_bytes // block) * block, nbytes - block)
                first, last = at // block_bytes, (at + block - 1) // block_bytes
                if first in blocks and last in blocks:  # BlockCache.read, inline
                    stats.hits += 1
                    touch(first)
                    touch(last)
                else:
                    stats.misses += 1
                    read(at, block)
                    if last - first < capacity:
                        blocks[first] = blocks[last] = None
                        touch(first)
                        touch(last)
                        while len(blocks) > capacity:
                            blocks.popitem(False)
                            stats.evictions += 1
            if i < len(keys) and keys[i] == key:
                value = lvl.values[i]
                return None if value is TOMBSTONE else value
        return None

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries; values (or ``None``) in input order.

        The answers of a :meth:`_lookup` loop, with one device step per
        level instead of one per key and level: newest level first, the
        blocks the fence keys bracket for every key still unanswered go to
        the device as one :meth:`~repro.storage.device.BlockDevice.read_set`
        (sorted, deduplicated, bridged, runs capped at ``ram_bytes``; the
        cached ones free), and a key found at a level reads nothing deeper.  A batch of one (or
        none) has nothing to plan: it is :meth:`_lookup`.
        """
        if len(keys) <= 1:
            return [self._lookup(key) for key in keys]
        config = self.config
        entry_bytes = config.fmt.entry_bytes
        block_bytes = config.block_bytes
        limit = max(config.ram_bytes, block_bytes)
        device, read_set = self.device, self.block_cache.read_set
        found: dict[int, Any] = {}
        pending = list(dict.fromkeys(keys))
        for lvl in self.levels:
            if not pending:
                break
            if lvl is None:
                continue
            level_keys = lvl.keys
            at = [bisect_left(level_keys, key) for key in pending]
            offset = lvl.offset
            if offset >= 0:
                nbytes = lvl.nbytes
                block = min(block_bytes, nbytes)
                last = nbytes - block
                read_set(
                    device,
                    [(offset + min((i * entry_bytes // block) * block, last), block) for i in at],
                    limit=limit,
                )
            n = len(level_keys)
            missed = []
            for key, i in zip(pending, at):
                if i < n and level_keys[i] == key:
                    value = lvl.values[i]
                    found[key] = None if value is TOMBSTONE else value
                else:
                    missed.append(key)
            pending = missed
        return [found.get(key) for key in keys]

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        runs: list[tuple[list[int], list[Any]]] = []
        # Oldest (largest) level first: the HDD prices the order of the reads.
        for lvl in reversed(self.levels):
            if lvl is None:
                continue
            i = bisect_left(lvl.keys, lo)
            j = bisect_right(lvl.keys, hi)
            if j == i:
                continue
            if lvl.offset >= 0:
                nbytes = max(
                    self.config.block_bytes,
                    (j - i) * self.config.fmt.entry_bytes,
                )
                nbytes = min(nbytes, lvl.nbytes)
                offset = min(
                    lvl.offset + i * self.config.fmt.entry_bytes,
                    lvl.offset + lvl.nbytes - nbytes,
                )
                self.block_cache.read(self.device, offset, nbytes)
            runs.append((lvl.keys[i:j], lvl.values[i:j]))
        runs.reverse()  # newest first, as the merge ranks them
        keys, values = merge_runs(runs, drop_tombstones=True)
        return list(zip(keys, values))

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert level sizing, sortedness, and extent consistency."""
        for k, lvl in enumerate(self.levels):
            if lvl is None:
                continue
            if len(lvl.keys) != len(lvl.values):
                raise TreeError(f"level {k}: keys/values mismatch")
            if not lvl.keys:
                raise TreeError(f"level {k}: empty run should be None")
            if len(lvl.keys) > (1 << k):
                raise TreeError(
                    f"level {k}: {len(lvl.keys)} entries exceeds capacity {1 << k}"
                )
            for a, b in zip(lvl.keys, lvl.keys[1:]):
                if a >= b:
                    raise TreeError(f"level {k}: keys out of order")
            written = lvl.offset >= 0
            nbytes = self._level_bytes(lvl)
            if nbytes > self._pin_threshold_bytes and not written:
                raise TreeError(f"level {k}: too large for RAM but never written")
            if nbytes <= self._pin_threshold_bytes and written:
                raise TreeError(f"level {k}: fits the RAM pin but was written")
            if written and lvl.nbytes != nbytes:
                raise TreeError(
                    f"level {k}: extent of {lvl.nbytes} bytes prices {nbytes}"
                )


_KEY, _VALUE = itemgetter(0), itemgetter(1)


def _newest_wins(keys: Sequence[int], values: Sequence[Any]) -> Run:
    """Pushes in arrival order as one sorted run: a later duplicate wins."""
    if all(map(lt, keys, islice(keys, 1, None))):
        return list(keys), list(values)
    newest = dict(zip(keys, values))
    keys = sorted(newest)
    return keys, list(map(newest.__getitem__, keys))


#: Registry entry (:mod:`repro.trees.registry`): ``node_bytes`` only prices
#: search probes (and is the block cache's block); ``cache_bytes`` is the RAM
#: budget, pinned top levels plus block cache.
KIND = TreeKind(
    "cola", COLA, COLAConfig,
    lambda node_bytes, cache_bytes: {"block_bytes": node_bytes, "ram_bytes": cache_bytes},
)
