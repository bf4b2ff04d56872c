"""Leveled LSM-tree over a simulated device.

Structure follows LevelDB: an in-memory *memtable* absorbs writes; when it
fills it is flushed as an SSTable into level 0; level 0 holds overlapping
runs, deeper levels hold disjoint runs; when level ``i`` exceeds its byte
budget (``growth_factor ** i * level1_bytes``), one run is merged into the
overlapping runs of level ``i+1`` and the output re-cut into
``sstable_bytes`` runs.

IO pricing:

* flush/compaction reads and writes whole runs (this is where the LSM's
  write amplification of ``~growth_factor * depth`` comes from);
* a point query charges one data-block read per probed run (indexes and
  bloom-filter metadata are memory-resident, as in LevelDB; we do not
  model bloom filters, so every level is probed — the paper's trees don't
  get filters either, keeping the comparison honest);
* a range query reads the overlapping portion of every overlapping run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ConfigurationError, TreeError
from repro.storage.device import BlockDevice
from repro.storage.allocator import ExtentAllocator
from repro.trees.api import KVTree, TreeKind
from repro.trees.lsm.sstable import SSTable
from repro.trees.merge import TOMBSTONE, merge_runs
from repro.trees.sizing import EntryFormat


@dataclass(frozen=True)
class LSMConfig:
    """Tuning of one LSM-tree instance."""

    sstable_bytes: int = 2 << 20      # LevelDB's 2 MiB default
    memtable_bytes: int = 2 << 20
    level1_bytes: int = 8 << 20
    growth_factor: int = 10
    l0_trigger: int = 4               # L0 run count that triggers compaction
    block_bytes: int = 4096           # data-block read size for point queries
    fmt: EntryFormat = EntryFormat()

    def __post_init__(self) -> None:
        if self.sstable_bytes <= self.fmt.entry_bytes + self.fmt.node_header_bytes:
            raise ConfigurationError("sstable_bytes too small for a single entry")
        if self.memtable_bytes <= 0 or self.level1_bytes <= 0:
            raise ConfigurationError("memtable and level budgets must be positive")
        if self.growth_factor < 2:
            raise ConfigurationError(f"growth_factor must be >= 2, got {self.growth_factor}")
        if self.l0_trigger < 1:
            raise ConfigurationError(f"l0_trigger must be >= 1, got {self.l0_trigger}")
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")

    @property
    def entries_per_sstable(self) -> int:
        """Entries one run holds."""
        return max(1, (self.sstable_bytes - self.fmt.node_header_bytes) // self.fmt.entry_bytes)

    @property
    def entries_per_memtable(self) -> int:
        """Entries the memtable holds before flushing."""
        return max(1, self.memtable_bytes // self.fmt.entry_bytes)


class LSMTree(KVTree):
    """A leveled LSM dictionary storing ``int -> value`` pairs."""

    kind = "lsm"

    def __init__(self, device: BlockDevice, config: LSMConfig | None = None, *,
                 allocator: ExtentAllocator | None = None) -> None:
        self.device = device
        self.config = config or LSMConfig()
        self.allocator = allocator or ExtentAllocator(device.capacity_bytes, alignment=512)
        self.memtable: dict[int, Any] = {}
        self.levels: list[list[SSTable]] = [[]]   # levels[0] newest-first
        #: ``_fences[i]`` lists the ``min_key`` of every run of level ``i >= 1``
        #: in run order (``get`` bisects it; index 0 is unused, L0 runs
        #: overlap).  ``_compact`` is the only place a deeper level changes.
        self._fences: list[list[int]] = [[]]
        self._next_table_id = 0
        self.user_bytes_modified = 0
        self.compactions = 0
        # The config is frozen: the geometry every mutation needs, read once.
        self._entry_bytes = self.config.fmt.entry_bytes
        self._memtable_entries = self.config.entries_per_memtable

    # -- write path ----------------------------------------------------------------

    def _insert(self, key: int, value: Any) -> None:
        self.memtable[key] = value
        self.user_bytes_modified += self._entry_bytes
        self._maybe_flush()

    def _put_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Batched inserts: identical to a serial loop of :meth:`insert`.

        The memtable takes as many pairs at a time as it has room for.  A
        pair adds at most one key, so it cannot fill before the last pair
        of such a slice, and the flush — hence every device write — lands
        after exactly the pair the serial loop flushes after.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        cap = self._memtable_entries
        pos = 0
        while pos < len(pairs):
            memtable = self.memtable  # a flush swaps in a fresh dict
            fill = pairs[pos : pos + cap - len(memtable)]
            memtable.update(fill)
            pos += len(fill)
            self.user_bytes_modified += len(fill) * self._entry_bytes
            if len(memtable) >= cap:
                self.flush_memtable()

    def _delete(self, key: int) -> None:
        """Delete ``key`` (tombstone)."""
        self.memtable[key] = TOMBSTONE
        self.user_bytes_modified += self._entry_bytes
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self.memtable) >= self._memtable_entries:
            self.flush_memtable()

    def load(self, pairs: list[tuple[int, Any]]) -> None:
        """Load through the write path (an LSM has no bulk load)."""
        if self.memtable or any(self.levels):
            raise TreeError("load requires an empty tree")
        self._put_many(pairs)
        self.flush_memtable()

    def settle(self) -> None:
        """Flush the memtable: the LSM's only deferred writes."""
        self.flush_memtable()

    def flush_memtable(self) -> None:
        """Write the memtable as L0 run(s) and trigger compactions."""
        if not self.memtable:
            return
        memtable = self.memtable
        keys = sorted(memtable)
        values = list(map(memtable.__getitem__, keys))
        self.memtable = {}
        for run in self._cut_runs(keys, values):
            self.levels[0].insert(0, run)  # newest first
            self._write_table(run)
        self._compact_as_needed()

    def _cut_runs(self, keys: list[int], values: list[Any]) -> list[SSTable]:
        per = self.config.entries_per_sstable
        runs = []
        for start in range(0, len(keys), per):
            end = start + per
            t = SSTable(self._next_table_id, keys[start:end], values[start:end])
            self._next_table_id += 1
            runs.append(t)
        return runs

    def _write_table(self, table: SSTable) -> None:
        nbytes = table.data_bytes(self.config.fmt)
        table.offset = self.allocator.alloc(nbytes)
        table.nbytes = nbytes
        self.device.write(table.offset, nbytes)

    def _drop_table(self, table: SSTable) -> None:
        self.allocator.free(table.offset, table.nbytes)

    def _level_bytes(self, level: int) -> int:
        return sum(t.nbytes for t in self.levels[level])

    def _level_budget(self, level: int) -> int:
        return self.config.level1_bytes * self.config.growth_factor ** (level - 1)

    def _compact_as_needed(self) -> None:
        while True:
            if len(self.levels[0]) > self.config.l0_trigger:
                self._compact(0)
                continue
            done = True
            for lvl in range(1, len(self.levels)):
                if self._level_bytes(lvl) > self._level_budget(lvl):
                    self._compact(lvl)
                    done = False
                    break
            if done:
                return

    def _compact(self, level: int) -> None:
        """Merge one source run (all runs for L0) into the next level."""
        self.compactions += 1
        while len(self.levels) <= level + 1:
            self.levels.append([])
            self._fences.append([])
        if level == 0:
            sources = list(self.levels[0])
            self.levels[0] = []
        else:
            # Pick the largest run (simple deterministic victim policy).
            victim = max(self.levels[level], key=lambda t: t.nbytes)
            self.levels[level].remove(victim)
            sources = [victim]
        lo = min(t.min_key for t in sources)
        hi = max(t.max_key for t in sources)
        below = [t for t in self.levels[level + 1] if t.overlaps(lo, hi)]
        for t in below:
            self.levels[level + 1].remove(t)

        # Charge reads of every input run.
        inputs = sources + below  # newest first: L0 order, then the level below
        for t in inputs:
            self.device.read(t.offset, t.nbytes)

        # Tombstones can be dropped when the output lands in the deepest
        # level: runs there are key-disjoint, so every older version of any
        # merged key was necessarily in `inputs`.
        keys, values = merge_runs(
            [(t.keys, t.values) for t in inputs],
            drop_tombstones=(level + 1 == len(self.levels) - 1),
        )
        for t in inputs:
            self._drop_table(t)
        out_runs = self._cut_runs(keys, values)
        for run in out_runs:
            self._write_table(run)
        # Deeper levels hold key-disjoint runs in key order.
        self.levels[level + 1].extend(out_runs)
        self.levels[level + 1].sort(key=lambda t: t.min_key)
        for lvl in range(max(1, level), level + 2):
            self._fences[lvl] = [t.min_key for t in self.levels[lvl]]

    # -- read path ------------------------------------------------------------------

    def _lookup(self, key: int) -> Any | None:
        """Point query; returns the value or ``None``.

        The memtable, then every L0 run (newest first), then the one run of
        each deeper level whose fence bracket holds ``key``.  A run whose key
        range covers ``key`` is searched once: the search prices the
        block-aligned data-block read and finds the answer.
        """
        memtable = self.memtable
        if key in memtable:
            v = memtable[key]
            return None if v is TOMBSTONE else v
        fences = self._fences
        entry_bytes = self.config.fmt.entry_bytes
        block_bytes = self.config.block_bytes
        read = self.device.read
        for lvl, runs in enumerate(self.levels):
            if lvl:  # key-disjoint runs: the fences pick the one candidate
                idx = bisect_right(fences[lvl], key) - 1
                if idx < 0:
                    continue
                runs = runs[idx : idx + 1]
            for t in runs:
                keys = t.keys
                if key < keys[0] or key > keys[-1]:
                    continue
                i = bisect_left(keys, key)
                nbytes = t.nbytes
                block = min(block_bytes, nbytes)
                read(t.offset + min((i * entry_bytes // block) * block, nbytes - block), block)
                if keys[i] == key:
                    v = t.values[i]
                    return None if v is TOMBSTONE else v
        return None

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        # Reads are charged oldest run first (the HDD prices their order).
        overlapping = [
            t for lvl in range(len(self.levels) - 1, 0, -1)
            for t in self.levels[lvl] if t.overlaps(lo, hi)
        ]
        overlapping += [t for t in reversed(self.levels[0]) if t.overlaps(lo, hi)]
        for t in overlapping:
            self._read_overlap(t, lo, hi)
        # Newest first for the merge: the memtable, L0, then deeper levels.
        memtable = self.memtable
        keys = sorted(memtable)
        keys = keys[bisect_left(keys, lo) : bisect_right(keys, hi)]
        runs = [(keys, list(map(memtable.__getitem__, keys)))]
        runs += [t.slice(lo, hi) for t in reversed(overlapping)]
        # A run can overlap [lo, hi] by its bounds and hold no key inside it.
        keys, values = merge_runs([run for run in runs if run[0]], drop_tombstones=True)
        return list(zip(keys, values))

    def _read_overlap(self, table: SSTable, lo: int, hi: int) -> None:
        """Charge reading the overlapping byte range of a run."""
        fmt = self.config.fmt
        i = bisect_left(table.keys, lo)
        j = bisect_right(table.keys, hi)
        nbytes = max(self.config.block_bytes, (j - i) * fmt.entry_bytes)
        nbytes = min(nbytes, table.nbytes)
        offset = min(table.offset + i * fmt.entry_bytes, table.offset + table.nbytes - nbytes)
        self.device.read(offset, nbytes)

    # -- invariants ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert level structure: budgets are soft, disjointness is hard."""
        for lvl in range(1, len(self.levels)):
            runs = self.levels[lvl]
            for a, b in zip(runs, runs[1:]):
                if a.max_key >= b.min_key:
                    raise TreeError(
                        f"level {lvl} runs overlap: [{a.min_key},{a.max_key}] vs "
                        f"[{b.min_key},{b.max_key}]"
                    )
        for lvl, runs in enumerate(self.levels):
            if lvl and self._fences[lvl] != [t.min_key for t in runs]:
                raise TreeError(f"level {lvl} fence keys are stale")
            for t in runs:
                if t.offset < 0 or t.nbytes <= 0:
                    raise TreeError(f"run {t.table_id} in level {lvl} was never written")


def _sizing(node_bytes: int | None, _cache_bytes: int | None) -> dict[str, int]:
    """``node_bytes`` is the data-block size; runs and the memtable hold 16
    blocks, level 1 holds 64, with floors that keep tiny blocks workable."""
    if node_bytes is None:
        return {}
    return {
        "sstable_bytes": max(16 * node_bytes, 64 << 10),
        "memtable_bytes": max(16 * node_bytes, 64 << 10),
        "level1_bytes": max(64 * node_bytes, 256 << 10),
        "block_bytes": node_bytes,
    }


#: Registry entry (:mod:`repro.trees.registry`): the memtable flushes that
#: fill level 0 up to its compaction trigger amortize one compaction.
KIND = TreeKind(
    "lsm", LSMTree, LSMConfig, _sizing,
    amortization_unit=lambda config: config.l0_trigger * config.entries_per_sstable,
)
