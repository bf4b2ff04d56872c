"""Immutable sorted string tables (SSTables).

An SSTable is a sorted, immutable run of key-value pairs (with tombstones
encoded as the :data:`repro.trees.merge.TOMBSTONE` sentinel).  Its byte
footprint is priced with the shared
:class:`~repro.trees.sizing.EntryFormat`; point lookups charge one
*data-block* read (the per-table index is assumed memory-resident, as in
LevelDB).
"""

from __future__ import annotations

import bisect
from itertools import islice
from operator import lt
from typing import Any

from repro.errors import TreeError
from repro.trees.sizing import EntryFormat


class SSTable:
    """One immutable sorted run."""

    __slots__ = ("table_id", "keys", "values", "offset", "nbytes")

    def __init__(self, table_id: int, keys: list[int], values: list[Any]) -> None:
        if not keys:
            raise TreeError("an SSTable cannot be empty")
        if len(keys) != len(values):
            raise TreeError("keys/values length mismatch")
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise TreeError("SSTable keys must be strictly increasing")
        self.table_id = table_id
        self.keys = keys
        self.values = values
        self.offset = -1   # assigned when written
        self.nbytes = 0    # assigned when written

    @property
    def min_key(self) -> int:
        """Smallest key in the run."""
        return self.keys[0]

    @property
    def max_key(self) -> int:
        """Largest key in the run."""
        return self.keys[-1]

    def __len__(self) -> int:
        return len(self.keys)

    def data_bytes(self, fmt: EntryFormat) -> int:
        """Byte footprint of the run's data."""
        return fmt.node_header_bytes + len(self.keys) * fmt.entry_bytes

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether the run's key range intersects ``[lo, hi]``."""
        return not (hi < self.min_key or lo > self.max_key)

    def lookup(self, key: int) -> tuple[Any, bool]:
        """``(value, found)`` — value may be :data:`~repro.trees.merge.TOMBSTONE`."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return self.values[i], True
        return None, False

    def slice(self, lo: int, hi: int) -> tuple[list[int], list[Any]]:
        """The ``(keys, values)`` columns with ``lo <= key <= hi`` (tombstones
        included): a run for :func:`~repro.trees.merge.merge_runs`."""
        i = bisect.bisect_left(self.keys, lo)
        j = bisect.bisect_right(self.keys, hi)
        return self.keys[i:j], self.values[i:j]
