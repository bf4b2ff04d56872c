"""The one sorted-run merge of the write-optimized trees.

An LSM compaction and a COLA level merge are the same operation: several
sorted runs of ``(key, value)`` pairs, ranked newest to oldest, collapse
into one sorted run in which the newest version of every key survives.
:func:`merge_runs` is that operation for both trees.  It prices nothing —
the callers charge the device for reading the inputs and writing the
output — so all it has to be is correct and fast on the host: every
per-element step runs inside a builtin (``dict.update``, ``sorted``,
``map``, ``list.extend``), never in a Python-level loop.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import Any, Sequence

#: Sentinel value marking a deletion (tombstone) inside a run.
TOMBSTONE = object()

#: One sorted run as parallel columns: strictly increasing keys, their values.
Run = tuple[Sequence[int], Sequence[Any]]


def merge_runs(
    runs: Sequence[Run], *, drop_tombstones: bool
) -> tuple[list[int], list[Any]]:
    """Merge sorted runs into one; returns the ``(keys, values)`` columns.

    Contract:

    * **Precedence** — ``runs`` is ordered newest first: where several runs
      hold the same key, the value of the earliest run in the sequence
      survives and the others are dropped.
    * **Order** — every run is non-empty with strictly increasing keys
      (what an ``SSTable`` or a COLA level guarantees); the output's keys
      are strictly increasing.  The output columns are fresh lists; values
      are carried by identity, never compared or copied.
    * **Tombstones** — a :data:`TOMBSTONE` value shadows older versions
      like any other value.  With ``drop_tombstones`` the surviving
      tombstones are then removed from the output (the caller knows no
      older run exists that they would still have to shadow); the result
      may be empty.
    * **Key-disjoint runs** — when no two runs' key ranges intersect
      (sorted loads, sequential inserts, a compaction into an empty key
      range) the output is the runs laid end to end in key order, and no
      key is hashed or compared beyond each run's first and last.
    """
    keys: list[int] = []
    values: list[Any] = []
    for run_keys, run_values in sorted(runs, key=_first_key):
        if keys and keys[-1] >= run_keys[0]:
            # Two key ranges intersect: lay the runs into one dict oldest
            # first, so that the newest version of a key is the one left.
            newest: dict[int, Any] = {}
            for older_keys, older_values in reversed(runs):
                newest.update(zip(older_keys, older_values))
            keys = sorted(newest)
            values = list(map(newest.__getitem__, keys))
            break
        keys += run_keys
        values += run_values
    if drop_tombstones:
        live = list(map(is_not, values, repeat(TOMBSTONE)))
        if not all(live):
            keys = list(compress(keys, live))
            values = list(compress(values, live))
    return keys, values


def _first_key(run: Run) -> int:
    return run[0][0]
