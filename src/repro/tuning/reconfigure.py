"""Apply a recommendation to a live tree: an offline bulk rebuild.

:func:`rebuild_tree` scans the old tree in key order (charged to its
device) and bulk-loads a new tree at the new configuration.  It is the
cheapest total IO; the tree is unavailable while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.trees import KVTree


@dataclass
class MigrationReport:
    """What a rebuild cost, in simulated device seconds."""

    migration_seconds: float
    entries_moved: int


def rebuild_tree(
    old_tree: KVTree, make_new: Callable[[], KVTree]
) -> tuple[KVTree, MigrationReport]:
    """Offline bulk rebuild of ``old_tree`` into ``make_new()``.

    The scan of the old tree and the load + settle of the new one are
    both charged to their devices; the report sums whatever device time
    the migration consumed (the trees may share a device).
    """
    new_tree = make_new()
    if len(new_tree):
        raise ConfigurationError("make_new() must return an empty tree")
    shared = new_tree.device is old_tree.device
    before_old = old_tree.io_seconds
    before_new = 0.0 if shared else new_tree.io_seconds

    pairs = list(old_tree.items())
    new_tree.load(pairs)
    new_tree.settle()

    spent = old_tree.io_seconds - before_old
    if not shared:
        spent += new_tree.io_seconds - before_new
    return new_tree, MigrationReport(migration_seconds=spent, entries_moved=len(pairs))
