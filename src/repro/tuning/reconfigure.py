"""Apply a recommendation to a live tree, and decide whether it pays.

Two migration modes:

* :func:`rebuild_tree` — offline bulk rebuild: scan the old tree in key
  order (charged to its device) and bulk-load a new tree at the new
  configuration.  Cheapest total IO, but the tree is unavailable during
  the rebuild.
* :class:`IncrementalMigrator` — online: the key space is cut into slabs
  which migrate lowest-first, a Theorem-9-flavoured "rebuild subtrees in
  passes" schedule driven by writes (every ``writes_per_step`` routed
  writes migrates one slab).  Reads and writes route by the migration
  frontier, so the pair behaves as one dictionary throughout.

Both report migration cost in simulated device seconds so the payback
rule (:func:`migration_pays_off`) can weigh it against the predicted
steady-state per-op savings: a migration is worth it iff the op horizon
exceeds ``migration_seconds / (old_per_op - new_per_op)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.trees import KVTree


@dataclass
class MigrationReport:
    """What a migration cost and what it is predicted to save."""

    migration_seconds: float
    entries_moved: int
    mode: str                                  # "bulk" or "incremental"
    old_per_op_seconds: float | None = None
    new_per_op_seconds: float | None = None

    def payback_ops(self) -> float:
        """Operations until the migration has paid for itself.

        ``inf`` when the new configuration is not actually faster (or no
        per-op estimates were provided) — i.e. the migration never pays.
        """
        if self.old_per_op_seconds is None or self.new_per_op_seconds is None:
            return math.inf
        saving = self.old_per_op_seconds - self.new_per_op_seconds
        if saving <= 0:
            return math.inf
        return self.migration_seconds / saving

    def pays_off_within(self, horizon_ops: float) -> bool:
        """Whether the payback point falls inside the given op horizon."""
        if horizon_ops <= 0:
            raise ConfigurationError(f"horizon_ops must be positive, got {horizon_ops}")
        return self.payback_ops() <= horizon_ops


def migration_pays_off(
    migration_seconds: float,
    old_per_op_seconds: float,
    new_per_op_seconds: float,
    horizon_ops: float,
) -> bool:
    """The payback rule, standalone: migrate iff savings cover the cost."""
    report = MigrationReport(
        migration_seconds=migration_seconds,
        entries_moved=0,
        mode="planned",
        old_per_op_seconds=old_per_op_seconds,
        new_per_op_seconds=new_per_op_seconds,
    )
    return report.pays_off_within(horizon_ops)


def _busy_seconds(tree: KVTree) -> float:
    return float(tree.io_seconds)


def rebuild_tree(
    old_tree: KVTree,
    make_new: Callable[[], KVTree],
    *,
    old_per_op_seconds: float | None = None,
    new_per_op_seconds: float | None = None,
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
    before_old = _busy_seconds(old_tree)
    before_new = _busy_seconds(new_tree) if not shared else 0.0

    pairs = list(old_tree.items())
    new_tree.load(pairs)
    new_tree.settle()

    spent = _busy_seconds(old_tree) - before_old
    if not shared:
        spent += _busy_seconds(new_tree) - before_new
    report = MigrationReport(
        migration_seconds=spent,
        entries_moved=len(pairs),
        mode="bulk",
        old_per_op_seconds=old_per_op_seconds,
        new_per_op_seconds=new_per_op_seconds,
    )
    return new_tree, report


class IncrementalMigrator:
    """Online slab-by-slab migration between two trees.

    The key universe ``[0, universe)`` is divided into ``n_slabs`` equal
    key ranges.  Slabs migrate in ascending key order; the *frontier* is
    the largest migrated key.  While migration runs, the pair serves a
    normal dictionary interface:

    * ``get``/``insert`` route to the new tree at or below the frontier,
      to the old tree above it (new inserts above the frontier are picked
      up when their slab migrates);
    * ``range`` stitches both sides at the frontier;
    * every ``writes_per_step`` routed inserts trigger one slab migration,
      amortizing rebuild IO against write traffic the way Theorem 9
      amortizes its weight-balanced rebuilds.

    Migration IO is tracked in ``report.migration_seconds`` as it happens,
    so an autotuner can abort mid-flight if the cost overruns the
    predicted savings.
    """

    def __init__(
        self,
        old_tree: KVTree,
        new_tree: KVTree,
        *,
        universe: int,
        n_slabs: int = 64,
        writes_per_step: int = 32,
    ) -> None:
        if universe <= 0:
            raise ConfigurationError(f"universe must be positive, got {universe}")
        if n_slabs <= 0:
            raise ConfigurationError(f"n_slabs must be positive, got {n_slabs}")
        if writes_per_step <= 0:
            raise ConfigurationError(
                f"writes_per_step must be positive, got {writes_per_step}"
            )
        if len(new_tree):
            raise ConfigurationError("new_tree must start empty")
        self.old = old_tree
        self.new = new_tree
        self.universe = int(universe)
        self.n_slabs = int(n_slabs)
        self.writes_per_step = int(writes_per_step)
        self._next_slab = 0
        self._writes_since_step = 0
        self._shared = new_tree.device is old_tree.device
        self.report = MigrationReport(
            migration_seconds=0.0, entries_moved=0, mode="incremental"
        )

    # -- migration state ---------------------------------------------------

    @property
    def frontier(self) -> int | None:
        """Largest migrated key, or ``None`` before the first slab."""
        if self._next_slab == 0:
            return None
        return self._slab_bounds(self._next_slab - 1)[1]

    @property
    def done(self) -> bool:
        """Whether every slab has migrated."""
        return self._next_slab >= self.n_slabs

    def _slab_bounds(self, slab: int) -> tuple[int, int]:
        width = -(-self.universe // self.n_slabs)  # ceil division
        lo = slab * width
        hi = min(self.universe - 1, lo + width - 1)
        return lo, hi

    def _spent(self) -> float:
        total = _busy_seconds(self.old)
        if not self._shared:
            total += _busy_seconds(self.new)
        return total

    def migrate_next_slab(self) -> int:
        """Move one slab of entries old -> new; returns entries moved."""
        if self.done:
            return 0
        lo, hi = self._slab_bounds(self._next_slab)
        before = self._spent()
        moved = self.old.range(lo, hi)
        for key, value in moved:
            self.new.insert(key, value)
        self._next_slab += 1
        self.report.migration_seconds += self._spent() - before
        self.report.entries_moved += len(moved)
        return len(moved)

    def run_to_completion(self) -> MigrationReport:
        """Migrate every remaining slab (flushes the new tree at the end)."""
        while not self.done:
            self.migrate_next_slab()
        before = self._spent()
        self.new.settle()
        self.report.migration_seconds += self._spent() - before
        return self.report

    # -- dictionary surface ------------------------------------------------

    def get(self, key: int) -> Any | None:
        """Point query routed by the migration frontier."""
        frontier = self.frontier
        if frontier is not None and key <= frontier:
            return self.new.get(key)
        return self.old.get(key)

    def insert(self, key: int, value: Any) -> None:
        """Insert routed by the frontier; may trigger one migration step."""
        frontier = self.frontier
        if frontier is not None and key <= frontier:
            self.new.insert(key, value)
        else:
            self.old.insert(key, value)
        self._writes_since_step += 1
        if self._writes_since_step >= self.writes_per_step and not self.done:
            self._writes_since_step = 0
            self.migrate_next_slab()

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """Range query stitched across the frontier."""
        if lo > hi:
            return []
        frontier = self.frontier
        if frontier is None:
            return self.old.range(lo, hi)
        out: list[tuple[int, Any]] = []
        if lo <= frontier:
            out.extend(self.new.range(lo, min(hi, frontier)))
        if hi > frontier:
            out.extend(self.old.range(max(lo, frontier + 1), hi))
        return out

    def __len__(self) -> int:
        # Migrated entries stay (stale, never consulted) in the old tree,
        # so subtract them once.
        return len(self.new) + len(self.old) - self.report.entries_moved
