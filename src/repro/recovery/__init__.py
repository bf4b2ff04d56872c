"""repro.recovery — write-ahead logging, checkpoints, crash recovery.

The durability layer of the simulator, built on the crash fault model of
:mod:`repro.faults`:

* :class:`~repro.recovery.wal.WriteAheadLog` — group-committed,
  CRC-framed log on its own device extent (sequential append, commit
  markers, checkpoint truncation, torn-tail detection);
* :class:`~repro.recovery.durable.DurableTree` — wraps any tree in the
  zoo (:data:`repro.trees.KINDS`): logs logical ops before acking,
  checkpoints into alternating regions, and replays the committed log
  suffix on :meth:`~repro.recovery.durable.DurableTree.recover`;
* :func:`~repro.recovery.checker.run_check` — the crash-consistency
  checker: crash at every IO boundary (or a seeded sample), recover,
  verify invariants and durability linearizability.

See docs/recovery.md for the WAL format and the checker's contract;
experiment E21 (``durability``) sweeps group-commit batch size and
checkpoint cadence across cost models.
"""

from repro.recovery.checker import (
    CHECK_MODES,
    CheckFailure,
    CheckReport,
    expected_contents,
    generate_workload,
    run_check,
)
from repro.recovery.durable import DurableConfig, DurableTree, RecoveryReport
from repro.recovery.wal import WAL_OPS, WriteAheadLog, scan

__all__ = [
    "CHECK_MODES",
    "WAL_OPS",
    "CheckFailure",
    "CheckReport",
    "DurableConfig",
    "DurableTree",
    "RecoveryReport",
    "WriteAheadLog",
    "expected_contents",
    "generate_workload",
    "run_check",
    "scan",
]
