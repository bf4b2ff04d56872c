"""DurableTree: WAL-backed durability over any tree in the zoo.

The shim wraps one tree kind (any of :data:`repro.trees.KINDS`) and gives
it a persistence story on its own device:

* every logical op is logged to a :class:`~repro.recovery.wal.WriteAheadLog`
  *before* it touches the tree (write-ahead rule), and is acked only once
  its commit group is durable;
* a checkpoint snapshots the full contents into one of two alternating
  device regions, publishes it with a single superblock write, and only
  then truncates the log — a crash at any earlier point leaves the
  previous checkpoint plus the full log intact;
* :meth:`recover` rebuilds the tree from the latest published checkpoint
  and replays the committed log suffix over it, so the recovered state is
  *exactly* the acked ops — no lost acks, no phantom writes.  The
  crash-consistency checker (:mod:`repro.recovery.checker`) verifies that
  equality at every IO boundary.

Device layout (all extents carved off the low end, reserved from the
tree's allocator before it places any node)::

    [superblock][checkpoint A][checkpoint B][write-ahead log][tree ...]

Devices price IO without storing bytes, so checkpoints — like the WAL's
durable image — live as Python state paired with real charged IO: the
snapshot write, the superblock publish, the recovery-time reads, and the
rebuild's tree writes all land on the wrapped device's clock, which is
what E21 sweeps across cost models.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterator

from repro.errors import ConfigurationError, WALError
from repro.faults.crash import CrashState
from repro.faults.device import FaultyDevice
from repro.obs import OBS
from repro.recovery.wal import WriteAheadLog
from repro.storage.device import BlockDevice
from repro.trees import build, check_kind
from repro.trees.sizing import KEY_MAX, KEY_MIN

#: Config fields a durable tree sets beyond the registry's sizing rule.
#: ``fanout=None`` derives the Bε fanout from epsilon, so small WAL-friendly
#: node sizes still leave buffer room (the fixed default F=16 does not).
_TREE_FIELDS: dict[str, dict[str, Any]] = {"betree": {"fanout": None}}

#: Bytes of the superblock that names the active checkpoint region.
SUPERBLOCK_BYTES = 512


@dataclass(frozen=True)
class DurableConfig:
    """How the durability layer is laid out and paced.

    Parameters
    ----------
    tree:
        Any kind in :data:`repro.trees.KINDS`.
    node_bytes:
        Tree node size (B-tree/Bε-tree), or block size (LSM, COLA, COB).
    cache_bytes:
        RAM budget, every byte of it spent: the buffer cache (B-tree/
        Bε-tree), or the pinned small levels (COLA) or index top (COB)
        plus a block cache in the rest; the LSM has none beyond its
        memtable.
    wal_bytes:
        The log extent.  Must hold every record between two checkpoints.
    group_commit:
        Records per WAL commit batch (the E21 sweep axis).
    checkpoint_every:
        Ops between automatic checkpoints (0 = checkpoint only on demand).
    ckpt_bytes:
        Bytes of *each* of the two checkpoint regions; a snapshot larger
        than one region raises :class:`~repro.errors.WALError`.
    """

    tree: str = "btree"
    node_bytes: int = 4096
    cache_bytes: int = 256 << 10
    wal_bytes: int = 4 << 20
    group_commit: int = 8
    checkpoint_every: int = 0
    ckpt_bytes: int = 16 << 20

    def __post_init__(self) -> None:
        check_kind(self.tree)
        if self.node_bytes <= 0 or self.cache_bytes <= 0:
            raise ConfigurationError("node_bytes and cache_bytes must be positive")
        if self.wal_bytes <= 0 or self.ckpt_bytes <= 0:
            raise ConfigurationError("wal_bytes and ckpt_bytes must be positive")
        if self.group_commit < 1:
            raise ConfigurationError(
                f"group_commit must be >= 1, got {self.group_commit}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    def describe(self) -> dict[str, Any]:
        """Stable JSON-able identity."""
        return asdict(self)


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurableTree.recover` call did."""

    crash: CrashState | None
    checkpoint_lsn: int
    replayed_records: int
    recovery_seconds: float

    def describe(self) -> dict[str, Any]:
        """JSON-able summary."""
        return {
            "crash": self.crash.describe() if self.crash is not None else None,
            "checkpoint_lsn": self.checkpoint_lsn,
            "replayed_records": self.replayed_records,
            "recovery_seconds": self.recovery_seconds,
        }


class DurableTree:
    """A tree from the zoo with write-ahead logging and crash recovery."""

    def __init__(self, device: BlockDevice, config: DurableConfig | None = None) -> None:
        self.config = config or DurableConfig()
        self.device = device
        cfg = self.config
        self._ckpt_offsets = (
            SUPERBLOCK_BYTES,
            SUPERBLOCK_BYTES + cfg.ckpt_bytes,
        )
        self._wal_offset = SUPERBLOCK_BYTES + 2 * cfg.ckpt_bytes
        self._reserved = self._wal_offset + cfg.wal_bytes
        if self._reserved >= device.capacity_bytes:
            raise ConfigurationError(
                f"durability extents ({self._reserved} bytes) leave no room "
                f"for the tree on a {device.capacity_bytes}-byte device"
            )
        self.wal = WriteAheadLog(
            device,
            offset=self._wal_offset,
            capacity_bytes=cfg.wal_bytes,
            group_commit=cfg.group_commit,
        )
        #: The latest *published* checkpoint: (covered LSN, full contents).
        self._checkpoint: tuple[int, list[tuple[int, Any]]] = (0, [])
        self._active_region = 0
        self._ops_since_ckpt = 0
        self.replays = 0
        self.replayed_records = 0
        self.checkpoints_taken = 0
        self.checkpoint_seconds = 0.0
        self._build_tree()

    # -- construction --------------------------------------------------------

    def _build_tree(self) -> None:
        """(Re-)create the wrapped tree, with the durability extents reserved."""
        cfg = self.config
        self.tree = build(
            cfg.tree,
            self.device,
            node_bytes=cfg.node_bytes,
            cache_bytes=cfg.cache_bytes,
            reserve_bytes=self._reserved,
            **_TREE_FIELDS.get(cfg.tree, {}),
        )
        self._entry_bytes = self.tree.config.fmt.entry_bytes

    @property
    def stack(self) -> Any:
        """The wrapped tree's storage stack (``None`` for device-backed kinds)."""
        return self.tree.storage

    # -- write path ----------------------------------------------------------

    def put(self, key: int, value: Any) -> int:
        """Log, apply, maybe checkpoint; returns the op's LSN.

        The op is durable once ``committed_lsn`` reaches the LSN (its
        group committed) — a crash before that loses it, and recovery is
        allowed to.
        """
        lsn = self.wal.append("p", int(key), value)
        self.tree.insert(int(key), value)
        self._after_write()
        return lsn

    insert = put

    def delete(self, key: int) -> int:
        """Log and apply a delete; returns the op's LSN.

        Deleting an absent key is a logged no-op in every kind, so its
        record replays harmlessly.
        """
        lsn = self.wal.append("d", int(key))
        self.tree.delete(int(key))
        self._after_write()
        return lsn

    def _after_write(self) -> None:
        self._ops_since_ckpt += 1
        if (
            self.config.checkpoint_every
            and self._ops_since_ckpt >= self.config.checkpoint_every
        ):
            self.checkpoint()

    def sync(self) -> None:
        """Force the pending WAL group out (commit early)."""
        self.wal.commit()

    def acked(self, lsn: int) -> bool:
        """Whether the op with this LSN is durably acknowledged."""
        return lsn <= self.wal.committed_lsn

    def load(self, pairs: list[tuple[int, Any]]) -> None:
        """Bulk-load an empty tree and checkpoint it (the durable baseline).

        The load itself is not logged — it is construction, not traffic —
        so durability starts at the checkpoint this method takes.
        """
        self.tree.load(sorted((int(k), v) for k, v in pairs))
        self.checkpoint()

    # -- read path -----------------------------------------------------------

    def get(self, key: int) -> Any | None:
        """Point query (delegates)."""
        return self.tree.get(int(key))

    def get_many(self, keys: list[int]) -> list[Any | None]:
        """Batched point queries (batched descent where the tree has one)."""
        return self.tree.lookup_many(keys)

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """Range query (delegates)."""
        return self.tree.range(lo, hi)

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order (delegates; the scan is charged at the call)."""
        return self.tree.items()

    def contents(self) -> dict[int, Any]:
        """The full logical contents, as a dict (checker's ground truth)."""
        return dict(self.tree.items())

    def check_invariants(self) -> None:
        """Assert the wrapped tree's structural invariants."""
        self.tree.check_invariants()

    @property
    def io_seconds(self) -> float:
        """Total simulated device seconds charged so far."""
        return self.device.stats.busy_seconds

    # -- checkpoint ----------------------------------------------------------

    @property
    def checkpoint_lsn(self) -> int:
        """LSN the latest published checkpoint covers."""
        return self._checkpoint[0]

    def checkpoint(self) -> None:
        """Snapshot contents to the inactive region; publish; truncate.

        Crash-safe by ordering: the WAL flush, the snapshot write and the
        superblock publish are all charged before any in-memory state
        flips, so a crash anywhere mid-checkpoint leaves the previous
        checkpoint and the un-truncated log as the recovery source.  The
        snapshot's source is a whole-domain ``tree.range``, so it costs
        what the kind's scan costs (a B-tree's: one read per run of
        adjacent nodes, not one per leaf).
        """
        self.wal.commit()
        pairs = self.tree.range(KEY_MIN, KEY_MAX)
        snapshot_bytes = max(len(pairs) * self._entry_bytes, SUPERBLOCK_BYTES)
        if snapshot_bytes > self.config.ckpt_bytes:
            raise WALError(
                f"checkpoint of {len(pairs)} entries ({snapshot_bytes} bytes) "
                f"exceeds the {self.config.ckpt_bytes}-byte region"
            )
        target = self._ckpt_offsets[1 - self._active_region]
        spent = self.device.write(target, snapshot_bytes)
        spent += self.device.write(0, SUPERBLOCK_BYTES)  # the publish point
        self._checkpoint = (self.wal.committed_lsn, pairs)
        self._active_region = 1 - self._active_region
        self.wal.truncate()
        self._ops_since_ckpt = 0
        self.checkpoints_taken += 1
        self.checkpoint_seconds += spent

    # -- recovery ------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild from the latest checkpoint plus the committed log suffix.

        Clears the device's crashed state first (when it is a crashed
        :class:`~repro.faults.device.FaultyDevice`), then charges the
        recovery IO: superblock + snapshot reads, the log scan, and the
        rebuild's own tree writes.  Returns what it did and what it cost.
        """
        device = self.device
        crash = None
        if isinstance(device, FaultyDevice) and device.crashed:
            crash = device.recover()
        t0 = device.stats.busy_seconds
        device.read(0, SUPERBLOCK_BYTES)  # which region is live
        ckpt_lsn, pairs = self._checkpoint
        if pairs:
            device.read(
                self._ckpt_offsets[self._active_region],
                max(len(pairs) * self._entry_bytes, SUPERBLOCK_BYTES),
            )
        self._build_tree()
        if pairs:
            self.tree.load(list(pairs))
        records = self.wal.recover(base_lsn=ckpt_lsn)
        replayed = 0
        for lsn, op, key, value in records:
            if lsn <= ckpt_lsn:
                continue
            if op == "p":
                self.tree.insert(key, value)
            else:
                self.tree.delete(key)
            replayed += 1
        self._ops_since_ckpt = replayed
        self.replays += 1
        self.replayed_records += replayed
        if OBS.enabled:
            OBS.counter("recovery.replays").inc()
            OBS.counter("recovery.replayed_records").inc(replayed)
        return RecoveryReport(
            crash=crash,
            checkpoint_lsn=ckpt_lsn,
            replayed_records=replayed,
            recovery_seconds=device.stats.busy_seconds - t0,
        )
