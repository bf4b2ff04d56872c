"""Write-ahead log on a device extent: group commit, CRC frames, truncate.

The log is the write-path analogue of the paper's node-size story: a
commit is one *sequential* write of ``group_commit`` framed records plus
a commit marker, so its cost under the DAM is one block charge while the
affine model prices it at ``1 + alpha * k`` — which is why the optimal
group-commit batch size moves with the cost model (E21, the Corollary 6/7
argument applied to logging).

**Framing.** Each record is ``<len><crc32>`` (8 bytes, little-endian)
followed by a compact-JSON payload ``[lsn, op, key, value]``; ``op`` is
``"p"`` (put), ``"d"`` (delete) or ``"c"`` (commit marker, value null).
A group becomes durable atomically-or-not: the marker is the last frame
of the commit blob, so a crash that tears the blob anywhere leaves the
marker incomplete and :meth:`scan` discards the whole group — exactly
the ARIES rule that a record without its commit is not yet a promise.
A record is framed when it is appended, so a value JSON cannot encode is
refused there, alone: the LSN is not consumed and the group stays usable.

**Device contract.** Devices in this simulator price IO but do not store
bytes, so the log keeps its own durable image (``bytearray``) as the
model of what is on the platter; every mutation of the image is paired
with a real device IO at the log extent, charged through whatever
accounting stack wraps the device.  A torn commit write
(:class:`~repro.errors.DeviceCrashed` with ``persisted_bytes``) appends
exactly the persisted prefix to the image, which is what makes the CRC
torn-tail tests mean something.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

from repro.errors import ConfigurationError, DeviceCrashed, WALError
from repro.obs import OBS
from repro.storage.device import BlockDevice

#: Per-record frame header: payload length + CRC32 of the payload.
_HEADER = struct.Struct("<II")

#: Op codes a WAL record can carry.
WAL_OPS = ("p", "d", "c")

#: The payload encoder: compact JSON, built once for every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _frame(lsn: int, op: str, key: int | None, value: Any) -> bytes:
    """One CRC-framed record; ``TypeError`` if JSON cannot encode ``value``."""
    payload = _encode([lsn, op, key, value]).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(image: bytes) -> tuple[list[tuple[int, str, int, Any]], int]:
    """Parse a durable log image into its committed records.

    Returns ``(records, valid_bytes)``: the logical records of every
    *complete* commit group in order, and the byte length of the valid
    prefix (up to and including the last intact commit marker).  Frames
    past that point — torn, CRC-corrupt, or committed-marker-less — are
    the crash debris recovery must ignore.
    """
    records: list[tuple[int, str, int, Any]] = []
    staged: list[tuple[int, str, int, Any]] = []
    pos = 0
    valid = 0
    n = len(image)
    while pos + _HEADER.size <= n:
        length, crc = _HEADER.unpack_from(image, pos)
        end = pos + _HEADER.size + length
        if end > n:
            break  # torn frame
        payload = image[pos + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            break  # corrupt tail
        try:
            lsn, op, key, value = json.loads(payload)
        except (ValueError, TypeError):
            break
        if op not in WAL_OPS:
            break
        pos = end
        if op == "c":
            records.extend(staged)
            staged = []
            valid = pos
        else:
            staged.append((int(lsn), op, int(key), value))
    return records, valid


class WriteAheadLog:
    """Group-committed, CRC-framed log living at a fixed device extent.

    Parameters
    ----------
    device:
        Where commit writes are charged (any block device; usually the
        same one the tree lives on, wrapped in a
        :class:`~repro.faults.device.FaultyDevice`).
    offset, capacity_bytes:
        The log's extent.  :meth:`commit` appends sequentially within it;
        exceeding it raises :class:`~repro.errors.WALError` (checkpoint
        more often, or give the log more room).
    group_commit:
        Records per commit batch.  ``append`` buffers records and
        auto-commits every ``group_commit``-th one; ``commit()`` flushes
        early (the sync knob).
    """

    def __init__(
        self,
        device: BlockDevice,
        *,
        offset: int,
        capacity_bytes: int,
        group_commit: int = 8,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"wal capacity_bytes must be positive, got {capacity_bytes}"
            )
        if offset < 0 or offset + capacity_bytes > device.capacity_bytes:
            raise ConfigurationError(
                f"wal extent [{offset}, {offset + capacity_bytes}) outside "
                f"device capacity {device.capacity_bytes}"
            )
        if group_commit < 1:
            raise ConfigurationError(
                f"group_commit must be >= 1, got {group_commit}"
            )
        self.device = device
        self.offset = int(offset)
        self.capacity_bytes = int(capacity_bytes)
        self.group_commit = int(group_commit)
        self._durable = bytearray()  # the modeled on-platter log image
        #: ``(lsn, frame)`` of every appended record no marker covers yet.
        self._pending: list[tuple[int, bytes]] = []
        self.next_lsn = 1
        self.committed_lsn = 0
        self.commits = 0
        self.checkpoints = 0
        self.appends = 0
        self.write_seconds = 0.0

    # -- write path ----------------------------------------------------------

    @property
    def durable_bytes(self) -> int:
        """Bytes of the on-platter log image."""
        return len(self._durable)

    @property
    def pending_records(self) -> int:
        """Appended records not yet covered by a commit marker."""
        return len(self._pending)

    def append(self, op: str, key: int, value: Any = None) -> int:
        """Log one logical op; returns its LSN.

        The record is durable — and the op ackable — only once
        ``committed_lsn`` reaches the returned LSN (auto group commit, or
        an explicit :meth:`commit`).  A ``value`` JSON cannot encode raises
        here and leaves the log as it was.
        """
        if op not in ("p", "d"):
            raise ConfigurationError(f"op must be 'p' or 'd', got {op!r}")
        lsn = self.next_lsn
        self._pending.append((lsn, _frame(lsn, op, int(key), value)))
        self.next_lsn = lsn + 1
        self.appends += 1
        if len(self._pending) >= self.group_commit:
            self.commit()
        return lsn

    def commit(self) -> None:
        """Flush pending records as one sequential commit-group write.

        On a crash mid-write the persisted prefix of the blob lands in the
        durable image (torn tail) and the exception propagates: none of
        the group's records are acked, and :func:`scan` will discard the
        marker-less debris on recovery.
        """
        if not self._pending:
            return
        last_lsn = self._pending[-1][0]
        blob = b"".join(frame for _, frame in self._pending)
        blob += _frame(last_lsn, "c", None, None)
        if len(self._durable) + len(blob) > self.capacity_bytes:
            raise WALError(
                f"wal extent full: {len(self._durable)} + {len(blob)} > "
                f"{self.capacity_bytes} bytes (checkpoint to truncate)"
            )
        try:
            self.write_seconds += self.device.write(
                self.offset + len(self._durable), len(blob)
            )
        except DeviceCrashed as exc:
            persisted = getattr(exc.state, "persisted_bytes", 0)
            self._durable += blob[:persisted]
            raise
        self._durable += blob
        self.committed_lsn = last_lsn
        self._pending.clear()
        self.commits += 1
        if OBS.enabled:
            OBS.counter("wal.commits").inc()

    def truncate(self) -> None:
        """Drop the durable image (a checkpoint now covers its records).

        Pure bookkeeping at this layer: the checkpoint publish write that
        makes truncation safe is charged by the caller
        (:meth:`~repro.recovery.durable.DurableTree.checkpoint`).
        """
        self._durable = bytearray()
        self.checkpoints += 1
        if OBS.enabled:
            OBS.counter("wal.checkpoints").inc()

    # -- recovery ------------------------------------------------------------

    def recover(self, *, base_lsn: int = 0) -> list[tuple[int, str, int, Any]]:
        """Re-read the log after a crash; returns the committed records.

        Charges one sequential read of the durable image, truncates the
        image back to its last intact commit marker, discards pending
        (never-written) records, and resyncs the LSN counters to what
        actually survived.  ``base_lsn`` is the LSN the latest checkpoint
        already covers — the floor for ``committed_lsn`` when the log was
        truncated at that checkpoint.
        """
        records, valid = scan(bytes(self._durable))
        if self._durable:
            self.device.read(self.offset, len(self._durable))
        self._durable = bytearray(self._durable[:valid])
        self._pending.clear()
        self.committed_lsn = max((r[0] for r in records), default=base_lsn)
        self.next_lsn = self.committed_lsn + 1
        return records
