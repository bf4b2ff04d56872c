"""The block-device interface and IO accounting.

All simulated devices implement :class:`BlockDevice`:

* ``read(offset, nbytes)`` / ``write(offset, nbytes)`` return the number of
  *simulated device seconds* the IO took and advance the device clock.
  Simulated time is the experiment metric throughout this repository (see
  DESIGN.md section 5) because the paper's models predict device time and
  Python wall-clock time would measure the interpreter instead.
* :class:`DeviceStats` counts IOs and bytes in each direction.  Write
  amplification (paper Definition 3) is computed from these counters by
  :meth:`DeviceStats.write_amplification` given the amount of user data
  actually modified.

Devices do not store data — the data structures keep their nodes in Python
objects — they only account for the *time* data movement would take.  This
is the standard simulator split and it is what lets a pure-Python build
reproduce IO cost-model effects faithfully.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvalidIOError
from repro.obs import OBS


@dataclass(frozen=True)
class IORecord:
    """One completed IO, for tracing."""

    kind: str            # "read" or "write"
    offset: int
    nbytes: int
    start: float         # simulated issue time
    end: float           # simulated completion time

    @property
    def duration(self) -> float:
        """Simulated seconds the IO took."""
        return self.end - self.start


@dataclass
class DeviceStats:
    """IO and byte counters for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_seconds: float = 0.0
    write_seconds: float = 0.0

    @property
    def ios(self) -> int:
        """Total IOs in both directions."""
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        """Total bytes in both directions."""
        return self.bytes_read + self.bytes_written

    @property
    def busy_seconds(self) -> float:
        """Total simulated device time across reads and writes."""
        return self.read_seconds + self.write_seconds

    def write_amplification(self, user_bytes_modified: int) -> float:
        """Paper Definition 3: device bytes written / user bytes modified."""
        if user_bytes_modified <= 0:
            raise InvalidIOError(
                f"user_bytes_modified must be positive, got {user_bytes_modified}"
            )
        return self.bytes_written / user_bytes_modified

    def snapshot(self) -> "DeviceStats":
        """An independent copy (for before/after deltas)."""
        return DeviceStats(**vars(self))

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return DeviceStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            read_seconds=self.read_seconds - earlier.read_seconds,
            write_seconds=self.write_seconds - earlier.write_seconds,
        )


class BlockDevice(ABC):
    """A device that prices IOs in simulated seconds.

    Subclasses implement one hook, :meth:`_service` (pure timing of one
    IO); this base class owns the rest of the IO protocol — it validates
    requests, keeps the clock and the counters, records the trace, feeds
    the observability layer — in :meth:`read` and :meth:`write`;
    :meth:`read_batch` is a loop of :meth:`read` (:meth:`_batch`), and
    :meth:`read_set` a loop of :meth:`read` over the runs it plans.
    """

    def __init__(self, capacity_bytes: int, *, trace: bool = False) -> None:
        if capacity_bytes <= 0:
            raise InvalidIOError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.stats = DeviceStats()
        self.clock = 0.0
        self._trace_enabled = bool(trace)
        self.trace: list[IORecord] = []
        # Setup-seconds of the IO in flight, published by subclasses that
        # know their seek/bandwidth split (HDD, AffineDevice) and only when
        # observability is enabled; consumed by _obs_io below.
        self._obs_setup: float | None = None

    # -- subclass API ------------------------------------------------------

    @abstractmethod
    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        """Completion time of a ``kind`` ("read"/"write") IO issued at ``at``.

        May raise (a fault wrapper's injected error or crash): the IO is
        then not charged, and a batch stops there with the IOs before it
        charged — exactly a serial loop's partial state.  ``at`` is the
        clock.
        """

    # -- public API --------------------------------------------------------

    def _check(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise InvalidIOError(f"IO size must be positive, got {nbytes}")
        if offset < 0:
            raise InvalidIOError(f"offset must be non-negative, got {offset}")
        if offset + nbytes > self.capacity_bytes:
            raise InvalidIOError(
                f"IO [{offset}, {offset + nbytes}) exceeds capacity {self.capacity_bytes}"
            )

    def read(self, offset: int, nbytes: int) -> float:
        """Serially read ``nbytes`` at ``offset``; returns elapsed seconds."""
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.capacity_bytes:
            self._check(offset, nbytes)  # raises, naming the bound broken
        start = self.clock
        end = self._service("read", offset, nbytes, start)
        elapsed = end - start
        self.clock = end
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.read_seconds += elapsed
        if self._trace_enabled:
            self.trace.append(IORecord("read", offset, nbytes, start, end))
        if OBS.enabled:
            self._obs_io("read", offset, nbytes, start, end)
        return elapsed

    def write(self, offset: int, nbytes: int) -> float:
        """Serially write ``nbytes`` at ``offset``; returns elapsed seconds."""
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.capacity_bytes:
            self._check(offset, nbytes)  # raises, naming the bound broken
        start = self.clock
        end = self._service("write", offset, nbytes, start)
        elapsed = end - start
        self.clock = end
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.write_seconds += elapsed
        if self._trace_enabled:
            self.trace.append(IORecord("write", offset, nbytes, start, end))
        if OBS.enabled:
            self._obs_io("write", offset, nbytes, start, end)
        return elapsed

    def _obs_io(self, kind: str, offset: int, nbytes: int, start: float, end: float) -> None:
        """Publish one completed IO to the observability layer.

        Only called under the ``if OBS.enabled:`` guards in :meth:`read`,
        :meth:`write`, the HDD's batch loop and the SSD's closed-loop
        ``service_request``, so the call below needs no guard of its own.
        It is the only place an IO is published.
        """
        OBS.io_event(
            type(self).__name__, kind, offset, nbytes, start, end, self._obs_setup
        )
        self._obs_setup = None

    def read_batch(self, offsets: "Sequence[int]", nbytes: int) -> list[float]:
        """Serially read ``nbytes`` at each offset; per-IO elapsed seconds.

        Semantically identical to calling :meth:`read` once per offset, in
        order — same clock advance, same counters, same trace,
        same RNG streams on stochastic and faulty devices, the same partial
        state when an IO raises mid-batch.  Offsets (any integer sequence,
        numpy arrays included) are validated up front, so an invalid batch
        raises before any IO is charged.
        """
        return self._batch(self._checked(offsets, nbytes), nbytes)

    def _checked(self, offsets: "Sequence[int]", nbytes: int) -> list[int]:
        """``offsets`` as a list of validated plain ``int``."""
        offs = [int(o) for o in offsets]
        for off in offs:
            self._check(off, nbytes)
        return offs

    def _batch(self, offsets: list[int], nbytes: int) -> list[float]:
        """The batch loop: :meth:`read` once per offset, in order.

        ``offsets`` come validated from :meth:`_checked`.  Being the
        serial loop, it is identical to one by construction, down to the
        partial state when :meth:`_service` raises at IO ``k`` (``k`` IOs
        charged).  A subclass overrides this only where the end-to-end
        benchmark shows its own loop pays (today:
        :class:`~repro.storage.hdd.SimulatedHDD`).
        """
        read = self.read
        return [read(off, nbytes) for off in offsets]

    @property
    def bridge_bytes(self) -> int:
        """The widest gap :meth:`read_set` reads through rather than start
        a new IO across: a device whose model prices a setup derives it
        from that model; here there is none, so only extents that touch
        or overlap share a run."""
        return 0

    def read_set(self, extents: "Iterable[tuple[int, int]]", *, limit: int) -> float:
        """Read a set of independent ``(offset, nbytes)`` extents as planned
        runs; returns elapsed seconds.

        The caller needs every extent and none depends on another, so the
        device may choose the order: each distinct byte range is read once,
        in disk order, as runs of at most ``limit`` bytes.  A run absorbs
        the next extent when the gap between them is at most
        :attr:`bridge_bytes`; the gap's bytes are transferred and thrown
        away.  An extent longer than ``limit`` is a run of its own.  Each
        run is one :meth:`read`, so clock, counters, trace and OBS events
        are a serial loop's over the runs, and an IO that raises at run
        ``k`` leaves the ``k`` runs before it charged.  Every extent is
        validated first: an invalid set raises before any IO is charged.
        """
        start = self.clock
        read = self.read
        for offset, nbytes in self._plan(self._distinct(extents, limit), limit):
            read(offset, nbytes)
        return self.clock - start

    def _distinct(
        self, extents: "Iterable[tuple[int, int]]", limit: int
    ) -> list[tuple[int, int]]:
        """The validated distinct extents as plain ``int`` pairs, in disk order."""
        if limit <= 0:
            raise InvalidIOError(f"run limit must be positive, got {limit}")
        spans = sorted({(int(offset), int(nbytes)) for offset, nbytes in extents})
        for offset, nbytes in spans:
            self._check(offset, nbytes)
        return spans

    def _plan(self, spans: list[tuple[int, int]], limit: int) -> list[tuple[int, int]]:
        """The ``(offset, nbytes)`` runs covering sorted ``spans``: bytes an
        earlier run holds are not read again, and a run grows over a gap of
        at most :attr:`bridge_bytes` while it stays within ``limit``."""
        bridge = self.bridge_bytes
        runs: list[list[int]] = []
        for offset, nbytes in spans:
            end = offset + nbytes
            if runs:
                run = runs[-1]
                if end <= run[1]:
                    continue
                if offset - run[1] <= bridge and end - run[0] <= limit:
                    run[1] = end
                    continue
                offset = max(offset, run[1])
            runs.append([offset, end])
        return [(lo, hi - lo) for lo, hi in runs]

    def reset(self) -> None:
        """Zero the clock, counters and trace (fresh experiment)."""
        self.stats = DeviceStats()
        self.clock = 0.0
        self.trace = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(capacity={self.capacity_bytes})"


@dataclass(frozen=True)
class ReadRequest:
    """A read request fed to a closed-loop parallel experiment."""

    offset: int
    nbytes: int


@dataclass(frozen=True)
class WriteRequest:
    """A write request fed to a closed-loop parallel experiment."""

    offset: int
    nbytes: int
