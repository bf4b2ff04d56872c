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
from typing import Sequence

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
    the observability layer — for scalar
    :meth:`read`/:meth:`write` and, through the one loop in
    :meth:`_batch`, for :meth:`read_batch`.
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
        charged — exactly a serial loop's partial state.  Must not read
        ``self.clock`` (a batch holds it in a local; ``at`` is the clock).
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
        :meth:`write`, :meth:`_batch` and the SSD's closed-loop
        ``service_request``, so the call below needs no guard of its own.
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
        """The batch loop: the scalar step of :meth:`read`, once per offset.

        ``offsets`` come validated from :meth:`_checked`.  Each IO runs
        :meth:`_service` and the same float operations, in the same order,
        as :meth:`read`, with clock, read seconds and trace held
        in locals; the ``finally`` writes them back, so when
        :meth:`_service` raises at IO ``k`` the device is left as ``k``
        scalar calls would leave it.  It calls the private step, never the
        public ``self.read``.  A subclass overrides this only where the
        end-to-end benchmark shows its own loop pays (today:
        :class:`~repro.storage.hdd.SimulatedHDD`).
        """
        service = self._service
        stats = self.stats
        seconds = stats.read_seconds
        clock = self.clock
        trace = self.trace if self._trace_enabled else None
        out: list[float] = []
        append = out.append
        try:
            for off in offsets:
                start = clock
                end = service("read", off, nbytes, start)
                elapsed = end - start
                seconds += elapsed
                clock = end
                if trace is not None:
                    trace.append(IORecord("read", off, nbytes, start, end))
                if OBS.enabled:
                    self._obs_io("read", off, nbytes, start, end)
                append(elapsed)
        finally:
            done = len(out)
            self.clock = clock
            stats.reads += done
            stats.bytes_read += done * nbytes
            stats.read_seconds = seconds
        return out

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
