"""Simulated solid-state drive.

Implements the internal-parallelism structure the PDAM abstracts (paper
Section 2.2): flash packages are organized into *channels*, each with
several *dies*; a die reads one page at a time, and the pages it produces
must cross its channel's shared bus.  Parallelism comes from independent
dies; *bank conflicts* happen when concurrent requests land on the same die
and serialize — the paper's explanation for why the Figure 1 knee "is not
perfectly sharp."

Address mapping: the LBA space is divided into *stripe units* (default
64 KiB, matching the request size of the paper's Figure 1 benchmark); unit
``u`` lives entirely on die ``u mod D``.  A random stripe-aligned read
therefore occupies exactly one die, and ``p`` concurrent clients engage
``~min(p, D)`` dies — which is exactly the PDAM's flat-then-linear
completion-time curve, with the effective ``P`` emerging from resource
contention rather than being postulated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice, ReadRequest, WriteRequest
from repro.storage.engine import ClosedLoopRunner, Resource


@dataclass(frozen=True)
class SSDGeometry:
    """Layout and timing parameters of a simulated flash device.

    Defaults approximate a commodity SATA SSD: 4 KiB pages, ~80 us page
    reads, ~600 us page programs, and a channel bus that moves a page in
    ~10 us.
    """

    capacity_bytes: int = 256 * 2**30
    channels: int = 2
    dies_per_channel: int = 2
    page_bytes: int = 4096
    stripe_bytes: int = 65536
    page_read_seconds: float = 80e-6
    page_program_seconds: float = 600e-6
    channel_transfer_seconds: float = 10e-6  # per page, on the shared bus

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.channels <= 0 or self.dies_per_channel <= 0:
            raise ConfigurationError("channels and dies_per_channel must be positive")
        if self.page_bytes <= 0:
            raise ConfigurationError("page_bytes must be positive")
        if self.stripe_bytes < self.page_bytes or self.stripe_bytes % self.page_bytes:
            raise ConfigurationError(
                f"stripe_bytes ({self.stripe_bytes}) must be a multiple of "
                f"page_bytes ({self.page_bytes})"
            )
        if min(
            self.page_read_seconds,
            self.page_program_seconds,
            self.channel_transfer_seconds,
        ) <= 0:
            raise ConfigurationError("all timing parameters must be positive")

    @property
    def total_dies(self) -> int:
        """Total independent flash dies — the device's raw parallelism."""
        return self.channels * self.dies_per_channel

    @property
    def single_stream_read_seconds_per_stripe(self) -> float:
        """Latency of one stripe-sized read on an idle device.

        The die reads the stripe's pages back to back and each page then
        crosses the bus, so the slower of the two steps is paid once a page
        and the faster once: the last transfer trails the last read, or
        (bus-bound) the first read leads the first transfer.
        """
        pages = self.stripe_bytes // self.page_bytes
        t_read, t_xfer = self.page_read_seconds, self.channel_transfer_seconds
        if t_read >= t_xfer:
            return pages * t_read + t_xfer
        return t_read + pages * t_xfer

    @property
    def saturated_read_bytes_per_second(self) -> float:
        """Aggregate read throughput with all dies busy.

        Bounded by die read rate and by channel bus rate, whichever binds.
        """
        die_rate = self.total_dies * self.page_bytes / self.page_read_seconds
        bus_rate = self.channels * self.page_bytes / self.channel_transfer_seconds
        return min(die_rate, bus_rate)

    @property
    def expected_pdam_parallelism(self) -> float:
        """The ``P`` the PDAM fit should recover: saturation / single-stream."""
        single = self.stripe_bytes / self.single_stream_read_seconds_per_stripe
        return self.saturated_read_bytes_per_second / single


class SimulatedSSD(BlockDevice):
    """Channel/die flash device with FIFO resource timelines.

    The serial :meth:`~repro.storage.device.BlockDevice.read` /
    :meth:`~repro.storage.device.BlockDevice.write` API routes through the
    same resource model as the parallel closed-loop API, so tree workloads
    and microbenchmarks see consistent timing.
    """

    def __init__(self, geometry: SSDGeometry | None = None, *, trace: bool = False) -> None:
        self.geometry = geometry or SSDGeometry()
        super().__init__(self.geometry.capacity_bytes, trace=trace)
        g = self.geometry
        # One FIFO timeline per die and per channel bus, indexed directly.
        self._dies = [Resource() for _ in range(g.total_dies)]
        self._channels = [Resource() for _ in range(g.channels)]
        # The geometry is frozen, so the per-IO constants are bound once;
        # a step is (first resource's page time, second resource's).
        self._layout = (g.stripe_bytes, g.page_bytes, g.total_dies, g.channels)
        self._read_steps = (g.page_read_seconds, g.channel_transfer_seconds)
        self._write_steps = (g.channel_transfer_seconds, g.page_program_seconds)

    # -- timing -------------------------------------------------------------

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        # Each page crosses two FIFO resources in turn: a read occupies its
        # die (page read) and then the channel bus (transfer out); a write
        # occupies the bus (transfer in) and then the die (program).  The
        # first resource moves on to the next page as soon as it is done
        # with this one.  The IO's stripes are walked inline, each on its
        # die ``stripe mod D`` and that die's channel.
        #
        # Within a stripe both timelines step page by page only while the
        # second resource is still busy when the first finishes its next
        # page.  Once it is free by then (``s <= f``) and its step is no
        # longer than the first's, it stays behind: rounding is monotone,
        # so ``fl(f + t_second) <= fl(f + t_first)``, and every later page
        # starts on the second resource the instant the first is done.
        # The rest of the stripe is then the first resource's chain of
        # adds, and the second finishes one ``t_second`` after it: the
        # same floats, in the same order, as the full page-by-page step.
        # That holds for every read on every zoo SSD (page read above
        # transfer).  Where the second step is the longer one (a write's
        # program; a read on a bus-bound geometry) the full step runs.
        # Busy time is charged once a stripe, ``pages * t``.
        stripe_bytes, page_bytes, n_dies, n_ch = self._layout
        dies = self._dies
        channels = self._channels
        reading = kind == "read"
        t_first, t_second = self._read_steps if reading else self._write_steps
        trails = t_second <= t_first
        done = at
        stripe, pos = divmod(offset, stripe_bytes)
        left = nbytes
        while left > 0:
            chunk = stripe_bytes - pos
            if chunk > left:
                chunk = left
            pages = -(-chunk // page_bytes)
            die_idx = stripe % n_dies
            if reading:
                first, second = dies[die_idx], channels[die_idx % n_ch]
            else:
                first, second = channels[die_idx % n_ch], dies[die_idx]
            f = first.available_at
            if at > f:
                f = at
            s = second.available_at
            if trails:
                n = pages
                while n:
                    n -= 1
                    f += t_first
                    if s <= f:
                        for _ in range(n):
                            f += t_first
                        s = f + t_second
                        break
                    s += t_second
            else:
                for _ in range(pages):
                    f += t_first
                    s = (s if s > f else f) + t_second
            first.available_at = f
            first.busy_seconds += pages * t_first
            second.available_at = s
            second.busy_seconds += pages * t_second
            if s > done:
                done = s
            left -= chunk
            pos = 0
            stripe += 1
        return done

    # -- parallel (closed-loop) API ------------------------------------------

    def service_request(self, request: ReadRequest | WriteRequest, at: float) -> float:
        """Service one request issued at ``at``; used by the parallel runner.

        Counters are updated here too, so parallel experiments report the
        same statistics as serial ones.
        """
        if isinstance(request, ReadRequest):
            kind = "read"
        elif isinstance(request, WriteRequest):
            kind = "write"
        else:
            raise ConfigurationError(f"unknown request type: {type(request).__name__}")
        offset, nbytes = request.offset, request.nbytes
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.capacity_bytes:
            self._check(offset, nbytes)  # raises, naming the bound broken
        end = self._service(kind, offset, nbytes, at)
        stats = self.stats
        if kind == "read":
            stats.reads += 1
            stats.bytes_read += nbytes
            stats.read_seconds += end - at
        else:
            stats.writes += 1
            stats.bytes_written += nbytes
            stats.write_seconds += end - at
        if end > self.clock:
            self.clock = end
        if OBS.enabled:
            self._obs_io(kind, offset, nbytes, at, end)
        return end

    def service_request_batch(self, requests, at: float) -> list[float]:
        """:meth:`service_request` for each of ``requests``, all issued at ``at``.

        The ``service_batch`` hook :class:`ClosedLoopRunner` hands runs of
        tied events to.  The class's function is called rather than
        ``self.service_request`` so that a benchmark tracer shadowing the
        public methods on the instance sees one batch call, not a nested
        scalar call per request.
        """
        serve = type(self).service_request
        return [serve(self, request, at) for request in requests]

    def run_closed_loop(self, client_streams) -> float:
        """Run concurrent closed-loop clients; returns the makespan.

        This is the simulated analogue of the paper's "spawn p threads, each
        reads 10 GiB" benchmark: each client keeps one request outstanding.
        Runs of tied arrivals go to :meth:`service_request_batch` in one
        dispatch.
        """
        runner = ClosedLoopRunner(
            self.service_request, service_batch=self.service_request_batch
        )
        return runner.run_makespan(client_streams)

    def reset(self) -> None:
        """Reset clock, counters and all die/channel timelines."""
        super().reset()
        for timeline in (*self._dies, *self._channels):
            timeline.reset()
