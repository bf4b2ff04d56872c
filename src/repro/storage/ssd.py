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

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice, ReadRequest, WriteRequest
from repro.storage.engine import ClosedLoopRunner, ResourcePool


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

        The die reads the stripe's pages back to back; the last page's bus
        transfer trails the last read.
        """
        pages = self.stripe_bytes // self.page_bytes
        return pages * self.page_read_seconds + self.channel_transfer_seconds

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
        self._dies = ResourcePool(g.total_dies)
        self._channels = ResourcePool(g.channels)

    # -- address mapping ----------------------------------------------------

    def die_of_stripe(self, stripe_index: int) -> int:
        """Die holding stripe unit ``stripe_index``."""
        return stripe_index % self.geometry.total_dies

    def channel_of_die(self, die: int) -> int:
        """Channel whose bus serves ``die``."""
        return die % self.geometry.channels

    def _page_plan(self, offset: int, nbytes: int) -> list[tuple[int, int]]:
        """Decompose an IO into per-die page counts, in address order.

        Returns ``[(die, n_pages), ...]`` with one entry per stripe unit the
        IO touches.
        """
        g = self.geometry
        plan: list[tuple[int, int]] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            stripe = pos // g.stripe_bytes
            stripe_end = (stripe + 1) * g.stripe_bytes
            chunk = min(end, stripe_end) - pos
            pages = math.ceil(chunk / g.page_bytes)
            plan.append((self.die_of_stripe(stripe), pages))
            pos += chunk
        return plan

    # -- timing -------------------------------------------------------------

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        # Each page crosses two FIFO resources in turn: a read occupies
        # its die (page read) and then the channel bus (transfer out); a
        # write occupies the bus (transfer in) and then the die (program).
        # Either way the first resource moves on to the next page as soon
        # as it is done with this one.  Slot state is held in locals: the
        # same float operations in the same order as per-slot ``acquire``
        # calls (max-then-add, busy accumulated one duration at a time),
        # without a method dispatch per page.
        g = self.geometry
        n_ch = g.channels
        dies = self._dies
        channels = self._channels
        reading = kind == "read"
        if reading:
            t_first, t_second = g.page_read_seconds, g.channel_transfer_seconds
        else:
            t_first, t_second = g.channel_transfer_seconds, g.page_program_seconds
        done = at
        for die_idx, pages in self._page_plan(offset, nbytes):
            die = dies[die_idx]
            channel = channels[die_idx % n_ch]
            first, second = (die, channel) if reading else (channel, die)
            f_av = first.available_at
            f_busy = first.busy_seconds
            s_av = second.available_at
            s_busy = second.busy_seconds
            arrival = at
            for _ in range(pages):
                f_av = (f_av if f_av > arrival else arrival) + t_first
                f_busy = f_busy + t_first
                s_av = (s_av if s_av > f_av else f_av) + t_second
                s_busy = s_busy + t_second
                arrival = f_av
                if s_av > done:
                    done = s_av
            first.available_at = f_av
            first.busy_seconds = f_busy
            second.available_at = s_av
            second.busy_seconds = s_busy
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
        self._check(offset, nbytes)
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

    def describe(self) -> dict[str, object]:
        d = super().describe()
        g = self.geometry
        d.update(
            channels=g.channels,
            dies_per_channel=g.dies_per_channel,
            page_bytes=g.page_bytes,
            stripe_bytes=g.stripe_bytes,
            page_read_seconds=g.page_read_seconds,
            page_program_seconds=g.page_program_seconds,
            channel_transfer_seconds=g.channel_transfer_seconds,
        )
        return d

    def reset(self) -> None:
        """Reset clock, counters and all die/channel timelines."""
        super().reset()
        self._dies.reset()
        self._channels.reset()
