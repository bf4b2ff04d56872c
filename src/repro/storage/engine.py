"""Discrete-event simulation core.

Two primitives power every timing simulation in this package:

* :class:`Resource` — a single-server FIFO timeline.  A job asking for the
  resource at time ``t`` starts at ``max(t, available_at)`` and holds it for
  its duration.  HDD heads, SSD dies, and SSD channel buses are Resources.
* :class:`ClosedLoopRunner` — runs ``k`` closed-loop clients against a
  device: each client keeps exactly one request outstanding and issues the
  next the moment the previous completes.  Requests are serviced in global
  issue-time order (earliest first), which with forward-only Resource
  reservations yields a consistent FCFS discrete-event schedule.

:class:`ResourcePool` is a fixed list of :class:`Resource` — ``pool[i]``
*is* the slot's timeline.  Pools here have 2-32 slots (a shard's
replicas), so the occupancy queries (``free_slots``, ``first_free``,
``next_available_at``) are short left-to-right scans over native floats: at
that size a scan costs less than one numpy call, and the serve layer's
per-dispatch queries stay out of numpy-scalar arithmetic altogether
(measured; see "The batched engine, and where numpy stops" in
docs/architecture.md).  The SSD asks no whole-pool question: its dies and
channel buses are plain lists of :class:`Resource`.

This replaces the paper's "spawn p OS threads" methodology: the threads
exist only to keep ``p`` IOs outstanding, and a closed-loop simulation does
the same thing deterministically (see DESIGN.md section 2).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs import OBS


class Resource:
    """A single-server FIFO resource timeline.

    Tracks when the resource next becomes free and how long it has been
    busy in total (for utilization reporting).
    """

    __slots__ = ("available_at", "busy_seconds")

    def __init__(self) -> None:
        self.available_at = 0.0
        self.busy_seconds = 0.0

    def acquire(self, at: float, duration: float) -> float:
        """Serve a job arriving at ``at`` for ``duration`` seconds.

        Returns the completion time.  The job waits if the resource is busy.
        """
        if duration < 0:
            raise ConfigurationError(f"duration must be non-negative, got {duration}")
        start = self.available_at
        if at > start:
            start = at
        end = start + duration
        self.available_at = end
        self.busy_seconds += duration
        return end

    def reset(self) -> None:
        """Forget all reservations (new experiment on the same hardware)."""
        self.available_at = 0.0
        self.busy_seconds = 0.0


class ResourcePool:
    """A fixed list of FIFO timelines (e.g. a shard's replicas).

    ``pool[i]`` is slot ``i``'s :class:`Resource`; the pool adds the
    whole-pool occupancy queries.
    """

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ConfigurationError(f"resource count must be positive, got {count}")
        self._slots = [Resource() for _ in range(count)]

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index: int) -> Resource:
        return self._slots[index]

    def acquire(self, index: int, at: float, duration: float) -> float:
        """Serve a job on slot ``index``; same semantics as Resource.acquire."""
        return self._slots[index].acquire(at, duration)

    def reset(self) -> None:
        for slot in self._slots:
            slot.reset()

    @property
    def busy_seconds(self) -> float:
        """Total busy time over the pool, summed in slot order."""
        return sum(slot.busy_seconds for slot in self._slots)

    # -- occupancy queries ---------------------------------------------------

    def free_slots(self, at: float = 0.0) -> int:
        """How many resources would serve a job arriving at ``at`` immediately.

        This is the pool's *spare capacity* at an instant — the quantity
        hedging policies budget against (a duplicate IO is free only when
        a slot would otherwise idle).
        """
        return sum(1 for slot in self._slots if slot.available_at <= at)

    def first_free(self, at: float, *, exclude: int | None = None) -> int | None:
        """Lowest index of a resource free at ``at``, or ``None`` if all busy.

        ``exclude`` skips one index — a hedger looking for a *second*
        server must not pick the one already serving the primary.
        """
        for i, slot in enumerate(self._slots):
            if slot.available_at <= at and i != exclude:
                return i
        return None

    def next_available_at(self) -> float:
        """The earliest time any resource in the pool frees up."""
        return min(slot.available_at for slot in self._slots)


class ClosedLoopRunner:
    """Drive closed-loop clients against a service function.

    Parameters
    ----------
    service:
        ``service(request, issue_time) -> completion_time``.  Must only make
        forward-in-time reservations (all provided devices do).
    service_batch:
        Optional ``service_batch(requests, issue_time) -> [completion_time]``
        servicing a *run* of requests that share one issue time, processed
        in list order.  When given (and observability is off), the heap
        schedule dispatches each run of tied events with one call instead
        of one Python call per request — the event order, and therefore
        every timing, is identical to the scalar path because heap ties pop
        in client-index order, which is exactly the batch's list order.
    """

    def __init__(
        self,
        service: Callable[[object, float], float],
        *,
        service_batch: "Callable[[list, float], Sequence[float]] | None" = None,
    ) -> None:
        self._service = service
        self._service_batch = service_batch

    def run(self, client_streams: Sequence[Iterator[object]], start_time: float = 0.0) -> list[float]:
        """Run every client to exhaustion; return per-client finish times.

        Each client issues its first request at ``start_time`` and each
        subsequent request at the completion of the previous one.  Global
        ordering is by issue time (ties broken by client index) so resource
        FIFO queues see arrivals in order.
        """
        if not client_streams:
            raise ConfigurationError("need at least one client stream")
        if OBS.enabled:
            OBS.gauge("engine.clients").set(len(client_streams))
        service = self._service
        # Batch dispatch changes neither event order nor arithmetic, but it
        # would change the per-request OBS gauge sequence, so the scalar
        # path stays authoritative whenever observability is recording.
        service_batch = self._service_batch if not OBS.enabled else None
        iterators = [iter(s) for s in client_streams]
        finish = [start_time] * len(iterators)
        heap: list[tuple[float, int]] = []
        for idx in range(len(iterators)):
            heapq.heappush(heap, (start_time, idx))
        while heap:
            issue_time, idx = heapq.heappop(heap)
            if service_batch is not None and heap and heap[0][0] == issue_time:
                # A run of tied events: pop them all (ties pop in client
                # index order) and service them with one batched call.
                batch = [idx]
                while heap and heap[0][0] == issue_time:
                    batch.append(heapq.heappop(heap)[1])
                live: list[int] = []
                requests: list[object] = []
                for i in batch:
                    try:
                        requests.append(next(iterators[i]))
                        live.append(i)
                    except StopIteration:
                        finish[i] = issue_time
                if not requests:
                    continue
                dones = service_batch(requests, issue_time)
                for i, done in zip(live, dones):
                    if done < issue_time:
                        raise ConfigurationError(
                            f"service completed before issue ({done} < {issue_time}); "
                            "service functions must be forward-in-time"
                        )
                    heapq.heappush(heap, (done, i))
                continue
            try:
                request = next(iterators[idx])
            except StopIteration:
                finish[idx] = issue_time
                continue
            done = service(request, issue_time)
            if done < issue_time:
                raise ConfigurationError(
                    f"service completed before issue ({done} < {issue_time}); "
                    "service functions must be forward-in-time"
                )
            if OBS.enabled:
                OBS.counter("engine.requests").inc()
                # Clients still in flight: everyone left in the heap plus
                # this one, which is about to re-enter it.
                OBS.gauge("engine.queue_depth").set(len(heap) + 1)
                OBS.histogram("engine.service_seconds").record(done - issue_time)
            heapq.heappush(heap, (done, idx))
        return finish

    def run_makespan(self, client_streams: Sequence[Iterator[object]]) -> float:
        """Convenience: the time at which the *last* client finishes."""
        return max(self.run(client_streams))
