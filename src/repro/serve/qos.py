"""Admission control and weighted-fair scheduling for the serving layer.

Two QoS mechanisms, both deterministic functions of simulated time:

* :class:`TokenBucket` / :class:`AdmissionController` — per-tenant rate
  limiting at the front door.  An open-loop tenant offering more than its
  contracted rate sees *drops* instead of pushing the shared queues into
  the unbounded-latency regime; the drop counter is the visible price,
  bounded queueing delay for everyone is the product.
* :class:`WeightedFairQueue` — which queued request a freed service slot
  takes next.  Start-time fair queuing over virtual time: each request is
  tagged ``max(V, last_finish(tenant)) + 1/weight`` at enqueue, slots
  serve the smallest tag.  A tenant with weight 2 drains twice as fast as
  a tenant with weight 1 under contention, and an idle tenant's unused
  share redistributes automatically (the ``max`` with the queue's virtual
  time forgives idleness without banking it).

Neither mechanism draws randomness; both are exactly reproducible from
the sequence of (tenant, time) calls.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.serve.tenants import TenantSpec


class TokenBucket:
    """A classic token bucket over simulated time.

    Starts full.  ``admit(at)`` refills ``rate * dt`` tokens (capped at
    ``burst``), then spends one token if available.  Calls must come in
    non-decreasing time order — the engine's event loop guarantees that.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if burst < 1.0:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.reset()

    def reset(self) -> None:
        """Full again, with the clock back at 0 (a new run)."""
        self.tokens = self.burst
        self._last = 0.0

    def admit(self, at: float) -> bool:
        """Whether a request arriving at ``at`` gets a token."""
        if at < self._last:
            raise ConfigurationError(
                f"token bucket time went backwards: {at} < {self._last}"
            )
        self.tokens = min(self.burst, self.tokens + (at - self._last) * self.rate)
        self._last = at
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant token buckets; tenants without a limit always admit."""

    def __init__(self, tenants: tuple[TenantSpec, ...], *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._buckets: dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_limit, t.burst)
            for t in tenants
            if t.rate_limit is not None
        }

    def reset(self) -> None:
        """Refill every bucket and rewind its clock to 0: what
        :meth:`RequestEngine.run <repro.serve.engine.RequestEngine.run>`
        does before its first arrival, so a controller outlives one run."""
        for bucket in self._buckets.values():
            bucket.reset()

    def admit(self, tenant: str, at: float) -> bool:
        """Whether ``tenant``'s request arriving at ``at`` enters the system."""
        if not self.enabled:
            return True
        bucket = self._buckets.get(tenant)
        return bucket is None or bucket.admit(at)


class WeightedFairQueue:
    """Start-time fair queue over a fixed tenant set.

    Items are arbitrary payloads; cost is one slot per request.  Pops are
    by smallest virtual finish tag, ties broken by tenant registration
    order then FIFO — fully deterministic.
    """

    def __init__(self, tenants: tuple[TenantSpec, ...]) -> None:
        check_names = [t.name for t in tenants]
        if len(set(check_names)) != len(check_names) or not tenants:
            raise ConfigurationError("tenants must be non-empty with unique names")
        self._order: list[str] = [t.name for t in tenants]
        self._weight: dict[str, float] = {t.name: t.weight for t in tenants}
        self._queues: dict[str, deque[tuple[float, Any]]] = {
            t.name: deque() for t in tenants
        }
        self._last_finish: dict[str, float] = {t.name: 0.0 for t in tenants}
        self._vtime = 0.0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def depth(self, tenant: str) -> int:
        """Queued requests of one tenant."""
        return len(self._queues[tenant])

    def push(self, tenant: str, item: Any) -> None:
        """Enqueue ``item`` for ``tenant`` (one slot of cost)."""
        queue = self._queues.get(tenant)
        if queue is None:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        tag = max(self._vtime, self._last_finish[tenant]) + 1.0 / self._weight[tenant]
        self._last_finish[tenant] = tag
        queue.append((tag, item))
        self._len += 1

    def pop(self) -> tuple[str, Any]:
        """Dequeue the request with the smallest virtual finish tag."""
        best: str | None = None
        best_tag = 0.0
        for name in self._order:  # registration order breaks ties
            queue = self._queues[name]
            if queue and (best is None or queue[0][0] < best_tag):
                best = name
                best_tag = queue[0][0]
        if best is None:
            raise ConfigurationError("pop from an empty WeightedFairQueue")
        tag, item = self._queues[best].popleft()
        self._vtime = tag
        self._len -= 1
        if OBS.enabled:
            OBS.gauge("serve.wfq.depth").set(self._len)
        return best, item
