"""Resilience policies: what the storage stack does when IOs misbehave.

Two mechanisms, composable in one :class:`ResiliencePolicy`:

* **Retry with exponential backoff** — a transient error
  (:class:`~repro.errors.TransientIOError`) is retried up to
  ``max_retries`` times; attempt ``i`` waits ``backoff_seconds *
  backoff_multiplier**i`` first, and the whole ladder stops once the
  per-IO ``timeout_seconds`` budget is exhausted.  Backoff waits are
  simulated time, charged like any other latency.
* **Hedged reads** — when a read runs past ``hedge_deadline_seconds``, a
  duplicate IO is issued and the first completion wins.  This is the
  PDAM-motivated move (PAPER.md Definition 1): slots among the ``P``
  parallel IOs a step leaves unused are wasted anyway, so spending one on
  a duplicate costs no throughput below the knee and converts the fault
  distribution's tail from "one draw" to "min of two draws".

Policies are inert by themselves.  Three places interpret them: the device
(:class:`~repro.faults.device.FaultyDevice`'s ``policy=``), the
:class:`~repro.storage.scheduler.ReadAheadScheduler`, and the serving
layer's :class:`~repro.serve.engine.RequestEngine`, which hedges a slow
round onto a spare replica.  A :meth:`ResiliencePolicy.none` policy is a
guaranteed no-op.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import ConfigurationError

#: CLI spellings of the stock policies (``--policy {none,retry,hedge}``).
POLICY_NAMES = ("none", "retry", "hedge")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry and hedging knobs for one storage stack.

    ``max_retries == 0`` disables retries; an infinite
    ``hedge_deadline_seconds`` disables hedging.  The stock
    constructors — :meth:`none`, :meth:`retry`, :meth:`hedged` — cover the
    three CLI policies; ``hedged`` keeps retries on because a hedge
    policy that loses ops to transient errors would be strictly worse
    than retry.
    """

    name: str = "none"
    max_retries: int = 0
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    timeout_seconds: float = math.inf
    hedge_deadline_seconds: float = math.inf

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_retries > 0 and self.backoff_seconds <= 0:
            raise ConfigurationError(
                f"retries need backoff_seconds > 0, got {self.backoff_seconds}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be non-negative, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.hedge_deadline_seconds <= 0:
            raise ConfigurationError(
                f"hedge_deadline_seconds must be positive, got {self.hedge_deadline_seconds}"
            )

    # -- stock policies ------------------------------------------------------

    @classmethod
    def none(cls) -> "ResiliencePolicy":
        """Do nothing: errors propagate, spikes run to completion."""
        return cls(name="none")

    @classmethod
    def retry(
        cls,
        *,
        max_retries: int = 4,
        backoff_seconds: float = 1e-3,
        backoff_multiplier: float = 2.0,
        timeout_seconds: float = math.inf,
    ) -> "ResiliencePolicy":
        """Retry transient errors with exponential backoff; no hedging."""
        return cls(
            name="retry",
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            backoff_multiplier=backoff_multiplier,
            timeout_seconds=timeout_seconds,
        )

    @classmethod
    def hedged(
        cls,
        hedge_deadline_seconds: float,
        *,
        max_retries: int = 4,
        backoff_seconds: float = 1e-3,
        backoff_multiplier: float = 2.0,
        timeout_seconds: float = math.inf,
    ) -> "ResiliencePolicy":
        """Hedge slow reads past the deadline, and retry errors too."""
        return cls(
            name="hedge",
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            backoff_multiplier=backoff_multiplier,
            timeout_seconds=timeout_seconds,
            hedge_deadline_seconds=hedge_deadline_seconds,
        )

    # -- queries -------------------------------------------------------------

    @property
    def retries_enabled(self) -> bool:
        """Whether transient errors are retried at all."""
        return self.max_retries > 0

    @property
    def hedge_enabled(self) -> bool:
        """Whether slow reads are hedged at all."""
        return math.isfinite(self.hedge_deadline_seconds)

    def describe(self) -> dict[str, Any]:
        """Stable JSON-able identity (infinities become None)."""
        d = asdict(self)
        for key in ("timeout_seconds", "hedge_deadline_seconds"):
            if math.isinf(d[key]):
                d[key] = None
        return d


@dataclass
class FaultStats:
    """Plain counters of faults seen and policy actions taken.

    Kept directly on the injecting/reacting component so fault accounting
    works inside forked sweep workers, where the process-global
    :data:`repro.obs.OBS` registry is unavailable; when observability is
    enabled the same events also land on OBS (``faults.injected``,
    ``io.retries``, ``io.hedge_wins``, …).
    """

    spikes_injected: int = 0
    errors_injected: int = 0
    stalls_injected: int = 0
    crashes: int = 0
    retries: int = 0
    retry_giveups: int = 0
    hedges_issued: int = 0
    hedge_wins: int = 0

    @property
    def faults_injected(self) -> int:
        """Total faults of every kind."""
        return (
            self.spikes_injected
            + self.errors_injected
            + self.stalls_injected
            + self.crashes
        )

    def reset(self) -> None:
        """Zero every counter (fresh experiment)."""
        for f in self.__dataclass_fields__:
            setattr(self, f, 0)
