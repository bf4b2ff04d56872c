"""Trivial devices for unit tests and cache-behaviour isolation.

* :class:`NullDevice` — all IOs complete instantly.  Used to test data
  structure *logic* (correct contents, invariants) without timing noise,
  and to count IOs without pricing them.
* :class:`ConstantLatencyDevice` — all IOs take a fixed time regardless of
  size.  This is the DAM's pricing assumption, so a tree run against it
  measures pure IO counts scaled by a constant.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.storage.device import BlockDevice


class NullDevice(BlockDevice):
    """A device where every IO is free (zero simulated seconds)."""

    def __init__(self, capacity_bytes: int = 2**40, *, trace: bool = False) -> None:
        super().__init__(capacity_bytes, trace=trace)

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        return at


class ConstantLatencyDevice(BlockDevice):
    """A device where every IO takes ``latency_seconds``, as in the DAM."""

    def __init__(
        self,
        latency_seconds: float,
        capacity_bytes: int = 2**40,
        *,
        trace: bool = False,
    ) -> None:
        if latency_seconds < 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency_seconds}")
        super().__init__(capacity_bytes, trace=trace)
        self.latency_seconds = float(latency_seconds)

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        return at + self.latency_seconds
