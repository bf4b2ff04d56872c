"""IO-trace analysis: summarize what a workload actually did to a device.

Every :class:`~repro.storage.device.BlockDevice` can record its IOs
(``trace=True``).  This module turns those records into the quantities the
paper's models reason about — IO-size distribution, sequentiality, seek
distances.

Typical use::

    device = SimulatedHDD(geometry, trace=True)
    ...workload...
    stats = summarize_trace(device.trace)
    print(stats.sequential_fraction, stats.mean_io_bytes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.storage.device import IORecord


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one IO trace."""

    n_ios: int
    n_reads: int
    n_writes: int
    total_bytes: int
    mean_io_bytes: float
    median_io_bytes: float
    max_io_bytes: int
    sequential_fraction: float     # IOs starting exactly where the last ended
    mean_seek_bytes: float         # |gap| between consecutive IOs
    # Both gap statistics need at least two IOs; a single-IO trace reports
    # them as NaN (undefined), never as a measured 0.0.
    busy_seconds: float
    mean_io_seconds: float

    @property
    def effective_bandwidth(self) -> float:
        """Bytes moved per busy second (0 if no time elapsed)."""
        return self.total_bytes / self.busy_seconds if self.busy_seconds else 0.0


def summarize_trace(trace: Sequence[IORecord]) -> TraceSummary:
    """Compute :class:`TraceSummary` for a recorded IO sequence."""
    if not trace:
        raise ConfigurationError("cannot summarize an empty trace")
    sizes = np.array([r.nbytes for r in trace], dtype=np.int64)
    starts = np.array([r.offset for r in trace], dtype=np.int64)
    ends = starts + sizes
    durations = np.array([r.duration for r in trace], dtype=float)
    n_reads = sum(1 for r in trace if r.kind == "read")
    if len(trace) > 1:
        gaps = starts[1:] - ends[:-1]
        sequential = float(np.mean(gaps == 0))
        mean_seek = float(np.mean(np.abs(gaps)))
    else:
        # One IO has no inter-IO gaps: both statistics are undefined, and
        # reporting 0.0 would read as "fully random, zero seek distance".
        sequential, mean_seek = math.nan, math.nan
    return TraceSummary(
        n_ios=len(trace),
        n_reads=n_reads,
        n_writes=len(trace) - n_reads,
        total_bytes=int(sizes.sum()),
        mean_io_bytes=float(sizes.mean()),
        median_io_bytes=float(np.median(sizes)),
        max_io_bytes=int(sizes.max()),
        sequential_fraction=sequential,
        mean_seek_bytes=mean_seek,
        busy_seconds=float(durations.sum()),
        mean_io_seconds=float(durations.mean()),
    )


def io_size_histogram(
    trace: Sequence[IORecord], *, bins: Iterable[int] | None = None
) -> list[tuple[str, int]]:
    """Histogram of IO sizes over power-of-two byte bins.

    Returns ``[(label, count), ...]`` for non-empty bins only.
    """
    if not trace:
        raise ConfigurationError("cannot histogram an empty trace")
    sizes = [r.nbytes for r in trace]
    if bins is None:
        hi = max(sizes)
        bins = [1 << k for k in range(9, max(10, hi.bit_length() + 1))]
    edges = sorted(set(bins))
    counts = [0] * (len(edges) + 1)
    for s in sizes:
        for i, edge in enumerate(edges):
            if s <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    out = []
    lo = 0
    for i, edge in enumerate(edges):
        if counts[i]:
            out.append((f"({lo}, {edge}]", counts[i]))
        lo = edge
    if counts[-1]:
        out.append((f"({lo}, inf)", counts[-1]))
    return out
