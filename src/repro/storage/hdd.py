"""Simulated hard disk drive.

Implements the mechanical cost structure the affine model abstracts
(paper Section 2.3):

* **Seek**: moving the head costs between a track-to-track seek (~1 ms) and
  a full-stroke seek (~10 ms) depending on distance — "the setup cost can
  vary by an order of magnitude."  We use the standard square-root seek
  curve [Ruemmler & Wilkes 1994].
* **Rotation**: after the seek, the head waits for the target sector —
  uniform in one rotation period.
* **Transfer**: data then streams at fixed bandwidth.

Sequential IOs (starting exactly where the head stopped) skip the seek and
rotation entirely, which is what makes large-node range scans fast and what
the DAM cannot express.

The expected per-IO setup cost is ``E[seek] + E[rotation]``; regressing IO
time against IO size (experiment E3 / paper Table 2) recovers it as the
intercept ``s``, with slope ``t = 1/bandwidth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.storage.device import BlockDevice, IORecord

#: Rotation-stream variates drawn per refill (see :class:`SimulatedHDD`).
#: Large enough that the array draw and ``tolist`` amortise to ~20 ns per
#: IO (a scalar ``Generator.uniform`` call is ~1.5 us), small enough (a
#: 22 us draw, 32 KiB of floats) that a device which serves a handful of
#: IOs does not notice it.
ROTATION_BLOCK = 1024


@dataclass(frozen=True)
class HDDGeometry:
    """Mechanical parameters of a simulated hard disk.

    Defaults approximate a 7200 RPM commodity SATA drive of the era the
    paper benchmarks (Table 2).
    """

    capacity_bytes: int = 512 * 2**30
    track_to_track_seek_seconds: float = 0.001
    full_stroke_seek_seconds: float = 0.010
    rotation_seconds: float = 1.0 / 120.0  # 7200 RPM
    bandwidth_bytes_per_second: float = 150e6

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if not 0 <= self.track_to_track_seek_seconds <= self.full_stroke_seek_seconds:
            raise ConfigurationError(
                "need 0 <= track_to_track <= full_stroke seek time, got "
                f"{self.track_to_track_seek_seconds} and {self.full_stroke_seek_seconds}"
            )
        if self.rotation_seconds <= 0:
            raise ConfigurationError("rotation period must be positive")
        if self.bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("bandwidth must be positive")

    @property
    def mean_setup_seconds(self) -> float:
        """Expected setup cost ``s``: average seek plus half a rotation.

        For random IOs the head moves ``|U1 - U2|`` with U uniform, whose
        density is ``2(1-x)``; under the square-root seek curve the mean
        seek is ``t2t + (full - t2t) * E[sqrt(|U1-U2|)]`` with
        ``E[sqrt(|U1-U2|)] = 8/15``.
        """
        t2t = self.track_to_track_seek_seconds
        full = self.full_stroke_seek_seconds
        return t2t + (full - t2t) * (8.0 / 15.0) + self.rotation_seconds / 2.0

    @property
    def seconds_per_byte(self) -> float:
        """Bandwidth cost ``t`` in seconds per byte."""
        return 1.0 / self.bandwidth_bytes_per_second

    @property
    def alpha(self) -> float:
        """Affine ``alpha = t / s`` (per byte) this geometry induces."""
        return self.seconds_per_byte / self.mean_setup_seconds

    @property
    def half_bandwidth_bytes(self) -> float:
        """IO size at which setup and transfer time are equal."""
        return self.mean_setup_seconds * self.bandwidth_bytes_per_second


def hdd_geometry_for(setup_seconds: float, seconds_per_4k: float) -> HDDGeometry:
    """A 64 GiB geometry whose *mean* setup cost equals ``setup_seconds`` and
    whose transfer takes ``seconds_per_4k`` per 4 KiB (a Table 2 row).

    Inverts :attr:`HDDGeometry.mean_setup_seconds` for the full-stroke
    seek: with the square-root seek curve, mean seek = ``t2t + (full - t2t)
    * 8/15``, plus half a rotation.
    """
    base = HDDGeometry(capacity_bytes=64 * 2**30)
    t2t, half_rotation = base.track_to_track_seek_seconds, base.rotation_seconds / 2
    if setup_seconds <= t2t + half_rotation:
        raise ConfigurationError(f"setup {setup_seconds}s is below track-to-track + half rotation")
    if seconds_per_4k <= 0:
        raise ConfigurationError(f"seconds_per_4k must be positive, got {seconds_per_4k}")
    return replace(
        base,
        full_stroke_seek_seconds=t2t + (setup_seconds - t2t - half_rotation) * 15.0 / 8.0,
        bandwidth_bytes_per_second=4096.0 / seconds_per_4k,
    )


class SimulatedHDD(BlockDevice):
    """Event-level hard disk: seek curve + rotational latency + transfer.

    Rotational latencies come from a *rotation stream*: the ``k``-th
    non-sequential IO since construction or :meth:`reset` is charged the
    ``k``-th variate of ``default_rng(seed).uniform(0, rotation_seconds)``,
    whether it arrives through :meth:`read`/:meth:`write` or inside a
    batch.  The stream is drawn :data:`ROTATION_BLOCK` variates at a time
    into a list of native floats that the scalar and batch paths consume
    through one cursor (an array draw is the same bit-stream as that many
    scalar draws), so no per-IO arithmetic touches numpy.

    Parameters
    ----------
    geometry:
        Mechanical parameters (see :class:`HDDGeometry`).
    seed:
        Seed for the rotational-position RNG; runs are deterministic.

    An IO starting exactly at the head's current position is sequential:
    it pays no seek and no rotational delay, and draws no variate.
    """

    def __init__(
        self,
        geometry: HDDGeometry | None = None,
        *,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        self.geometry = geometry or HDDGeometry()
        super().__init__(self.geometry.capacity_bytes, trace=trace)
        g = self.geometry
        # The geometry is frozen, so the per-IO constants are bound once.
        self._seek_floor = g.track_to_track_seek_seconds
        self._seek_span = g.full_stroke_seek_seconds - g.track_to_track_seek_seconds
        self._seconds_per_byte = g.seconds_per_byte
        self._seed = seed
        self._rewind()

    def _rewind(self) -> None:
        """Head to offset 0 and the rotation stream back to variate 0."""
        self.head_position = 0
        self._rng = np.random.default_rng(self._seed)
        self._rotations: list[float] = []  # filled on the first draw
        self._rotation_cursor = 0  # next unconsumed index of _rotations
        self._rotation_base = 0  # variates consumed from earlier blocks

    def _refill(self) -> list[float]:
        """Draw the next block of the rotation stream; cursor to its start."""
        self._rotation_base += len(self._rotations)
        self._rotations = self._rng.uniform(
            0.0, self.geometry.rotation_seconds, size=ROTATION_BLOCK
        ).tolist()
        self._rotation_cursor = 0
        return self._rotations

    @property
    def rotations_drawn(self) -> int:
        """Rotation-stream variates consumed since :meth:`reset`.

        Equal to the number of non-sequential IOs charged so far; the next
        one gets variate number ``rotations_drawn`` of the seeded stream.
        """
        return self._rotation_base + self._rotation_cursor

    @property
    def bridge_bytes(self) -> int:
        """Bytes that stream in the cheapest setup the disk can charge, a
        track-to-track seek plus the mean half rotation: a gap narrower
        than this is read through, not sought over (:meth:`read_set`)."""
        g = self.geometry
        return int((g.track_to_track_seek_seconds + g.rotation_seconds / 2) / g.seconds_per_byte)

    # -- timing ------------------------------------------------------------

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        # Writes pay the same mechanical costs as reads on a hard disk.
        head = self.head_position
        if offset == head:
            setup = 0.0
        else:
            cursor = self._rotation_cursor
            rotations = self._rotations
            if cursor == len(rotations):
                rotations = self._refill()
                cursor = 0
            self._rotation_cursor = cursor + 1
            frac = abs(offset - head) / self.capacity_bytes
            setup = (self._seek_floor + self._seek_span * math.sqrt(frac)) + rotations[cursor]
        self.head_position = offset + nbytes
        if OBS.enabled:
            self._obs_setup = setup  # seek/bandwidth split for the obs layer
        return at + setup + nbytes * self._seconds_per_byte

    def _batch(self, offsets: list[int], nbytes: int) -> list[float]:
        """:meth:`BlockDevice._batch` with :meth:`read` and :meth:`_service`
        inlined.

        The one device-specific batch loop, kept because it is measured:
        with the seek curve and the rotation-stream cursor in locals it
        costs 0.26 us per IO against 0.59 us for the base class's loop of
        :meth:`read` (batches of 64 random reads, 2-core x86-64 Xeon); the
        ``device_engine`` workload's HDD phase drives both this and the
        scalar path (docs/architecture.md, "Batched IO").  Every IO runs
        the float operations of :meth:`_service` and
        :meth:`BlockDevice.read` in the same order — same seek curve, same
        rotation-stream cursor, same ``read_seconds`` accumulation — so
        timings, counters, trace, OBS events (through :meth:`_obs_io`),
        head position and :attr:`rotations_drawn` match a serial loop bit
        for bit at every batch length.  Nothing in the loop can raise, so
        the write-back needs no ``finally``.
        """
        capacity = self.capacity_bytes
        seek_floor = self._seek_floor
        seek_span = self._seek_span
        sqrt = math.sqrt
        transfer = nbytes * self._seconds_per_byte
        rotations = self._rotations
        cursor = self._rotation_cursor
        block = len(rotations)
        head = self.head_position
        clock = self.clock
        stats = self.stats
        seconds = stats.read_seconds
        trace = self.trace if self._trace_enabled else None
        obs_on = OBS.enabled
        out: list[float] = []
        append = out.append
        for off in offsets:
            if off == head:
                setup = 0.0
            else:
                if cursor == block:
                    rotations = self._refill()
                    cursor = 0
                    block = len(rotations)
                setup = (seek_floor + seek_span * sqrt(abs(off - head) / capacity)) + rotations[cursor]
                cursor += 1
            head = off + nbytes
            start = clock
            clock = start + setup + transfer
            elapsed = clock - start
            seconds += elapsed
            if trace is not None:
                trace.append(IORecord("read", off, nbytes, start, clock))
            if obs_on:
                self._obs_setup = setup
                self._obs_io("read", off, nbytes, start, clock)
            append(elapsed)
        self._rotation_cursor = cursor
        self.head_position = head
        self.clock = clock
        stats.reads += len(offsets)
        stats.bytes_read += nbytes * len(offsets)
        stats.read_seconds = seconds
        return out

    def reset(self) -> None:
        """Reset clock, counters, head position and the rotation stream."""
        super().reset()
        self._rewind()
