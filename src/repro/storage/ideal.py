"""Devices that implement the cost models *exactly*.

The simulated HDD/SSD have mechanical noise (rotational position, bank
conflicts).  For model-vs-data-structure experiments it is often clearer to
run against a device whose timing *is* the model:

* :class:`AffineDevice` — every IO takes exactly ``s + t * nbytes``.
* :class:`PDAMDevice`  — serves up to ``P`` block IOs per time step;
  also exposes the step-batched API used by the Section 8 experiment.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigurationError, InvalidIOError
from repro.models.affine import AffineModel
from repro.obs import OBS
from repro.models.pdam import PDAMModel
from repro.storage.device import BlockDevice, IORecord


class AffineDevice(BlockDevice):
    """Noise-free affine device: an IO of ``x`` bytes takes ``s + t*x``.

    Parameters
    ----------
    model:
        The :class:`~repro.models.affine.AffineModel` to realize.  Every IO
        pays the setup cost, sequential or not, so timing matches the model
        exactly.
    write_multiplier:
        Scales the cost of *writes* relative to reads (default 1.0 —
        symmetric).  Models the read/write asymmetry of flash and NVM the
        paper's Section 3 notes has "algorithmic consequences".
    """

    def __init__(
        self,
        model: AffineModel,
        capacity_bytes: int = 2**40,
        *,
        write_multiplier: float = 1.0,
        trace: bool = False,
    ) -> None:
        if write_multiplier <= 0:
            raise ConfigurationError(
                f"write_multiplier must be positive, got {write_multiplier}"
            )
        super().__init__(capacity_bytes, trace=trace)
        self.model = model
        self.write_multiplier = float(write_multiplier)

    @property
    def bridge_bytes(self) -> int:
        """``floor(s / t)``: reading a gap that wide costs at most the
        setup a new IO would (:meth:`read_set`)."""
        return int(self.model.setup_seconds / self.model.seconds_per_byte)

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        scale = 1.0 if kind == "read" else self.write_multiplier
        setup = self.model.setup_seconds
        if OBS.enabled:
            self._obs_setup = scale * setup  # setup/bandwidth split for obs
        return at + scale * (setup + self.model.seconds_per_byte * nbytes)


class PDAMDevice(BlockDevice):
    """Noise-free PDAM device (paper Definition 1).

    The serial API charges ``ceil(blocks / P)`` steps per IO.  The parallel
    API, :meth:`serve_step`, is the PDAM's native interface: callers present
    up to ``P`` block IOs; the device serves them in one step and *wastes*
    any unused slots — exactly the model's semantics, and the interface the
    Section 8 read-ahead scheduler programs against.
    """

    def __init__(self, model: PDAMModel, capacity_bytes: int = 2**40, *, trace: bool = False) -> None:
        if model.parallelism != int(model.parallelism):
            raise ConfigurationError(
                f"PDAMDevice needs integer parallelism, got {model.parallelism}"
            )
        super().__init__(capacity_bytes, trace=trace)
        self.model = model
        self.steps_elapsed = 0
        self.slots_used = 0
        self.slots_wasted = 0

    @property
    def parallelism(self) -> int:
        """Integer ``P`` of the underlying model."""
        return int(self.model.parallelism)

    @property
    def block_bytes(self) -> int:
        """Block size ``B`` of the underlying model."""
        return self.model.block_bytes

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        steps = self.model.cost(nbytes)
        self.steps_elapsed += int(steps)
        blocks = self.model.blocks(nbytes)
        self.slots_used += blocks
        self.slots_wasted += int(steps) * self.parallelism - blocks
        return at + steps * self.model.step_seconds

    def read_set(self, extents: Iterable[tuple[int, int]], *, limit: int) -> float:
        """:meth:`BlockDevice.read_set` in the PDAM's own terms: the ``n``
        distinct ``B``-blocks the extents cover are read ``P`` to a step,
        in disk order, so the set costs ``ceil(n / P)`` steps.  ``limit``
        is validated but never binds: no step moves more than ``P`` blocks.

        Each block is one read in the counters, the trace and the OBS
        stream, timed by its step, as :meth:`serve_step` counts it.
        """
        B, P = self.block_bytes, self.parallelism
        blocks = sorted({
            block
            for offset, nbytes in self._distinct(extents, limit)
            for block in range(offset // B, (offset + nbytes - 1) // B + 1)
        })
        if not blocks:
            return 0.0
        steps = -(-len(blocks) // P)
        step_seconds = self.model.step_seconds
        start = self.clock
        end = start + steps * step_seconds
        self.clock = end
        self.steps_elapsed += steps
        self.slots_used += len(blocks)
        self.slots_wasted += steps * P - len(blocks)
        stats = self.stats
        stats.reads += len(blocks)
        stats.bytes_read += len(blocks) * B
        stats.read_seconds += end - start
        if self._trace_enabled or OBS.enabled:
            for i, block in enumerate(blocks):
                at = start + (i // P) * step_seconds
                if self._trace_enabled:
                    self.trace.append(IORecord("read", block * B, B, at, at + step_seconds))
                if OBS.enabled:
                    self._obs_io("read", block * B, B, at, at + step_seconds)
        return end - start

    # -- native step interface ----------------------------------------------

    def serve_step(
        self,
        block_offsets: Sequence[int],
        write_offsets: Sequence[int] = (),
    ) -> float:
        """Serve one PDAM time step with the given block IOs.

        ``block_offsets`` are reads, ``write_offsets`` writes; together they
        must hold at most ``P`` block-aligned offsets.  Per Definition 1,
        "the device can serve any combination of reads and writes" within a
        step, under CREW semantics: a block written this step may not be
        read or written by any other slot.  Returns the new clock.
        """
        total = len(block_offsets) + len(write_offsets)
        if total > self.parallelism:
            raise InvalidIOError(
                f"step presented {total} IOs but P={self.parallelism}"
            )
        B = self.block_bytes
        write_set = set()
        for off in write_offsets:
            if off in write_set:
                raise InvalidIOError(f"CREW violation: two writes to block at {off}")
            write_set.add(off)
        if write_set and any(off in write_set for off in block_offsets):
            raise InvalidIOError("CREW violation: read of a block written this step")
        for off in block_offsets:
            if off % B:
                raise InvalidIOError(f"offset {off} is not {B}-block aligned")
            self._check(off, B)
            self.stats.reads += 1
            self.stats.bytes_read += B
        for off in write_offsets:
            if off % B:
                raise InvalidIOError(f"offset {off} is not {B}-block aligned")
            self._check(off, B)
            self.stats.writes += 1
            self.stats.bytes_written += B
        self.steps_elapsed += 1
        self.slots_used += total
        self.slots_wasted += self.parallelism - total
        self.clock += self.model.step_seconds
        self.stats.read_seconds += self.model.step_seconds
        if OBS.enabled:
            OBS.counter("device.pdam.steps").inc()
            OBS.counter("device.pdam.slots_used").inc(total)
            OBS.counter("device.pdam.slots_wasted").inc(self.parallelism - total)
            OBS.histogram("device.pdam.step_occupancy").record(total)
        return self.clock

    def stall(self, steps: int) -> float:
        """Advance the clock by ``steps`` whole steps with every slot idle.

        This is how channel-stall faults are priced: the scheduler detects
        that a step's slowest channel needs ``steps`` extra time steps and
        charges them here, with all ``P`` slots wasted for the duration
        (the device is stuck, not working).  Returns the new clock.
        """
        if steps < 0:
            raise InvalidIOError(f"stall steps must be non-negative, got {steps}")
        if steps == 0:
            return self.clock
        self.steps_elapsed += steps
        self.slots_wasted += steps * self.parallelism
        dt = steps * self.model.step_seconds
        self.clock += dt
        self.stats.read_seconds += dt
        return self.clock

    def block_of(self, offset: int) -> int:
        """Block index containing byte ``offset``."""
        if offset < 0 or offset >= self.capacity_bytes:
            raise InvalidIOError(f"offset {offset} out of range")
        return offset // self.block_bytes

    def reset(self) -> None:
        super().reset()
        self.steps_elapsed = 0
        self.slots_used = 0
        self.slots_wasted = 0
