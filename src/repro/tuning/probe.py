"""Calibration workloads: measure a device the way the paper's Section 4 does.

Two probes, matching the two fits of Tables 1-2, and the one copy of each
recipe: E1 (Figure 1/Table 1), E3 (Table 2), the autotuner and the
examples all measure through this module.

* :func:`probe_affine` — random reads across a ladder of IO sizes; the
  per-IO ``(size, seconds)`` pairs, collapsed by :meth:`AffineProbe.means`,
  feed the Table 2 regression that recovers ``(s, t, alpha)``.
* :func:`probe_parallel` — a closed-loop thread ramp (p clients, each
  reading a fixed volume in block-sized random reads), one
  :func:`closed_loop_point` per p; the per-p completion times feed the
  Table 1 segmented regression that recovers ``(P, PB)``.  Devices with
  no concurrent interface are reported as serial (``None``).

Probes issue real (simulated) IOs and therefore cost simulated device
time; every probe result carries that cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.storage.device import BlockDevice, ReadRequest, WriteRequest
from repro.storage.ideal import PDAMDevice

DEFAULT_IO_SIZES = tuple(4096 * 2**k for k in range(11))  # 4 KiB .. 4 MiB
DEFAULT_THREAD_RAMP = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32)


@dataclass(frozen=True)
class AffineProbe:
    """Raw observations of one IO-size ladder."""

    io_sizes: tuple[int, ...]          # one entry per IO, not per rung
    seconds: tuple[float, ...]
    probe_seconds: float               # total simulated time spent probing
    probe_ios: int

    def means(self) -> tuple[list[int], list[float]]:
        """One mean duration per IO size, the rungs in ascending order.

        The paper fits the average of its 64 random reads per size: per-IO
        noise (a disk's rotational position) would otherwise cap R² no
        matter how many samples were taken.
        """
        by_size: dict[int, list[float]] = {}
        for size, sec in zip(self.io_sizes, self.seconds):
            by_size.setdefault(size, []).append(sec)
        rungs = sorted(by_size)
        return rungs, [float(np.mean(by_size[r])) for r in rungs]


@dataclass(frozen=True)
class ParallelProbe:
    """Raw observations of one thread-scaling ramp."""

    threads: tuple[int, ...]
    completion_seconds: tuple[float, ...]
    bytes_per_thread: int
    request_bytes: int
    probe_seconds: float
    probe_ios: int


def probe_affine(
    device: BlockDevice,
    *,
    io_sizes: tuple[int, ...] = DEFAULT_IO_SIZES,
    reads_per_size: int = 48,
    seed: int = 0,
) -> AffineProbe:
    """Issue ``reads_per_size`` random reads at each size; collect timings.

    Offsets are 512-byte aligned and drawn uniformly over the device so
    seek distances match the random-IO regime the affine model prices
    (paper Section 4.2's "64 random reads" per size).
    """
    if not io_sizes:
        raise ConfigurationError("need at least one IO size")
    if reads_per_size <= 0:
        raise ConfigurationError(f"reads_per_size must be positive, got {reads_per_size}")
    max_size = max(io_sizes)
    if max_size + 512 > device.capacity_bytes:
        raise ConfigurationError(
            f"largest probe IO ({max_size}) leaves no offset to draw on the device"
        )
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    secs: list[float] = []
    total = 0.0
    for nbytes in io_sizes:
        blocks = (device.capacity_bytes - nbytes) // 512
        offsets = rng.integers(0, blocks, size=reads_per_size) * 512
        # One read_batch a rung: bit-identical to one read() per offset.
        for elapsed in device.read_batch([int(o) for o in offsets], int(nbytes)):
            sizes.append(int(nbytes))
            secs.append(elapsed)
            total += elapsed
    return AffineProbe(
        io_sizes=tuple(sizes),
        seconds=tuple(secs),
        probe_seconds=total,
        probe_ios=len(sizes),
    )


def supports_parallel_probe(device: BlockDevice) -> bool:
    """Whether the device exposes a concurrent interface worth ramping."""
    return isinstance(device, PDAMDevice) or hasattr(device, "run_closed_loop")


def probe_parallel(
    device: BlockDevice,
    *,
    threads: tuple[int, ...] = DEFAULT_THREAD_RAMP,
    bytes_per_thread: int = 4 << 20,
    request_bytes: int = 64 << 10,
    seed: int = 0,
) -> ParallelProbe | None:
    """Closed-loop thread ramp; ``None`` when the device is serial-only.

    Each of ``p`` clients keeps one ``request_bytes`` random read
    outstanding until it has read ``bytes_per_thread``.  Completion times
    are measured per ramp point on the same device instance (deltas of its
    clock), so a live device can be probed in place.
    """
    if not supports_parallel_probe(device):
        return None
    if isinstance(device, PDAMDevice):
        # The PDAM's native interface serves whole blocks; the ramp keeps
        # one block outstanding per client whatever request size was asked.
        request_bytes = device.block_bytes
    if bytes_per_thread < request_bytes:
        raise ConfigurationError(
            f"bytes_per_thread ({bytes_per_thread}) must cover one request "
            f"({request_bytes})"
        )
    n_requests = max(1, bytes_per_thread // request_bytes)
    times: list[float] = []
    total = 0.0
    ios = 0
    for p in threads:
        if isinstance(device, PDAMDevice):
            elapsed = _pdam_closed_loop(device, p, n_requests, seed=seed + p)
        else:
            elapsed = closed_loop_point(
                device, p, n_requests, request_bytes, seed=seed + p
            )
        times.append(elapsed)
        total += elapsed
        ios += p * n_requests
    return ParallelProbe(
        threads=tuple(threads),
        completion_seconds=tuple(times),
        bytes_per_thread=n_requests * request_bytes,
        request_bytes=request_bytes,
        probe_seconds=total,
        probe_ios=ios,
    )


def closed_loop_point(
    device: BlockDevice,
    p: int,
    n_requests: int,
    request_bytes: int,
    *,
    seed: int,
    write_fraction: float = 0.0,
) -> float:
    """One ramp point: ``p`` closed-loop clients on a ``run_closed_loop`` device.

    Each client issues ``n_requests`` random ``request_bytes`` IOs at
    request-aligned offsets, a write with probability ``write_fraction``
    (Definition 1 allows any mix; Figure 1 itself is read-only).  The rng
    draws, per client, its offsets and then its read/write coins.  The
    clients start at the device's clock, so a live device is probed in
    place; the result is the elapsed time from that clock to the last
    client's finish.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError(f"write_fraction must be in [0, 1], got {write_fraction}")
    rng = np.random.default_rng(seed)
    n_slots = device.capacity_bytes // request_bytes
    streams = []
    for _ in range(p):
        offsets = rng.integers(0, n_slots, size=n_requests) * request_bytes
        writes = rng.random(n_requests) < write_fraction
        streams.append(
            [
                WriteRequest(int(o), request_bytes) if w else ReadRequest(int(o), request_bytes)
                for o, w in zip(offsets, writes)
            ]
        )
    start = device.clock
    return device.run_closed_loop(streams) - start


def _pdam_closed_loop(device: PDAMDevice, p: int, n_requests: int, *, seed: int) -> float:
    """Ramp point on a PDAM device via its native step interface.

    Each client keeps one block read outstanding; every step serves up to
    ``P`` of the active clients (round-robin), which is exactly the model's
    closed-loop behaviour: flat completion time while ``p <= P``, linear
    growth beyond.
    """
    rng = np.random.default_rng(seed)
    B = device.block_bytes
    n_blocks = device.capacity_bytes // B
    remaining = [n_requests] * p
    start = device.clock
    cursor = 0
    while any(remaining):
        batch: list[int] = []
        scanned = 0
        while len(batch) < device.parallelism and scanned < p:
            client = (cursor + scanned) % p
            scanned += 1
            if remaining[client] > 0:
                batch.append(int(rng.integers(0, n_blocks)) * B)
                remaining[client] -= 1
        cursor = (cursor + scanned) % p
        device.serve_step(batch)
    return device.clock - start
