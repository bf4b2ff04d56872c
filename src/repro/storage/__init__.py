"""Simulated storage stack.

The paper's evaluation runs on real HDDs and SSDs; this package replaces
them with discrete-event simulators that expose the same first-order
behaviour (see DESIGN.md section 2 for the substitution argument):

* :mod:`repro.storage.engine` — event-ordering and resource-timeline core.
* :mod:`repro.storage.device` — the :class:`BlockDevice` interface, IO
  records and statistics (including write-amplification accounting).
* :mod:`repro.storage.hdd` — seek + rotation + transfer hard-disk model.
* :mod:`repro.storage.ssd` — channel/die flash model with bank conflicts.
* :mod:`repro.storage.ideal` — devices that implement the affine and PDAM
  *models exactly* (no noise), for model-vs-simulator comparisons.
* :mod:`repro.storage.ram` — free/constant-cost devices for unit tests.
* :mod:`repro.storage.cache` — byte-budgeted LRU buffer cache with dirty
  write-back (the DAM's memory level ``M``).
* :mod:`repro.storage.blocks` — the LRU set of resident blocks the
  run-based trees spend their unpinned RAM on (write-through).
* :mod:`repro.storage.allocator` — extent allocator for variable-size nodes.
* :mod:`repro.storage.scheduler` — PDAM step scheduler with read-ahead
  expansion (the Section 8 strategy).
* :mod:`repro.storage.registry` — ``build(name)``: every device kind by
  name (:data:`KINDS`), and the paper's hardware as presets (:data:`ZOO`).
"""

from repro.storage.device import BlockDevice, DeviceStats, IORecord
from repro.storage.hdd import SimulatedHDD, HDDGeometry
from repro.storage.ssd import SimulatedSSD, SSDGeometry
from repro.storage.ideal import AffineDevice, PDAMDevice
from repro.storage.ram import NullDevice, ConstantLatencyDevice
from repro.storage.cache import BufferCache, CacheStats
from repro.storage.blocks import BlockCache
from repro.storage.allocator import ExtentAllocator
from repro.storage.registry import KINDS, ZOO, DeviceKind, build

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "IORecord",
    "SimulatedHDD",
    "HDDGeometry",
    "SimulatedSSD",
    "SSDGeometry",
    "AffineDevice",
    "PDAMDevice",
    "NullDevice",
    "ConstantLatencyDevice",
    "BufferCache",
    "BlockCache",
    "CacheStats",
    "ExtentAllocator",
    "DeviceKind",
    "KINDS",
    "ZOO",
    "build",
]
