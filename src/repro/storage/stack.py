"""Bundled storage stack: device + extent allocator + buffer cache.

Every dictionary in :mod:`repro.trees` runs on a :class:`StorageStack`.
The stack is where the DAM triple ``(B, M, device)`` comes together:

* the *device* prices IO time,
* the *allocator* decides where nodes live (and hence seek distances),
* the *cache* is the memory level ``M``.

Trees read and dirty their nodes through the cache itself
(``stack.cache.get`` / ``get_many`` / ``get_runs`` / ``mark_dirty``); the
stack owns only what ties the three together: a node's extent and its
cache entry are made and dropped as one (:meth:`StorageStack.create`,
:meth:`StorageStack.destroy`).

``io_seconds`` is the simulated-time metric experiments read: the total
device time charged so far, in both directions.
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import ConfigurationError
from repro.storage.allocator import ExtentAllocator
from repro.storage.cache import BufferCache
from repro.storage.device import BlockDevice


class StorageStack:
    """A device, an allocator over its LBA space, and a byte-budget cache.

    Parameters
    ----------
    device:
        Any :class:`~repro.storage.device.BlockDevice`.  Wrap it in a
        :class:`~repro.faults.device.FaultyDevice` first to inject faults
        or attach a resilience policy.
    cache_bytes:
        The memory budget ``M``.
    allocator_policy:
        ``"first_fit"`` (fresh file system) or ``"random"`` (aged).
    """

    def __init__(
        self,
        device: BlockDevice,
        cache_bytes: int,
        *,
        allocator_policy: str = "first_fit",
        allocator_seed: int = 0,
    ) -> None:
        if cache_bytes <= 0:
            raise ConfigurationError(f"cache_bytes must be positive, got {cache_bytes}")
        self.device = device
        self.allocator = ExtentAllocator(
            device.capacity_bytes, policy=allocator_policy, seed=allocator_seed, alignment=512
        )
        self.cache = BufferCache(device, cache_bytes)

    @property
    def io_seconds(self) -> float:
        """Total simulated device seconds spent so far (reads + writes)."""
        return self.device.stats.busy_seconds

    def create(self, node_id: Hashable, obj: object, nbytes: int) -> int:
        """Allocate an extent for a new node and insert it dirty; returns offset."""
        offset = self.allocator.alloc(nbytes)
        self.cache.insert(node_id, obj, offset, nbytes, dirty=True)
        return offset

    def destroy(self, node_id: Hashable) -> None:
        """Free a node's extent and forget it (no write-back)."""
        offset, nbytes = self.cache.extent_of(node_id)
        self.cache.delete(node_id)
        self.allocator.free(offset, nbytes)

    def flush(self) -> float:
        """Write back all dirty nodes; returns simulated seconds spent."""
        return self.cache.flush()

    def drop_cache(self) -> None:
        """Write back dirty nodes and start cold (between experiment phases).

        The cache's hit/miss/eviction counters are kept, so they cover the
        whole run; ``cache.stats.reset()`` starts them over.
        """
        self.cache.drop_clean()
