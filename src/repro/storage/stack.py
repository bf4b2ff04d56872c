"""Bundled storage stack: device + extent allocator + buffer cache.

Every dictionary in :mod:`repro.trees` runs on a :class:`StorageStack`.
The stack is where the DAM triple ``(B, M, device)`` comes together:

* the *device* prices IO time,
* the *allocator* decides where nodes live (and hence seek distances),
* the *cache* is the memory level ``M``.

``io_seconds`` is the simulated-time metric experiments read: the total
device time charged so far, in both directions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

from repro.errors import ConfigurationError
from repro.storage.allocator import ExtentAllocator
from repro.storage.cache import BufferCache
from repro.storage.device import BlockDevice

if TYPE_CHECKING:  # pragma: no cover - imported lazily to stay layered
    from repro.faults.policy import ResiliencePolicy


class StorageStack:
    """A device, an allocator over its LBA space, and a byte-budget cache.

    Parameters
    ----------
    device:
        Any :class:`~repro.storage.device.BlockDevice`.
    cache_bytes:
        The memory budget ``M``.
    allocator_policy:
        ``"first_fit"`` (fresh file system) or ``"random"`` (aged).
    resilience:
        Optional :class:`~repro.faults.policy.ResiliencePolicy`.  Attached
        to the device's fault layer: a
        :class:`~repro.faults.device.FaultyDevice` adopts it directly; a
        bare device is wrapped in a zero-fault ``FaultyDevice`` so the
        policy still applies if faults are enabled later (a zero plan
        changes no timings).  ``None`` (default) touches nothing.
    """

    def __init__(
        self,
        device: BlockDevice,
        cache_bytes: int,
        *,
        allocator_policy: str = "first_fit",
        allocator_seed: int = 0,
        alignment: int = 512,
        resilience: "ResiliencePolicy | None" = None,
    ) -> None:
        if cache_bytes <= 0:
            raise ConfigurationError(f"cache_bytes must be positive, got {cache_bytes}")
        if resilience is not None:
            from repro.faults import FaultPlan, FaultyDevice

            if isinstance(device, FaultyDevice):
                device.policy = resilience
            else:
                device = FaultyDevice(device, FaultPlan(), policy=resilience)
        self.device = device
        self.allocator = ExtentAllocator(
            device.capacity_bytes,
            policy=allocator_policy,
            seed=allocator_seed,
            alignment=alignment,
        )
        self.cache = BufferCache(device, cache_bytes)

    @property
    def io_seconds(self) -> float:
        """Total simulated device seconds spent so far (reads + writes)."""
        return self.device.stats.busy_seconds

    @property
    def cache_bytes(self) -> int:
        """The memory budget ``M``."""
        return self.cache.capacity_bytes

    # -- node-object helpers used by all trees -------------------------------

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

    def get(self, node_id: Hashable) -> object:
        """Read-through fetch of a node object."""
        return self.cache.get(node_id)

    def read_many(self, node_ids: "Sequence[Hashable]") -> list[object]:
        """Batched read-through fetch; returns objects in input order.

        Equivalent to ``[self.get(i) for i in node_ids]`` — same objects,
        same hit/miss accounting, same total device traffic — but runs of
        consecutive *misses with equal extent size* are charged through
        :meth:`~repro.storage.device.BlockDevice.read_batch`, which
        vectorizes the per-IO timing math, and are admitted to the cache
        only after the whole run's reads are issued.  Two consequences:

        * the serve layer's batch of ``k`` point lookups pays one Python
          batch call per level instead of ``k`` interpreter round-trips
          per node (first step of the ROADMAP hot-path rewrite);
        * within a run, reads are issued before the write-backs of any
          evictions those admissions trigger.  On devices whose per-IO
          cost is position-independent (affine, PDAM serial) the total is
          bit-identical to the serial loop; on stateful devices (HDD
          head position) a batch may price seeks slightly differently —
          it is a different, better IO schedule, not a different result
          for the same schedule.

        Misses of heterogeneous sizes fall back to one :meth:`get`-style
        read each, so the method is safe for any node population.
        """
        return self.cache.get_many(node_ids)

    def read_runs(self, node_ids: "Sequence[Hashable]") -> list[object]:
        """Scan fetch of distinct nodes; returns objects in input order.

        Same objects and hit/miss counts as ``[self.get(i) for i in
        node_ids]``, but the misses are read in disk order with one device
        read per run of adjacent extents (at most the cache's size each),
        so a scan over a sequentially laid-out level pays one setup per
        run instead of one per node; see
        :meth:`~repro.storage.cache.BufferCache.get_runs`.
        """
        return self.cache.get_runs(node_ids)

    def mark_dirty(self, node_id: Hashable) -> None:
        """Record an in-place modification of a node.

        If the node was evicted mid-operation (possible when the cache is
        smaller than one operation's working set), it is re-fetched first —
        modifying an on-disk node requires reading it back in.
        """
        self.cache.mark_dirty(node_id)

    def flush(self) -> float:
        """Write back all dirty nodes; returns simulated seconds spent."""
        return self.cache.flush()

    def drop_cache(self, *, reset_stats: bool = False) -> None:
        """Write back dirty nodes and start cold (between experiment phases).

        With ``reset_stats=True`` the cache's hit/miss/eviction counters are
        zeroed *after* the evictions, so a subsequent measured phase reports
        hit rates unpolluted by the load and warm-up traffic.  The default
        keeps the counters, preserving whole-run accounting.
        """
        self.cache.drop_clean()
        if reset_stats:
            self.cache.stats.reset()
