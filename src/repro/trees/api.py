"""The one interface every dictionary in :mod:`repro.trees` sits behind.

:class:`KVTree` is the concrete base of the seven tree classes.  Each kind
implements the private hooks behind the dictionary surface and sets
``kind``, ``device``, ``allocator`` and ``config``; the base owns the six
public dictionary ops and their observability event, the methods derived
from them and the lifecycle callers drive: load, settle, cool down, read
the clock.
:class:`TreeKind` is one entry of :mod:`repro.trees.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator

from repro.obs import OBS
from repro.storage.allocator import ExtentAllocator
from repro.storage.blocks import BlockCache
from repro.storage.device import BlockDevice
from repro.storage.stack import StorageStack
from repro.trees.sizing import KEY_MAX, KEY_MIN


class KVTree:
    """An external-memory dictionary storing ``int -> value`` pairs.

    The only observable cost of any method is simulated device time,
    read from :attr:`io_seconds` before and after.
    """

    #: The buffer-cached stack of a stack-backed kind (B-tree, Bε-trees);
    #: ``None`` on the kinds that place their own extents on a bare device.
    storage: StorageStack | None = None
    #: The blocks a run-based kind with a RAM budget (COLA, cob,
    #: cob-buffered) caches in the RAM it does not pin; ``None`` elsewhere.
    block_cache: BlockCache | None = None
    device: BlockDevice
    allocator: ExtentAllocator
    config: Any

    #: The kind's registry name: the prefix of its op events (``btree.query``).
    kind: ClassVar[str]
    #: Whether ``_put_many`` plans the batch's IO instead of being an
    #: insert loop's (:meth:`put_many`).
    plans_puts: ClassVar[bool] = False

    # -- the dictionary surface, observed here and only here ----------------
    #
    # Each public op is its kind's private hook under one ``if OBS.enabled:``
    # guard that emits the op's ``<kind>.<op>`` event, priced in simulated
    # device seconds.  One public call is one event: code inside a tree, the
    # defaults below included, calls hooks, never the public ops.

    def get(self, key: int) -> Any | None:
        """Point query; the value or ``None``."""
        if OBS.enabled:
            start = self.device.clock
            value = self._lookup(key)
            OBS.op_event(f"{self.kind}.query", start, self.device.clock, key=key)
            return value
        return self._lookup(key)

    def lookup_many(self, keys: Iterable[int]) -> list[Any | None]:
        """Point queries in input order: the answers of a :meth:`get` loop.

        Every registry kind plans its batch: one planned submission per
        dependent step, each distinct extent read once, sorted and bridged
        over gaps cheaper to read than to seek over
        (:meth:`~repro.storage.device.BlockDevice.read_set`; ``ceil(n/P)``
        steps on the PDAM).  So its IO schedule is not the loop's.  The
        B-tree and the Bε-tree descend level-synchronized, one
        :meth:`~repro.storage.cache.BufferCache.get_many` a level (the
        Bε-tree's: the segments a level needs, then the basement chunks);
        the LSM reads one set per L0 run and one per deeper level, cola
        one per level, cob and cob-buffered one per step of their index.
        A key answered at a step reads nothing older or deeper.  The
        ``"whole-node"`` Bε layout runs a loop of its scalar lookup.  A
        batch of one is :meth:`get`'s IO.
        """
        keys = keys if isinstance(keys, list) else list(keys)
        if OBS.enabled:
            start = self.device.clock
            values = self._lookup_many(keys)
            OBS.op_event(f"{self.kind}.query_batch", start, self.device.clock, n=len(keys))
            return values
        return self._lookup_many(keys)

    #: The batched lookup under the name the benchmark workloads call.
    get_many = lookup_many

    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        if OBS.enabled:
            start = self.device.clock
            self._insert(key, value)
            OBS.op_event(f"{self.kind}.insert", start, self.device.clock, key=key)
        else:
            self._insert(key, value)

    def put_many(self, pairs: Iterable[tuple[int, Any]], *, planned: bool = True) -> None:
        """Insert every pair in order, leaving an insert loop's tree.

        Two contracts (``tests/trees/test_put_many.py``).  The B-tree and
        the cob plan their batch, the write-side twin of
        :meth:`lookup_many`: the structure is the loop's, but each node or
        extent the batch needs is read once, as planned reads, and the
        cob writes each dirtied extent once, in disk order, never through
        a gap — so their IO schedule is not the loop's.  A planning kind
        applies pairs before their IO, so a fault surfaces at a planned IO
        with those pairs applied (each kind's ``_put_many`` says which).
        Every other kind is serial-identical: device clock, stats and
        structural state equal calling :meth:`insert` once per pair — a
        batch removes Python overhead, never semantics — and a device
        fault surfaces at the IO, and with the pairs applied, that the
        loop's would.  A kind may materialise an iterable before it
        applies the first pair (B-tree, COLA, LSM), so pairs drawn from a
        generator that raises midway are not applied.  ``planned=False``
        runs a planning kind's batch as the insert loop, IO and all, under
        the one event: what a stream of single inserts costs.
        """
        put = self._put_many if planned or not self.plans_puts else self._insert_loop
        if OBS.enabled:
            start = self.device.clock
            put(pairs)
            OBS.op_event(f"{self.kind}.insert_batch", start, self.device.clock)
        else:
            put(pairs)

    def delete(self, key: int) -> Any:
        """Remove ``key``; deleting an absent key changes nothing."""
        if OBS.enabled:
            start = self.device.clock
            held = self._delete(key)
            OBS.op_event(f"{self.kind}.delete", start, self.device.clock, key=key)
            return held
        return self._delete(key)

    def range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        """All pairs with ``lo <= key <= hi`` in key order."""
        if OBS.enabled:
            start = self.device.clock
            pairs = self._range(lo, hi)
            OBS.op_event(f"{self.kind}.range", start, self.device.clock, n=len(pairs))
            return pairs
        return self._range(lo, hi)

    # -- the hooks each kind implements --------------------------------------

    def _lookup(self, key: int) -> Any | None:
        raise NotImplementedError

    def _lookup_many(self, keys: list[int]) -> list[Any | None]:
        lookup = self._lookup
        return [lookup(key) for key in keys]

    def _insert(self, key: int, value: Any) -> None:
        raise NotImplementedError

    def _insert_loop(self, pairs: Iterable[tuple[int, Any]]) -> None:
        insert = self._insert
        for key, value in pairs:
            insert(key, value)

    _put_many = _insert_loop

    def _delete(self, key: int) -> Any:
        raise NotImplementedError

    def _range(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.TreeError` if the structure is broken."""
        raise NotImplementedError

    # -- derived from the surface --------------------------------------------
    #
    # Each is one public op above, so it reports as that op's one event.

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[tuple[int, Any]]:
        """All pairs in key order: a scan of the whole key domain, charged
        when this is called, not when the first pair is pulled."""
        return iter(self.range(KEY_MIN, KEY_MAX))

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- lifecycle -----------------------------------------------------------

    def load(self, pairs: list[tuple[int, Any]]) -> None:
        """Fill an empty tree from key-sorted ``pairs`` the way the kind
        loads: a sequential ``bulk_load`` where it has one, its own write
        path (LSM, COLA) otherwise.  Every kind raises
        :class:`~repro.errors.TreeError` on a tree that already holds
        something."""
        self.bulk_load(pairs)

    def settle(self) -> None:
        """Charge whatever the tree still defers (dirty cached nodes; the
        LSM's memtable), so a measured write phase pays for its writes."""
        if self.storage is not None:
            self.storage.flush()

    def drop_cache(self) -> None:
        """Start the next phase cold: every kind with a RAM budget spends
        what it does not pin as a cache, and this empties it.  The B-tree
        and the Bε-trees write their dirty nodes back and forget them; the
        COLA, cob and cob-buffered forget their cached blocks (written
        through, never dirty).  What a kind pins (the COLA's small levels,
        the cob's index top) stays, and the LSM, with no budget beyond its
        memtable, has nothing to drop."""
        if self.storage is not None:
            self.storage.drop_cache()
        elif self.block_cache is not None:
            self.block_cache.clear()

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss/eviction counters of the kind's cache — the
        buffer cache or the block cache :meth:`drop_cache` empties — after
        a warm-up; a no-op on the LSM."""
        if self.storage is not None:
            self.storage.cache.stats.reset()
        elif self.block_cache is not None:
            self.block_cache.stats.reset()

    @property
    def io_seconds(self) -> float:
        """Total simulated device seconds charged so far."""
        return self.device.stats.busy_seconds


@dataclass(frozen=True)
class TreeKind:
    """One registry entry: how to size and place one kind of tree.

    ``sizing(node_bytes, cache_bytes)`` maps the two knobs every caller
    has to fields of ``config``; either argument may be ``None``, and a
    field that comes out ``None`` keeps its ``config`` default.  A
    ``stacked`` kind runs on a :class:`~repro.storage.stack.StorageStack`
    (``cache_bytes`` is its buffer cache); the others take the bare device
    plus an allocator.  ``amortization_unit(config)`` is the number of
    insert messages one structural event absorbs (a root-buffer fill, a
    memtable flush cycle): a measured insert window counts in it.  It is
    ``None`` for a kind that defers no insert.
    """

    name: str
    tree: Callable[..., KVTree]
    config: type
    sizing: Callable[[int | None, int | None], dict[str, Any]]
    stacked: bool = False
    amortization_unit: Callable[[Any], int] | None = None
