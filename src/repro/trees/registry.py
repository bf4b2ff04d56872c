"""The tree registry: ``build(kind, device, ...)`` is how trees get made.

One :class:`~repro.trees.api.TreeKind` per kind, defined beside its tree
class, owns what differs between kinds: the substrate the tree runs on
and the sizing rule from ``node_bytes`` / ``cache_bytes`` to its config.
Serving, recovery, tuning, the sweep kernels and the experiments build
trees only here; a variant (such as a Bε-tree layout) is a config field
of its kind, not a constructor flag.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.allocator import ExtentAllocator
from repro.storage.device import BlockDevice
from repro.storage.stack import StorageStack
from repro.trees.api import KVTree, TreeKind
from repro.trees.betree.optimized import KIND as _BETREE
from repro.trees.btree.tree import KIND as _BTREE
from repro.trees.cob.buffered import KIND as _COB_BUFFERED
from repro.trees.cob.tree import KIND as _COB
from repro.trees.cola.cola import KIND as _COLA
from repro.trees.lsm.tree import KIND as _LSM

_REGISTRY: dict[str, TreeKind] = {
    entry.name: entry for entry in (_BTREE, _BETREE, _LSM, _COLA, _COB, _COB_BUFFERED)
}

#: Every kind :func:`build` knows, in registry order.
KINDS: tuple[str, ...] = tuple(_REGISTRY)


def check_kind(kind: str) -> TreeKind:
    """The registry entry of ``kind``; anything else is refused, naming :data:`KINDS`."""
    entry = _REGISTRY.get(kind)
    if entry is None:
        raise ConfigurationError(f"unknown tree kind {kind!r}; expected one of KINDS {KINDS}")
    return entry


def configure(
    kind: str,
    *,
    node_bytes: int | None = None,
    cache_bytes: int | None = None,
    **config_fields: Any,
) -> Any:
    """The config :func:`build` gives a ``kind`` tree: the kind's sizing
    rule, overridden by ``config_fields``."""
    entry = check_kind(kind)
    known = {f.name for f in dataclasses.fields(entry.config)}
    unknown = sorted(set(config_fields) - known)
    if unknown:
        raise ConfigurationError(
            f"{entry.config.__name__} has no field(s) {unknown}; known: {sorted(known)}"
        )
    sized = entry.sizing(node_bytes, cache_bytes)
    sized = {name: value for name, value in sized.items() if value is not None}
    return entry.config(**{**sized, **config_fields})


def build(
    kind: str,
    device: BlockDevice,
    *,
    node_bytes: int | None = None,
    cache_bytes: int | None = None,
    reserve_bytes: int = 0,
    placement: str = "first_fit",
    placement_seed: int = 0,
    **config_fields: Any,
) -> KVTree:
    """An empty tree of ``kind`` on ``device``.

    ``node_bytes`` is the node-size knob: node size (B-tree, Bε-tree),
    data-block size (LSM; runs and levels scale with it) or the block size
    that prices IO (COLA, cob); ``None`` keeps the config defaults.
    ``cache_bytes`` is the RAM budget: the buffer cache of the stack-backed
    kinds (required there), the pinned levels or index top of the COLA and
    cob kinds plus the block cache they keep in the rest;
    the LSM has none beyond its memtable.  The tree never allocates inside
    ``[0, reserve_bytes)``: that extent is the caller's (WAL, checkpoints).
    ``placement`` / ``placement_seed`` set the extent allocator's policy
    (``"random"`` models an aged file system).  ``config_fields`` are
    further fields of the kind's ``*Config`` and override the sizing rule.
    """
    entry = check_kind(kind)
    if reserve_bytes and placement != "first_fit":
        raise ConfigurationError("reserve_bytes needs first_fit placement")
    if entry.stacked and cache_bytes is None:
        raise ConfigurationError(f"a {kind} needs cache_bytes for its buffer cache")
    config = configure(kind, node_bytes=node_bytes, cache_bytes=cache_bytes, **config_fields)
    if entry.stacked:
        stack = StorageStack(
            device, cache_bytes, allocator_policy=placement, allocator_seed=placement_seed
        )
        allocator = stack.allocator
    else:
        allocator = ExtentAllocator(
            device.capacity_bytes, policy=placement, seed=placement_seed, alignment=512
        )
    if reserve_bytes:
        allocator.alloc(reserve_bytes)  # extent 0, before any node is placed
    if entry.stacked:
        return entry.tree(stack, config)
    return entry.tree(device, config, allocator=allocator)
