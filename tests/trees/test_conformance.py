"""One conformance suite over the tree registry.

Every kind in :data:`repro.trees.KINDS` must honour the same
:class:`~repro.trees.api.KVTree` contract beyond what the lockstep machine
(``test_lockstep.py``: dictionary semantics against a dict model, the full
int64 key domain, ``put_many`` as an insert loop on every kind but the two
that plan their batch, btree and cob, whose twins both take it) already
checks: ``load``
as the kind's own load path and its refusals, ``lookup_many`` on a loaded
tree, and the load / settle / drop_cache / io_seconds lifecycle the callers
drive.  Structure-specific behaviour (splits, compactions, PMA windows,
fences) is tested beside each kind; a new kind passes this file by adding
one registry entry.
"""

import numpy as np
import pytest

from repro.errors import TreeError
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.trees import KINDS, KVTree
from repro.trees.sizing import KEY_MAX
from tests.trees import test_lockstep as lockstep


def make(kind: str) -> KVTree:
    """``kind`` from the lockstep machine's small-config table, on an HDD."""
    return lockstep.make(kind, SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=1))


def sorted_pairs(n: int, seed: int = 5) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 20, size=n, replace=False)
    return [(int(k), int(k) * 3 + 1) for k in sorted(keys)]


def test_small_configs_cover_the_registry():
    assert set(lockstep.SMALL) == set(KINDS)


#: What ``load`` replaced: each kind's hand-written load path.
OLD_LOAD = {
    "btree": lambda tree, pairs: tree.bulk_load(pairs),
    "betree": lambda tree, pairs: tree.bulk_load(pairs),
    "lsm": lambda tree, pairs: (tree.put_many(pairs), tree.flush_memtable()),
    "cola": lambda tree, pairs: tree.put_many(pairs),
    "cob": lambda tree, pairs: tree.bulk_load(pairs),
    "cob-buffered": lambda tree, pairs: tree.bulk_load(pairs),
}


@pytest.mark.parametrize("kind", KINDS)
def test_load_is_the_kinds_own_load_path(kind):
    pairs = sorted_pairs(2500)
    old, new = make(kind), make(kind)
    OLD_LOAD[kind](old, pairs)
    new.load(pairs)
    assert lockstep.accounting(new) == lockstep.accounting(old)
    assert list(new.items()) == pairs
    new.check_invariants()


@pytest.mark.parametrize("kind", KINDS)
def test_load_requires_an_empty_tree(kind):
    pairs = sorted_pairs(400)
    tree = make(kind)
    tree.load(pairs[:300])
    loaded = lockstep.accounting(tree)
    with pytest.raises(TreeError):
        tree.load(pairs[300:])
    assert lockstep.accounting(tree) == loaded
    assert list(tree.items()) == pairs[:300]
    # One pair on the write path is enough to refuse, wherever it sits.
    tree = make(kind)
    tree.insert(*pairs[0])
    with pytest.raises(TreeError):
        tree.load(pairs[1:])


#: The kinds whose own load path is a ``bulk_load`` of sorted pairs.
BULK_LOADERS = [kind for kind in KINDS if hasattr(make(kind), "bulk_load")]


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["out_of_order", "duplicate"])
@pytest.mark.parametrize("kind", BULK_LOADERS)
def test_bulk_load_rejects_one_bad_adjacent_pair_anywhere(kind, fault, at):
    pairs = sorted_pairs(1200)
    i = {"first": 0, "middle": 600, "last": len(pairs) - 2}[at]
    if fault == "duplicate":
        pairs[i + 1] = (pairs[i][0], pairs[i + 1][1])
    else:
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
    tree = make(kind)
    with pytest.raises(TreeError):
        tree.bulk_load(pairs)
    assert len(tree) == 0 and list(tree.items()) == []


@pytest.mark.parametrize("kind", BULK_LOADERS)
def test_bulk_load_accepts_empty_and_one_pair_loads(kind):
    tree = make(kind)
    tree.bulk_load([])
    assert len(tree) == 0
    tree.bulk_load([(7, "seven")])
    assert list(tree.items()) == [(7, "seven")]
    tree.check_invariants()


@pytest.mark.parametrize("kind", KINDS)
def test_lifecycle(kind):
    tree = make(kind)
    pairs = sorted_pairs(2000)
    tree.load(pairs)

    # settle() pays for every deferred write; a second one finds nothing.
    tree.put_many((k + 1, v) for k, v in pairs[:300])
    tree.settle()
    assert tree.io_seconds == tree.device.stats.busy_seconds > 0.0
    settled = lockstep.accounting(tree)
    tree.settle()
    assert lockstep.accounting(tree) == settled

    # drop_cache() costs nothing once settled, loses nothing, and leaves a
    # buffer-cached kind cold: its next read goes to the device.
    tree.drop_cache()
    assert lockstep.accounting(tree) == settled
    if tree.storage is not None:
        assert tree.storage.cache.cached_bytes == 0
        before = tree.io_seconds
        assert tree.get(pairs[0][0]) == pairs[0][1]
        assert tree.io_seconds > before
        tree.reset_cache_stats()
        assert tree.storage.cache.stats.misses == 0
    assert tree.get(pairs[7][0]) == pairs[7][1]
    assert dict(tree.items())[pairs[0][0] + 1] == pairs[0][1]
    tree.check_invariants()


#: The containers ``lookup_many(keys: Iterable[int])`` takes, by test id
#: suffix; the list is the plain kind id.
CONTAINERS = {
    "": list,
    "tuple": tuple,
    "generator": lambda keys: (key for key in keys),
    "int64": lambda keys: np.array(keys, dtype=np.int64),
}


@pytest.mark.parametrize(
    "kind, container",
    [
        pytest.param(kind, wrap, id=f"{kind}-{name}" if name else kind)
        for kind in KINDS
        for name, wrap in CONTAINERS.items()
    ],
)
def test_lookup_many_answers_like_a_get_loop(kind, container):
    pairs = sorted_pairs(2000)
    looped, batched, listed = make(kind), make(kind), make(kind)
    for tree in (looped, batched, listed):
        tree.load(pairs)
        tree.drop_cache()
    keys = [pairs[i][0] + (i % 3 == 0) for i in range(0, 2000, 17)]
    assert batched.lookup_many(container(keys)) == [looped.get(key) for key in keys]
    listed.lookup_many(keys)
    assert lockstep.accounting(batched) == lockstep.accounting(listed)
    if type(batched)._lookup_many is KVTree._lookup_many:
        # A kind with a batch hook of its own (the B-tree's descent, the
        # planned reads of cola/cob/cob-buffered) is a different IO schedule.
        assert lockstep.accounting(batched) == lockstep.accounting(looped)


def test_get_many_is_exposed_by_exactly_these_kinds():
    # benchmarks/perf's tree_read branches on the attribute: adding or
    # removing one changes that workload's op mix.  Every kind has it since
    # KVTree carries it, so betree and lsm send half their gets through a
    # planned lookup_many, where they used to send all of them through get.
    exposing = {kind for kind in KINDS if hasattr(make(kind), "get_many")}
    assert exposing == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_deleting_an_absent_key_changes_nothing(kind):
    tree = make(kind)
    pairs = sorted_pairs(1500)
    tree.load(pairs)
    for absent in (pairs[0][0] - 1, pairs[700][0] + 1, pairs[-1][0] + 1, KEY_MAX):
        assert not tree.delete(absent)  # False (B-tree) or None (the rest)
    assert list(tree.items()) == pairs
    assert len(tree) == len(pairs)
    tree.check_invariants()
