"""``put_many`` serial-identity: batched inserts must equal insert loops.

Every tree's ``put_many`` contract is the write-side twin of the batched
read paths: device traffic, cache statistics, structural state, and (for
the Bε-trees) message sequence numbers must be *identical* to calling
``insert`` once per pair — the batch removes Python overhead, never
semantics.  Devices with real timing (the default simulated HDD) make
the comparison bit-exact in simulated seconds, not just op counts.
"""

import numpy as np
import pytest

from repro.obs import OBS
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.storage.stack import StorageStack
from repro.trees import build
from repro.trees.betree import BeTree, BeTreeConfig
from repro.trees.sizing import EntryFormat

FMT = EntryFormat(value_bytes=20)
BETREE = dict(node_bytes=16384, fanout=4, fmt=FMT)


def _pairs(n=4000, universe=60_000, seed=13):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, size=n, dtype=np.int64)
    return [(int(k), int(k) * 5 + 1) for k in keys]


def _hdd():
    return SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=1)


def _registered(kind, **fields):
    return lambda: build(kind, _hdd(), **fields)


def _make_naive_betree():
    # The whole-node-IO ablation variant is not a registry kind.
    return BeTree(StorageStack(_hdd(), cache_bytes=1 << 18), BeTreeConfig(**BETREE))


TREES = {
    "btree": _registered("btree", node_bytes=4096, cache_bytes=1 << 18),
    "betree": _make_naive_betree,
    "betree-optimized": _registered("betree", cache_bytes=1 << 18, **BETREE),
    "lsm": _registered("lsm", memtable_bytes=1 << 12, sstable_bytes=1 << 14),
    # PR 7 left COLA out of the batched fast path; it and the cob tier
    # now carry the same serial-identity contract as every other tree.
    "cola": _registered("cola", fmt=FMT),
    "cob": _registered("cob", fmt=FMT),
    "cob-buffered": _registered("cob-buffered", fmt=FMT),
}


def _accounting(tree):
    acct = {
        "clock": tree.device.clock,
        "stats": vars(tree.device.stats).copy(),
        "user_bytes": tree.user_bytes_modified,
        "io_seconds": tree.io_seconds,
    }
    if tree.storage is not None:
        cache = tree.storage.cache.stats
        acct["cache"] = (cache.hits, cache.misses)
    return acct


@pytest.mark.parametrize("name", TREES)
def test_put_many_identical_to_insert_loop(name):
    pairs = _pairs()
    serial_tree = TREES[name]()
    for k, v in pairs:
        serial_tree.insert(k, v)
    batch_tree = TREES[name]()
    batch_tree.put_many(pairs)
    assert _accounting(batch_tree) == _accounting(serial_tree)
    batch_tree.check_invariants()
    assert list(batch_tree.items()) == list(serial_tree.items())


@pytest.mark.parametrize("name", ["betree", "betree-optimized"])
def test_put_many_preserves_sequence_numbers(name):
    # Later deletes/upserts must see exactly the sequence counter a serial
    # loop leaves behind, or message ordering would diverge downstream.
    pairs = _pairs(n=1500)
    serial_tree = TREES[name]()
    for k, v in pairs:
        serial_tree.insert(k, v)
    batch_tree = TREES[name]()
    batch_tree.put_many(pairs)
    assert batch_tree._next_seq == serial_tree._next_seq


@pytest.mark.parametrize("name", TREES)
def test_put_many_empty_and_iterator_inputs(name):
    tree = TREES[name]()
    tree.put_many([])
    tree.put_many(iter([(1, 2), (3, 4)]))
    assert tree.get(1) == 2 and tree.get(3) == 4


@pytest.mark.parametrize("name", ["cola", "cob", "cob-buffered"])
@pytest.mark.parametrize("obs_on", [False, True])
def test_batched_ops_identical_with_obs_on_off(name, obs_on, monkeypatch):
    # The PR 7 regression gate for the trees that missed the batched fast
    # path: put_many AND get_many must leave byte-identical device stats
    # to the per-op loops, with observability recording on or off.
    monkeypatch.setattr(OBS, "enabled", obs_on)
    pairs = _pairs(n=1200, universe=20_000)
    query_keys = [k for k, _ in _pairs(n=400, universe=25_000, seed=29)]

    serial_tree = TREES[name]()
    for k, v in pairs:
        serial_tree.insert(k, v)
    serial_hits = [serial_tree.get(k) for k in query_keys]

    batch_tree = TREES[name]()
    batch_tree.put_many(pairs)
    batch_hits = batch_tree.get_many(query_keys)

    assert batch_hits == serial_hits
    assert batch_tree.device.clock == serial_tree.device.clock  # exact float equality
    assert vars(batch_tree.device.stats) == vars(serial_tree.device.stats)


def test_put_many_interleaves_with_serial_ops():
    # Mixing batched and serial mutations must match an all-serial run.
    pairs = _pairs(n=2000)
    serial_tree = TREES["betree-optimized"]()
    batch_tree = TREES["betree-optimized"]()
    for k, v in pairs[:500]:
        serial_tree.insert(k, v)
        batch_tree.insert(k, v)
    for k, v in pairs[500:1500]:
        serial_tree.insert(k, v)
    batch_tree.put_many(pairs[500:1500])
    serial_tree.delete(pairs[0][0])
    batch_tree.delete(pairs[0][0])
    for k, v in pairs[1500:]:
        serial_tree.insert(k, v)
    batch_tree.put_many(pairs[1500:])
    assert _accounting(batch_tree) == _accounting(serial_tree)
    assert list(batch_tree.items()) == list(serial_tree.items())
