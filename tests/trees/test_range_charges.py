"""What a scan charges, pinned: LSM, COLA and B-tree ranges and ``items()``.

A range query's host code (how the overlapping runs are merged, how a leaf
is copied out) is free to change; the device reads it issues are not — on
the HDD their *order* is priced too.  ``PINNED`` was captured at the commit
*before* the scans moved onto ``merge_runs`` (the ``test_cob_accounting.py``
discipline), so an edit that moves one read of any scan below — offset,
size or order — fails here.  The B-tree pin was re-captured three times,
each on a declared change of simulated output: its scan reads each level in
disk order, one IO per run of adjacent nodes (``tests/trees/test_btree.py``
``TestScanIO`` holds that schedule's oracles); the dirty evictions its
scans trigger write one IO per run of adjacent dirty nodes
(``tests/storage/test_cache.py::TestWriteRuns``); and a level's misses are
one planned ``read_set``, whose runs read through gaps cheaper to transfer
than to seek over, with every admission (and the write-backs its evictions
trigger) after the level's reads.
"""

import hashlib
import random

import pytest

from repro.experiments.devices import default_hdd
from repro.trees import build
from repro.trees.merge import TOMBSTONE
from repro.trees.sizing import KEY_MAX, KEY_MIN

N_OPS = 2_500
UNIVERSE = 1 << 20

#: Small runs, levels and nodes: a few thousand ops leave several LSM levels,
#: COLA levels on the device and a B-tree far larger than its cache.
BUILD = {
    "lsm": dict(
        sstable_bytes=4096, memtable_bytes=2048, level1_bytes=8192,
        block_bytes=512, growth_factor=4, l0_trigger=2,
    ),
    "cola": dict(node_bytes=512, cache_bytes=2048),
    "btree": dict(node_bytes=1024, cache_bytes=8192),
}

#: sha256 over the ``(kind, offset, nbytes)`` IOs of the five scans (their
#: write-backs included).
PINNED = {
    "lsm": "874cd761f4c986be5cfee1dbeb887c6749069228c9c0a403e754801438cd94fa",
    "cola": "42281ff499301818ffaf77cb7a22aae42f5ca16eea01574a564f0f02bc62db99",
    "btree": "7919a5d8dd0acb804f4127cd02af18bd88a42b1009d7ceac3963defe8bae3bf8",
}


def _drive(kind):
    """A seeded insert/overwrite/delete mix; ``(tree, device, model)``."""
    device = default_hdd(seed=7, trace=True)
    tree = build(kind, device, **BUILD[kind])
    rng = random.Random(19)
    model: dict[int, int] = {}
    live: list[int] = []
    for serial in range(N_OPS):
        roll = rng.random()
        if roll < 0.6 or not live:
            key = rng.randrange(UNIVERSE)
            if key not in model:
                live.append(key)
            tree.insert(key, serial)
            model[key] = serial
        elif roll < 0.8:
            key = rng.choice(live)
            tree.insert(key, serial)
            model[key] = serial
        else:
            key = live.pop(rng.randrange(len(live)))
            tree.delete(key)
            del model[key]
    # The newest writes shadow old ones: overwrites and deletes of keys that
    # were written long ago (in the LSM they sit in the memtable over runs).
    old = sorted(model)[:: len(model) // 6][:6]
    for key in old[:3]:
        tree.insert(key, -key)
        model[key] = -key
    for key in old[3:]:
        tree.delete(key)
        del model[key]
    return tree, device, model


def _scans(model) -> dict[str, tuple[int, int]]:
    keys = sorted(model)
    n = len(keys)
    gap = max(range(n - 1), key=lambda i: keys[i + 1] - keys[i])
    return {
        "full": (KEY_MIN, KEY_MAX),
        "narrow": (keys[n // 2], keys[n // 2 + 3]),        # inside one run
        "wide": (keys[n // 4], keys[3 * n // 4]),          # straddles runs
        "empty": (keys[gap] + 1, keys[gap + 1] - 1),       # between two keys
    }


def _charged(tree, device, scan):
    """``(result, [(kind, offset, nbytes), ...])`` of one scan.  A block
    cache (the COLA's) is emptied first, so the pin is the layout's reads and
    not what an earlier scan left cached; the B-tree's pin is of warm scans."""
    if tree.block_cache is not None:
        tree.drop_cache()
    start = len(device.trace)
    result = scan()
    return result, [(r.kind, r.offset, r.nbytes) for r in device.trace[start:]]


def scan_digest(kind) -> str:
    """Run the five scans against the dict model; sha256 of what they read."""
    tree, device, model = _drive(kind)
    h = hashlib.sha256()
    for name, (lo, hi) in _scans(model).items():
        got, ios = _charged(tree, device, lambda: tree.range(lo, hi))
        assert got == sorted((k, v) for k, v in model.items() if lo <= k <= hi), name
        assert ios or name == "empty"
        h.update(repr((name, ios)).encode())
    got, ios = _charged(tree, device, lambda: list(tree.items()))
    assert got == sorted(model.items())
    h.update(repr(("items", ios)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(BUILD))
def test_scan_reads_are_pinned(kind):
    assert scan_digest(kind) == PINNED[kind]


@pytest.mark.parametrize("kind", sorted(BUILD))
def test_items_charges_at_the_call(kind):
    tree, device, model = _drive(kind)
    before = device.clock
    pairs = tree.items()
    charged = device.clock
    assert charged > before
    assert list(pairs) == sorted(model.items())
    assert device.clock == charged


def test_the_lsm_sequence_shadows_and_straddles():
    """The pinned sequence covers what a merge can get wrong."""
    tree, _, model = _drive("lsm")
    in_runs: dict[int, list] = {}
    for level in tree.levels:
        for table in level:
            for key, value in zip(table.keys, table.values):
                in_runs.setdefault(key, []).append(value)
    assert len(tree.levels) >= 3
    assert any(TOMBSTONE in values for values in in_runs.values())
    shadowed = [k for k, v in tree.memtable.items() if v is not TOMBSTONE and k in in_runs]
    deleted = [
        k for k, v in tree.memtable.items()
        if v is TOMBSTONE and any(old is not TOMBSTONE for old in in_runs.get(k, ()))
    ]
    assert shadowed and deleted
    scans = _scans(model)
    deepest = tree.levels[-1]
    assert sum(t.overlaps(*scans["narrow"]) for t in deepest) == 1
    assert sum(t.overlaps(*scans["wide"]) for t in deepest) > 1
    # A run can overlap the empty range's bounds yet hold nothing inside it.
    assert any(t.overlaps(*scans["empty"]) for level in tree.levels for t in level)
