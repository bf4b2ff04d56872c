"""Cob index accounting: a pinned IO trace and the per-height block table.

The index repair and path charging are host-speed code paths over a table
that depends on the tree height only; these tests pin what they charge.
``PINNED`` was captured at the commit *before* the table existed (per-op
``np.unique`` over ``VEBLayout.position``), so any edit that moves one IO
of the sequence below — offset, size, order or simulated time — fails here.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.experiments.devices import default_hdd
from repro.storage.ram import NullDevice
from repro.trees.btree.veb import VEBLayout
from repro.trees.cob import EMPTY, BufferedCOBTree, COBConfig, COBTree
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat

FMT = EntryFormat(key_bytes=8, value_bytes=20)
N_OPS = 3_000
UNIVERSE = 1 << 40

#: sha256 over (device.clock, stats, trace) after ``_drive``.
PINNED = {
    COBTree: "b04a3d9e3621411273bc507a6cbad1cd1719f933a7ea5b9cd45e812746ddc2bc",
    # Re-captured when a flush became one window for puts and tombstones
    # (the child of 36cbd9c): its deletes no longer leave as scalar ones.
    BufferedCOBTree: "b492f783a361702721c210232072c60b7342eae8494324dac386f03175b4cd19",
}


def _make(cls):
    device = default_hdd(seed=7, trace=True)
    # A small block and RAM budget leave most of the index unpinned, so the
    # sequence prices index blocks on nearly every operation; small buffer
    # segments make the buffered variant flush (``put_bulk``) often.
    config = COBConfig(
        fmt=FMT, block_bytes=1024, ram_bytes=512, initial_slots=1024, buffer_bytes=2048
    )
    return cls(device, config), device


def _drive(cls, each_step=None):
    """~3 000 seeded mutations and queries; returns ``(tree, device, model)``."""
    tree, device = _make(cls)
    base = tree if cls is COBTree else tree.base
    rng = random.Random(12)
    model: dict[int, int] = {}
    live: list[int] = []

    def put(key, value):
        if key not in model:
            live.append(key)
        model[key] = value

    for serial in range(N_OPS):
        roll = rng.random()
        if roll < 0.50 or not live:
            key = rng.randrange(UNIVERSE)
            tree.insert(key, serial)
            put(key, serial)
        elif roll < 0.65:
            key = rng.choice(live)
            tree.insert(key, serial)
            put(key, serial)
        elif roll < 0.75:
            key = live.pop(rng.randrange(len(live)))
            tree.delete(key)
            del model[key]
        elif roll < 0.80:
            # A sorted batch mixing fresh keys with overwrites: put_bulk on
            # the plain tree, put_many (its buffered front door) otherwise.
            fresh = [rng.randrange(UNIVERSE) for _ in range(rng.randrange(4, 40))]
            stale = rng.sample(live, min(len(live), rng.randrange(0, 6)))
            batch = [(k, serial) for k in sorted(set(fresh + stale))]
            if cls is COBTree:
                tree.put_bulk(batch)
            else:
                tree.put_many(batch)
            for key, value in batch:
                put(key, value)
        elif roll < 0.95:
            key = rng.choice(live) if rng.random() < 0.8 else rng.randrange(UNIVERSE)
            assert tree.get(key) == model.get(key)
        else:
            lo = rng.randrange(UNIVERSE)
            hi = lo + (UNIVERSE >> 6)
            want = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
            assert tree.range(lo, hi) == want
        if each_step is not None:
            each_step(tree)
    assert base.pma.resizes >= 2, "the sequence must cross two capacity doublings"
    return tree, device, model


def _digest(device) -> str:
    h = hashlib.sha256()
    h.update(repr(device.clock).encode())
    h.update(repr(sorted(vars(device.stats).items())).encode())
    for r in device.trace:
        h.update(repr((r.kind, r.offset, r.nbytes, r.start, r.end)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
def test_io_trace_is_pinned(cls):
    tree, device, model = _drive(cls)
    assert list(tree.items()) == sorted(model.items())
    assert _digest(device) == PINNED[cls]


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
def test_invariants_hold_at_every_step(cls):
    _drive(cls, each_step=lambda tree: tree.check_invariants())


def _drive_ranges_over_deleted_segment_runs():
    """Ranges over a tree after deleting every key of runs of adjacent
    segments — the pattern that, before the PMA had density floors, left
    blank stretches in the index's leaf level.  Now a segment that drops
    below its floor respreads its window, so no stretch stays blank."""
    tree, device = _make(COBTree)
    rng = random.Random(21)
    model = {key: serial for serial, key in enumerate(rng.sample(range(UNIVERSE), 2500))}
    for key, value in model.items():
        tree.insert(key, value)
    pma = tree.pma
    width = pma.segment_slots
    runs = []
    for first, count in ((0, 2), (3, 5), (40, 17), (pma.n_segments - 6, 6)):
        doomed = pma.keys[first * width : (first + count) * width]
        runs.append(doomed[doomed != EMPTY].tolist())
    rebalances = pma.rebalances
    holes = []
    for doomed in runs:
        for key in doomed:
            tree.delete(key)
            del model[key]
        holes.append((doomed[0], doomed[-1]))
    assert pma.rebalances > rebalances, "the floors must fire"
    assert min(pma.seg_count) > 0
    tree.check_invariants()
    probes = [(KEY_MIN, KEY_MAX), (KEY_MIN, holes[0][0]), (holes[-1][0], KEY_MAX)]
    for hole_lo, hole_hi in holes:
        reach = UNIVERSE >> 7
        probes += [
            (hole_lo, hole_hi),  # wholly inside a hole
            (hole_lo - reach, hole_hi + reach),  # across it
            (hole_lo + 1, hole_hi + reach),  # from inside, out to the right
            (hole_lo - reach, hole_hi - 1),  # from the left, ending inside
        ]
    for lo, hi in probes:
        want = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert tree.range(lo, hi) == want
    return device


def test_ranges_over_deleted_segment_runs_charge_the_respread_array():
    # Re-captured when the PMA got density floors (the child of 36cbd9c):
    # the deletes now respread windows, so the trace moved on purpose.
    assert _digest(_drive_ranges_over_deleted_segment_runs()) == (
        "f134b69a9a3a9c9f8b533c862f3e17751ad339d6fad0fd5f28c690331fdc4433"
    )


def _expected_table(tree):
    return VEBLayout(tree.pma.capacity.bit_length()).position // tree._nodes_per_block


@pytest.mark.parametrize("block_bytes", [512, 4096])
@pytest.mark.parametrize("height", range(4, 16))
def test_block_table_matches_veb_layout(height, block_bytes):
    config = COBConfig(
        fmt=FMT, block_bytes=block_bytes, ram_bytes=0, initial_slots=1 << (height - 1)
    )
    tree = COBTree(NullDevice(capacity_bytes=1 << 30), config)
    table = tree._block_table()
    assert table.dtype == np.int32
    assert table.shape == (2 * tree.pma.capacity - 1,)
    assert np.array_equal(table, _expected_table(tree))
    assert tree._block_table() is table  # built once per height


def test_block_table_is_shared_by_trees_of_one_shape():
    def tree(block_bytes):
        config = COBConfig(fmt=FMT, block_bytes=block_bytes, ram_bytes=0, initial_slots=256)
        return COBTree(NullDevice(capacity_bytes=1 << 30), config)

    first, second, other = tree(512), tree(512), tree(4096)
    table = first._block_table()
    assert second._block_table() is table
    assert other._block_table() is not table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


@pytest.mark.parametrize("block_bytes", [512, 4096])
def test_block_table_is_rebuilt_on_doubling(block_bytes):
    config = COBConfig(fmt=FMT, block_bytes=block_bytes, ram_bytes=0, initial_slots=8)
    tree = COBTree(NullDevice(capacity_bytes=1 << 30), config)
    table = tree._block_table()
    doublings = 0
    for key in random.Random(5).sample(range(1 << 30), 1500):
        before = tree.pma.resizes
        tree.insert(key, 0)
        if tree.pma.resizes == before:
            assert tree._block_table() is table
            continue
        doublings += 1
        assert tree._block_table() is not table
        table = tree._block_table()
        assert table.dtype == np.int32
        assert np.array_equal(table, _expected_table(tree))
    assert doublings >= 7
    tree.check_invariants()
