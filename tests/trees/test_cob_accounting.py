"""Cob index accounting: a pinned IO trace, the per-height block table and
the cost oracle.

The index repair and path charging are host-speed code paths over a table
that depends on the tree height only; these tests pin what they charge.
``PINNED`` was captured at the commit *before* the table existed (per-op
``np.unique`` over ``VEBLayout.position``), so any edit that moves one IO
of the sequence below — offset, size, order or simulated time — fails here.
The oracle at the end bounds each operation's IOs from the layout alone.
"""

import hashlib
import random
from unittest.mock import patch

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
#: Both re-captured when the index came to end at the PMA segment: a get is
#: the path plus one segment read, an overwrite a read-modify-write of it.
PINNED = {
    COBTree: "355ae8c7bf287a9c3707cacee39ba85b5cb75af7da4c8798ef3abefd7489a4b4",
    BufferedCOBTree: "6e613b5062019c106e5d8c89f4c22317957780f9a289d3ab2ab318f6c509cf2d",
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
    # the deletes now respread windows, so the trace moved on purpose.  And
    # when the index came to end at the segment: shorter index paths.
    assert _digest(_drive_ranges_over_deleted_segment_runs()) == (
        "18586b4dbc4a64d8b9402679b5c280c38fd8553f6bba797ec9d856deee57b53c"
    )


def _expected_table(tree):
    return VEBLayout(tree.pma.n_segments.bit_length()).position // tree._nodes_per_block


@pytest.mark.parametrize("block_bytes", [512, 4096])
@pytest.mark.parametrize("log2_slots", range(3, 20))
def test_block_table_matches_veb_layout(log2_slots, block_bytes):
    config = COBConfig(
        fmt=FMT, block_bytes=block_bytes, ram_bytes=0, initial_slots=1 << log2_slots
    )
    tree = COBTree(NullDevice(capacity_bytes=1 << 30), config)
    table = tree._block_table()
    assert table.dtype == np.int32
    assert table.shape == (2 * tree.pma.n_segments - 1,)  # one leaf per segment
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
        # A doubling that also doubles the segment size keeps the height,
        # and trees of one shape share one table.
        assert (tree._block_table() is table) == (table.size == 2 * tree.pma.n_segments - 1)
        table = tree._block_table()
        assert table.dtype == np.int32
        assert np.array_equal(table, _expected_table(tree))
    assert doublings >= 7
    tree.check_invariants()


# -- the cost oracle ---------------------------------------------------------
#
# What one operation may cost, from the layout alone: the vEB blocks of the
# segment heap (``_expected_table``), the PMA's segments and the window a
# rebalance rewrites.  Bounds per operation, not a pin.


def _loaded(cls, ram_bytes=0, n=3000):
    """A cob grown by ``n`` scalar inserts on a counting device (flushed, for
    the buffered variant); ``(tree, base, device, sorted keys)``."""
    config = COBConfig(
        fmt=FMT, block_bytes=1024, ram_bytes=ram_bytes, initial_slots=1024,
        buffer_bytes=2048,
    )
    device = NullDevice(capacity_bytes=1 << 34, trace=True)
    tree = cls(device, config)
    keys = random.Random(3).sample(range(1, UNIVERSE), n)
    for key in keys:
        tree.insert(key, key)
    if cls is BufferedCOBTree:
        tree.flush_all()
    base = tree if cls is COBTree else tree.base
    assert base.pma.resizes >= 2
    return tree, base, device, sorted(keys)


def _probes(keys):
    """Present keys, absent keys inside the key range (below the minimum
    too), and keys above the maximum: ``(key, above_max)`` pairs."""
    rng = random.Random(4)
    present = set(keys)
    inside = [k for k in (rng.randrange(keys[0], keys[-1]) for _ in range(200))
              if k not in present]
    return (
        [(k, False) for k in rng.sample(keys, 200) + [keys[0], keys[-1]]]
        + [(k, False) for k in inside + [keys[0] - 1, KEY_MIN]]
        + [(k, True) for k in (keys[-1] + 1, KEY_MAX)]
    )


def _segment_of_successor(pma, key):
    """The segment a search for ``key`` ends at, by linear scan: that of the
    smallest present key ``>= key``, else the last."""
    at = np.flatnonzero((pma.keys != EMPTY) & (pma.keys >= key))
    return (int(at[0]) if at.size else pma.capacity - 1) // pma.segment_slots


def _path_blocks(tree, seg):
    """Distinct vEB blocks on the root-to-leaf path to segment ``seg``."""
    leaf = tree.pma.n_segments - 1 + seg
    path = [((leaf + 1) >> up) - 1 for up in range(tree.pma.n_segments.bit_length())]
    return len(set(_expected_table(tree)[path].tolist()))


def _ios(device, op):
    reads, writes = device.stats.reads, device.stats.writes
    op()
    return device.stats.reads - reads, device.stats.writes - writes


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
def test_a_get_is_one_read_when_the_segment_index_is_pinned(cls):
    # Exactly the segment heap's bytes: an index one level deeper (a leaf
    # per slot) would leave levels unpinned and charge them here.
    _, base, _, _ = _loaded(cls)
    fits = (2 * base.pma.n_segments - 1) * FMT.pivot_bytes
    tree, base, device, keys = _loaded(cls, ram_bytes=fits)
    assert base._pinned_levels == base._height
    for key, above_max in _probes(keys):
        assert _ios(device, lambda: tree.get(key)) == (0 if above_max else 1, 0), key


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
def test_an_unpinned_get_reads_its_path_and_one_segment(cls):
    tree, base, device, keys = _loaded(cls)
    for key, above_max in _probes(keys):
        path = _path_blocks(base, _segment_of_successor(base.pma, key))
        reads, writes = _ios(device, lambda: tree.get(key))
        assert writes == 0 and reads <= path + (0 if above_max else 1), key


def _repair_runs(tree, lo, hi):
    """Runs of adjacent vEB blocks in the cone above the segments of slots
    ``[lo, hi)``, all unpinned at ``ram_bytes=0``: the most writes an index
    repair may issue."""
    table = _expected_table(tree)
    first = tree.pma.n_segments - 1
    a, b = first + lo // tree.pma.segment_slots, first + hi // tree.pma.segment_slots
    blocks = set()
    while True:
        blocks.update(table[a:b].tolist())
        if a == 0:
            break
        a, b = (a - 1) >> 1, ((b - 2) >> 1) + 1
    ordered = sorted(blocks)
    return 1 + sum(1 for x, y in zip(ordered, ordered[1:]) if y != x + 1)


def test_an_insert_reads_its_path_and_window_and_writes_window_and_repair():
    tree, _, device, keys = _loaded(COBTree)
    rng = random.Random(5)
    present = set(keys)
    windows = []
    pma_insert = tree.pma.insert

    def insert(*args):
        windows.append(pma_insert(*args))
        return windows[-1]

    checked = 0
    for key in (rng.randrange(1, UNIVERSE) for _ in range(400)):
        if key in present:
            continue
        present.add(key)
        path = _path_blocks(tree, _segment_of_successor(tree.pma, key))
        with patch.object(tree.pma, "insert", insert):
            reads, writes = _ios(device, lambda: tree.insert(key, key))
        lo, hi, resized = windows[-1]
        if resized:
            continue
        checked += 1
        assert reads <= path + 1, key
        assert writes <= 1 + _repair_runs(tree, lo, hi), key
    assert checked > 300
    # An overwrite: the path, then a read-modify-write of the segment.
    for key in rng.sample(keys, 100):
        path = _path_blocks(tree, _segment_of_successor(tree.pma, key))
        reads, writes = _ios(device, lambda: tree.insert(key, -key))
        assert reads <= path + 1 and writes == 1, key
    tree.check_invariants()


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
def test_a_get_reads_its_segment_as_charge_span_prices_it(cls):
    tree, base, device, keys = _loaded(cls, ram_bytes=1 << 20)
    pma = base.pma
    width = pma.segment_slots
    assert width * pma.entry_bytes < base.config.block_bytes  # the span is clamped
    for key, above_max in _probes(keys):
        if above_max:
            continue
        tree.get(key)
        got = device.trace[-1]
        lo = _segment_of_successor(pma, key) * width
        pma._charge_span(lo, lo + width, read=True, write=False)
        want = device.trace[-1]
        assert (got.kind, got.offset, got.nbytes) == (want.kind, want.offset, want.nbytes)
