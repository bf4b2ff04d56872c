"""The PMA's density floors: what they guarantee, checked as oracles.

A packed-memory array that only blanks deleted slots lets a delete-heavy
phase leave long blank stretches, and a scan pays for every blank block
it crosses.  With floors, once the array has grown past ``initial_slots``
every segment of ``S`` slots holds at least ``m = floor(max_density / 4
* S)`` keys, so the ``k`` keys a scan returns span at most ``k/m + 2``
segments.  At ``E`` bytes an entry and ``B`` entries a block, that is at
most ``(k/m + 2) * S * E`` bytes, which touch at most
``(S/m) * k/B + 2S/B + 2`` blocks:

    blocks <= c * (1 + k/B)  with  c = S/m + 2 + 2S/B.

The adversary (ROADMAP item 4, Iacono et al., arXiv 1902.07928): fill,
delete all but every ``2^j``-th key, scan.  At 36cbd9c, before the floors,
``j = 3, 4, 5`` broke this bound on every scan of 146 keys or more (see
``PARENT_BLOCKS``).  E20's adversary panel runs the same helpers.

The floors must not cost the PMA its update bound either: amortised over
any mix of inserts and deletes, an operation respreads ``O(log^2 n)``
slots.  The mixes below measure 0.07-0.09 ``log2^2(max n)`` slots an
operation, and are held to a quarter.
"""

import functools
import math
import random
from unittest.mock import DEFAULT, patch

import numpy as np
import pytest

from repro.errors import TreeError
from repro.experiments.exp_cob_compare import adversary, pma_blocks_read, scan_bound
from repro.storage.ram import NullDevice
from repro.trees.cob import EMPTY, BufferedCOBTree, COBConfig, COBTree
from repro.trees.sizing import EntryFormat

FMT = EntryFormat(key_bytes=8, value_bytes=20)
SCAN_SIZES = (1, 16, 146, 1000)

#: Blocks the ``k = 1000`` scan from the first survivor read at 36cbd9c,
#: against the bound ``c * (1 + k/B)`` of this module's docstring
#: (``c = 7.55``: ``S = 16``, ``m = 3``, ``B = 146``), by ``j``.  The array
#: never shrank there (65 536 slots for every ``j``); with the floors the
#: same scans read 28, 12, 12, 12 and 14 blocks.
PARENT_BLOCKS = {1: 28, 2: 55, 3: 110, 4: 219, 5: 438}
BOUND_AT_1000 = 59.3


def _tree(cls=COBTree, initial_slots=8, *, trace=False, **fields):
    config = COBConfig(fmt=FMT, initial_slots=initial_slots, ram_bytes=1 << 24, **fields)
    return cls(NullDevice(capacity_bytes=1 << 32, trace=trace), config)


@functools.lru_cache(maxsize=None)
def _thinned(j, *, bulk):
    """Scans only charge, so the tests share one tree per ``(j, bulk)``."""
    tree, survivors = adversary("cob", j, bulk=bulk)
    tree.check_invariants()
    return tree, survivors


@pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_a_scan_after_the_adversarys_deletes_reads_O_of_1_plus_k_over_B(j, bulk):
    tree, survivors = _thinned(j, bulk=bulk)
    assert tree.pma.capacity > tree.config.initial_slots
    rng = random.Random(j)
    for k in SCAN_SIZES:
        for first in [0] + [rng.randrange(len(survivors) - k) for _ in range(5)]:
            want = survivors[first : first + k]
            got, blocks = pma_blocks_read(tree, lambda: tree.range(want[0], want[-1]))
            assert [key for key, _ in got] == want
            assert blocks <= scan_bound(tree.pma, k), (k, first, blocks)


def test_the_bound_is_what_the_parent_broke():
    # The docstring's constants, and the thinned trees' blocks against them.
    for j in PARENT_BLOCKS:
        tree, survivors = _thinned(j, bulk=False)
        assert tree.pma.segment_slots == 16
        assert scan_bound(tree.pma, 1000) == pytest.approx(BOUND_AT_1000, abs=0.05)
        _, blocks = pma_blocks_read(tree, lambda: tree.range(survivors[0], survivors[999]))
        assert blocks <= BOUND_AT_1000
        assert blocks <= PARENT_BLOCKS[j]
    assert [j for j, blocks in PARENT_BLOCKS.items() if blocks > BOUND_AT_1000] == [3, 4, 5]


@pytest.mark.parametrize("cls", [COBTree, BufferedCOBTree])
@pytest.mark.parametrize("seed", range(3))
def test_deleting_90_percent_leaves_at_most_twice_a_fresh_loads_capacity(cls, seed):
    rng = random.Random(seed)
    keys = rng.sample(range(1 << 40), 12_000)
    tree = _tree(cls, initial_slots=8, buffer_bytes=4096)
    for key in keys:
        tree.insert(key, key)
    rng.shuffle(keys)
    for key in keys[: len(keys) * 9 // 10]:
        tree.delete(key)
    base = tree if cls is COBTree else tree.base
    if cls is BufferedCOBTree:
        tree.flush_all()
    tree.check_invariants()
    survivors = sorted(keys[len(keys) * 9 // 10 :])
    assert [k for k, _ in base.items()] == survivors
    fresh = _tree(initial_slots=8)
    fresh.bulk_load([(k, k) for k in survivors])
    assert base.pma.capacity <= 2 * fresh.pma.capacity


def _grown_pma():
    tree = _tree(initial_slots=64, trace=True)
    tree.bulk_load([(k, k) for k in range(0, 4000, 2)])
    assert tree.pma.capacity > 64
    return tree


def test_a_delete_walks_only_below_its_segment_floor():
    tree = _grown_pma()
    pma, device = tree.pma, tree.device
    seg = pma.n_segments // 2
    lo, width = seg * pma.segment_slots, pma.segment_slots
    floor = pma.max_density / 4 * width
    walked = False
    while not walked:
        keys = pma.keys[lo : lo + width]
        key = int(keys[keys != EMPTY][0])
        count, rebalances, start = pma.seg_count[seg], pma.rebalances, len(device.trace)
        tree.drop_cache()  # a cold segment: the bound is the layout's
        tree.delete(key)
        # Every delete: the index path (pinned, free here), then its segment's
        # read-modify-write, exactly as before the floors.
        ios = [(io.kind, io.offset, io.nbytes) for io in device.trace[start:]]
        nbytes = max(width * pma.entry_bytes, pma.block_bytes)  # min one block
        span = (min(pma.offset + lo * pma.entry_bytes, pma.offset + pma.nbytes - nbytes), nbytes)
        assert ios[:2] == [("read", *span), ("write", *span)]
        walked = count - 1 < floor
        if walked:
            # One window respread on top, and nothing else.
            assert pma.rebalances == rebalances + 1 and len(ios) > 2
        else:
            assert pma.rebalances == rebalances and pma.seg_count[seg] == count - 1
            assert all(io[0] == "write" for io in ios[2:])  # the index repair
    assert pma.seg_count[seg] >= int(floor)
    tree.check_invariants()


def test_check_invariants_enforces_the_segment_floor():
    tree = _grown_pma()
    pma = tree.pma
    pma.check_invariants()
    # Blank one segment behind the PMA's back: the summaries agree, the
    # floor does not.
    lo = pma.segment_slots
    pma.keys[lo : lo + pma.segment_slots] = EMPTY
    pma.n -= pma.seg_count[1]
    pma.seg_count[1], pma.seg_max[1] = 0, int(EMPTY)
    with pytest.raises(TreeError, match="floor"):
        pma.check_invariants()


def test_floors_never_shrink_below_initial_slots():
    tree = _tree(initial_slots=64)
    keys = list(range(5000))
    tree.put_many([(k, k) for k in keys])
    grown = tree.pma.capacity
    with patch.object(tree.pma, "_resize", wraps=tree.pma._resize) as resize:
        for key in keys:
            tree.delete(key)
    assert grown > 64 and resize.call_count >= 2
    assert tree.pma.capacity == 64 and len(tree) == 0
    tree.check_invariants()
    assert np.all(tree.pma.keys == EMPTY)


def _moved_slots(pma, ops):
    """Slots respread while ``ops()`` runs.  Every rebalance lays its window
    out through ``_spread`` or ``_spread_list``, ``(seg_hi - seg_lo) *
    segment_slots`` slots a call; a resize spreads its whole new array."""
    moved = 0

    def tally(merged, seg_lo, seg_hi):
        nonlocal moved
        moved += (seg_hi - seg_lo) * pma.segment_slots
        return DEFAULT  # and the wrapped spread runs

    with patch.object(pma, "_spread", wraps=pma._spread, side_effect=tally), patch.object(
        pma, "_spread_list", wraps=pma._spread_list, side_effect=tally
    ):
        ops()
    return moved


def _grow_then_delete(rng):
    keys = rng.sample(range(1 << 40), 20_000)
    yield from ((True, key) for key in keys)
    rng.shuffle(keys)
    yield from ((False, key) for key in keys[:18_000])


def _half_and_half(rng):
    live = rng.sample(range(1 << 40), 10_000)
    yield from ((True, key) for key in live)
    for _ in range(20_000):
        if rng.random() < 0.5:
            live.append(rng.randrange(1 << 40))
            yield True, live[-1]
        else:
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            yield False, live.pop()


def _sawtooth(rng):
    live = []
    for _ in range(4):
        fresh = rng.sample(range(1 << 40), 4000)
        live += fresh
        yield from ((True, key) for key in fresh)
        rng.shuffle(live)
        for _ in range(3000):
            yield False, live.pop()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mix", [_grow_then_delete, _half_and_half, _sawtooth])
def test_amortised_moved_slots_per_op_is_O_of_log_squared_n(mix, seed):
    tree = _tree(initial_slots=8)
    pma = tree.pma
    n_ops = max_n = 0

    def ops():
        nonlocal n_ops, max_n
        for insert, key in mix(random.Random(seed)):
            if insert:
                tree.insert(key, key)
            else:
                tree.delete(key)
            n_ops += 1
            max_n = max(max_n, pma.n)

    moved = _moved_slots(pma, ops)
    tree.check_invariants()
    assert pma.resizes > 0  # the mix grew the array (and may have halved it)
    assert moved / n_ops <= math.log2(max_n) ** 2 / 4, (moved / n_ops, max_n)


def test_an_insert_delete_thrash_at_the_doubling_threshold_does_not_resize():
    # Grow to one key below the whole array's ceiling, then insert and
    # delete the same key: each insert fills the array to its ceiling, each
    # delete backs off; neither may double, halve or walk far.
    tree = _tree(initial_slots=8)
    pma = tree.pma
    key = 0
    while not (pma.capacity >= 4096 and pma.n == int(pma.max_density * pma.capacity) - 1):
        tree.insert(key, key)
        key += 2
    resizes, max_n = pma.resizes, pma.n + 1

    def ops():
        for _ in range(4000):
            tree.insert(1, 1)
            tree.delete(1)

    moved = _moved_slots(pma, ops)
    tree.check_invariants()
    assert pma.resizes == resizes
    assert moved / 8000 <= math.log2(max_n) ** 2 / 4
