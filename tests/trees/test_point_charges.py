"""What a point lookup charges, pinned — and the Python frames it costs.

A ``get``'s host code (how many bisects, which helper does the arithmetic)
is free to change; the device reads and cache touches it issues are not.
``PINNED`` was captured at ``705c201``, the commit *before* the five
non-B-tree read paths lost their per-get scaffolding (the
``test_range_charges.py`` / ``test_cob_accounting.py`` discipline), so an
edit that moves one read of the get stream below — offset, size or order —
or one statistic of the run fails here.  The ``btree`` and ``betree-naive``
pins were re-captured once more, on the declared change that made a dirty
write-back one write per run of adjacent dirty nodes (their gets evict
dirty nodes; the other kinds' pins did not move), and the ``betree`` and
``betree-own-pivots`` pins on the one that made their component reads
cache hits, and again on the one that capped a segment at B/F, made a
flush write only what it changed and an insert append to its root
segment without reading it back.  Those two were captured on hand-built
trees (``BeTree``, and ``OptimizedBeTree`` without pivots in the parent);
they now build through the registry's ``layout`` field.  The ``cola`` pin
was re-captured, and the ``-cached`` cases added, on the declared change
that made the COLA and the cob kinds cache blocks in the RAM they do not
pin; ``ZERO_SPARE`` keeps their pins from before it, reproduced with no
block to cache.

``CALLS_PER_GET`` is the other half: a deterministic host budget, no wall
time.  A re-grown hook layer fails it in tier-1 instead of waiting for a
perf run.
"""

import hashlib
import random
import sys

import pytest

from repro.experiments.devices import default_hdd
from repro.storage.ram import NullDevice
from repro.trees import KINDS, build
from repro.trees.merge import TOMBSTONE
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat

N_OPS = 2_500
UNIVERSE = 1 << 20

#: Small runs, levels, nodes and pinned tops: a few thousand ops leave every
#: kind several levels deep with most of the structure on the device.
BUILD = {
    "btree": dict(node_bytes=1024, cache_bytes=8192),
    "betree": dict(node_bytes=4096, cache_bytes=16384, fanout=4),
    "lsm": dict(
        sstable_bytes=4096, memtable_bytes=2048, level1_bytes=8192,
        block_bytes=512, growth_factor=4, l0_trigger=2,
    ),
    "cola": dict(node_bytes=512, cache_bytes=2048),
    # 256 B pins four levels of the cob's segment index, so paths run through
    # the four below it, some inside one vEB block and some across two.
    "cob": dict(node_bytes=512, cache_bytes=256, initial_slots=1024),
    "cob-buffered": dict(
        node_bytes=1024, cache_bytes=512, initial_slots=1024, buffer_bytes=2048, fanout=4,
        rebuild_factor=2.0,
    ),
}
assert set(BUILD) == set(KINDS)


#: A budget that pins the cob's whole segment index (eight levels after the
#: drive) and leaves about 60 KiB to its block cache: ``BUILD``'s cob budgets
#: leave their index tops less than a block.
CACHED = 64 << 10

#: Every registered kind, the two other Bε-tree layouts E9 ablates (the
#: registry's default ``betree`` is its Theorem 9 arm), and the cob kinds
#: with room to cache blocks.
CASES = {
    **{kind: (lambda device, kind=kind: build(kind, device, **BUILD[kind])) for kind in KINDS},
    "betree-naive": lambda device: build("betree", device, layout="whole-node", **BUILD["betree"]),
    "betree-own-pivots": lambda device: build(
        "betree", device, layout="segments", **BUILD["betree"]
    ),
    **{
        f"{kind}-cached": (
            lambda device, kind=kind: build(kind, device, **{**BUILD[kind], "cache_bytes": CACHED})
        )
        for kind in ("cob", "cob-buffered")
    },
}

#: sha256 over the get stream's ``(kind, offset, nbytes)`` reads, then the
#: device clock, the device stats and (stacked kinds) the cache stats.
PINNED = {
    # Both re-captured when the Theorem 9 tree's reads came to go through
    # ``BufferCache.get``: a resident component now counts a hit and turns
    # MRU, so the LRU keeps what the stream reads (the drive before the
    # gets charges the same IOs as before).  Re-captured again, with
    # ``betree-own-pivots``, when the segment cap became B/F (one slot per
    # child, grain-rounded, holding a full segment and the child's pivots)
    # and a flush came to write only what it changed, and an insert to
    # append to its root segment without reading it back: the drive leaves
    # other segments behind, at other offsets.
    "betree": "780eabc0113e78d7c6a2c5a436c8d8f179f0f27ee27ebc20962c44678825a542",
    # Captured at ``0c42945``; every other pin at ``705c201``.  Re-captured,
    # with ``btree``'s, when a dirty write-back became one write per run of
    # adjacent dirty nodes: the stream's evictions write fewer, larger IOs,
    # which moves the HDD's head and clock under the same reads.
    "betree-naive": "77251c442d2954d3fb09bfea4a89693f3519148936c09e5ed1173c70cba7eef2",
    "betree-own-pivots": "8877449aaee5b2cc1a6d0b14e37200dd1788713b0f892defb3fa3751b2d4a156",
    "btree": "70f51bfbc8e63ffb9fe081a2b395bdc8d9faf65a8eca4302b15e6e4ff3e29337",
    # Both re-captured when the PMA got density floors and a buffered flush
    # became one window (the child of 36cbd9c): one delete of the ``cob``
    # sequence drops its segment below the floor and respreads a window, and
    # ``cob-buffered``'s tombstones leave their flushes in the bulk window.
    # Re-captured again when the cob's index came to end at the segment (a
    # get is the path plus one segment read), with ``cob``'s pinned top cut
    # from 2048 to 256 bytes to keep its paths several levels deep.
    # ``BUILD`` leaves both cob kinds less than a block beside their pinned
    # index tops, so their pins did not move when the RAM they do not pin
    # came to cache blocks; the ``-cached`` cases pin that cache, and the
    # COLA's pin moved with it (``ZERO_SPARE`` below holds the old one).
    "cob": "ec9b67588e7627f01e81e6f42b6a56037c4c619de7b1710e1afed63d4a910035",
    "cob-buffered": "65f1705ca770deb82da22238b4b136b74d659df058e339ab780edeb7e2353752",
    "cob-buffered-cached": "7c0edbe82ed2a40fd7e94732278a67a413f8c2d3e26c293f11f2ee5b809ce37d",
    "cob-cached": "151757cea8f3f4557cebd8947b04844ac99dbd01abd341539d73f92bcc531cd9",
    "cola": "1f88572abfd898619cd71beb91aac36b462bd46bababd0a40296ab86688b0de4",
    "lsm": "2137c457cf9cb3bcf9bc71e56cf135e31cd66cce23e4b6b0e6c9f9a379e67b59",
}


def _drive(case, make=None):
    """A seeded insert/overwrite/delete mix on ``CASES[case]`` (or on the
    tree ``make(device)`` builds); ``(tree, device, model, deleted)``."""
    device = default_hdd(seed=7, trace=True)
    tree = (make or CASES[case])(device)
    rng = random.Random(19)
    model: dict[int, int] = {}
    live: list[int] = []
    deleted: list[int] = []
    for serial in range(N_OPS):
        roll = rng.random()
        if roll < 0.6 or not live:
            key = rng.randrange(1, UNIVERSE)
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
            deleted.append(key)
    # The newest writes shadow old ones and are still in the memtable, the
    # root's Bε buffer, the top COLA levels or a cob bucket when the gets run.
    # Overwrites and deletes alternate, so whatever suffix of them a flush
    # leaves behind holds both.
    for i, key in enumerate(sorted(model)[:: len(model) // 16][:16]):
        if i % 2:
            tree.delete(key)
            del model[key]
            deleted.append(key)
        else:
            tree.insert(key, -key)
            model[key] = -key
    return tree, device, model, [key for key in deleted if key not in model]


def _stream(model, deleted) -> list[int]:
    """Present, absent-inside, below, above, deleted and newest keys, shuffled,
    then a repeat of its head (so a cached kind also answers from its cache)."""
    rng = random.Random(23)
    keys = sorted(model)
    lo, hi = keys[0], keys[-1]
    gone = set(deleted)
    absent = [
        k for k in (rng.randrange(lo + 1, hi) for _ in range(80))
        if k not in model and k not in gone
    ][:40]
    stream = (
        rng.sample(keys, 120)
        + absent
        + [lo - 1, lo - 1000, 0, KEY_MIN]
        + [hi + 1, hi + 1000, 1 << 40, KEY_MAX]
        + rng.sample(deleted, 30) + deleted[-8:]
        + [k for k in keys if model[k] < 0]      # the eight late overwrites
        + [k for k in keys if model[k] >= N_OPS - 40]
    )
    rng.shuffle(stream)
    return stream + stream[:50]


def _cache_stats(tree):
    return sorted(vars(tree.storage.cache.stats).items()) if tree.storage is not None else None


def get_digest(case, make=None) -> str:
    """Run the get stream against the dict model; sha256 of what it charged."""
    tree, device, model, deleted = _drive(case, make)
    start = len(device.trace)
    for key in _stream(model, deleted):
        assert tree.get(key) == model.get(key), (case, key)
    tree.check_invariants()
    h = hashlib.sha256()
    reads = [(r.kind, r.offset, r.nbytes) for r in device.trace[start:]]
    assert reads
    h.update(repr(reads).encode())
    h.update(repr(device.clock).encode())
    h.update(repr(sorted(vars(device.stats).items())).encode())
    h.update(repr(_cache_stats(tree)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_get_reads_are_pinned(case):
    assert get_digest(case) == PINNED[case]


#: ``PINNED`` of the three kinds that cache blocks in the RAM they do not
#: pin, as it stood before they did: with no block to cache, a get charges
#: exactly what it charged then, so the cache is all that moved.
ZERO_SPARE = {
    "cob": "ec9b67588e7627f01e81e6f42b6a56037c4c619de7b1710e1afed63d4a910035",
    "cob-buffered": "65f1705ca770deb82da22238b4b136b74d659df058e339ab780edeb7e2353752",
    "cola": "2906ec0d055c306c2359899da581040f21f688201c259cb45346616c88aec294",
}


def _zero_spare(kind):
    """``kind`` at ``BUILD`` with no block to cache: a cob kind's budget is its
    pinned index top.  The COLA pins levels of up to a quarter of its budget
    each, so no budget leaves it nothing; its cache is emptied for life
    instead (what it pins never changes)."""

    def make(device):
        if kind == "cola":
            tree = build(kind, device, **BUILD[kind])
            tree.block_cache.resize(0)
        else:
            pinned = build(kind, NullDevice(), **BUILD[kind]).pinned_bytes
            tree = build(kind, device, **{**BUILD[kind], "cache_bytes": pinned})
            assert tree.pinned_bytes == tree.config.ram_bytes
        return tree

    return make


@pytest.mark.parametrize("kind", sorted(ZERO_SPARE))
def test_with_no_block_to_cache_a_get_charges_what_it_did_before_the_cache(kind):
    assert get_digest(kind, _zero_spare(kind)) == ZERO_SPARE[kind]


def test_the_stream_reaches_what_a_lookup_can_get_wrong():
    """Newest versions and tombstones above the leaves, on every buffering kind."""
    lsm, _, model, deleted = _drive("lsm")
    stream = set(_stream(model, deleted))
    assert len(lsm.levels) >= 3
    assert any(k in stream and v is TOMBSTONE for k, v in lsm.memtable.items())
    assert any(k in stream and v is not TOMBSTONE for k, v in lsm.memtable.items())
    in_runs = {k for level in lsm.levels for t in level
               for k, v in zip(t.keys, t.values) if v is TOMBSTONE}
    assert in_runs & stream

    cola, _, _, _ = _drive("cola")
    on_device = [lvl for lvl in cola.levels if lvl is not None and lvl.offset >= 0]
    in_ram = [lvl for lvl in cola.levels if lvl is not None and lvl.offset < 0]
    assert len(on_device) >= 2 and in_ram
    assert any(TOMBSTONE in lvl.values for lvl in on_device + in_ram)

    betree, _, _, _ = _drive("betree")
    root = betree._nodes[betree.root_id]
    assert not root.is_leaf and not betree._nodes[root.children[0]].is_leaf
    buffered = {k for node in betree._nodes.values() if not node.is_leaf
                for seg in node.segments for k in seg.msgs}
    assert len(buffered & stream) >= 6

    # Unpinned index paths inside one vEB block, and paths across several.
    cob, _, model, deleted = _drive("cob")
    unpinned = cob._height - cob._pinned_levels
    blocks_on_path = set()
    for key in _stream(model, deleted):
        node = cob._first_seg + cob._search_slot(key) // cob.pma.segment_slots
        path = [(node + 1 >> up) - 1 for up in range(unpinned)]
        blocks_on_path.add(len(set(cob._block_table()[path].tolist())))
    assert unpinned >= 4 and 1 in blocks_on_path and max(blocks_on_path) >= 2

    buffered_cob, _, _, _ = _drive("cob-buffered")
    assert buffered_cob.splitters
    pending = {k: v for b in buffered_cob.buckets for k, v in b.messages.items()}
    assert any(k in stream and v is TOMBSTONE for k, v in pending.items())
    assert any(k in stream and v is not TOMBSTONE for k, v in pending.items())


# -- the frames a get costs ---------------------------------------------------

#: The ``tree_read`` workload's trees (``benchmarks/perf/perfbench/trees.py``)
#: at ``--scale 0.05``: 10 000 loaded entries, 8 B keys and 20 B values.
SMOKE_ENTRIES = 10_000
SMOKE_FMT = EntryFormat(key_bytes=8, value_bytes=20)
SMOKE_BUILD = {
    "btree": dict(node_bytes=16 << 10, cache_bytes=256 << 10),
    "betree": dict(node_bytes=64 << 10, cache_bytes=256 << 10, fanout=16),
    "lsm": dict(
        sstable_bytes=64 << 10, memtable_bytes=64 << 10, level1_bytes=256 << 10,
        block_bytes=4096,
    ),
    "cola": dict(node_bytes=4096, cache_bytes=256 << 10),
    "cob": dict(node_bytes=4096, cache_bytes=256 << 10),
    "cob-buffered": dict(node_bytes=4096, cache_bytes=256 << 10),
}

#: Ceiling on Python-level ``call`` events per ``get`` (mean over 200 gets):
#: the count measured after the change plus less than one call of slack, so
#: one more frame per get anywhere on the path fails.  Each count includes
#: ``KVTree.get`` -> the kind's ``_lookup``, the device's ``read`` ->
#: ``_service`` (two per IO; ``_check`` only names a bad IO) and, on the
#: stacked kinds, the cache's miss path.
CALLS_PER_GET = {
    "btree": 11.5,         # 9.375 since a cache hit turns MRU inline; 11.375 at 705c201
    "betree": 8.5,         # 7.65 since its reads go through get; 20.24 at 705c201
    "lsm": 5.25,           # 5.0 here, 15.14 at 705c201
    "cola": 4.75,          # 4.385 here, 10.85 at 705c201
    "cob": 6.25,           # 6.0 since a get is one segment read; 10.065 before, 11.03 at 705c201
    "cob-buffered": 7.25,  # 7.0 since a get is one segment read; 11.065 before, 14.03 at 705c201
}


def _calls_per_get(kind, n_gets=200) -> float:
    rng = random.Random(31)
    keys = sorted(rng.sample(range(1 << 31), SMOKE_ENTRIES))
    tree = build(kind, default_hdd(seed=7), fmt=SMOKE_FMT, **SMOKE_BUILD[kind])
    tree.load([(k, k) for k in keys])
    tree.drop_cache()
    # 5 % absent, as in the workload.
    stream = [
        rng.randrange(1 << 31) if rng.random() < 0.05 else rng.choice(keys)
        for _ in range(n_gets)
    ]
    get = tree.get
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for key in stream:
            get(key)
    finally:
        sys.setprofile(None)
    return calls / n_gets


@pytest.mark.parametrize("kind", KINDS)
def test_a_get_stays_inside_its_frame_budget(kind):
    assert _calls_per_get(kind) <= CALLS_PER_GET[kind]
