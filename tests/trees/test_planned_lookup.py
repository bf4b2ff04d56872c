"""What a planned ``lookup_many`` reads.

``lsm``, ``cola``, ``cob`` and ``cob-buffered`` answer a batch with one
``BlockDevice.read_set`` per dependent step, the Bε-tree with one
``BufferCache.get_many`` (itself one ``read_set`` of its misses) per level
(docs/architecture.md, "Batched IO").  Their answers are a ``get`` loop's
(``test_conformance.py``, the lockstep machine); these oracles pin what
they read, on a traced free device: nothing a ``get`` loop would not read,
in fewer IOs, a bucket once, nothing older or deeper than the step that
answered a key, and no LSM run past the LSM's RAM.
"""

import random

import pytest

from repro import storage
from repro.trees import build
from tests.trees import test_lockstep as lockstep

PLANNED = ("lsm", "betree", "cola", "cob", "cob-buffered")


def traced(kind):
    device = storage.build("null", trace=True)
    if kind == "betree":
        # A cache that holds the whole tree: the batch and the loop then see
        # the same residency, so "a subset of the loop's blocks" is exact.
        return build("betree", device, node_bytes=2048, fanout=4, cache_bytes=64 << 20)
    return lockstep.make(kind, device)


def reads(tree, since=0):
    return [(io.offset, io.nbytes) for io in tree.device.trace[since:] if io.kind == "read"]


def blocks_read(extents, block):
    return {
        b for offset, nbytes in extents for b in range(offset // block, (offset + nbytes - 1) // block + 1)
    }


@pytest.mark.parametrize("kind", PLANNED)
def test_a_batch_reads_only_what_the_get_loop_reads_in_fewer_ios(kind):
    rng = random.Random(3)
    pairs = sorted((k, k * 7) for k in rng.sample(range(1 << 20), 3000))
    puts = [(k, -k) for k in rng.sample(range(1 << 20), 60)]
    batched, looped = traced(kind), traced(kind)
    for tree in (batched, looped):
        tree.load(pairs)
        tree.put_many(puts)
        tree.drop_cache()
    keys = [rng.choice(pairs + puts)[0] for _ in range(150)]
    keys += [rng.randrange(1 << 20) for _ in range(50)]
    start = len(batched.device.trace), len(looped.device.trace)

    assert batched.lookup_many(keys) == [looped.get(key) for key in keys]

    planned, loop = reads(batched, start[0]), reads(looped, start[1])
    assert blocks_read(planned, 512) <= blocks_read(loop, 512)
    assert len(planned) < len(loop)
    assert sum(n for _, n in planned) < sum(n for _, n in loop)


def test_a_cola_key_found_at_a_level_reads_nothing_deeper():
    tree = build("cola", storage.build("null", trace=True), node_bytes=512, cache_bytes=2048)
    tree.load([(k, k + 1) for k in range(0, 6000, 2)])  # 3000 keys: levels 3..11
    on_device = [k for k, lvl in enumerate(tree.levels) if lvl is not None and lvl.offset >= 0]
    assert len(on_device) >= 3
    level = tree.levels[on_device[1]]
    deeper = [tree.levels[k] for k in on_device[2:]]
    keys = level.keys[:: max(1, len(level.keys) // 8)]
    start = len(tree.device.trace)

    assert tree.lookup_many(keys) == [k + 1 for k in keys]

    planned = reads(tree, start)
    assert planned, "the answering level is on the device"
    for lvl in deeper:
        assert not [
            (offset, n) for offset, n in planned if offset < lvl.offset + lvl.nbytes and lvl.offset < offset + n
        ]
    answering = [(o, n) for o, n in planned if level.offset <= o < level.offset + level.nbytes]
    assert len(answering) >= 1


def test_each_non_empty_bucket_is_read_once_per_batch():
    tree = build(
        "cob-buffered", storage.build("null", trace=True),
        node_bytes=512, cache_bytes=1024, initial_slots=64, fanout=4, buffer_bytes=4096,
        rebuild_factor=3.5,
    )
    model = {k: k for k in range(0, 40_000, 10)}
    tree.load(sorted(model.items()))
    puts = [(k, -k) for k in range(5, 40_000, 1000)]  # every bucket gets messages
    tree.put_many(puts)
    model.update(puts)
    busy = [b for b in tree.buckets if b.nbytes]
    assert len(busy) == len(tree.buckets)
    keys = [k for k in range(5, 40_000, 125)] * 2  # many keys a bucket, each twice
    start = len(tree.device.trace)

    assert tree.lookup_many(keys) == [model.get(k) for k in keys]

    planned = reads(tree, start)
    for bucket in busy:
        covering = [
            (o, n) for o, n in planned
            if o < bucket.offset + tree.config.buffer_bytes and bucket.offset < o + n
        ]
        assert len(covering) == 1


def lsm_with_three_l0_runs(device):
    """An LSM whose unsorted writes leave three L0 runs over deeper levels,
    every run spanning most of the key space, and 20 overwrites of written
    keys in its memtable; ``(tree, model)``."""
    tree = build(
        "lsm", device, memtable_bytes=4096, sstable_bytes=8192, level1_bytes=32768,
        block_bytes=512, l0_trigger=3,
    )
    rng = random.Random(5)
    model = {k: k * 7 for k in rng.sample(range(1 << 20), 6000)}
    tree.put_many(list(model.items()))
    tree.settle()
    assert len(tree.levels[0]) == 3 and len(tree.levels) >= 3
    overwrites = [(k, -k) for k in rng.sample(sorted(model), 20)]
    tree.put_many(overwrites)
    model.update(overwrites)
    assert len(tree.memtable) == 20
    return tree, model


def overlapping(reads, runs):
    return [(o, n) for o, n in reads for t in runs if o < t.offset + t.nbytes and t.offset < o + n]


def test_an_lsm_key_answered_by_the_memtable_or_a_newer_run_reads_nothing_older():
    tree, model = lsm_with_three_l0_runs(storage.build("null", trace=True))
    in_memtable = sorted(tree.memtable)
    start = len(tree.device.trace)
    assert tree.lookup_many(in_memtable) == [model[k] for k in in_memtable]
    assert reads(tree, start) == []  # every key answered before any run

    newest, *older_l0 = tree.levels[0]
    older = older_l0 + [t for level in tree.levels[1:] for t in level]
    in_newest = [k for k in newest.keys[::7] if k not in tree.memtable]
    # Each older L0 run's key range holds some of them: a step that probed
    # it for those keys would read its blocks.
    assert all(any(t.min_key <= k <= t.max_key for k in in_newest) for t in older_l0)
    keys = in_newest + in_memtable
    start = len(tree.device.trace)
    assert tree.lookup_many(keys) == [model[k] for k in keys]
    planned = reads(tree, start)
    assert planned and not overlapping(planned, older)
    assert overlapping(planned, [newest]) == planned


def test_no_lsm_run_exceeds_the_lsms_ram():
    # On the affine device every gap up to a megabyte is bridged, so only
    # the cap cuts a level's run: max(memtable_bytes, block_bytes).
    device = storage.build("affine", alpha=1e-6, setup_seconds=0.01, trace=True)
    tree, model = lsm_with_three_l0_runs(device)
    cap = max(tree.config.memtable_bytes, tree.config.block_bytes)
    keys = sorted(model)[::3]
    start = len(device.trace)
    assert tree.lookup_many(keys) == [model[k] for k in keys]
    planned = reads(tree, start)
    assert max(n for _, n in planned) == cap
    assert len(planned) < len(keys) // 8
