"""``put_many``: a batch leaves an insert loop's tree.

Two contracts (:meth:`repro.trees.api.KVTree.put_many`).  The Bε-trees,
the LSM, the COLA and cob-buffered are serial-identical: device traffic,
cache statistics, structural state and (for the Bε-trees) message
sequence numbers equal calling ``insert`` once per pair — the batch
removes Python overhead, never semantics.  The B-tree and the cob *plan*
their batch, the write-side twin of their planned ``lookup_many``: the
structure is the loop's, the IO schedule is not.  The lockstep machine
(``test_lockstep.py``) holds the first for every serial-identical kind
after every step, and gives both twins of a planning kind the batch.
This file adds what it does not see: the identity with observability on,
the COLA's and LSM's whole structure, a fault inside a batch, the call
counts that keep a batch a batch, and, for the planning kinds, what the
plan reads and writes against the loop (:class:`TestPlannedPutMany`).
Devices with real timing (the simulated HDD) make the comparisons
bit-exact in simulated seconds, not just op counts.
"""

import random
import sys
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest

from repro import storage
from repro.errors import DeviceCrashed, TransientIOError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice, ResiliencePolicy
from repro.obs import OBS
from repro.storage.hdd import HDDGeometry, SimulatedHDD
from repro.trees import build
from repro.trees.cola import COLA
from repro.trees.lsm import LSMTree
from repro.trees.merge import TOMBSTONE
from repro.trees.sizing import EntryFormat
from tests.trees import test_lockstep as lockstep

FMT = EntryFormat(value_bytes=20)


def _pairs(n=4000, universe=60_000, seed=13):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, size=n, dtype=np.int64)
    return [(int(k), int(k) * 5 + 1) for k in keys]


def _hdd():
    return SimulatedHDD(HDDGeometry(capacity_bytes=1 << 30), seed=1)


@pytest.mark.parametrize("name", ["cola", "cob", "cob-buffered"])
@pytest.mark.parametrize("obs_on", [False, True])
def test_batched_ops_identical_with_obs_on_off(name, obs_on, monkeypatch):
    # put_many leaves the insert loop's tree.  A serial-identical kind
    # leaves its device stats too, byte for byte; the cob plans its batch,
    # so it leaves the loop's PMA and values, and the same device stats
    # with OBS on and off.  get_many plans its reads (one read_set a
    # dependent step): it answers what the get loop answers, and its
    # device stats are the same with OBS on and off.
    monkeypatch.setattr(OBS, "enabled", obs_on)
    pairs = _pairs(n=1200, universe=20_000)
    query_keys = [k for k, _ in _pairs(n=400, universe=25_000, seed=29)]

    serial_tree = lockstep.make(name, _hdd())
    for k, v in pairs:
        serial_tree.insert(k, v)

    batch_tree, flipped_tree = lockstep.make(name, _hdd()), lockstep.make(name, _hdd())
    batch_tree.put_many(pairs)
    monkeypatch.setattr(OBS, "enabled", not obs_on)
    flipped_tree.put_many(pairs)
    monkeypatch.setattr(OBS, "enabled", obs_on)
    for tree in (batch_tree, flipped_tree):
        assert tree.device.clock == batch_tree.device.clock  # exact float equality
        assert vars(tree.device.stats) == vars(batch_tree.device.stats)
        if name in lockstep.PLANS_WRITES:
            assert np.array_equal(tree.pma.keys, serial_tree.pma.keys)
            assert tree.values == serial_tree.values
        else:
            assert tree.device.clock == serial_tree.device.clock
            assert vars(tree.device.stats) == vars(serial_tree.device.stats)

    serial_hits = [serial_tree.get(k) for k in query_keys]
    batch_hits = batch_tree.get_many(query_keys)
    monkeypatch.setattr(OBS, "enabled", not obs_on)
    flipped_hits = flipped_tree.get_many(query_keys)

    assert batch_hits == serial_hits
    assert flipped_hits == serial_hits
    assert batch_tree.device.clock == flipped_tree.device.clock
    assert vars(batch_tree.device.stats) == vars(flipped_tree.device.stats)


# -- COLA and LSM: a batch is a batch, and still the loop ----------------------
#
# Their ``put_many`` is no longer a loop of the scalar body: the COLA applies
# a run of pushes as one binary-counter step, the LSM fills its memtable a
# slice at a time.  So the identity is checked statefully, on the whole
# structure after every step, and the batching itself by counting calls.

ONE_ENTRY = FMT.entry_bytes
BATCHED = {
    "cola": [dict(cache_bytes=ram, fmt=FMT) for ram in (0, 64, 4 << 10, 1 << 20)],
    "lsm": [
        dict(memtable_bytes=mem, sstable_bytes=1 << 10, level1_bytes=4 << 10, fmt=FMT)
        for mem in (ONE_ENTRY, 4 << 10)
    ],
}
CONFIGS = [(kind, fields) for kind, configs in BATCHED.items() for fields in configs]


def _config_id(config):
    kind, fields = config
    return f"{kind}-{fields.get('cache_bytes', fields.get('memtable_bytes'))}"


def _state(tree):
    """Everything an insert loop determines, structure included."""
    device = tree.device
    hdd = getattr(device, "inner", device)
    if isinstance(tree, COLA):
        structure = (
            [lvl and (lvl.keys, lvl.values, lvl.offset, lvl.nbytes) for lvl in tree.levels],
            tree.merges,
        )
    else:
        structure = (
            list(tree.memtable.items()),
            [
                [(t.table_id, t.keys, t.values, t.offset, t.nbytes) for t in runs]
                for runs in tree.levels
            ],
            tree.compactions,
        )
    return (
        structure,
        tree.user_bytes_modified,
        device.clock,
        vars(device.stats).copy(),
        hdd.rotations_drawn,
        tree.allocator.used_bytes,
    )


def _draw_batch(rng, universe, tag):
    """A run of puts: random, key-sorted, with duplicates (any tiny universe)
    and now and then a tombstone for a value."""
    n = rng.choice([0, 1, 2, 3, 9, 50, 300, 3000])
    pairs = [(rng.randrange(universe), (tag, i)) for i in range(n)]
    if rng.random() < 0.3:
        pairs.sort(key=lambda pair: pair[0])
    if pairs and rng.random() < 0.15:
        i = rng.randrange(n)
        pairs[i] = (pairs[i][0], TOMBSTONE)
    return pairs


@pytest.mark.parametrize("universe", [50, 1 << 20])
@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_batches_interleaved_with_scalar_ops_leave_the_loops_state(config, universe):
    kind, fields = config
    for seed in range(4):
        rng = random.Random(f"{kind}-{universe}-{seed}")
        looped, batched = build(kind, _hdd(), **fields), build(kind, _hdd(), **fields)
        # Once per COLA, a batch that carries out of the pinned levels at
        # every RAM size (16 383 pushes fit the default's).
        opener = 20_000 if kind == "cola" and seed == 0 else 70
        script = [[(rng.randrange(universe), i) for i in range(opener)]]
        for step in range(12):
            draw = rng.random()
            if draw < 0.25:  # leaves a tombstone in the newest level
                script.append(rng.randrange(universe))
            elif draw < 0.35:
                script.append([(rng.randrange(universe), ("scalar", step))])
            else:
                script.append(_draw_batch(rng, universe, step))
        for step, op in enumerate(script):
            if isinstance(op, int):
                looped.delete(op)
                batched.delete(op)
            else:
                for key, value in op:
                    looped.insert(key, value)
                if len(op) == 1:
                    batched.insert(*op[0])
                else:
                    batched.put_many(iter(op) if step % 3 == 0 else op)
            assert _state(batched) == _state(looped), (seed, step)
            batched.check_invariants()
        assert list(batched.items()) == list(looped.items())


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_a_batch_whose_merge_comes_out_empty_unsets_the_level(config):
    # Two tombstones of one key merge to nothing once they are the largest
    # level: the only way a push leaves the COLA's counter *lower*.
    kind, fields = config
    pairs = [(7, TOMBSTONE), (7, TOMBSTONE), (8, "live"), (7, TOMBSTONE), (9, "live")]
    looped, batched = build(kind, _hdd(), **fields), build(kind, _hdd(), **fields)
    for key, value in pairs:
        looped.insert(key, value)
    batched.put_many(pairs)
    assert _state(batched) == _state(looped)
    assert list(batched.items()) == [(8, "live"), (9, "live")]
    batched.check_invariants()


FAULT_FIELDS = {
    "cola": dict(cache_bytes=4 << 10, fmt=FMT),
    "lsm": dict(memtable_bytes=1 << 10, sstable_bytes=1 << 10, level1_bytes=4 << 10, fmt=FMT),
    "btree": dict(lockstep.SMALL["btree"], fmt=FMT),
    "cob": dict(lockstep.SMALL["cob"], fmt=FMT),
}
FAULTS = {
    "transient": (dict(plan=FaultPlan(seed=3, error_prob=0.02)), TransientIOError),
    "crash": (dict(plan=FaultPlan(), crash=CrashPlan(seed=3, at_io=37)), DeviceCrashed),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", FAULT_FIELDS)
def test_a_fault_inside_a_batch_is_the_loops_fault(kind, fault):
    armed, error = FAULTS[fault]
    pairs = _pairs(n=6000)
    if kind in lockstep.PLANS_WRITES:
        # A planning kind applies its pairs (the B-tree: a chunk's) before
        # their planned IO, so its fault is not the loop's: under a retry
        # policy a transient error leaves the loop's tree, and a crash
        # surfaces at an IO of the batch.
        if fault == "transient":
            armed = dict(armed, policy=ResiliencePolicy.retry())
        looped, batched = (
            build(kind, FaultyDevice(_hdd(), **armed), **FAULT_FIELDS[kind]) for _ in range(2)
        )
        if fault == "crash":
            with pytest.raises(DeviceCrashed):
                batched.put_many(pairs)
            assert batched.device.crashed
            return
        for key, value in pairs:
            looped.insert(key, value)
        batched.put_many(pairs)
        assert batched.device.fault_stats.retries > 0
        assert _planned_state(batched) == _planned_state(looped)
        assert list(batched.items()) == list(looped.items())
        batched.check_invariants()
        return
    looped, batched = (
        build(kind, FaultyDevice(_hdd(), **armed), **FAULT_FIELDS[kind]) for _ in range(2)
    )
    with pytest.raises(error) as in_loop:
        for key, value in pairs:
            looped.insert(key, value)
    with pytest.raises(error) as in_batch:
        batched.put_many(pairs)
    assert str(in_batch.value) == str(in_loop.value)
    assert batched.device.io_ordinal == looped.device.io_ordinal > 0
    assert _state(batched) == _state(looped)
    assert 0 < looped.user_bytes_modified < len(pairs) * ONE_ENTRY


def test_a_cola_batch_is_counter_steps_not_pushes():
    # By count, not by clock: the loop makes n pushes and ~n/2 merges.
    n = 1 << 17
    tree = build("cola", _hdd(), fmt=FMT)
    pinned = tree._pinned_levels
    assert pinned == 14  # 48 + 2^13 * 28 <= 2^20 // 4 < 48 + 2^14 * 28
    steps = n >> pinned
    module = sys.modules[COLA.__module__]
    with patch.object(tree, "_push", wraps=tree._push) as push, patch.object(
        module, "merge_runs", wraps=module.merge_runs
    ) as merge:
        tree.put_many(_pairs(n=n, universe=1 << 40))
    assert 0 < push.call_count <= steps
    assert 0 < merge.call_count <= (steps + 1) * (pinned + 1)
    tree.check_invariants()


def test_an_lsm_batch_calls_python_per_flush_not_per_pair():
    n = 1 << 17
    tree = build("lsm", _hdd(), memtable_bytes=1 << 14, sstable_bytes=1 << 14, fmt=FMT)
    per_flush = tree.config.entries_per_memtable
    pairs = [(key * 7, key) for key in range(n)]  # distinct: n // per_flush flushes
    flush = LSMTree.flush_memtable.__code__
    flushes = outside = inside = 0

    def count(frame, event, arg):
        nonlocal flushes, outside, inside
        if event == "call":
            outside += not inside
            if frame.f_code is flush:
                flushes += 1
                inside += 1
        elif event == "return" and frame.f_code is flush:
            inside -= 1

    sys.setprofile(count)
    try:
        tree.put_many(pairs)
    finally:
        sys.setprofile(None)
    assert flushes == n // per_flush
    # put_many itself and one frame per flush; the loop makes n.
    assert outside <= 2 * flushes + 2
    tree.check_invariants()


# -- B-tree and cob: a batch plans its IO --------------------------------------


def _planned_state(tree):
    """What a planning kind's batch leaves as the insert loop leaves it:
    the structure, its extents and the allocator, not the IO schedule."""
    allocator = tree.allocator
    placed = (allocator.used_bytes, allocator._free_offsets, allocator._free_lengths)
    if tree.kind == "cob":
        pma = tree.pma
        structure = (pma.keys.tolist(), pma.seg_count, pma.capacity, pma.offset, tree.values)
    else:
        structure = (
            tree.root_id,
            tree.height,
            {
                node_id: (e.offset, e.nbytes, e.obj.is_leaf, e.obj.keys, e.obj.values, e.obj.children)
                for node_id, e in tree.storage.cache._index.items()
            },
        )
    return structure, tree.user_bytes_modified, placed


def _covered(extents):
    """The bytes of ``(offset, nbytes)`` extents, as sorted disjoint runs."""
    runs = []
    for offset, nbytes in sorted(extents):
        if runs and offset <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], offset + nbytes)
        else:
            runs.append([offset, offset + nbytes])
    return runs


def _ios(tree, since, kind):
    return [(io.offset, io.nbytes) for io in tree.device.trace[since:] if io.kind == kind]


class TestPlannedPutMany:
    """What the B-tree's and the cob's planned ``put_many`` reads and
    writes, against the insert loop it replaces, on a traced device.

    A batch leaves the loop's structure, reads no byte twice, in no more
    IOs than the loop, and writes exactly the bytes the loop writes (each
    way a subset): a plan that skips a write, writes through a gap or
    reads an extent twice fails here.  Batches run from a loaded tree, a
    settle after each so the B-tree's writes are all in.
    """

    LOADED = 3000

    def twins(self, kind, device_kind, **fields):
        twins = [
            build(kind, storage.build(device_kind, trace=True), **{**lockstep.SMALL[kind], **fields})
            for _ in range(2)
        ]
        rng = random.Random(7)
        pairs = sorted((k, k * 7) for k in rng.sample(range(1 << 20), self.LOADED))
        for tree in twins:
            tree.load(pairs)
            tree.drop_cache()
        return twins

    def batches(self):
        """Random batches mixing fresh keys and overwrites, and one sorted run."""
        rng = random.Random(11)
        out = [
            [(rng.randrange(1 << 20), (step, i)) for i in range(n)]
            for step, n in enumerate((2, 40, 300, 5, 300, 40))
        ]
        out.append(sorted((rng.randrange(1 << 20), ("run", i)) for i in range(400)))
        return out

    def run(self, batched, looped, batch):
        """Apply ``batch`` both ways; ``(reads, writes)`` of each as ``(batch, loop)``."""
        start = len(batched.device.trace), len(looped.device.trace)
        batched.put_many(batch)
        batched.settle()
        for key, value in batch:
            looped.insert(key, value)
        looped.settle()
        assert _planned_state(batched) == _planned_state(looped)
        return (
            (_ios(batched, start[0], "read"), _ios(looped, start[1], "read")),
            (_ios(batched, start[0], "write"), _ios(looped, start[1], "write")),
        )

    #: Caches that hold every path a batch needs, so a node is read once.
    ROOMY = {"btree": dict(cache_bytes=1 << 20), "cob": {}}

    @pytest.mark.parametrize("kind", lockstep.PLANS_WRITES)
    def test_a_batch_reads_each_byte_once_and_writes_the_loops_bytes(self, kind):
        batched, looped = self.twins(kind, "null", **self.ROOMY[kind])
        resized = 0
        for batch in self.batches():
            misses = batched.storage.cache.stats.misses if kind == "btree" else 0
            resizes = batched.pma.resizes if kind == "cob" else 0
            (planned, loop), (written, loop_written) = self.run(batched, looped, batch)
            assert len(planned) <= len(loop)
            assert _covered(written) == _covered(loop_written)
            if kind == "cob" and batched.pma.resizes != resizes:
                # The resize reads the whole old array, after the plan
                # issued before it read some of it.
                resized += 1
                continue
            assert sum(n for _, n in planned) == sum(b - a for a, b in _covered(planned))
            if kind == "btree":
                read = sum(n for _, n in planned) // batched.config.node_bytes
                assert batched.storage.cache.stats.misses - misses == read
        assert resized or kind == "btree"
        assert list(batched.items()) == list(looped.items())
        batched.check_invariants()

    def test_a_btree_batch_in_chunks_reads_each_node_once(self):
        # A 16-node cache against a 3000-key tree of 1 KiB nodes: a sorted
        # batch takes several chunks, each read once, none read again.
        batched, looped = self.twins("btree", "null")
        batch = [(k * 521 + 1, k) for k in range(2000)]  # every leaf, in key order
        with patch.object(batched, "_descend", wraps=batched._descend) as descend:
            misses = batched.storage.cache.stats.misses
            (planned, loop), (written, loop_written) = self.run(batched, looped, batch)
        assert descend.call_count > 1
        assert len(planned) <= len(loop)
        assert _covered(written) == _covered(loop_written)
        read = sum(n for _, n in planned)
        assert read == sum(b - a for a, b in _covered(planned))
        assert batched.storage.cache.stats.misses - misses == read // batched.config.node_bytes
        batched.check_invariants()

    @pytest.mark.parametrize("kind", lockstep.PLANS_WRITES)
    def test_a_batch_costs_at_most_the_loop_on_the_affine_device(self, kind):
        batched, looped = self.twins(kind, "affine")
        for batch in self.batches():
            before = batched.device.clock, looped.device.clock
            self.run(batched, looped, batch)
            assert batched.device.clock - before[0] <= looped.device.clock - before[1]
        assert batched.device.clock < looped.device.clock
