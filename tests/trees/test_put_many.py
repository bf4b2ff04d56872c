"""``put_many`` serial-identity: batched inserts must equal insert loops.

Every tree's ``put_many`` contract is the write-side twin of the batched
read paths: device traffic, cache statistics, structural state, and (for
the Bε-trees) message sequence numbers must be *identical* to calling
``insert`` once per pair — the batch removes Python overhead, never
semantics.  The lockstep machine (``test_lockstep.py``) holds that for
every kind after every step; this file adds what it does not see: the
identity with observability on, the COLA's and LSM's whole structure, a
fault inside a batch, and the call counts that keep a batch a batch.
Devices with real timing (the simulated HDD) make the comparison
bit-exact in simulated seconds, not just op counts.
"""

import random
import sys
from unittest.mock import patch

import numpy as np
import pytest

from repro.errors import DeviceCrashed, TransientIOError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
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
    # put_many must leave byte-identical device stats to the insert loop,
    # with observability recording on or off.  get_many plans its reads
    # (one read_set a dependent step): it answers what the get loop
    # answers, and its device stats are the same with OBS on and off.
    monkeypatch.setattr(OBS, "enabled", obs_on)
    pairs = _pairs(n=1200, universe=20_000)
    query_keys = [k for k, _ in _pairs(n=400, universe=25_000, seed=29)]

    serial_tree = lockstep.make(name, _hdd())
    for k, v in pairs:
        serial_tree.insert(k, v)

    batch_tree, flipped_tree = lockstep.make(name, _hdd()), lockstep.make(name, _hdd())
    for tree in (batch_tree, flipped_tree):
        tree.put_many(pairs)
        assert tree.device.clock == serial_tree.device.clock  # exact float equality
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
