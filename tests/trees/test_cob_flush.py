"""A buffered-cob flush is one window: puts and tombstones, one PMA walk.

Counted, not clocked: a flush of ``P`` puts and ``T`` tombstones makes
exactly one PMA rebalance or one resize and no scalar ``COBTree.delete``,
and its bucket charges are the tail write and the buffer read they always
were.  Then a seeded stateful differential drives ``cob`` and
``cob-buffered`` against a dict model, with ``check_invariants()`` after
every step, across RAM budgets, initial capacities and small buffers,
through the flush shapes that can go wrong: all-tombstone flushes,
tombstones outnumbering puts, tombstones for absent keys, a flush that
doubles the array and a delete phase that halves it — and once more under
injected transient errors that the device retries.
"""

import random
from unittest.mock import patch

import pytest

from repro import storage
from repro.errors import KeyOrderError, TreeError
from repro.experiments.devices import default_hdd
from repro.faults import FaultPlan, FaultyDevice, ResiliencePolicy
from repro.storage.allocator import ExtentAllocator
from repro.trees import build
from repro.trees.cob import BufferedCOBTree, COBConfig
from repro.trees.sizing import EntryFormat

FMT = EntryFormat(key_bytes=8, value_bytes=20)
BLOCK = 512


def _buffered(**fields):
    config = COBConfig(fmt=FMT, block_bytes=BLOCK, **fields)
    return BufferedCOBTree(default_hdd(seed=7, trace=True), config)


def _structural(pma):
    return pma.rebalances + pma.resizes


def _fill_bucket(tree, puts, tombstones):
    """Buffer ``puts`` and ``tombstones`` in bucket 0 without flushing it."""
    flushes = tree.flushes
    for key, value in puts:
        tree.insert(key, value)
    for key in tombstones:
        tree.delete(key)
    assert tree.flushes == flushes
    return tree.buckets[0]


def _flush_counted(tree, b=0):
    """Flush bucket ``b``; ``(device IOs, structural changes, scalar deletes)``."""
    base, device = tree.base, tree.device
    before, start = _structural(base.pma), len(device.trace)
    with patch.object(base, "_delete", wraps=base._delete) as delete:
        tree._flush(b)
    ios = [(io.kind, io.offset, io.nbytes) for io in device.trace[start:]]
    return ios, _structural(base.pma) - before, delete.call_count


def _bucket_charges(bucket):
    """The tail write and buffer read a flush of ``bucket`` must begin with."""
    blocks = -(-bucket.nbytes // BLOCK)
    charges = [("read", bucket.offset, blocks * BLOCK)]
    if bucket.nbytes - (blocks - 1) * BLOCK > 0:
        charges.insert(0, ("write", bucket.offset + (blocks - 1) * BLOCK, BLOCK))
    return charges


@pytest.mark.parametrize("n_puts, n_tombstones", [(40, 8), (8, 40), (0, 48), (48, 0)])
def test_a_flush_is_one_rebalance_and_no_scalar_delete(n_puts, n_tombstones):
    tree = _buffered(fanout=2, rebuild_factor=1.5, buffer_bytes=2048)
    tree.bulk_load([(k, k) for k in range(0, 4000, 2)])
    b_lo, b_hi = tree._bucket_bounds(0)
    present = [k for k in range(0, 4000, 2) if b_lo <= k <= b_hi]
    puts = [(k + 1, -k) for k in present[200 : 200 + n_puts]]
    doomed = present[::7][:n_tombstones]
    bucket = _fill_bucket(tree, puts, doomed)
    expected = _bucket_charges(bucket)
    ios, structural, scalar_deletes = _flush_counted(tree)
    assert structural == 1 and scalar_deletes == 0
    assert ios[: len(expected)] == expected
    assert not tree.buckets[0].messages
    model = {k: k for k in range(0, 4000, 2)} | dict(puts)
    for key in doomed:
        del model[key]
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()


def test_tombstones_for_absent_keys_cost_only_the_bucket():
    tree = _buffered(fanout=2, rebuild_factor=1.5, buffer_bytes=2048)
    tree.bulk_load([(k, k) for k in range(0, 4000, 2)])
    bucket = _fill_bucket(tree, [], [1, 3, 5, 7, 9])
    expected = _bucket_charges(bucket)
    ios, structural, scalar_deletes = _flush_counted(tree)
    assert (ios, structural, scalar_deletes) == (expected, 0, 0)
    assert len(tree) == 2000
    tree.check_invariants()


def test_a_flush_that_doubles_is_one_resize():
    tree = _buffered(initial_slots=8, buffer_bytes=2048)
    expected = _bucket_charges(_fill_bucket(tree, [(k, k) for k in range(60)], []))
    resizes = tree.base.pma.resizes
    ios, structural, _ = _flush_counted(tree)
    assert structural == 1 and tree.base.pma.resizes == resizes + 1
    assert tree.base.pma.capacity == 128  # 60 keys > 0.8 * 64
    assert ios[:2] == expected


def test_a_flush_that_halves_is_one_resize():
    tree = _buffered(initial_slots=8, fanout=2, rebuild_factor=1.5, buffer_bytes=2048)
    tree.bulk_load([(k, k) for k in range(60)])
    assert tree.base.pma.capacity == 128 and tree.splitters == [29]
    _fill_bucket(tree, [], list(range(28)))
    resizes = tree.base.pma.resizes
    _, structural, scalar_deletes = _flush_counted(tree)
    assert structural == 1 and scalar_deletes == 0
    assert tree.base.pma.resizes == resizes + 1
    assert tree.base.pma.capacity == 64  # 32 keys < 3/8 * 0.8 * 128
    assert [k for k, _ in tree.items()] == list(range(28, 60))
    tree.check_invariants()


class _Recording(ExtentAllocator):
    """An allocator that remembers the size of every extent it hands out."""

    def __init__(self, capacity_bytes):
        super().__init__(capacity_bytes, alignment=512)
        self.sizes = {}

    def alloc(self, nbytes):
        offset = super().alloc(nbytes)
        self.sizes[offset] = nbytes
        return offset


@pytest.mark.parametrize("buffer_bytes", [512, 1000, 4096, 6000])
def test_every_bucket_charge_stays_inside_its_own_extent(buffer_bytes):
    # Buckets smaller than a block, or not a whole number of blocks, are
    # read and written in whole blocks: the extent must hold them.
    device = storage.build("null", capacity_bytes=1 << 30, trace=True)
    allocator = _Recording(device.capacity_bytes)
    config = COBConfig(
        fmt=EntryFormat(value_bytes=8), initial_slots=64, fanout=4,
        buffer_bytes=buffer_bytes, rebuild_factor=3.5, ram_bytes=1 << 10,
    )
    tree = BufferedCOBTree(device, config, allocator=allocator)
    extents = {bucket.offset: allocator.sizes[bucket.offset] for bucket in tree.buckets}
    rng = random.Random(buffer_bytes)
    keys = rng.sample(range(1 << 20), 600)
    for i, key in enumerate(keys):
        tree.insert(key, i)
        if i % 3 == 0:
            tree.get(rng.choice(keys[: i + 1]))
    tree.lookup_many(rng.sample(keys, 50))
    charged = 0
    for io in device.trace:
        for start, size in extents.items():
            if start <= io.offset < start + size:
                assert io.offset + io.nbytes <= start + size, (io, start, size)
                charged += 1
    assert charged > 0


def test_put_bulk_refuses_unsorted_deletes_and_a_key_put_and_deleted():
    tree = build("cob", default_hdd(seed=7), fmt=FMT)
    tree.bulk_load([(k, k) for k in range(10)])
    with pytest.raises(KeyOrderError):
        tree.put_bulk([], [5, 2])
    with pytest.raises(TreeError):
        tree.put_bulk([(3, "x")], [3])
    assert list(tree.items()) == [(k, k) for k in range(10)]


# -- the stateful differential ------------------------------------------------

CONFIGS = [
    dict(ram_bytes=ram, initial_slots=slots, buffer_bytes=1024, fanout=4, rebuild_factor=2.0)
    for ram in (0, 512, 1 << 20)
    for slots in (8, 1024)
]


def _config_id(config):
    return f"ram{config['ram_bytes']}-slots{config['initial_slots']}"


class _Flushes:
    """What every base ``put_bulk`` call was: how many puts, how many
    tombstones for present keys and for absent ones."""

    def __init__(self, base):
        self.base, self.calls = base, []
        self._put_bulk = base.put_bulk
        base.put_bulk = self

    def __call__(self, pairs, deletes=()):
        absent = sum(k not in self.base.values for k in deletes)
        self._put_bulk(pairs, deletes)
        self.calls.append((len(pairs), len(deletes) - absent, absent))

    def seen(self):
        return {
            "all tombstones": any(p == 0 and t > 0 for p, t, _ in self.calls),
            "tombstones outnumber puts": any(t > p > 0 for p, t, _ in self.calls),
            "absent tombstones": any(a for _, _, a in self.calls),
        }


def _drive(tree, seed, each_step):
    """Fill, then a tombstone-heavy phase, then a drain down to a tenth of
    the keys; ``each_step(model)`` after every operation.  Returns the model."""
    rng = random.Random(seed)
    model: dict[int, int] = {}
    live: list[int] = []
    universe = 1 << 30
    cob = not isinstance(tree, BufferedCOBTree)

    def put(key, value):
        if key not in model:
            live.append(key)
        model[key] = value

    def forget(key):
        if key in model:
            del model[key]
            live.remove(key)

    def step(serial, delete_share):
        roll = rng.random()
        if roll < delete_share and live:
            # A run of deletes, one in five of an (odd, so absent) key.
            doomed = rng.sample(live, min(len(live), rng.randrange(1, 16)))
            doomed += [rng.randrange(universe) * 2 + 1 for _ in range(len(doomed) // 5)]
            if cob and rng.random() < 0.5:
                tree.put_bulk([], sorted(doomed))
            else:
                for key in doomed:
                    tree.delete(key)
            for key in doomed:
                forget(key)
        elif roll < (1 + delete_share) / 2:
            # A sorted batch of fresh keys and overwrites, and some deletes.
            batch = {rng.randrange(universe) * 2: serial for _ in range(rng.randrange(1, 40))}
            batch.update((k, -serial) for k in rng.sample(live, min(len(live), 3)))
            pairs = sorted(batch.items())
            n_gone = rng.randrange(1 + int(40 * delete_share))
            gone = sorted(set(rng.sample(live, min(len(live), n_gone))) - set(batch))
            if cob:
                tree.put_bulk(pairs, gone)
            else:
                tree.put_many(pairs)
                for key in gone:
                    tree.delete(key)
            for key, value in pairs:
                put(key, value)
            for key in gone:
                forget(key)
        else:
            key = rng.choice(live) if live and rng.random() < 0.3 else rng.randrange(universe) * 2
            tree.insert(key, serial)
            put(key, serial)
        each_step(model)

    serial = 0
    for steps, delete_share in ((220, 0.15), (80, 0.7)):
        for _ in range(steps):
            serial += 1
            step(serial, delete_share)
    target = len(live) // 10
    while len(live) > target:
        serial += 1
        step(serial, 1.0)
    return model


def _check(tree, capacities=None):
    base = getattr(tree, "base", tree)

    def each_step(model):
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())
        if capacities is not None:
            capacities.append(base.pma.capacity)

    return each_step


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
@pytest.mark.parametrize("kind", ["cob", "cob-buffered"])
def test_a_seeded_mix_matches_the_dict_model_at_every_step(kind, config):
    tree = build(kind, default_hdd(seed=7), fmt=FMT, **config)
    base = getattr(tree, "base", tree)
    flushes = _Flushes(base)
    capacities = [base.pma.capacity]
    model = _drive(tree, f"{kind}-{_config_id(config)}", _check(tree, capacities))
    if kind == "cob-buffered":
        tree.flush_all()
        tree.check_invariants()
    assert base.values == model
    # The shapes named above all happened, in this configuration.
    assert all(flushes.seen().values()), flushes.seen()
    steps = list(zip(capacities, capacities[1:]))
    assert any(after > before for before, after in steps)  # doubled
    assert any(after < before for before, after in steps)  # halved


@pytest.mark.parametrize("kind", ["cob", "cob-buffered"])
def test_transient_errors_inside_flushes_are_retried_and_converge(kind):
    device = FaultyDevice(
        default_hdd(seed=7),
        FaultPlan(seed=3, error_prob=0.03),
        policy=ResiliencePolicy.retry(max_retries=6),
    )
    tree = build(kind, device, fmt=FMT, **CONFIGS[1])
    base = getattr(tree, "base", tree)
    retried_in_flush = 0
    put_bulk = base.put_bulk

    def counted(pairs, deletes=()):
        nonlocal retried_in_flush
        retries = device.fault_stats.retries
        put_bulk(pairs, deletes)
        retried_in_flush += device.fault_stats.retries - retries

    base.put_bulk = counted
    model = _drive(tree, f"faults-{kind}", _check(tree))
    if kind == "cob-buffered":
        tree.flush_all()
    tree.check_invariants()
    assert base.values == model
    assert retried_in_flush > 0
    assert device.fault_stats.retry_giveups == 0
