"""Scalar-vs-batched byte-identity across every device model.

The batched IO contract (docs/architecture.md): ``read_batch`` is
*semantically invisible* — clock, stats, trace, and the HDD's
rotation-stream cursor must match a serial loop of ``read`` bit for bit,
whatever reads or writes came before it.  These tests enforce that with exact
float equality (no ``approx``) on every kind in :data:`repro.storage.KINDS`,
plus the fault wrapper in both its transparent and perturbed
configurations, and with observability both off and on.  Every device is
built tracing, so the trace is part of what is compared.
"""

import copy
import importlib
import json
import math
import pkgutil
import pickle
import random

import numpy as np
import pytest

import repro
from repro import storage
from repro.errors import DeviceCrashed, InvalidIOError, TransientIOError
from repro.faults.crash import CrashPlan
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.obs import OBS
from repro.storage.device import BlockDevice, ReadRequest
from repro.storage.engine import ClosedLoopRunner, Resource, ResourcePool
from repro.storage.hdd import ROTATION_BLOCK, HDDGeometry, SimulatedHDD
from repro.storage.ideal import PDAMDevice
from repro.storage.ssd import SimulatedSSD

OFFSETS = [512, 1 << 20, 4096, 2 << 20, 4096 + 65536, 1 << 24]
NBYTES = 4096


#: Branches a kind's defaults leave off, switched on so the batch must match them too.
SWITCHED_ON = {"affine": dict(write_multiplier=2.5)}


def device(kind, seed=3):
    """A fresh 1 GiB device of registry ``kind``, tracing."""
    fields = SWITCHED_ON.get(kind, {})
    return storage.build(kind, seed=seed, trace=True, capacity_bytes=1 << 30, **fields)


def hdd(seed=3):
    return device("hdd", seed)


def ssd():
    return device("ssd")


def faulty_transparent():
    return FaultyDevice(hdd(seed=7), FaultPlan(seed=11), trace=True)


def faulty_perturbed():
    return FaultyDevice(
        hdd(seed=7),
        FaultPlan(seed=11, spike_prob=0.5, spike_seconds=0.01, error_prob=0.2),
        policy=ResiliencePolicy.retry(max_retries=4, timeout_seconds=10.0),
        trace=True,
    )


#: The fault wrapper around the HDD, transparent and perturbed.
WRAPPED = {"faulty-transparent": faulty_transparent, "faulty-perturbed": faulty_perturbed}


def names():
    """What this suite compares: every registry kind, read when called, then the wrappers."""
    return (*storage.KINDS, *WRAPPED)


def make(name):
    return WRAPPED[name]() if name in WRAPPED else device(name)


def _state(dev):
    """Everything a batch must leave bit-identical to the serial loop."""
    state = {
        "clock": dev.clock,
        "stats": vars(dev.stats).copy(),
        "trace": list(dev.trace),
    }
    if isinstance(dev, SimulatedHDD):
        state["head"] = dev.head_position
        state["rotations_drawn"] = dev.rotations_drawn
        # One more non-sequential read exposes any rotation-stream divergence.
        state["next_read"] = dev.read((dev.head_position + 8192) % (1 << 29), 512)
    if isinstance(dev, PDAMDevice):
        state["steps"] = dev.steps_elapsed
        state["slots"] = (dev.slots_used, dev.slots_wasted)
    if isinstance(dev, SimulatedSSD):
        for name, pool in (("dies", dev._dies), ("channels", dev._channels)):
            state[name] = [
                (pool[i].available_at, pool[i].busy_seconds) for i in range(len(pool))
            ]
    if isinstance(dev, FaultyDevice):
        state["inner"] = _state(dev.inner)
        state["faults"] = vars(dev.fault_stats).copy()
        # Where the plan's RNG stream stands: untouched by a transparent
        # plan, advanced draw for draw with the serial loop by any other.
        state["plan_rng"] = dev._rng.bit_generator.state
        state["io_ordinal"] = dev.io_ordinal
    return state


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("prelude", ["read", "write"])
def test_batch_identical_to_serial_loop(name, prelude):
    # The batch starts from whatever serial ``prelude`` IOs to the same
    # offsets left behind (head position, busy dies, fault-plan stream).
    ref, dev = make(name), make(name)
    for d in (ref, dev):
        for off in reversed(OFFSETS):
            getattr(d, prelude)(off, NBYTES)
    expected = [ref.read(off, NBYTES) for off in OFFSETS]
    got = dev.read_batch(OFFSETS, NBYTES)
    assert got == expected  # exact float equality, not approx
    assert _state(dev) == _state(ref)


@pytest.mark.parametrize("name", names())
def test_batch_identical_under_observability(name, monkeypatch):
    monkeypatch.setattr(OBS, "enabled", True)
    ref, dev = make(name), make(name)
    expected = [ref.read(off, NBYTES) for off in OFFSETS]
    assert dev.read_batch(OFFSETS, NBYTES) == expected
    assert _state(dev) == _state(ref)


@pytest.mark.parametrize("name", names())
def test_invalid_batch_charges_nothing(name):
    dev = make(name)
    with pytest.raises(InvalidIOError):
        dev.read_batch([0, dev.capacity_bytes], NBYTES)
    assert dev.stats.ios == 0 and dev.clock == 0.0


@pytest.mark.parametrize("name", names())
def test_empty_batch_is_noop(name):
    dev = make(name)
    assert dev.read_batch([], NBYTES) == []
    assert dev.stats.ios == 0


@pytest.mark.parametrize("name", names())
def test_array_offsets_are_traced_as_plain_ints(name):
    # Handed a numpy array, a batch records what a serial loop over the
    # list records: ``int`` offsets, which ``json.dumps`` can write.
    ref, dev = make(name), make(name)
    expected = ref.read_batch(OFFSETS, NBYTES)
    assert dev.read_batch(np.array(OFFSETS), NBYTES) == expected
    for device in (dev, getattr(dev, "inner", dev)):
        assert all(type(rec.offset) is int for rec in device.trace)
        json.dumps([vars(rec) for rec in device.trace])
    assert _state(dev) == _state(ref)


def test_faulty_perturbed_falls_back_to_full_pipeline():
    # Spikes and errors draw from the plan RNG per IO; the batch must
    # consume the stream in the same order a serial loop does.
    ref, dev = faulty_perturbed(), faulty_perturbed()
    expected = [ref.read(off, NBYTES) for off in OFFSETS]
    assert dev.read_batch(OFFSETS, NBYTES) == expected
    assert _state(dev) == _state(ref)


def test_transient_error_mid_batch_identical_to_serial_loop():
    # No retry policy: the first injected error propagates.  The batch
    # must raise at the IO the serial loop raises at, with the IOs before
    # it charged and nothing after it touched.
    def make():
        return FaultyDevice(hdd(seed=7), FaultPlan(seed=4, error_prob=0.3), trace=True)

    ref, dev = make(), make()
    with pytest.raises(TransientIOError):
        for off in OFFSETS:
            ref.read(off, NBYTES)
    assert ref.stats.reads == 3  # IO 3 of 6 fails: mid-batch
    with pytest.raises(TransientIOError):
        dev.read_batch(OFFSETS, NBYTES)
    assert _state(dev) == _state(ref)


def test_block_device_owns_the_batch_protocol():
    # One IO step per device model (``_service``), one batch loop in the
    # base class; the HDD's inlined loop is the only override.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)

    def family(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from family(sub)

    devices = {c for c in family(BlockDevice) if c.__module__.startswith("repro.")}
    assert len(devices) >= 8
    batch_hooks = ("_batch", "read_batch")
    assert {c for c in devices if any(h in vars(c) for h in batch_hooks)} == {
        BlockDevice,
        SimulatedHDD,
    }
    retired = ("_service_read", "_service_write")
    assert not [c for c in devices if any(h in vars(c) for h in retired)]
    assert all("_service" in vars(c) for c in devices)


class TestCrashInBatch:
    """An armed crash plan inside ``read_batch`` == the serial loop.

    Every IO of a batch runs the wrapper's per-IO pipeline, so the fault
    RNG stream is consumed in exactly the order a serial loop consumes it:
    the device dies at the same ordinal, and clock/stats/inner state stay
    bit-equal.
    """

    def _armed(self, at_io, *, perturbed=True):
        plan = (
            FaultPlan(seed=11, spike_prob=0.5, spike_seconds=0.01)
            if perturbed
            else FaultPlan(seed=11)
        )
        dev = FaultyDevice(hdd(seed=7), plan, trace=True)
        dev.arm_crash(CrashPlan(seed=5, at_io=at_io, torn=True))
        return dev

    @pytest.mark.parametrize("at_io", [0, 2, len(OFFSETS) - 1])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_batch_crash_identical_to_serial_loop(self, at_io, perturbed):
        ref, dev = (
            self._armed(at_io, perturbed=perturbed),
            self._armed(at_io, perturbed=perturbed),
        )
        with pytest.raises(DeviceCrashed):
            for off in OFFSETS:
                ref.read(off, NBYTES)
        with pytest.raises(DeviceCrashed):
            dev.read_batch(OFFSETS, NBYTES)
        assert dev.crash_state == ref.crash_state  # the same ordinal
        assert _state(dev) == _state(ref)  # plan RNG position included

    def test_batch_after_recover_matches_serial(self):
        ref, dev = self._armed(3), self._armed(3)
        with pytest.raises(DeviceCrashed):
            for off in OFFSETS:
                ref.read(off, NBYTES)
        with pytest.raises(DeviceCrashed):
            dev.read_batch(OFFSETS, NBYTES)
        assert dev.recover() == ref.recover()
        expected = [ref.read(off, NBYTES) for off in OFFSETS]
        assert dev.read_batch(OFFSETS, NBYTES) == expected
        assert _state(dev) == _state(ref)


def _scalar_draw_reference(offsets, nbytes, *, seed):
    """Per-IO seconds from the pre-reservoir model: one scalar draw per seek.

    The oracle for the rotation-stream contract — the ``k``-th
    non-sequential IO gets the ``k``-th scalar ``uniform`` of a fresh
    ``default_rng(seed)`` — written without the device's reservoir, in the
    float-operation order of a serial ``read`` loop from ``reset()`` state.
    """
    g = HDDGeometry(capacity_bytes=1 << 30)
    rng = np.random.default_rng(seed)
    span = g.full_stroke_seek_seconds - g.track_to_track_seek_seconds
    head, clock, out = 0, 0.0, []
    for off in offsets:
        setup = 0.0
        if off != head:
            frac = abs(off - head) / g.capacity_bytes
            seek = g.track_to_track_seek_seconds + span * math.sqrt(frac)
            setup = seek + float(rng.uniform(0.0, g.rotation_seconds))
        head = off + nbytes
        end = clock + setup + nbytes * g.seconds_per_byte
        out.append(end - clock)
        clock = end
    return out


class TestRotationReservoir:
    """The HDD's block-drawn rotation stream, at and across refills.

    Every device here starts from ``reset()`` state, so the elapsed time
    of its ``k``-th non-sequential IO is ``seek + variate k`` whichever
    path (scalar, batch, or a mix) consumed variates ``0..k-1``.
    """

    @staticmethod
    def _scattered(n, seed=0):
        rnd = random.Random(seed)
        return [rnd.randrange(0, (1 << 30) // 4096 - 1) * 4096 for _ in range(n)]

    def test_kth_seek_gets_kth_variate_of_the_seeded_stream(self):
        offsets = self._scattered(ROTATION_BLOCK + 40)
        dev = hdd(seed=21)
        got = [dev.read(off, NBYTES) for off in offsets]
        assert got == _scalar_draw_reference(offsets, NBYTES, seed=21)

    @pytest.mark.parametrize(
        "n_before, n_batch",
        [
            (ROTATION_BLOCK - 3, 8),  # straddles the first refill boundary
            (ROTATION_BLOCK, 5),  # starts exactly on the boundary
            (7, 2 * ROTATION_BLOCK + 11),  # longer than one block
        ],
    )
    @pytest.mark.parametrize("direction", ["read", "write"])
    def test_batch_across_refill_boundary(self, n_before, n_batch, direction):
        # Scalar IOs in ``direction`` around a read batch share one stream.
        offsets = self._scattered(n_before + n_batch + 4)
        lead, body, tail = (
            offsets[:n_before],
            offsets[n_before : n_before + n_batch],
            offsets[n_before + n_batch :],
        )
        ref, dev = hdd(), hdd()
        op = getattr(ref, direction)
        expected = [op(off, NBYTES) for off in lead]
        expected += [ref.read(off, NBYTES) for off in body]
        expected += [op(off, NBYTES) for off in tail]
        scalar = getattr(dev, direction)
        got = [scalar(off, NBYTES) for off in lead]
        got += dev.read_batch(body, NBYTES)
        got += [scalar(off, NBYTES) for off in tail]  # scalar/batch/scalar
        assert got == expected
        assert dev.rotations_drawn == ref.rotations_drawn == len(offsets)
        assert _state(dev) == _state(ref)

    def test_sequential_hits_consume_no_variate(self):
        dev = hdd()
        dev.read(1 << 20, NBYTES)
        assert dev.rotations_drawn == 1
        run = [(1 << 20) + (i + 1) * NBYTES for i in range(5)]
        for off in run[:2]:
            dev.read(off, NBYTES)
        dev.read_batch(run[2:], NBYTES)
        assert dev.rotations_drawn == 1
        # A mixed batch draws only for its seeks.
        dev.read_batch([0, NBYTES, 2 * NBYTES, 1 << 24], NBYTES)
        assert dev.rotations_drawn == 3

    def test_reset_mid_block_rewinds_to_variate_zero(self):
        offsets = self._scattered(ROTATION_BLOCK + 9)
        dev = hdd()
        first = dev.read_batch(offsets, NBYTES)
        assert dev.rotations_drawn == len(offsets)
        dev.reset()
        assert dev.rotations_drawn == 0 and dev.head_position == 0
        assert [dev.read(off, NBYTES) for off in offsets] == first

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))]
    )
    @pytest.mark.parametrize("n_before", [5, ROTATION_BLOCK - 2])
    def test_copy_mid_block_continues_the_same_stream(self, clone, n_before):
        offsets = self._scattered(n_before + 12)
        ref = hdd()
        expected = ref.read_batch(offsets, NBYTES)
        dev = hdd()
        dev.read_batch(offsets[:n_before], NBYTES)
        twin = clone(dev)
        assert twin.rotations_drawn == n_before
        assert twin.read_batch(offsets[n_before:], NBYTES) == expected[n_before:]
        # The original is untouched by what its copy consumed.
        assert [dev.read(off, NBYTES) for off in offsets[n_before:]] == expected[n_before:]
        assert _state(twin) == _state(dev) == _state(ref)


class TestResourcePoolContract:
    """``ResourcePool`` == a hand-rolled list of ``Resource``, exactly."""

    def _check_against_resources(self, count):
        rnd = random.Random(count)
        ref = [Resource() for _ in range(count)]
        pool = ResourcePool(count)
        now = 0.0
        for _ in range(200):
            now += rnd.random()
            idx, dur = rnd.randrange(count), rnd.choice([0.0, rnd.random() * count])
            assert pool.acquire(idx, now, dur) == ref[idx].acquire(now, dur)
            free = [i for i, r in enumerate(ref) if r.available_at <= now]
            assert pool.free_slots(now) == len(free)
            assert pool.first_free(now) == (free[0] if free else None)
            for exclude in free[:2] + [rnd.randrange(count)]:
                rest = [i for i in free if i != exclude]
                assert pool.first_free(now, exclude=exclude) == (rest[0] if rest else None)
            assert pool.next_available_at() == min(r.available_at for r in ref)
            assert pool.busy_seconds == sum(r.busy_seconds for r in ref)
        for i in range(count):
            assert pool[i].available_at == ref[i].available_at
            assert pool[i].busy_seconds == ref[i].busy_seconds

    def test_occupancy_matches_loop_reference(self):
        # Random acquires; the small pools spend much of the run all-busy
        # or with a single free slot for ``exclude`` to knock out.
        for count in (1, 2, 3, 4, 8, 32):
            self._check_against_resources(count)

    def test_first_free_prefers_lowest_index(self):
        pool = ResourcePool(3)
        pool.acquire(0, 0.0, 5.0)
        assert pool.first_free(1.0) == 1
        assert pool.first_free(1.0, exclude=1) == 2
        pool.acquire(1, 0.0, 5.0)
        assert pool.first_free(1.0, exclude=2) is None  # the only free slot
        pool.acquire(2, 0.0, 5.0)
        assert pool.first_free(1.0) is None  # all busy
        assert pool.free_slots(1.0) == 0


class TestFlush:
    """``flush``: one serial write per run of adjacent dirty nodes, disk order."""

    #: Dirtied in this (LRU) order; on disk they form the runs 0-2, 4-5, 7, 9-11.
    DIRTY = (5, 0, 2, 1, 9, 4, 11, 10, 7)
    RUNS = ((0, 1, 2), (4, 5), (7,), (9, 10, 11))

    def _stack(self, n_nodes=12, nbytes=4096, cache_bytes=1 << 20):
        from repro.storage.stack import StorageStack

        stack = StorageStack(hdd(seed=4), cache_bytes)
        for i in range(n_nodes):
            stack.create(i, {"id": i}, nbytes if i % 3 else 2 * nbytes)
        stack.flush()
        stack.device.reset()
        for i in self.DIRTY:
            stack.cache.mark_dirty(i)
        return stack

    def test_batched_runs_match_serial_writes(self):
        ref = self._stack()
        ref_total = 0.0
        for run in self.RUNS:
            start = ref.cache.extent_of(run[0])[0]
            end = sum(ref.cache.extent_of(run[-1]))
            ref_total += ref.device.write(start, end - start)
        stack = self._stack()
        assert stack.flush() == ref_total
        assert stack.device.clock == ref.device.clock
        assert vars(stack.device.stats) == vars(ref.device.stats)
        assert _state(stack.device) == _state(ref.device)

    def test_second_flush_is_free(self):
        stack = self._stack()
        assert stack.flush() > 0
        assert stack.flush() == 0.0  # all clean now
        assert stack.device.stats.writes == len(self.RUNS)
        assert all(stack.cache.contains(i) for i in range(12))


class TestUnknownIdOnTheReadPath:
    """``BufferCache.get`` / ``get_many`` handed an id the cache never saw:
    the exception leaves exactly what a serial ``get`` loop leaves."""

    @staticmethod
    def _cold_stack():
        from repro.storage.stack import StorageStack

        stack = StorageStack(hdd(seed=4), 1 << 20)
        for i in range(3):
            stack.create(i, {"id": i}, 4096)
        stack.drop_cache()
        return stack

    @staticmethod
    def _after_raising(stack, fetch):
        from repro.errors import CacheError

        cache = stack.cache
        counters = [OBS.counter(f"cache.{name}") for name in ("hits", "misses", "evictions")]
        before = [c.value for c in counters]
        with pytest.raises(CacheError, match="unknown node id"):
            fetch(cache)
        return {
            "device": _state(stack.device),
            "stats": vars(cache.stats).copy(),
            "resident": [cache.contains(i) for i in range(3)],
            "cached_bytes": cache.cached_bytes,
            "counters": [c.value - b for c, b in zip(counters, before)],
        }

    def test_get_many_charges_the_misses_before_the_unknown_id(self, monkeypatch):
        monkeypatch.setattr(OBS, "enabled", True)
        ids = [0, 1, "never-created", 2]
        serial = self._after_raising(self._cold_stack(), lambda c: [c.get(i) for i in ids])
        batched = self._after_raising(self._cold_stack(), lambda c: c.get_many(ids))
        assert batched == serial
        assert serial["stats"]["misses"] == 2 and serial["device"]["stats"]["reads"] == 2
        assert serial["resident"] == [True, True, False]

    def test_get_raises_before_it_counts(self, monkeypatch):
        monkeypatch.setattr(OBS, "enabled", True)
        stack = self._cold_stack()
        untouched = self._after_raising(self._cold_stack(), lambda c: c.mark_dirty("never-created"))
        assert self._after_raising(stack, lambda c: c.get("never-created")) == untouched
        assert untouched["stats"]["misses"] == 0 and untouched["counters"] == [0, 0, 0]


class TestBatchedRunner:
    def _streams(self, n_clients, n_requests):
        return [
            [ReadRequest((c * 7 + r) % 128 * 65536, 65536) for r in range(n_requests)]
            for c in range(n_clients)
        ]

    def test_batched_dispatch_matches_scalar(self):
        streams = self._streams(6, 40)
        scalar_dev, batch_dev = ssd(), ssd()
        scalar = ClosedLoopRunner(
            scalar_dev.service_request,
        ).run(streams)
        batched = ClosedLoopRunner(
            batch_dev.service_request,
            service_batch=batch_dev.service_request_batch,
        ).run(streams)
        assert batched == scalar  # exact float equality
        assert _state(batch_dev) == _state(scalar_dev)

    def test_run_closed_loop_equals_scalar_runner(self):
        scalar_dev, loop_dev = ssd(), ssd()
        streams = self._streams(4, 30)
        scalar = max(ClosedLoopRunner(scalar_dev.service_request).run(streams))
        assert loop_dev.run_closed_loop(streams) == scalar
        assert _state(loop_dev) == _state(scalar_dev)

    def test_batch_path_disabled_under_observability(self, monkeypatch):
        # The scalar path stays authoritative when OBS is recording; the
        # finish times must not change either way.
        streams = self._streams(4, 10)

        def batched_run():
            dev = ssd()
            runner = ClosedLoopRunner(
                dev.service_request, service_batch=dev.service_request_batch
            )
            return runner.run(streams)

        plain = batched_run()
        monkeypatch.setattr(OBS, "enabled", True)
        assert batched_run() == plain
