"""Discrete-event engine tests."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.storage.engine import ClosedLoopRunner, Resource, ResourcePool


def _random_streams(seed):
    """Six clients, each with 1-11 services of 0.01-2.0 s."""
    rng = random.Random(seed)
    return [[rng.uniform(0.01, 2.0) for _ in range(rng.randrange(1, 12))] for _ in range(6)]


class TestResource:
    def test_idle_job_starts_immediately(self):
        r = Resource()
        assert r.acquire(5.0, 2.0) == 7.0

    def test_busy_job_queues(self):
        r = Resource()
        r.acquire(0.0, 10.0)
        assert r.acquire(3.0, 2.0) == 12.0  # waits until t=10

    def test_busy_accounting(self):
        r = Resource()
        r.acquire(0.0, 3.0)
        r.acquire(0.0, 4.0)
        assert r.busy_seconds == 7.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Resource().acquire(0.0, -1.0)

    def test_reset(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        r.reset()
        assert r.available_at == 0.0 and r.busy_seconds == 0.0


class TestResourcePool:
    def test_independent_resources(self):
        pool = ResourcePool(3)
        pool[0].acquire(0.0, 5.0)
        assert pool[1].acquire(0.0, 1.0) == 1.0

    def test_len_and_busy(self):
        pool = ResourcePool(2)
        pool[0].acquire(0.0, 2.0)
        pool[1].acquire(0.0, 3.0)
        assert len(pool) == 2
        assert pool.busy_seconds == 5.0

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourcePool(0)

    def test_slots_are_the_resources(self):
        pool = ResourcePool(3)
        slots = [pool[i] for i in range(3)]
        assert all(isinstance(r, Resource) for r in slots)
        assert len({id(r) for r in slots}) == 3 and pool[2] is slots[2]
        assert pool.acquire(1, 0.0, 2.0) == 2.0
        assert slots[1].acquire(0.0, 1.0) == 3.0  # one timeline, two spellings
        with pytest.raises(ConfigurationError):
            pool.acquire(0, 0.0, -1.0)
        pool.reset()
        assert pool[1] is slots[1]  # reset in place: held references stay live
        assert slots[1].available_at == 0.0 and pool.busy_seconds == 0.0


class TestClosedLoopRunner:
    def test_single_client_serial(self):
        r = Resource()
        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        finish = runner.run([[1.0, 2.0, 3.0]])
        assert finish == [6.0]

    def test_two_clients_share_one_resource(self):
        # Fully serialized: client 0 holds the server over [0,1], [2,3], ...,
        # [8,9]; client 1 waits behind it each time and ends at 10.
        r = Resource()
        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        assert runner.run([[1.0] * 5, [1.0] * 5]) == [9.0, 10.0]

    def test_two_clients_on_independent_resources(self):
        pool = ResourcePool(2)
        runner = ClosedLoopRunner(lambda req, at: pool[req[0]].acquire(at, req[1]))
        makespan = runner.run_makespan([[(0, 1.0)] * 5, [(1, 1.0)] * 5])
        assert makespan == pytest.approx(5.0)  # perfectly parallel

    def test_closed_loop_ordering(self):
        # Each client's requests are strictly sequential.
        log = []

        def service(req, at):
            log.append((req, at))
            return at + 1.0

        ClosedLoopRunner(service).run([["a1", "a2"], ["b1"]])
        assert log[0][0] in ("a1", "b1")
        a_times = [at for req, at in log if req.startswith("a")]
        assert a_times == sorted(a_times)

    def test_empty_streams_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedLoopRunner(lambda r, t: t).run([])

    def test_backwards_service_rejected(self):
        runner = ClosedLoopRunner(lambda req, at: at - 1.0)
        with pytest.raises(ConfigurationError):
            runner.run([[1]])
        # A run of tied arrivals handed to ``service_batch`` is checked too.
        runner = ClosedLoopRunner(
            lambda req, at: at + 1.0,
            service_batch=lambda reqs, at: [at - 1.0 for _ in reqs],
        )
        with pytest.raises(ConfigurationError):
            runner.run([[1], [1]])

    def test_single_client_zero_duration_services(self):
        runner = ClosedLoopRunner(lambda req, at: at + req)
        assert runner.run([[0.0, 1.0, 0.0]]) == [1.0]

    @pytest.mark.parametrize(
        "streams, start_time",
        [
            pytest.param([[1.0] * 5, [1.0] * 5], 0.0, id="equal"),
            pytest.param([[0.5, 2.0], [1.0], [0.25, 0.25, 3.0, 0.125]], 0.0, id="ragged"),
            pytest.param([[1.0, 1.0], [2.0]], 5.0, id="nonzero_start"),
            pytest.param([[0.0, 0.0], [1.0]], 0.0, id="zero_duration_ties"),
            pytest.param(_random_streams(7), 0.0, id="random"),
        ],
    )
    def test_one_resource_matches_fifo_reference(self, streams, start_time):
        r = Resource()
        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        finish = runner.run([list(s) for s in streams], start_time)
        assert finish == _fifo_reference(streams, start_time)


def _fifo_reference(streams, start_time):
    """Closed-loop clients on one FIFO server, by linear scan: the next event
    is the earliest issue time, ties going to the lowest client index."""
    pending = [list(s) for s in streams]
    issue = [start_time] * len(streams)
    finish = [None] * len(streams)
    free_at = 0.0
    while any(f is None for f in finish):
        i = min((i for i, f in enumerate(finish) if f is None), key=lambda i: (issue[i], i))
        if not pending[i]:
            finish[i] = issue[i]
            continue
        free_at = max(issue[i], free_at) + pending[i].pop(0)
        issue[i] = free_at
    return finish


class TestValueErrorContract:
    """ISSUE satellite: nonsense construction raises ValueError.

    ConfigurationError and InvalidIOError are ValueError subclasses, so
    both the package-specific excepts and plain ``except ValueError``
    callers work.
    """

    def test_error_hierarchy(self):
        from repro.errors import ConfigurationError, InvalidIOError

        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(InvalidIOError, ValueError)

    def test_resource_negative_duration_is_valueerror(self):
        with pytest.raises(ValueError):
            Resource().acquire(0.0, -0.5)

    def test_resource_pool_nonpositive_count_is_valueerror(self):
        with pytest.raises(ValueError):
            ResourcePool(0)
        with pytest.raises(ValueError):
            ResourcePool(-3)


class TestRunnerEdgeCases:
    """ISSUE satellite: ClosedLoopRunner corner cases."""

    def test_stream_exception_propagates_with_clock_intact(self):
        r = Resource()

        def stream():
            yield 1.0
            yield 2.0
            raise RuntimeError("generator died")

        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        with pytest.raises(RuntimeError, match="generator died"):
            runner.run([stream()])
        # Both requests served before the crash stay charged.
        assert r.available_at == 3.0
        assert r.busy_seconds == 3.0

    def test_stream_exception_in_heap_path(self):
        r = Resource()

        def bad():
            yield 1.0
            raise RuntimeError("client 0 died")

        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        with pytest.raises(RuntimeError, match="client 0 died"):
            runner.run([bad(), iter([1.0, 1.0, 1.0])])
        assert r.busy_seconds > 0.0

    def test_single_server_vs_heap_mixed_workload(self):
        # Long and short services interleaved on one server: the heap
        # schedule against the single-server FIFO reference.
        streams = [[0.1, 5.0, 0.1], [1.0, 1.0, 1.0, 1.0], [2.5], [0.01] * 8]
        r = Resource()
        runner = ClosedLoopRunner(lambda req, at: r.acquire(at, req))
        assert runner.run([list(s) for s in streams]) == _fifo_reference(streams, 0.0)


class TestPoolOccupancy:
    """Satellite: free_slots/first_free/next_available_at accessors.

    The serving layer asks the pool "who is idle at time t?" instead of
    poking Resource.available_at directly; these pin the accessor
    semantics it relies on.
    """

    def test_free_slots_counts_idle_resources(self):
        pool = ResourcePool(3)
        assert pool.free_slots(0.0) == 3
        pool[0].acquire(0.0, 5.0)
        pool[1].acquire(0.0, 2.0)
        assert pool.free_slots(0.0) == 1
        assert pool.free_slots(2.0) == 2
        assert pool.free_slots(5.0) == 3

    def test_first_free_scans_in_index_order(self):
        pool = ResourcePool(3)
        pool[0].acquire(0.0, 4.0)
        assert pool.first_free(0.0) == 1
        assert pool.first_free(0.0, exclude=1) == 2
        pool[1].acquire(0.0, 4.0)
        pool[2].acquire(0.0, 4.0)
        assert pool.first_free(0.0) is None
        assert pool.first_free(4.0) == 0

    def test_is_free_matches_acquire_semantics(self):
        pool = ResourcePool(1)
        assert pool.free_slots(0.0) == 1
        pool[0].acquire(0.0, 3.0)
        assert pool.free_slots(2.999) == 0 and pool.first_free(2.999) is None
        # A job arriving exactly at free time starts now.
        assert pool.free_slots(3.0) == 1 and pool.first_free(3.0) == 0
        assert pool[0].acquire(3.0, 1.0) == 4.0

    def test_next_available_at(self):
        pool = ResourcePool(2)
        assert pool.next_available_at() == 0.0
        pool[0].acquire(0.0, 3.0)
        pool[1].acquire(0.0, 1.0)
        assert pool.next_available_at() == 1.0

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 32])
    def test_query_driven_dispatch_matches_resource_list(self, count):
        # The serve layer's loop: take the first free slot, else wait for
        # the earliest one — against a hand-rolled list of Resource.
        rnd = random.Random(count)
        pool, ref = ResourcePool(count), [Resource() for _ in range(count)]
        now = 0.0
        for _ in range(300):
            now += rnd.random() / count
            free = [i for i, r in enumerate(ref) if r.available_at <= now]
            assert pool.free_slots(now) == len(free)
            idx = pool.first_free(now)
            assert idx == (free[0] if free else None)
            if idx is None:  # all busy
                now = pool.next_available_at()
                assert now == min(r.available_at for r in ref)
                idx = pool.first_free(now)
                assert idx == min(range(count), key=lambda i: ref[i].available_at)
            if len(free) == 1:  # ``exclude`` = the only free slot
                assert pool.first_free(now, exclude=free[0]) is None
            dur = rnd.random()
            assert pool[idx].acquire(now, dur) == ref[idx].acquire(now, dur)
            assert pool.busy_seconds == sum(r.busy_seconds for r in ref)

    def test_accessors_do_not_reserve(self):
        pool = ResourcePool(1)
        pool.free_slots(0.0)
        pool.first_free(0.0)
        pool.next_available_at()
        # Purely observational: the slot is still free, so a job arriving
        # at 0 starts immediately and completes at its bare duration.
        assert pool[0].acquire(0.0, 1.0) == 1.0
