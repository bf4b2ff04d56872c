"""FaultyDevice: deterministic injection, retry, hedging, accounting."""

import pytest

from repro import obs
from repro.errors import ConfigurationError, TransientIOError
from repro.faults import DegradedPhase, FaultPlan, FaultyDevice, ResiliencePolicy
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice

_MODEL = AffineModel(alpha=1e-6, setup_seconds=0.01)

#: Base read time of _make()'s inner device for a 4 KiB IO.
BASE_4K = _MODEL.setup_seconds + _MODEL.seconds_per_byte * 4096


def _make(plan, policy=None):
    inner = AffineDevice(_MODEL, capacity_bytes=1 << 30)
    return FaultyDevice(inner, plan, policy=policy)


def _read_times(dev, n, nbytes=4096):
    return [dev.read(i * nbytes, nbytes) for i in range(n)]


class TestZeroPlanIdentity:
    def test_timings_match_bare_device(self):
        bare = AffineDevice(AffineModel(alpha=1e-6, setup_seconds=0.01), capacity_bytes=1 << 30)
        wrapped = _make(FaultPlan(seed=123))
        for i in range(50):
            assert wrapped.read(i * 4096, 4096) == bare.read(i * 4096, 4096)
            assert wrapped.write(i * 4096, 4096) == bare.write(i * 4096, 4096)
        assert wrapped.clock == bare.clock
        assert wrapped.stats.reads == bare.stats.reads

    def test_noop_policy_on_zero_plan_changes_nothing(self):
        bare = AffineDevice(AffineModel(alpha=1e-6, setup_seconds=0.01), capacity_bytes=1 << 30)
        wrapped = _make(FaultPlan(), policy=ResiliencePolicy.hedged(1.0))
        # Deadline far above any service time: the hedge branch never fires.
        for i in range(20):
            assert wrapped.read(i * 4096, 4096) == bare.read(i * 4096, 4096)
        assert wrapped.fault_stats.hedges_issued == 0


class TestDeterminism:
    PLAN = FaultPlan(seed=5, spike_prob=0.3, spike_seconds=0.05, error_prob=0.1)

    def test_same_plan_same_faults(self):
        pol = ResiliencePolicy.retry(max_retries=8, backoff_seconds=1e-4)
        a, b = _make(self.PLAN, pol), _make(self.PLAN, pol)
        assert _read_times(a, 100) == _read_times(b, 100)
        assert a.fault_stats == b.fault_stats

    def test_reset_replays_identically(self):
        pol = ResiliencePolicy.retry(max_retries=8, backoff_seconds=1e-4)
        dev = _make(self.PLAN, pol)
        first = _read_times(dev, 100)
        spikes = dev.fault_stats.spikes_injected
        dev.reset()
        assert dev.clock == 0.0 and dev.inner.clock == 0.0
        assert _read_times(dev, 100) == first
        assert dev.fault_stats.spikes_injected == spikes

    def test_different_seed_different_faults(self):
        a = _make(FaultPlan(seed=5, spike_prob=0.3, spike_seconds=0.05))
        b = _make(FaultPlan(seed=6, spike_prob=0.3, spike_seconds=0.05))
        ta = [a.read(i * 4096, 4096) for i in range(100)]
        tb = [b.read(i * 4096, 4096) for i in range(100)]
        assert ta != tb


class TestSpikes:
    def test_certain_spike_adds_at_least_scale(self):
        dev = _make(FaultPlan(spike_prob=1.0, spike_seconds=0.02))
        times = _read_times(dev, 20)
        assert all(t >= BASE_4K + 0.02 for t in times)
        assert dev.fault_stats.spikes_injected == 20

    def test_spikes_hit_writes_too(self):
        dev = _make(FaultPlan(spike_prob=1.0, spike_seconds=0.02))
        assert dev.write(0, 4096) >= BASE_4K + 0.02


class TestTransientErrors:
    def test_no_policy_raises_and_wrapper_clock_holds(self):
        dev = _make(FaultPlan(error_prob=1.0))
        with pytest.raises(TransientIOError):
            dev.read(0, 4096)
        # The op failed: the wrapper charged nothing, the inner attempt ran.
        assert dev.clock == 0.0 and dev.stats.reads == 0
        assert dev.inner.stats.reads == 1
        assert dev.fault_stats.retry_giveups == 1

    def test_retry_budget_exhaustion_counts_attempts(self):
        pol = ResiliencePolicy.retry(max_retries=2, backoff_seconds=1e-3)
        dev = _make(FaultPlan(error_prob=1.0), pol)
        with pytest.raises(TransientIOError):
            dev.read(0, 4096)
        assert dev.inner.stats.reads == 3  # initial + 2 retries
        assert dev.fault_stats.retries == 2
        assert dev.fault_stats.retry_giveups == 1

    def test_retry_recovers_intermittent_errors(self):
        plan = FaultPlan(seed=1, error_prob=0.4)
        pol = ResiliencePolicy.retry(max_retries=10, backoff_seconds=1e-4)
        dev = _make(plan, pol)
        times = _read_times(dev, 200)
        assert len(times) == 200  # nothing raised
        assert dev.fault_stats.retries > 0
        assert dev.fault_stats.retry_giveups == 0
        # Backoff waits are charged as simulated time.
        assert dev.clock > dev.inner.clock - 1e-12
        assert dev.stats.reads == 200
        assert dev.inner.stats.reads == 200 + dev.fault_stats.retries

    def test_timeout_budget_caps_the_ladder(self):
        pol = ResiliencePolicy.retry(
            max_retries=50, backoff_seconds=1.0, timeout_seconds=1.5
        )
        dev = _make(FaultPlan(error_prob=1.0), pol)
        with pytest.raises(TransientIOError):
            dev.read(0, 4096)
        assert dev.inner.stats.reads < 5  # budget stopped it, not max_retries

    def test_errors_hit_writes_too(self):
        dev = _make(FaultPlan(error_prob=1.0))
        with pytest.raises(TransientIOError):
            dev.write(0, 4096)


class TestHedging:
    PLAN = FaultPlan(seed=2, spike_prob=0.3, spike_seconds=0.2, spike_alpha=1.1)

    def test_hedge_caps_heavy_tail(self):
        none_dev = _make(self.PLAN)
        hedge_dev = _make(self.PLAN, ResiliencePolicy.hedged(BASE_4K * 1.5))
        t_none = sum(_read_times(none_dev, 300))
        t_hedge = sum(_read_times(hedge_dev, 300))
        assert hedge_dev.fault_stats.hedges_issued > 0
        assert hedge_dev.fault_stats.hedge_wins > 0
        assert t_hedge < t_none

    def test_hedge_never_slower_than_deadline_plus_dup(self):
        dev = _make(self.PLAN, ResiliencePolicy.hedged(BASE_4K * 1.5))
        for t in _read_times(dev, 100):
            # min(primary, deadline + duplicate): a win is bounded by the
            # duplicate's own completion.
            assert t <= BASE_4K * 1.5 + 0.2 * 1000 + BASE_4K  # sanity ceiling

    def test_writes_are_never_hedged(self):
        dev = _make(self.PLAN, ResiliencePolicy.hedged(BASE_4K * 1.5))
        for i in range(100):
            dev.write(i * 4096, 4096)
        assert dev.fault_stats.hedges_issued == 0


class TestDegradedPhases:
    def test_slowdown_multiplies_service_exactly(self):
        plan = FaultPlan(degraded=(DegradedPhase(0.0, 1e9, 2.0),))
        dev = _make(plan)
        assert dev.read(0, 4096) == pytest.approx(2.0 * BASE_4K)

    def test_phase_ends(self):
        plan = FaultPlan(degraded=(DegradedPhase(0.0, BASE_4K * 1.5, 2.0),))
        dev = _make(plan)
        first = dev.read(0, 4096)
        second = dev.read(4096, 4096)  # issued after the phase closed
        assert first == pytest.approx(2.0 * BASE_4K)
        assert second == pytest.approx(BASE_4K)


class TestWrapperHygiene:
    def test_nesting_rejected(self):
        dev = _make(FaultPlan())
        with pytest.raises(ConfigurationError):
            FaultyDevice(dev, FaultPlan())


class TestObservability:
    """Each attempt the inner device serves is one ``device.*`` event; the
    wrapper adds only its ``faults.*`` and ``io.*`` counters."""

    @pytest.fixture(autouse=True)
    def metrics(self):
        obs.disable(detach_tracer=True)
        obs.reset()
        obs.enable()
        yield obs.OBS
        obs.disable()
        obs.reset()

    @pytest.mark.parametrize(
        "plan, policy",
        [
            (FaultPlan(seed=5, error_prob=0.3), ResiliencePolicy.retry(max_retries=50)),
            (TestHedging.PLAN, ResiliencePolicy.hedged(BASE_4K * 1.5)),
        ],
        ids=["retry", "hedge"],
    )
    def test_device_events_count_inner_ios(self, metrics, plan, policy):
        dev = _make(plan, policy)
        _read_times(dev, 60)
        dev.read_batch([i * 4096 for i in range(60, 100)], 4096)
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert dev.inner.stats.reads > dev.stats.reads == 100
        assert counters["device.read.ios"] == dev.inner.stats.reads
        assert snap["histograms"]["device.read.seconds"]["count"] == dev.inner.stats.reads
        assert counters["device.setup_seconds_x1e9"] > 0  # the inner device's split
        faults = dev.fault_stats
        assert counters.get("io.retries", 0) == faults.retries
        assert counters.get("io.hedges_issued", 0) == faults.hedges_issued
        assert faults.retries + faults.hedges_issued == dev.inner.stats.reads - 100
