"""QoS mechanics: token buckets spend what time refills, WFQ honours weights."""

import pytest

from repro.serve import AdmissionController, TenantSpec, TokenBucket, WeightedFairQueue


def tenants(*specs):
    return tuple(specs)


class TestTokenBucket:
    def test_burst_then_starve(self):
        b = TokenBucket(rate=10.0, burst=3.0)
        assert [b.admit(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_with_time(self):
        b = TokenBucket(rate=10.0, burst=1.0)
        assert b.admit(0.0)
        assert not b.admit(0.05)  # only half a token back
        assert b.admit(0.2)  # > 0.1s since last spend

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=100.0, burst=2.0)
        b.admit(0.0)
        admitted = sum(b.admit(10.0) for _ in range(5))
        assert admitted == 2  # a decade of idle banks only `burst` tokens

    def test_time_must_be_monotone(self):
        b = TokenBucket(rate=1.0, burst=1.0)
        b.admit(1.0)
        with pytest.raises(ValueError):
            b.admit(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_unlimited_tenant_always_admits(self):
        ts = tenants(TenantSpec("a", rate=1.0))
        ctl = AdmissionController(ts)
        assert all(ctl.admit("a", 0.0) for _ in range(1000))

    def test_limited_tenant_sheds_excess(self):
        ts = tenants(TenantSpec("a", rate=100.0, rate_limit=10.0, burst=1.0))
        ctl = AdmissionController(ts)
        # 100 arrivals over one second against a 10/s limit: ~10 admitted.
        admitted = sum(ctl.admit("a", i / 100.0) for i in range(100))
        assert 9 <= admitted <= 12

    def test_reset_refills_and_rewinds_every_bucket(self):
        ts = tenants(TenantSpec("a", rate=100.0, rate_limit=10.0, burst=2.0))
        ctl = AdmissionController(ts)
        first = [ctl.admit("a", 5.0 + i * 0.01) for i in range(4)]
        ctl.reset()
        # Time 0 again (no "went backwards"), a full burst again.
        assert [ctl.admit("a", i * 0.01) for i in range(4)] == first
        assert first == [True, True, False, False]

    def test_disabled_controller_admits_everything(self):
        ts = tenants(TenantSpec("a", rate=100.0, rate_limit=1.0, burst=1.0))
        ctl = AdmissionController(ts, enabled=False)
        assert all(ctl.admit("a", 0.0) for _ in range(50))


class TestWeightedFairQueue:
    def test_fifo_within_tenant(self):
        q = WeightedFairQueue(tenants(TenantSpec("a", rate=1.0)))
        for i in range(5):
            q.push("a", i)
        assert [q.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_weights_set_drain_ratio(self):
        ts = tenants(
            TenantSpec("heavy", rate=1.0, weight=2.0),
            TenantSpec("light", rate=1.0, weight=1.0),
        )
        q = WeightedFairQueue(ts)
        for i in range(60):
            q.push("heavy", i)
            q.push("light", i)
        first_30 = [q.pop()[0] for _ in range(30)]
        heavy_share = first_30.count("heavy")
        # Start-time fair queuing: the weight-2 tenant gets ~2/3 of slots.
        assert 17 <= heavy_share <= 23

    def test_idle_tenant_share_redistributes(self):
        ts = tenants(
            TenantSpec("a", rate=1.0, weight=1.0),
            TenantSpec("b", rate=1.0, weight=1.0),
        )
        q = WeightedFairQueue(ts)
        for i in range(10):
            q.push("a", i)
        assert all(q.pop()[0] == "a" for _ in range(10))
        # b was idle throughout; it restarts at the current virtual time —
        # interleaving fairly from now on, not owed the backlog it never
        # queued for (registration order gives a the tie at equal tags).
        q.push("b", 0)
        q.push("a", 10)
        q.push("a", 11)
        assert [q.pop()[0] for _ in range(3)] == ["a", "b", "a"]

    def test_deterministic_tie_break(self):
        ts = tenants(TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        order = []
        for _ in range(3):
            q = WeightedFairQueue(ts)
            q.push("a", 0)
            q.push("b", 0)
            order.append((q.pop()[0], q.pop()[0]))
        assert order == [("a", "b")] * 3  # registration order breaks ties

    def test_depth_and_len(self):
        ts = tenants(TenantSpec("a", rate=1.0), TenantSpec("b", rate=1.0))
        q = WeightedFairQueue(ts)
        q.push("a", 1)
        q.push("a", 2)
        q.push("b", 3)
        assert len(q) == 3
        assert q.depth("a") == 2
        assert q.depth("b") == 1

    def test_errors(self):
        ts = tenants(TenantSpec("a", rate=1.0))
        q = WeightedFairQueue(ts)
        with pytest.raises(ValueError):
            q.push("ghost", 1)
        with pytest.raises(ValueError):
            q.pop()
        with pytest.raises(ValueError):
            WeightedFairQueue(())
        with pytest.raises(ValueError):
            WeightedFairQueue(tenants(TenantSpec("a", rate=1.0), TenantSpec("a", rate=2.0)))
