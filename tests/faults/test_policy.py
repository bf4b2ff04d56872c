"""ResiliencePolicy validation and the stock policy constructors."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults import POLICY_NAMES, FaultStats, ResiliencePolicy


class TestStockPolicies:
    def test_names_cover_cli(self):
        assert POLICY_NAMES == ("none", "retry", "hedge")

    def test_none_is_noop(self):
        p = ResiliencePolicy.none()
        assert not p.retries_enabled and not p.hedge_enabled

    def test_retry_enables_retries_only(self):
        p = ResiliencePolicy.retry(max_retries=3, backoff_seconds=1e-3)
        assert p.retries_enabled and not p.hedge_enabled

    def test_hedged_keeps_retries_on(self):
        p = ResiliencePolicy.hedged(5e-3)
        assert p.hedge_enabled and p.retries_enabled
        assert p.hedge_deadline_seconds == 5e-3


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)

    def test_retries_need_backoff(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=1, backoff_seconds=0.0)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_multiplier=0.5)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(hedge_deadline_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_seconds=0.0)


class TestDescribe:
    def test_infinities_become_none(self):
        d = ResiliencePolicy.none().describe()
        assert d["timeout_seconds"] is None
        assert d["hedge_deadline_seconds"] is None

    def test_finite_values_pass_through(self):
        d = ResiliencePolicy.hedged(4e-3, timeout_seconds=1.0).describe()
        assert d["hedge_deadline_seconds"] == 4e-3
        assert d["timeout_seconds"] == 1.0
        assert math.isfinite(d["hedge_deadline_seconds"])


class TestFaultStats:
    def test_totals_and_reset(self):
        fs = FaultStats()
        fs.spikes_injected = 2
        fs.errors_injected = 3
        fs.stalls_injected = 4
        assert fs.faults_injected == 9
        fs.reset()
        assert fs.faults_injected == 0 and fs.retries == 0
