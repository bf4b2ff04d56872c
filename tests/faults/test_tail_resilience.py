"""E18 tail-resilience experiment: structure plus the acceptance criteria.

The ISSUE pins two behaviors: hedging must achieve *strictly lower p99*
than no policy on a PDAM-SSD-like configuration, and the experiment's
intensity-zero rows must be identical across policies (a no-op policy on
no faults is the fault-free baseline).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import exp_tail_resilience as e18
from repro.faults import FaultPlan, FaultyDevice, ResiliencePolicy
from repro.models.pdam import PDAMModel
from repro.storage.ideal import PDAMDevice

QUICK = dict(
    n_entries=12_000,
    cache_bytes=256 << 10,
    n_queries=80,
    warmup_queries=30,
    n_rounds=400,
)


def _run_quick(**overrides):
    spec = e18.sweep_spec(
        intensities=(0.0, 1.0), policies=("none", "hedge"), trees=("btree",), **QUICK
    )
    from repro.runner import run_sweep

    result = e18.TailResilienceResult(
        intensities=(0.0, 1.0),
        policies=("none", "hedge"),
        trees=("btree",),
        plan=e18.DEFAULT_PLAN.describe(),
    )
    for row in run_sweep(spec, **overrides):
        (result.tree_rows if "tree" in row else result.pdam_rows).append(row)
    return result


class TestHedgeP99Acceptance:
    def test_hedge_strictly_lower_p99_on_pdam_ssd(self):
        """Hedged reads beat no-policy p99 on a PDAM SSD config (ISSUE)."""
        plan = FaultPlan(
            seed=17, spike_prob=0.08, spike_seconds=4e-3, spike_alpha=1.2
        )
        model = PDAMModel(8, 4096, step_seconds=1e-3)

        def latencies(policy):
            dev = FaultyDevice(
                PDAMDevice(model, capacity_bytes=1 << 30), plan, policy=policy
            )
            return np.array([dev.read(i * 4096, 4096) for i in range(2000)])

        t_none = latencies(ResiliencePolicy.none())
        t_hedge = latencies(ResiliencePolicy.hedged(2.5e-3))
        assert np.percentile(t_hedge, 99) < np.percentile(t_none, 99)
        assert t_hedge.mean() < t_none.mean()


class TestExperiment:
    def test_quick_run_structure(self):
        result = _run_quick()
        assert len(result.tree_rows) == 1 * 2 * 2  # trees x intensities x policies
        assert len(result.pdam_rows) == 2 * 2
        rendered = result.render()
        assert "E18a" in rendered and "E18b" in rendered

    def test_intensity_zero_identical_across_policies(self):
        result = _run_quick()
        base = [r for r in result.tree_rows if r["intensity"] == 0.0]
        assert len(base) == 2
        for key in ("mean_ms", "p50_ms", "p99_ms", "max_ms"):
            assert base[0][key] == base[1][key]  # exact: no faults, no policy effect
        assert all(r["failed"] == 0 for r in base)
        pdam_base = [r for r in result.pdam_rows if r["intensity"] == 0.0]
        assert all(r["recovered"] == 1.0 for r in pdam_base)

    def test_pdam_hedge_recovers_throughput(self):
        result = _run_quick()
        by_policy = {
            r["policy"]: r for r in result.pdam_rows if r["intensity"] == 1.0
        }
        assert by_policy["hedge"]["throughput"] > by_policy["none"]["throughput"]
        assert by_policy["hedge"]["recovered"] > 0.85

    def test_cached_rerun_identical(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        first = _run_quick(cache=cache)
        second = _run_quick(cache=cache)
        assert second.tree_rows == first.tree_rows
        assert second.pdam_rows == first.pdam_rows
        assert cache.hits > 0

    def test_run_quick_flag(self):
        result = e18.run(
            quick=True, intensities=(1.0,), policies=("retry",), trees=("btree",)
        )
        assert len(result.tree_rows) == 1 and len(result.pdam_rows) == 1
        assert result.tree_rows[0]["failed"] == 0  # retry recovers every op

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            e18.policy_for("shrug", hedge_deadline_seconds=1.0)

    def test_unknown_tree_rejected(self):
        with pytest.raises(ConfigurationError):
            e18.measure_tree(
                tree="splay",
                plan_json=FaultPlan().to_json(),
                intensity=0.0,
                policy="none",
                n_entries=100,
                cache_bytes=1 << 16,
                universe=1 << 20,
                n_queries=1,
                warmup_queries=0,
                seed=0,
            )
