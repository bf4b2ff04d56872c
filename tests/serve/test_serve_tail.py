"""E19's gates: replica hedging cuts the spiked-service tail at high load.

One B-tree sweep of every policy over the stock rates; the gates read the
highest offered rate, where the queues are longest.
"""

import pytest

from repro.experiments import exp_serve_tail


def _top_rate_row(result, policy):
    top = max(result.rates)
    (row,) = (
        r for r in result.rows if r["total_rate"] == top and r["policy"] == policy
    )
    return row


class TestServeTail:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_serve_tail.run(trees=("btree",), cache=None)

    def test_hedging_improves_p99_at_the_top_rate(self, result):
        hedge, none = _top_rate_row(result, "hedge"), _top_rate_row(result, "none")
        assert hedge["p99_ms"] < none["p99_ms"]

    def test_hedging_cuts_p999_decisively(self, result):
        # The spike quantile is hedging's home turf; demand a wide margin.
        hedge, none = _top_rate_row(result, "hedge"), _top_rate_row(result, "none")
        assert hedge["p999_ms"] < 0.5 * none["p999_ms"]

    def test_rows_equal_across_jobs(self, result):
        assert exp_serve_tail.run(trees=("btree",), jobs=2, cache=None).rows == result.rows

    def test_quick_keeps_an_explicit_axis(self):
        # Explicit axes that happen to equal the defaults are still explicit.
        quick = exp_serve_tail.run(
            trees=exp_serve_tail.DEFAULT_TREES,
            rates=exp_serve_tail.DEFAULT_RATES,
            policies=("none",),
            quick=True,
            cache=None,
        )
        assert quick.trees == exp_serve_tail.DEFAULT_TREES
        assert quick.rates == exp_serve_tail.DEFAULT_RATES
        assert len(quick.rows) == len(quick.trees) * len(quick.rates)

    def test_render(self, result):
        assert "E19" in result.render()
