"""Property tests: the solver matches brute-force argmin of the models.

The acceptance contract of :mod:`repro.tuning.solve`: across the alpha
range [1e-4, 1e-1] (per entry), the node size the solver returns achieves
a model cost within a whisker of the best cost a dense brute-force grid
over the same domain finds.  Cost
match (not argmin-position match) is the right property: the cost curves
are flat near their optima, so two far-apart configurations can tie.
"""

import math

import pytest

from repro.analysis.fitting import AffineFit
from repro.errors import ConfigurationError
from repro.models.analysis import btree_op_cost
from repro.tuning import DeviceProfile, solve
from repro.tuning.solve import solve_btree_node_entries

# N/M large enough that the uncached-height clamp never binds over the
# tested alpha range (the solver is the interior Corollary 7/12 optimum;
# its docstring scopes out trees that nearly fit in cache).
N, M = 1e9, 1e3
ALPHAS = [1e-4, 1e-3, 1e-2, 1e-1]


def _log_grid(lo, hi, n=400):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


def profile_for(alpha_per_entry, *, entry_bytes=108, s=0.004):
    """A synthetic DeviceProfile whose per-entry alpha is exact."""
    alpha_per_byte = alpha_per_entry / entry_bytes
    affine = AffineFit(
        setup_seconds=s,
        seconds_per_byte=alpha_per_byte * s,
        alpha=alpha_per_byte,
        alpha_unit_bytes=1,
        r2=1.0,
    )
    return DeviceProfile(affine=affine, pdam=None, probe_seconds=0.0, probe_ios=0)


class TestBTreeSolveMatchesBruteForce:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cost_at_solver_argmin_is_grid_minimum(self, alpha):
        best_entries = solve_btree_node_entries(alpha, N, M)
        solver_cost = btree_op_cost(best_entries, alpha, N, M)
        grid_cost = min(
            btree_op_cost(b, alpha, N, M) for b in _log_grid(2.0, 10.0 / alpha)
        )
        assert solver_cost <= grid_cost * 1.001

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_optimum_below_half_bandwidth(self, alpha):
        assert solve_btree_node_entries(alpha, N, M) < 1.0 / alpha


class TestRecommendations:
    def test_btree_serial_recommendation_matches_solver(self):
        alpha = 1e-2
        profile = profile_for(alpha)
        rec = solve(profile, n_entries=int(N), cache_bytes=int(M) * 108)
        entries = solve_btree_node_entries(alpha, N, M)
        assert rec.node_bytes == pytest.approx(entries * 108, rel=0.05)
        assert rec.predicted_per_op_seconds == pytest.approx(
            0.004 * btree_op_cost(entries, alpha, N, M)
        )

    def test_in_cache_tree_rejected(self):
        profile = profile_for(1e-2)
        with pytest.raises(ConfigurationError):
            solve(profile, n_entries=100, cache_bytes=10**9)
