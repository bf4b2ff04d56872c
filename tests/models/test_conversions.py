"""Lemma 1 (affine <-> DAM) tests, including the factor-of-2 bound."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.conversions import (
    affine_cost,
    affine_cost_of_dam_algorithm,
    dam_cost_of_affine_algorithm,
    half_bandwidth_point,
)


class TestHalfBandwidthPoint:
    def test_value(self):
        assert half_bandwidth_point(0.01) == pytest.approx(100.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            half_bandwidth_point(0)


class TestLemma1:
    """Lemma 1: affine cost C -> DAM cost <= 2C and vice versa."""

    def test_dam_of_affine_within_factor_2(self):
        alpha = 1e-3
        rng = np.random.default_rng(0)
        ios = [int(x) for x in rng.integers(1, 100_000, size=200)]
        c_affine = affine_cost(ios, alpha)
        c_dam = dam_cost_of_affine_algorithm(ios, alpha)
        assert c_dam <= 2.0 * c_affine + 1e-9

    def test_affine_of_dam_exactly_2(self):
        # Each half-bandwidth block IO costs exactly 2 affine units.
        assert affine_cost_of_dam_algorithm(10, alpha=0.01) == pytest.approx(20.0)

    def test_small_ios_lose_nothing(self):
        # IOs below the half-bandwidth point become one block each.
        alpha = 1e-4
        ios = [10, 20, 30]
        assert dam_cost_of_affine_algorithm(ios, alpha) == 3.0

    def test_factor_2_is_tight_for_tiny_ios(self):
        # Many 1-byte IOs: affine cost ~n, DAM cost n -> ratio ~1.
        # One huge IO: affine ~alpha*x, DAM ~alpha*x -> ratio ~1.
        # Half-bandwidth IOs: affine 2 per IO, DAM 1 per IO -> DAM better;
        # the 2x loss appears converting DAM back to affine.
        alpha = 1e-3
        b = int(half_bandwidth_point(alpha))
        n = 50
        affine_direct = affine_cost([b] * n, alpha)
        via_dam = affine_cost_of_dam_algorithm(n, alpha)
        assert via_dam == pytest.approx(affine_direct)

    def test_negative_io_rejected(self):
        with pytest.raises(ConfigurationError):
            dam_cost_of_affine_algorithm([-1], 0.01)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            affine_cost_of_dam_algorithm(-1, 0.01)
