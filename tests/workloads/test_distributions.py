"""Key-distribution tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.distributions import ZipfKeys


class TestZipf:
    def test_skewed(self):
        keys = ZipfKeys(10**6, seed=1, theta=1.5).sample(20_000)
        _, counts = np.unique(keys, return_counts=True)
        # The hottest key dominates: far above the uniform expectation.
        assert counts.max() > 50 * counts.mean()

    def test_in_range(self):
        keys = ZipfKeys(1000, seed=2).sample(5000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_theta_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfKeys(1000, theta=1.0)

    @pytest.mark.parametrize("universe", [3, 1000, 100_003, 1 << 16, 1_000_003])
    def test_scatter_bijective(self, universe):
        # Regression: the old golden-ratio multiply-then-mod scatter is only
        # collision-free for power-of-two universes; for e.g. universe=1000
        # distinct hot ranks silently merged onto one key.  The Feistel
        # scatter must be a true permutation of [0, universe).
        z = ZipfKeys(universe, seed=3)
        image = z.scatter(np.arange(universe, dtype=np.uint64))
        assert len(np.unique(image)) == universe
        assert image.min() >= 0 and image.max() < universe

    def test_hot_ranks_stay_distinct(self):
        # The hottest zipf ranks (1, 2, 3, ...) must land on distinct keys
        # even in a non-power-of-two universe.
        z = ZipfKeys(1000, seed=0)
        hot = z.scatter(np.arange(16, dtype=np.uint64))
        assert len(np.unique(hot)) == 16

    def test_scatter_deterministic_per_seed(self):
        a = ZipfKeys(1000, seed=7).scatter(np.arange(1000, dtype=np.uint64))
        b = ZipfKeys(1000, seed=7).scatter(np.arange(1000, dtype=np.uint64))
        c = ZipfKeys(1000, seed=8).scatter(np.arange(1000, dtype=np.uint64))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_universe_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfKeys(0)

    def test_scatter_rejects_out_of_range(self):
        z = ZipfKeys(1000, seed=0)
        with pytest.raises(ConfigurationError):
            z.scatter(np.array([1000], dtype=np.uint64))
