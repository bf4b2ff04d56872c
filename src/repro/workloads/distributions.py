"""Skewed keys for workload generation.

The paper's Section 7 benchmark uses uniform random keys
(:mod:`repro.workloads.generators`); the Zipf distribution here serves
the extension experiments (skew changes cache behaviour, not the IO cost
model, which is a useful sanity axis).  It is deterministic given its
seed and draws from a fixed key universe ``[0, universe)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class ZipfKeys:
    """Zipf-skewed keys: rank ``r`` drawn with probability ``~ 1/r^theta``.

    Ranks are scattered over the universe with a seeded bijection of
    ``[0, universe)`` (:meth:`scatter`) so hot keys are not numerically
    adjacent.  Bijectivity holds for *every* universe size, not just
    powers of two: the scatter is a 4-round Feistel permutation over the
    smallest even-bit power-of-two domain covering the universe, with
    cycle-walking to fold out-of-range images back in.  (A plain
    ``(r * odd_constant) % universe`` mix — the previous implementation —
    collides whenever the universe is not a power of two, silently
    merging distinct hot ranks onto one key.)
    """

    def __init__(self, universe: int, seed: int = 0, theta: float = 1.2) -> None:
        if universe <= 0:
            raise ConfigurationError(f"universe must be positive, got {universe}")
        self.universe = int(universe)
        self._rng = np.random.default_rng(seed)
        if theta <= 1.0:
            raise ConfigurationError(f"theta must exceed 1 for numpy zipf, got {theta}")
        self.theta = float(theta)
        # Feistel domain: an even number of bits so the halves are equal.
        bits = max((self.universe - 1).bit_length(), 2)
        bits += bits % 2
        self._half_bits = np.uint64(bits // 2)
        self._half_mask = np.uint64((1 << (bits // 2)) - 1)
        # Round keys from a dedicated stream so scatter() is a fixed
        # function of (universe, seed), independent of sampling order.
        key_rng = np.random.default_rng((seed, universe, 0x0B5))
        self._round_keys = key_rng.integers(
            0, 1 << 62, size=4, dtype=np.uint64
        )

    def _feistel(self, x: np.ndarray) -> np.ndarray:
        """One full pass of the 4-round Feistel network (a permutation)."""
        left = (x >> self._half_bits) & self._half_mask
        right = x & self._half_mask
        for k in self._round_keys:
            f = right * np.uint64(0x9E3779B97F4A7C15) + k
            f ^= f >> np.uint64(29)
            f *= np.uint64(0xBF58476D1CE4E5B9)
            f ^= f >> np.uint64(32)
            left, right = right, left ^ (f & self._half_mask)
        return (left << self._half_bits) | right

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Bijectively permute values in ``[0, universe)`` (cycle-walking).

        The Feistel pass permutes the power-of-two superset domain; any
        image landing at or beyond the universe is walked forward through
        the permutation until it falls inside.  Cycle-walking preserves
        bijectivity, and because the domain is less than ``4 * universe``
        the expected number of extra passes per value is below 3.
        """
        x = np.asarray(values, dtype=np.uint64)
        bound = np.uint64(self.universe)
        if x.size and int(x.max()) >= self.universe:
            raise ConfigurationError("scatter input outside [0, universe)")
        out = self._feistel(x)
        oob = out >= bound
        while oob.any():
            out[oob] = self._feistel(out[oob])
            oob = out >= bound
        return out.astype(np.int64)

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` keys (dtype int64)."""
        ranks = self._rng.zipf(self.theta, size=n).astype(np.uint64)
        # Fold the unbounded zipf ranks (>= 1) into the universe, then
        # scatter; distinct in-range ranks stay distinct keys.
        return self.scatter((ranks - np.uint64(1)) % np.uint64(self.universe))
