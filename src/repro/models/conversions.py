"""Lemma 1 of the paper: affine <-> DAM transfer results.

An affine algorithm with cost ``C`` can be transformed into a DAM algorithm
with cost ``2C`` when blocks have size ``B = 1/alpha`` (the half-bandwidth
point), and vice versa.  These helpers make the factor-of-2 relationship
executable so tests and experiments can check it numerically.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel


def half_bandwidth_point(alpha: float) -> float:
    """The IO size ``1/alpha`` where setup time equals transfer time."""
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    return 1.0 / alpha


def dam_cost_of_affine_algorithm(io_sizes: Sequence[int] | Iterable[int], alpha: float) -> float:
    """DAM cost after replacing each affine IO with half-bandwidth blocks.

    Each affine IO of size ``x`` becomes ``ceil(x / (1/alpha))`` unit-cost
    block IOs, but at least one.  Lemma 1 guarantees this is at most twice
    the affine cost of the original IO sequence.
    """
    b = half_bandwidth_point(alpha)
    total = 0.0
    for x in io_sizes:
        if x < 0:
            raise ConfigurationError(f"IO sizes must be non-negative, got {x}")
        total += max(1.0, math.ceil(x / b))
    return total


def affine_cost_of_dam_algorithm(n_block_ios: int, alpha: float) -> float:
    """Affine cost of a DAM algorithm run with half-bandwidth blocks.

    Each unit-cost DAM block IO of size ``B = 1/alpha`` costs
    ``1 + alpha*B = 2`` in the affine model, hence cost ``2C`` (Lemma 1).
    """
    if n_block_ios < 0:
        raise ConfigurationError(f"n_block_ios must be non-negative, got {n_block_ios}")
    b = half_bandwidth_point(alpha)
    return n_block_ios * (1.0 + alpha * b)


def affine_cost(io_sizes: Sequence[int] | Iterable[int], alpha: float) -> float:
    """Total affine cost ``sum(1 + alpha*x)`` of an IO sequence."""
    model = AffineModel(alpha=alpha)
    return model.batch_cost(list(io_sizes))
