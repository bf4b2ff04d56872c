"""Turn a fitted device profile into a B-tree node size.

This is the model-driven step of the loop: the Corollary 6/7 optimum of
:mod:`repro.models.analysis` evaluated at the *measured* ``alpha``
instead of an assumed one.  The workload it sizes for is serial point
queries: one outstanding IO cannot use a parallel device's extra slots,
so the serial optimum is the right choice on every device.

All optimization happens in the paper's units — node size ``B`` and cache
``M`` in entries, ``alpha`` per entry — and is converted to bytes only at
the edge via :class:`~repro.trees.sizing.EntryFormat`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.analysis import btree_op_cost, optimal_btree_node_size
from repro.trees.sizing import EntryFormat
from repro.tuning.calibrate import DeviceProfile


@dataclass(frozen=True)
class Recommendation:
    """One solved node size, with the prediction that justified it."""

    node_bytes: int
    predicted_per_op_seconds: float


def solve_btree_node_entries(
    alpha_per_entry: float, n_entries: float, cache_entries: float
) -> float:
    """Numeric argmin of the Lemma 5 per-op cost at the fitted alpha.

    The ``log(N/M)`` height factor is a vertical scale as long as the
    height does not clamp at 1, so this matches Corollary 7's
    ``argmin (1+alpha x)/ln(x+1)`` wherever both are interior optima; the
    clamp only matters for trees that nearly fit in cache.
    """
    if n_entries <= cache_entries:
        raise ConfigurationError(
            f"tuning needs an out-of-cache tree: N={n_entries} <= M={cache_entries}"
        )
    if alpha_per_entry <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha_per_entry}")
    return optimal_btree_node_size(alpha_per_entry)


def solve(
    profile: DeviceProfile,
    *,
    n_entries: int,
    cache_bytes: int,
    fmt: EntryFormat = EntryFormat(),
) -> Recommendation:
    """Corollaries 6/7: the B-tree node size for the profiled device.

    The optimum is ``Theta(1/(alpha ln(1/alpha)))`` entries, below the
    half-bandwidth point.
    """
    cache_entries = max(1.0, cache_bytes / fmt.entry_bytes)
    alpha_e = profile.alpha_per_entry(fmt.entry_bytes)
    entries = solve_btree_node_entries(alpha_e, n_entries, cache_entries)
    predicted = profile.setup_seconds * btree_op_cost(
        max(2.0, entries), alpha_e, n_entries, cache_entries
    )
    return Recommendation(
        node_bytes=fmt.leaf_bytes(max(2, round(entries))),
        predicted_per_op_seconds=predicted,
    )
