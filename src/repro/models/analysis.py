"""Closed-form affine-model cost functions (paper Table 3, Sections 5-6).

Conventions
-----------
* Node size ``B`` and cache size ``M`` are measured in *entries* (unit-size
  key-value pairs), matching the paper's convention that an element has
  unit size.
* ``alpha`` is the normalized per-entry bandwidth cost, so one IO of a
  size-``B`` node costs ``1 + alpha * B``.
* All costs are per operation, in normalized affine units, and include the
  ``log(N/M)`` uncached-height factor from the paper's lemmas (the top
  ``log M`` levels of any of these trees are assumed cached).

The functions here are what experiment E4 (Table 3) evaluates and what the
fitted "Affine" overlay lines in Figures 2-3 are drawn from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError


def _check_common(B: float, N: float, M: float, alpha: float) -> None:
    if B <= 1:
        raise ConfigurationError(f"node size B must exceed 1 entry, got {B}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if N <= M:
        raise ConfigurationError(f"need N > M for an out-of-cache analysis, got N={N}, M={M}")
    if M <= 0:
        raise ConfigurationError(f"M must be positive, got {M}")


def _minimize_bounded(fn: Callable[[float], float], lo: float, hi: float, xatol: float):
    """``scipy.optimize.minimize_scalar`` on ``[lo, hi]``, imported on first use.

    scipy is ~45 MiB resident and half a second to import, and most
    importers of this module (tuning, the node-size sweep kernels, the CLI)
    only evaluate its closed forms: a process pays when it first solves for
    an optimum, not when it imports.
    """
    from scipy.optimize import minimize_scalar

    return minimize_scalar(fn, bounds=(lo, hi), method="bounded", options={"xatol": xatol})


def uncached_height(N: float, M: float, fanout: float) -> float:
    """Number of non-cached levels, ``log_fanout(N / M)`` (at least 1)."""
    if fanout <= 1:
        raise ConfigurationError(f"fanout must exceed 1, got {fanout}")
    return max(1.0, math.log(N / M) / math.log(fanout))


# ---------------------------------------------------------------------------
# B-tree (paper Lemma 5)
# ---------------------------------------------------------------------------

def btree_op_cost(B: float, alpha: float, N: float, M: float) -> float:
    """Affine cost of a B-tree point query / insert / delete (Lemma 5).

    ``(1 + alpha*B) * log_{B+1}(N/M)``.
    """
    _check_common(B, N, M, alpha)
    return (1.0 + alpha * B) * uncached_height(N, M, B + 1.0)


def btree_range_cost(B: float, alpha: float, N: float, M: float, ell: float) -> float:
    """Affine cost of a B-tree range query returning ``ell`` items (Lemma 5).

    ``(1 + ceil(ell/B)) * (1 + alpha*B)`` leaf IOs plus the point-query
    descent.
    """
    _check_common(B, N, M, alpha)
    if ell < 0:
        raise ConfigurationError(f"ell must be non-negative, got {ell}")
    leaves = 1.0 + math.ceil(ell / B)
    return leaves * (1.0 + alpha * B) + btree_op_cost(B, alpha, N, M)


def btree_write_amplification(B: float) -> float:
    """Worst-case B-tree write amplification, ``Theta(B)`` (Lemma 3).

    Under random updates a size-``B`` leaf is written back after ``O(1)``
    unit-size modifications.
    """
    if B <= 0:
        raise ConfigurationError(f"B must be positive, got {B}")
    return float(B)


# ---------------------------------------------------------------------------
# B^epsilon-tree, naive whole-node IOs (paper Lemma 8)
# ---------------------------------------------------------------------------

def betree_insert_cost(B: float, F: float, alpha: float, N: float, M: float) -> float:
    """Amortized affine insert cost of a naive Bε-tree (Lemma 8).

    ``(F/B + alpha*F) * log_F(N/M)`` — flushing an element down one level
    moves ``Theta(B)`` messages with ``Theta(F)`` IOs touching ``Theta(FB)``
    bytes.
    """
    _check_common(B, N, M, alpha)
    if not 1 < F <= B:
        raise ConfigurationError(f"need 1 < F <= B, got F={F}, B={B}")
    return (F / B + alpha * F) * uncached_height(N, M, F)


def betree_query_cost_naive(B: float, F: float, alpha: float, N: float, M: float) -> float:
    """Affine point-query cost of a naive Bε-tree (Lemma 8).

    ``(1 + alpha*B) * log_F(N/M)`` — each level reads a whole node.
    """
    _check_common(B, N, M, alpha)
    if not 1 < F <= B:
        raise ConfigurationError(f"need 1 < F <= B, got F={F}, B={B}")
    return (1.0 + alpha * B) * uncached_height(N, M, F)


def betree_query_cost_optimized(B: float, F: float, alpha: float, N: float, M: float) -> float:
    """Affine point-query cost of the Theorem 9 Bε-tree.

    ``(1 + alpha*B/F + alpha*F) * log_F(N/M) * (1 + 1/log F)`` — per level,
    one IO reads the relevant per-child buffer segment (``<= B/F`` entries)
    plus the child's pivot set (``~F`` entries), not the whole node.
    """
    _check_common(B, N, M, alpha)
    if not 1 < F <= B:
        raise ConfigurationError(f"need 1 < F <= B, got F={F}, B={B}")
    per_level = 1.0 + alpha * B / F + alpha * F
    slack = 1.0 + 1.0 / math.log(F)
    return per_level * uncached_height(N, M, F) * slack


def betree_range_cost(
    B: float, F: float, alpha: float, N: float, M: float, ell: float
) -> float:
    """Affine range-query cost returning ``ell`` items (Lemma 8 / Theorem 9)."""
    _check_common(B, N, M, alpha)
    if ell < 0:
        raise ConfigurationError(f"ell must be non-negative, got {ell}")
    leaves = 1.0 + math.ceil(ell / B)
    return leaves * (1.0 + alpha * B) + betree_query_cost_optimized(B, F, alpha, N, M)


def betree_write_amplification(B: float, F: float, N: float, M: float) -> float:
    """Bε-tree write amplification ``O(F log_F(N/M))`` (Theorem 4(4)).

    Each element is rewritten once per level it is flushed through, and a
    flush rewrites ``Theta(FB)`` bytes to move ``Theta(B)`` elements.
    """
    if not 1 < F <= B:
        raise ConfigurationError(f"need 1 < F <= B, got F={F}, B={B}")
    return F * uncached_height(N, M, F)


# ---------------------------------------------------------------------------
# Table 3 rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityRow:
    """One row of the paper's Table 3, evaluated at concrete parameters."""

    structure: str
    node_entries: float
    insert_cost: float
    query_cost: float


def table3_row_btree(B: float, alpha: float, N: float, M: float) -> SensitivityRow:
    """Table 3, B-tree row: insert and query both cost ``(1+aB)/log B``-ish."""
    c = btree_op_cost(B, alpha, N, M)
    return SensitivityRow("B-tree", B, c, c)


def table3_row_betree_sqrtB(B: float, alpha: float, N: float, M: float) -> SensitivityRow:
    """Table 3, Bε-tree with ``F = sqrt(B)`` (ε = 1/2) row."""
    F = math.sqrt(B)
    return SensitivityRow(
        "Bε-tree (F=√B)",
        B,
        betree_insert_cost(B, F, alpha, N, M),
        betree_query_cost_optimized(B, F, alpha, N, M),
    )


def table3_row_betree(B: float, F: float, alpha: float, N: float, M: float) -> SensitivityRow:
    """Table 3, general-fanout Bε-tree row."""
    return SensitivityRow(
        f"Bε-tree (F={F:g})",
        B,
        betree_insert_cost(B, F, alpha, N, M),
        betree_query_cost_optimized(B, F, alpha, N, M),
    )


# ---------------------------------------------------------------------------
# Optimal node sizes (Corollaries 6, 7, 11, 12)
# ---------------------------------------------------------------------------

def optimal_btree_node_size(alpha: float, *, bracket_hi: float | None = None) -> float:
    """Numeric argmin of the B-tree per-op cost ``(1+alpha*x)/ln(x+1)``.

    Corollary 7 proves the optimum is ``Theta(1/(alpha * ln(1/alpha)))`` —
    strictly *below* the half-bandwidth point ``1/alpha``.  This solver
    returns the exact numeric optimum for a concrete ``alpha``.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    hi = bracket_hi if bracket_hi is not None else 10.0 / alpha
    result = _minimize_bounded(
        lambda x: (1.0 + alpha * x) / math.log(x + 1.0), 1.0 + 1e-9, hi, 1e-9 * hi
    )
    return float(result.x)


def btree_node_size_closed_form(alpha: float) -> float:
    """Corollary 7's closed form ``1 / (alpha * ln(1/alpha))``.

    Valid (positive) only for ``alpha < 1``; matches the numeric optimum up
    to a constant factor.
    """
    if not 0 < alpha < 1:
        raise ConfigurationError(f"closed form requires 0 < alpha < 1, got {alpha}")
    return 1.0 / (alpha * math.log(1.0 / alpha))


def corollary7_stationarity_residual(x: float, alpha: float) -> float:
    """Residual of Corollary 7's stationarity condition at ``x``.

    The optimum satisfies ``1 + alpha*x = alpha * ln(x+1) * (1+x)``; the
    returned value is the (relative) difference between the two sides and is
    ~0 at the true optimum.
    """
    if x <= 0 or alpha <= 0:
        raise ConfigurationError("x and alpha must be positive")
    lhs = 1.0 + alpha * x
    rhs = alpha * math.log(x + 1.0) * (1.0 + x)
    return (lhs - rhs) / lhs


def optimal_betree_params(alpha: float) -> tuple[float, float]:
    """Corollary 12's simultaneously-optimal Bε-tree parameters.

    Returns ``(F, B)`` with ``F = Theta(1/(alpha*ln(1/alpha)))`` and
    ``B = F**2``.  With these settings the Theorem 9 tree's query cost
    matches the optimal B-tree up to low-order terms while inserts are a
    ``Theta(log(1/alpha))`` factor faster.
    """
    if not 0 < alpha < 1:
        raise ConfigurationError(f"requires 0 < alpha < 1, got {alpha}")
    F = 1.0 / (alpha * math.log(1.0 / alpha))
    return F, F * F


def corollary11_io_overhead(B: float, F: float, alpha: float) -> float:
    """Per-node query IO overhead ``alpha*B/F + alpha*F`` of Corollary 11.

    When ``B = Omega(F^2)`` and ``B = o(F/alpha)`` this is ``o(1)``, i.e.
    each per-level IO costs ``1 + o(1)`` and searches are optimal to within
    low-order terms.
    """
    if B <= 0 or F <= 1 or alpha <= 0:
        raise ConfigurationError("need B > 0, F > 1, alpha > 0")
    return alpha * B / F + alpha * F


def mixed_workload_cost(
    B: float,
    F: float,
    alpha: float,
    N: float,
    M: float,
    *,
    query_fraction: float = 0.5,
    write_cost_multiplier: float = 1.0,
) -> float:
    """Affine cost of a query/insert mix on read/write-asymmetric hardware.

    Queries are reads; the data movement of flush cascades is write-
    dominated, so insert cost scales with the device's write multiplier
    (paper Section 3: on NVMe "writes are more expensive than reads, and
    this has algorithmic consequences").
    """
    if not 0.0 <= query_fraction <= 1.0:
        raise ConfigurationError(f"query_fraction must be in [0, 1], got {query_fraction}")
    if write_cost_multiplier <= 0:
        raise ConfigurationError(
            f"write_cost_multiplier must be positive, got {write_cost_multiplier}"
        )
    q = betree_query_cost_optimized(B, F, alpha, N, M)
    i = betree_insert_cost(B, F, alpha, N, M) * write_cost_multiplier
    return query_fraction * q + (1.0 - query_fraction) * i


def optimal_fanout_asymmetric(
    B: float,
    alpha: float,
    N: float,
    M: float,
    *,
    query_fraction: float = 0.5,
    write_cost_multiplier: float = 1.0,
) -> float:
    """Fanout minimizing :func:`mixed_workload_cost` at fixed node size.

    As writes get more expensive, the optimum shifts toward *smaller*
    fanouts (more write-optimization): flush write traffic scales with
    ``F`` while query read cost shrinks only logarithmically in it.
    """
    _check_common(B, N, M, alpha)
    lo, hi = 2.0, max(2.0 + 1e-6, min(B, math.sqrt(B) * 8))
    result = _minimize_bounded(
        lambda f: mixed_workload_cost(
            B, f, alpha, N, M,
            query_fraction=query_fraction,
            write_cost_multiplier=write_cost_multiplier,
        ),
        lo, hi, 1e-6 * hi,
    )
    return float(result.x)


def betree_speedup_over_btree(alpha: float, N: float, M: float) -> float:
    """Insert speedup of the Corollary 12 Bε-tree over the optimal B-tree.

    Evaluates both closed-form costs at their respective optima; the ratio
    is ``Theta(log(1/alpha))``.
    """
    if N <= M:
        raise ConfigurationError(f"need N > M, got N={N}, M={M}")
    x_bt = optimal_btree_node_size(alpha)
    F, B = optimal_betree_params(alpha)
    bt = btree_op_cost(x_bt, alpha, N, M)
    be = betree_insert_cost(B, F, alpha, N, M)
    return bt / be
