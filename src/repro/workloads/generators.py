"""Operation streams and load sets.

The Section 7 protocol the experiments follow:

    "We first inserted 16GB of key-value pairs into the database.  Then, we
    performed random inserts and random queries to about a thousandth of
    the total number of keys in the database."

:func:`random_load_pairs` builds the load set; :func:`point_query_stream`
and :func:`insert_stream` build the measured phases.  All functions are
deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError


class OpKind(Enum):
    """Kinds of dictionary operations in a mixed stream."""

    INSERT = "insert"
    DELETE = "delete"
    QUERY = "query"
    RANGE = "range"


@dataclass(frozen=True)
class Operation:
    """One operation of a mixed stream."""

    kind: OpKind
    key: int
    value: int | None = None
    hi: int | None = None   # range queries: scan [key, hi]


def _value_for(key: int) -> int:
    """Deterministic value derived from the key (checkable in tests)."""
    return key * 2 + 1


def _sorted_distinct(arr: "np.ndarray") -> "np.ndarray":
    """Sorted distinct values of ``arr`` — np.unique minus its hash-path cost."""
    if arr.size == 0:
        return arr
    s = np.sort(arr)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def random_load_pairs(n: int, universe: int, seed: int = 0) -> list[tuple[int, int]]:
    """``n`` distinct uniform-random keys with derived values, sorted.

    Sorted output feeds ``bulk_load``; the keys themselves are random over
    the universe so subsequent random queries hit leaves uniformly.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    if universe < 2 * n:
        raise ConfigurationError(
            f"universe {universe} too small to draw {n} distinct keys comfortably"
        )
    rng = np.random.default_rng(seed)
    # Accumulate distinct keys with vectorized sort-dedup instead of a
    # Python set: the round-by-round draw sizes (n minus distinct-so-far)
    # and hence the RNG stream are identical, and the ascending output
    # matches sorted(set(...)) exactly.
    uniq = _sorted_distinct(rng.integers(0, universe, size=n, dtype=np.int64))
    while uniq.size < n:
        draw = rng.integers(0, universe, size=n - uniq.size, dtype=np.int64)
        uniq = _sorted_distinct(np.concatenate((uniq, draw)))
    values = uniq * 2 + 1  # vectorized _value_for
    return list(zip(uniq.tolist(), values.tolist()))


def point_query_stream(
    loaded_keys: list[int], n_ops: int, seed: int = 0, hit_fraction: float = 1.0
) -> Iterator[int]:
    """Random point-query keys, drawn from the loaded set (hits) or not.

    ``hit_fraction`` controls how many queries target existing keys; misses
    draw fresh keys outside the loaded set (odd offsets of loaded keys).
    """
    if not loaded_keys:
        raise ConfigurationError("need a non-empty loaded key set")
    if not 0.0 <= hit_fraction <= 1.0:
        raise ConfigurationError(f"hit_fraction must be in [0, 1], got {hit_fraction}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(loaded_keys), size=n_ops)
    hits = rng.random(n_ops) < hit_fraction
    for i_key, hit in zip(idx.tolist(), hits.tolist()):
        k = loaded_keys[i_key]
        yield k if hit else k + 1  # loaded values are even-spaced in practice


def insert_stream(universe: int, n_ops: int, seed: int = 0) -> Iterator[tuple[int, int]]:
    """Random (key, value) inserts over the universe."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, size=n_ops, dtype=np.int64)
    values = keys * 2 + 1  # vectorized _value_for
    yield from zip(keys.tolist(), values.tolist())


def range_query_stream(
    loaded_keys: list[int], n_ops: int, span_keys: int, seed: int = 0
) -> Iterator[tuple[int, int]]:
    """Random ``(lo, hi)`` ranges covering ``~span_keys`` loaded keys each."""
    if span_keys <= 0:
        raise ConfigurationError(f"span_keys must be positive, got {span_keys}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, max(1, len(loaded_keys) - span_keys), size=n_ops)
    for s in starts:
        lo = loaded_keys[int(s)]
        hi = loaded_keys[min(int(s) + span_keys - 1, len(loaded_keys) - 1)]
        yield lo, hi


def mixed_stream(
    loaded_keys: list[int],
    universe: int,
    n_ops: int,
    *,
    seed: int = 0,
    insert_frac: float = 0.5,
    delete_frac: float = 0.0,
    range_frac: float = 0.0,
    range_span: int = 100,
) -> Iterator[Operation]:
    """A shuffled mix of inserts, deletes, point and range queries."""
    fracs = insert_frac + delete_frac + range_frac
    if fracs > 1.0 + 1e-9:
        raise ConfigurationError("operation fractions exceed 1")
    rng = np.random.default_rng(seed)
    roll = rng.random(n_ops)
    ins_keys = rng.integers(0, universe, size=n_ops, dtype=np.int64)
    sel = rng.integers(0, len(loaded_keys), size=n_ops)
    for i in range(n_ops):
        r = roll[i]
        if r < insert_frac:
            k = int(ins_keys[i])
            yield Operation(OpKind.INSERT, k, value=_value_for(k))
        elif r < insert_frac + delete_frac:
            yield Operation(OpKind.DELETE, loaded_keys[int(sel[i])])
        elif r < fracs:
            lo = loaded_keys[int(sel[i]) % max(1, len(loaded_keys) - range_span)]
            hi_idx = min(int(sel[i]) + range_span, len(loaded_keys) - 1)
            yield Operation(OpKind.RANGE, lo, hi=loaded_keys[hi_idx])
        else:
            yield Operation(OpKind.QUERY, loaded_keys[int(sel[i])])
