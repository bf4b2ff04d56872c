"""Operation-stream generator tests."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.generators import (
    OpKind,
    insert_stream,
    mixed_stream,
    point_query_stream,
    random_load_pairs,
    range_query_stream,
)


class TestLoadPairs:
    def test_random_load_sorted_distinct(self):
        pairs = random_load_pairs(1000, 1 << 30, seed=1)
        keys = [k for k, _ in pairs]
        assert len(pairs) == 1000
        assert keys == sorted(set(keys))

    def test_random_load_deterministic(self):
        assert random_load_pairs(100, 10**6, seed=2) == random_load_pairs(100, 10**6, seed=2)

    def test_universe_too_small(self):
        with pytest.raises(ConfigurationError):
            random_load_pairs(100, 150)

    def test_values_derived_from_keys(self):
        pairs = random_load_pairs(50, 10**6, seed=3)
        assert all(v == k * 2 + 1 for k, v in pairs)


class TestQueryStreams:
    def test_point_queries_hit_loaded_keys(self):
        loaded = [k for k, _ in random_load_pairs(500, 10**6, seed=4)]
        qs = list(point_query_stream(loaded, 200, seed=5))
        assert len(qs) == 200
        assert all(q in set(loaded) for q in qs)

    def test_miss_fraction(self):
        loaded = [k * 2 for k in range(1000)]  # all even
        qs = list(point_query_stream(loaded, 400, seed=6, hit_fraction=0.0))
        assert all(q % 2 == 1 for q in qs)  # misses are odd

    def test_empty_loaded_rejected(self):
        with pytest.raises(ConfigurationError):
            list(point_query_stream([], 10))

    def test_range_stream_spans(self):
        loaded = sorted(k for k, _ in random_load_pairs(1000, 10**6, seed=7))
        for lo, hi in range_query_stream(loaded, 50, span_keys=10, seed=8):
            assert lo <= hi
            inside = [k for k in loaded if lo <= k <= hi]
            assert len(inside) == 10

    def test_insert_stream(self):
        items = list(insert_stream(10**6, 100, seed=9))
        assert len(items) == 100
        assert all(0 <= k < 10**6 and v == k * 2 + 1 for k, v in items)


class TestMixedStream:
    def test_fraction_composition(self):
        loaded = list(range(0, 10_000, 2))
        ops = list(
            mixed_stream(loaded, 10**6, 4000, seed=10, insert_frac=0.5, delete_frac=0.1)
        )
        kinds = [op.kind for op in ops]
        n = len(kinds)
        assert kinds.count(OpKind.INSERT) / n == pytest.approx(0.5, abs=0.05)
        assert kinds.count(OpKind.DELETE) / n == pytest.approx(0.1, abs=0.03)
        assert kinds.count(OpKind.QUERY) / n == pytest.approx(0.4, abs=0.05)

    def test_range_ops_have_bounds(self):
        loaded = list(range(1000))
        ops = list(mixed_stream(loaded, 10**6, 500, seed=11, insert_frac=0.0,
                                range_frac=1.0, range_span=10))
        assert all(op.kind is OpKind.RANGE and op.hi is not None and op.hi >= op.key
                   for op in ops)

    def test_fractions_over_one_rejected(self):
        with pytest.raises(ConfigurationError):
            list(mixed_stream([1], 100, 10, insert_frac=0.8, delete_frac=0.4))

    def test_deterministic(self):
        loaded = list(range(100))
        a = list(mixed_stream(loaded, 10**6, 100, seed=12))
        b = list(mixed_stream(loaded, 10**6, 100, seed=12))
        assert a == b
