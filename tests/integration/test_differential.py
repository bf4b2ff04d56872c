"""Differential testing: every dictionary implementation must agree.

The same operation stream is applied to every registry kind
(:data:`repro.trees.KINDS`), the naive Bε-tree and a plain dict oracle;
all must end with identical contents and answer identical point/range
queries.  This is the strongest cross-implementation correctness check in
the suite — any divergence in message resolution, tombstone handling,
split logic or merge precedence shows up here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.ram import NullDevice
from repro.storage.stack import StorageStack
from repro.trees import build
from repro.trees.betree import BeTree, BeTreeConfig
from repro.trees.sizing import EntryFormat

FMT = EntryFormat(value_bytes=8)
BETREE = dict(node_bytes=2048, fanout=3, fmt=FMT)

#: Small nodes, runs and buckets, to force structure out of short streams.
SMALL = {
    "btree": dict(node_bytes=1024, cache_bytes=1 << 20, fmt=FMT),
    "betree": dict(cache_bytes=1 << 20, **BETREE),
    "lsm": dict(sstable_bytes=2048, memtable_bytes=2048, level1_bytes=8192, fmt=FMT),
    "cola": dict(fmt=FMT),
    "cob": dict(fmt=FMT, initial_slots=64),
    "cob-buffered": dict(fmt=FMT, initial_slots=64, fanout=4, buffer_bytes=512, rebuild_factor=2.0),
}


def build_all():
    """One instance of every dictionary, small nodes to force structure."""
    trees = {
        kind: build(kind, NullDevice(capacity_bytes=1 << 30), **fields)
        for kind, fields in SMALL.items()
    }
    trees["betree-naive"] = BeTree(
        StorageStack(NullDevice(), 1 << 20), BeTreeConfig(**BETREE)
    )
    return trees


class TestDifferentialRandom:
    @pytest.mark.parametrize("seed", range(5))
    def test_long_random_stream(self, seed):
        rng = np.random.default_rng(seed)
        trees = build_all()
        ref: dict[int, int] = {}
        for _ in range(3000):
            k = int(rng.integers(0, 600))
            op = "insert" if rng.random() < 0.65 else "delete"
            v = int(rng.integers(0, 10**6))
            for tree in trees.values():
                if op == "insert":
                    tree.insert(k, v)
                else:
                    tree.delete(k)
            if op == "insert":
                ref[k] = v
            else:
                ref.pop(k, None)
        for name, tree in trees.items():
            assert dict(tree.items()) == ref, f"{name} diverged"
            tree.check_invariants()

    def test_point_queries_agree(self):
        rng = np.random.default_rng(42)
        trees = build_all()
        ref: dict[int, int] = {}
        for _ in range(2000):
            k = int(rng.integers(0, 400))
            if rng.random() < 0.7:
                v = int(rng.integers(0, 10**6))
                for tree in trees.values():
                    tree.insert(k, v)
                ref[k] = v
            else:
                for tree in trees.values():
                    tree.delete(k)
                ref.pop(k, None)
        for probe in range(0, 400, 7):
            expected = ref.get(probe)
            for name, tree in trees.items():
                assert tree.get(probe) == expected, (name, probe)

    def test_range_queries_agree(self):
        rng = np.random.default_rng(7)
        trees = build_all()
        ref: dict[int, int] = {}
        for _ in range(2500):
            k = int(rng.integers(0, 1000))
            v = int(rng.integers(0, 10**6))
            for tree in trees.values():
                tree.insert(k, v)
            ref[k] = v
        for lo in (0, 123, 500, 999):
            hi = lo + 200
            expected = sorted((k, v) for k, v in ref.items() if lo <= k <= hi)
            for name, tree in trees.items():
                assert tree.range(lo, hi) == expected, (name, lo, hi)


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 120),
        st.integers(0, 999),
    ),
    max_size=150,
)


@given(ops=ops_strategy)
@settings(max_examples=25, deadline=None)
def test_differential_property(ops):
    trees = build_all()
    ref: dict[int, int] = {}
    for op, key, value in ops:
        for tree in trees.values():
            if op == "insert":
                tree.insert(key, value)
            else:
                tree.delete(key)
        if op == "insert":
            ref[key] = value
        else:
            ref.pop(key, None)
    contents = {name: dict(tree.items()) for name, tree in trees.items()}
    for name, got in contents.items():
        assert got == ref, f"{name} diverged"
