"""The sorted-run merge kernel against the heap merge it replaced.

``reference_merge`` is the ``heapq`` k-way merge that used to be
``LSMTree._merge_runs``, kept here as the oracle: one element at a time,
obviously right, and slow.  The kernel must agree with it on keys, on the
*identity* of every surviving value, and on precedence (earlier run wins).
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.merge import TOMBSTONE, merge_runs
from repro.trees.sizing import KEY_MAX, KEY_MIN


def reference_merge(runs, *, drop_tombstones):
    """K-way heap merge; ``runs[i]`` shadows ``runs[j]`` for ``i < j``."""
    heap = []  # (key, precedence); precedence is the run's position
    pos = [0] * len(runs)
    for prec, (keys, _) in enumerate(runs):
        heapq.heappush(heap, (keys[0], prec))
    out_keys, out_values = [], []
    while heap:
        key, prec = heapq.heappop(heap)
        keys, values = runs[prec]
        value = values[pos[prec]]
        pos[prec] += 1
        if pos[prec] < len(keys):
            heapq.heappush(heap, (keys[pos[prec]], prec))
        if out_keys and out_keys[-1] == key:
            continue  # a higher-precedence run already emitted this key
        out_keys.append(key)
        out_values.append(value)
    if drop_tombstones:
        live = [i for i, v in enumerate(out_values) if v is not TOMBSTONE]
        out_keys = [out_keys[i] for i in live]
        out_values = [out_values[i] for i in live]
    return out_keys, out_values


def assert_same(runs, drop_tombstones):
    keys, values = merge_runs(runs, drop_tombstones=drop_tombstones)
    want_keys, want_values = reference_merge(runs, drop_tombstones=drop_tombstones)
    assert keys == want_keys
    assert len(values) == len(want_values)
    assert all(got is want for got, want in zip(values, want_values))
    assert type(keys) is list and type(values) is list
    return keys, values


# A small pool makes runs share keys; the extremes ride along in every draw.
_KEYS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([KEY_MIN, KEY_MIN + 1, -(1 << 62) - 1, (1 << 62) + 5, KEY_MAX - 1, KEY_MAX]),
)


@st.composite
def _runs(draw):
    runs = []
    for r in range(draw(st.integers(min_value=1, max_value=8))):
        keys = sorted(draw(st.sets(_KEYS, min_size=1, max_size=30)))
        dead = draw(st.sets(st.sampled_from(keys)))
        # A fresh object per live entry: equal-looking values from
        # different runs are distinguishable by identity.
        values = [TOMBSTONE if k in dead else (r, k) for k in keys]
        runs.append((keys, values))
    return runs


@settings(max_examples=300, deadline=None)
@given(runs=_runs(), drop_tombstones=st.booleans())
def test_kernel_matches_reference(runs, drop_tombstones):
    before = [(list(keys), list(values)) for keys, values in runs]
    keys, _ = assert_same(runs, drop_tombstones)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # Inputs are the trees' live runs: the kernel must not touch them.
    assert [(k, v) for k, v in runs] == before


def test_key_disjoint_runs_concatenate_in_key_order():
    a, b, c = object(), object(), object()
    # Precedence order is not key order: the middle key range comes first.
    runs = [([10, 11], [a, b]), ([20], [c]), ([1, 2], [b, a])]
    for drop in (False, True):
        keys, values = assert_same(runs, drop)
        assert keys == [1, 2, 10, 11, 20]
        assert values == [b, a, a, b, c]


def test_touching_ranges_are_not_disjoint():
    new, old = object(), object()
    keys, values = assert_same([([5, 9], [new, new]), ([1, 5], [old, old])], False)
    assert keys == [1, 5, 9]
    assert values[1] is new


def test_single_run_is_copied_not_aliased():
    run_keys, run_values = [1, 2, 3], [object(), TOMBSTONE, object()]
    keys, values = assert_same([(run_keys, run_values)], False)
    assert keys == run_keys and keys is not run_keys
    assert values is not run_values
    keys, values = assert_same([(run_keys, run_values)], True)
    assert keys == [1, 3]


def test_all_tombstone_result_is_empty():
    # COLA's empty-level path: every surviving version is a deletion.
    runs = [([1, 2, 3], [TOMBSTONE] * 3), ([2, 3], [object(), object()])]
    assert assert_same(runs, True) == ([], [])
    keys, values = assert_same(runs, False)
    assert keys == [1, 2, 3] and all(v is TOMBSTONE for v in values)
    # Same through the key-disjoint path.
    assert assert_same([([1], [TOMBSTONE]), ([2], [TOMBSTONE])], True) == ([], [])


def test_values_are_never_compared():
    class Opaque:
        def __eq__(self, other):  # pragma: no cover - must not run
            raise AssertionError("the kernel compared two values")

        __hash__ = None

    runs = [([1, 3], [Opaque(), TOMBSTONE]), ([1, 2, 3], [Opaque(), Opaque(), Opaque()])]
    for drop in (False, True):
        keys, _ = merge_runs(runs, drop_tombstones=drop)
        assert keys == ([1, 2] if drop else [1, 2, 3])
