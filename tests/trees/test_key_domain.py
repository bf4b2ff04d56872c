"""Every tree kind iterates the whole key domain.

``items()`` used to scan ``[-2^62, 2^62]`` in the LSM, the COLA and both
Bε-trees, so a key beyond that — perfectly legal, found by ``get`` —
silently vanished from ``items()`` and ``len()``.  The domain is
``[KEY_MIN, KEY_MAX]`` of :mod:`repro.trees.sizing` for every kind.
"""

import pytest

from repro.trees.sizing import KEY_MAX, KEY_MIN
from tests.trees.test_put_many import TREES

EXTREMES = [KEY_MIN, -(1 << 62) - 1, (1 << 62) + 5, KEY_MAX]


@pytest.mark.parametrize("name", TREES)
def test_extreme_keys_round_trip(name):
    tree = TREES[name]()
    # Enough filler to push the extremes out of memtables, buffers and the
    # root, whichever the kind has; extremes first, last and in between.
    filler = [(k * 7, k) for k in range(1, 1500)]
    want = dict(filler)
    tree.insert(EXTREMES[0], "a")
    tree.insert(EXTREMES[3], "d")
    tree.put_many(filler[:700])
    tree.insert(EXTREMES[1], "b")
    tree.insert(EXTREMES[2], "c")
    tree.put_many(filler[700:])
    want.update(zip(EXTREMES, "abcd"))
    pairs = sorted(want.items())

    for key, value in zip(EXTREMES, "abcd"):
        assert tree.get(key) == value
    assert [(int(k), v) for k, v in tree.items()] == pairs
    assert len(tree) == len(pairs)
    assert [(int(k), v) for k, v in tree.range(KEY_MIN, KEY_MAX)] == pairs
    assert [(int(k), v) for k, v in tree.range(1 << 62, KEY_MAX)] == pairs[-2:]
    assert [(int(k), v) for k, v in tree.range(KEY_MIN, -(1 << 62))] == pairs[:2]
    tree.check_invariants()
