"""Every tree kind iterates the whole key domain.

``items()`` used to scan ``[-2^62, 2^62]`` in the LSM, the COLA and both
Bε-trees (and the Bε rebalancer's subtree collector), so a key beyond
that — perfectly legal, found by ``get`` — silently vanished from
``items()``, ``len()`` and a rebuilt subtree.  The domain is
``[KEY_MIN, KEY_MAX]`` of :mod:`repro.trees.sizing` for every kind.
"""

import pytest

from repro.trees.betree.rebalance import _collect_subtree
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


@pytest.mark.parametrize("name", ["betree", "betree-optimized"])
def test_subtree_rebuild_collects_extreme_keys(name):
    # What a Theorem 9 weight-balance rebuild re-inserts: a key it fails
    # to collect is a key the rebuild loses.
    tree = TREES[name]()
    tree.put_many([(k, k) for k in range(2000)])
    for key in EXTREMES:
        tree.insert(key, "x")
    collected = [k for k, _ in _collect_subtree(tree, tree.root_id)]
    assert collected[:2] == EXTREMES[:2]
    assert collected[-2:] == EXTREMES[2:]
    assert len(collected) == 2004
