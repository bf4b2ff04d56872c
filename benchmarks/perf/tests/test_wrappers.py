"""Tracing must be invisible to the simulation."""

import pytest

from perfbench import trees
from perfbench.harness import Run
from perfbench.spans import Tracer


def _exercise(built):
    tree = built.tree
    keys = [k for k, _ in list(tree.items())[:: max(1, 2_000 // 50)]]
    out = [tree.get(k) for k in keys]
    if built.get_many is not None:
        out.append(built.get_many(keys))
    tree.put_many([(k + 1, k) for k in keys])
    tree.insert(keys[0] + 2, -1)
    tree.delete(keys[1])
    built.settle()
    out.append(tree.range(keys[0], keys[-1]))
    return out


@pytest.mark.parametrize("kind", trees.TREE_KINDS)
def test_wrapped_tree_stack_and_device_behave_like_plain_ones(kind):
    outcomes = []
    for tracer in (None, Tracer()):
        run = Run(seed=5, scale=0.01, tracer=tracer)
        built = trees.build(run, kind, trees.load_pairs(run))
        result = _exercise(built)
        outcomes.append((result, built.device.clock, vars(built.device.stats),
                         built.allocator.used_bytes))
    plain, traced = outcomes
    assert traced[0] == plain[0]  # same values
    assert traced[1] == plain[1]  # same simulated clock, to the bit
    assert traced[2] == plain[2] and traced[3] == plain[3]
    layers = {span[1] for span in tracer.spans}
    assert f"trees.{kind}" in layers
    if built.device.stats.ios:  # a small COLA lives entirely in its pinned RAM
        assert "storage.device" in layers
    if kind in ("btree", "betree"):
        assert {"storage.stack", "storage.cache"} <= layers
