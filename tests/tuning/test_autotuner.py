"""The tuning loop end to end (calibrate, solve, rebuild) and E17's gates."""

import pytest

from repro.experiments import exp_autotune
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from repro.tuning import calibrate_device, rebuild_tree, solve

UNIVERSE = 1 << 20
CACHE = 1 << 20


def device(s=0.004, t=4e-9):
    return AffineDevice(AffineModel.from_hardware(s, t))


def loaded_tree(dev, node_bytes, n=2000, seed=0):
    import random

    rng = random.Random(seed)
    pairs = sorted((k, f"v{k}") for k in rng.sample(range(UNIVERSE), n))
    tree = BTree(StorageStack(dev, CACHE), BTreeConfig(node_bytes=node_bytes))
    tree.bulk_load(pairs)
    return tree, dict(pairs)


class TestLifecycle:
    def test_calibrate_then_recommend(self):
        profile = calibrate_device(device())
        assert profile.confident()
        rec = solve(profile, n_entries=10**7, cache_bytes=CACHE)
        assert rec.node_bytes > 0


class TestApply:
    def test_bulk_migration_preserves_tree(self):
        dev = device()
        tree, reference = loaded_tree(dev, node_bytes=4096)
        rec = solve(calibrate_device(dev), n_entries=len(tree), cache_bytes=64 << 10)
        new_tree, report = rebuild_tree(
            tree,
            lambda: BTree(
                StorageStack(dev, CACHE), BTreeConfig(node_bytes=rec.node_bytes)
            ),
        )
        assert report.entries_moved == len(reference)
        assert len(new_tree) == len(reference)
        for key in list(reference)[::131]:
            assert new_tree.get(key) == reference[key]


class TestAutotune:
    """E17: the closed loop converges on every device; no static config can.

    The third E17 gate — planted alpha and P recovered within 5 %, fit
    R² >= 0.98 — is ``test_calibrate.TestRoundTrip``.  Stock size: a
    smaller load leaves the low-alpha device more than 2x off.
    """

    @pytest.fixture(scope="class")
    def result(self):
        return exp_autotune.run()

    def test_converges_within_2x_of_the_sweep_optimum_everywhere(self, result):
        for row in result.rows:
            assert row.convergence_ratio <= 2.0, row.name

    def test_the_bad_start_really_was_bad_somewhere(self, result):
        assert max(row.start_ratio for row in result.rows) > 2.0

    def test_no_static_node_size_serves_every_device(self, result):
        assert result.best_static_worst_ratio > 2.0

    def test_render(self, result):
        assert "E17" in result.render()
