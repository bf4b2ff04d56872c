"""Migration: the bulk rebuild."""

import pytest

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from repro.tuning import rebuild_tree

UNIVERSE = 1 << 20


def make_tree(device=None, node_bytes=4096, cache_bytes=1 << 20):
    if device is None:
        device = AffineDevice(AffineModel.from_hardware(0.004, 4e-9))
    return BTree(StorageStack(device, cache_bytes), BTreeConfig(node_bytes=node_bytes))


def loaded_tree(n=2000, node_bytes=4096, seed=0, device=None):
    import random

    rng = random.Random(seed)
    keys = rng.sample(range(UNIVERSE), n)
    pairs = sorted((k, f"v{k}") for k in keys)
    tree = make_tree(device=device, node_bytes=node_bytes)
    tree.bulk_load(pairs)
    return tree, dict(pairs)


class TestBulkRebuild:
    def test_contents_preserved(self):
        old, reference = loaded_tree()
        new, report = rebuild_tree(old, lambda: make_tree(node_bytes=65536))
        assert len(new) == len(reference)
        for key, value in list(reference.items())[::97]:
            assert new.get(key) == value
        assert report.entries_moved == len(reference)

    def test_migration_io_is_charged(self):
        old, _ = loaded_tree()
        device = old.storage.device
        before = device.stats.busy_seconds
        _, report = rebuild_tree(
            old,
            lambda: BTree(
                StorageStack(device, 1 << 20), BTreeConfig(node_bytes=65536)
            ),
        )
        assert report.migration_seconds > 0
        assert report.migration_seconds == pytest.approx(
            device.stats.busy_seconds - before
        )

    def test_separate_devices_both_charged(self):
        old, _ = loaded_tree()
        other = AffineDevice(AffineModel.from_hardware(0.004, 4e-9))
        _, report = rebuild_tree(old, lambda: make_tree(device=other, node_bytes=65536))
        assert report.migration_seconds > 0

    def test_nonempty_target_rejected(self):
        old, _ = loaded_tree(n=100)
        full = make_tree()
        full.insert(1, "x")
        with pytest.raises(ConfigurationError):
            rebuild_tree(old, lambda: full)
