"""AutoTuner: the full loop, payback gating, passive refits, E17's gates."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import exp_autotune
from repro.models.affine import AffineModel
from repro.storage.ideal import AffineDevice
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from repro.tuning import AutoTuner
from repro.tuning.autotuner import estimate_migration_seconds

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
    def test_recommend_before_calibrate_rejected(self):
        tuner = AutoTuner(device())
        with pytest.raises(ConfigurationError):
            tuner.recommend(n_entries=10**6, cache_bytes=CACHE)

    def test_calibrate_then_recommend(self):
        tuner = AutoTuner(device())
        profile = tuner.calibrate()
        assert profile.confident()
        rec = tuner.recommend(n_entries=10**7, cache_bytes=CACHE)
        assert rec.node_bytes > 0
        assert tuner.profile is profile

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AutoTuner(device(), min_r2=0.0)
        with pytest.raises(ConfigurationError):
            AutoTuner(device(), max_probe_rounds=0)


class TestApply:
    def setup_tuner(self, dev):
        tuner = AutoTuner(dev)
        tuner.calibrate()
        return tuner

    def test_bulk_migration_preserves_tree(self):
        dev = device()
        tree, reference = loaded_tree(dev, node_bytes=4096)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=len(tree), cache_bytes=64 << 10)
        outcome = tuner.apply(
            tree,
            rec,
            lambda: BTree(
                StorageStack(dev, CACHE), BTreeConfig(node_bytes=rec.node_bytes)
            ),
            current_node_bytes=4096,
        )
        assert outcome.migrated
        assert outcome.report is not None and outcome.report.mode == "bulk"
        assert len(outcome.tree) == len(reference)
        for key in list(reference)[::131]:
            assert outcome.tree.get(key) == reference[key]

    def test_incremental_migration_mode(self):
        dev = device()
        tree, reference = loaded_tree(dev, node_bytes=4096, n=800)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=len(tree), cache_bytes=64 << 10)
        outcome = tuner.apply(
            tree,
            rec,
            lambda: BTree(
                StorageStack(dev, CACHE), BTreeConfig(node_bytes=rec.node_bytes)
            ),
            current_node_bytes=4096,
            mode="incremental",
            universe=UNIVERSE,
        )
        assert outcome.migrated
        assert outcome.report.mode == "incremental"
        assert outcome.report.entries_moved == len(reference)

    def test_incremental_needs_universe(self):
        dev = device()
        tree, _ = loaded_tree(dev, node_bytes=4096, n=100)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=10**6, cache_bytes=CACHE)
        with pytest.raises(ConfigurationError):
            tuner.apply(tree, rec, lambda: None, current_node_bytes=4096,
                        mode="incremental")

    def test_short_horizon_skips_migration(self):
        dev = device()
        tree, _ = loaded_tree(dev, node_bytes=4096)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=len(tree), cache_bytes=64 << 10)
        outcome = tuner.apply(
            tree, rec, lambda: None,
            current_node_bytes=4096,
            current_per_op_seconds=rec.predicted_per_op_seconds * 2,
            horizon_ops=1,  # nothing pays back within one op
        )
        assert not outcome.migrated
        assert outcome.tree is tree
        assert outcome.report is None
        assert outcome.predicted_payback_ops > 1

    def test_no_saving_never_migrates_under_horizon(self):
        dev = device()
        tree, _ = loaded_tree(dev, node_bytes=4096)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=len(tree), cache_bytes=64 << 10)
        outcome = tuner.apply(
            tree, rec, lambda: None,
            current_node_bytes=4096,
            current_per_op_seconds=rec.predicted_per_op_seconds / 2,  # already faster
            horizon_ops=10**12,
        )
        assert not outcome.migrated

    def test_unknown_mode_rejected(self):
        dev = device()
        tree, _ = loaded_tree(dev, node_bytes=4096, n=100)
        tuner = self.setup_tuner(dev)
        rec = tuner.recommend(n_entries=10**6, cache_bytes=CACHE)
        with pytest.raises(ConfigurationError):
            tuner.apply(tree, rec, lambda: None, current_node_bytes=4096, mode="magic")


class TestRefit:
    def test_refit_updates_profile_from_sampler(self):
        dev = device()
        tuner = AutoTuner(dev)
        tuner.calibrate()
        dev.enable_sampling(capacity=1024)
        for size in (4096, 16384, 65536, 262144) * 8:
            dev.read(0, size)
        updated = tuner.refit()
        assert updated is not None
        assert tuner.profile.source == "trace"

    def test_refit_without_sampler_keeps_profile(self):
        dev = device()
        tuner = AutoTuner(dev)
        profile = tuner.calibrate()
        assert tuner.refit() is None
        assert tuner.profile is profile

    def test_refit_before_calibrate_is_none(self):
        assert AutoTuner(device()).refit() is None


class TestMigrationEstimate:
    def test_scales_with_entries(self):
        tuner = AutoTuner(device())
        profile = tuner.calibrate()
        small = estimate_migration_seconds(profile, 10**4, 4096, 65536)
        large = estimate_migration_seconds(profile, 10**6, 4096, 65536)
        assert large > small * 50
        with pytest.raises(ConfigurationError):
            estimate_migration_seconds(profile, -1, 4096, 65536)


class TestCalibrationCache:
    def _tuner(self, cache):
        return AutoTuner(device(), cache=cache)

    def test_second_calibration_is_a_cache_hit(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        first = self._tuner(cache).calibrate()
        assert (cache.hits, cache.misses) == (0, 1)
        second = self._tuner(cache).calibrate()
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.affine.seconds_per_byte == first.affine.seconds_per_byte
        assert second.setup_seconds == first.setup_seconds

    def test_cache_hit_leaves_device_untouched(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        self._tuner(cache).calibrate()
        tuner = self._tuner(cache)
        tuner.calibrate()
        assert tuner.device.clock == 0.0
        assert tuner.device.stats.reads == 0

    def test_different_device_misses(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        self._tuner(cache).calibrate()
        other = AutoTuner(device(s=0.008), cache=cache)
        other.calibrate()
        assert cache.misses == 2

    def test_probe_params_enter_fingerprint(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        self._tuner(cache).calibrate(reads_per_size=32)
        self._tuner(cache).calibrate(reads_per_size=16)
        assert cache.misses == 2


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
