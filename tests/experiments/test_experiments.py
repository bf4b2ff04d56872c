"""End-to-end runs of every experiment, checking paper shapes.

Each class calls its experiment's ``run()`` once — with reduced parameters
(smaller loads, fewer ops) wherever the claim survives them, at the stock
size where it does not — and asserts the qualitative claims the paper
makes for that table/figure.  This file is the one gate per claim.
"""

import pytest

from repro.experiments import (
    exp_affine_validation,
    exp_betree_nodesize,
    exp_btree_nodesize,
    exp_cob_compare,
    exp_durability,
    exp_lsm_nodesize,
    exp_optima,
    exp_optimizations,
    exp_pdam_concurrency,
    exp_pdam_validation,
    exp_sensitivity,
    exp_write_amp,
)


class TestPDAMValidation:
    @pytest.fixture(scope="class")
    def result(self):
        # The whole zoo on the stock thread grid: a coarser grid moves the
        # fitted knees enough to lose the device ordering below.
        return exp_pdam_validation.run(bytes_per_thread=4 << 20)

    def test_r2_near_one(self, result):
        for name, fit in result.fits.items():
            assert fit.r2 > 0.99, name

    def test_fitted_p_in_paper_range(self, result):
        for name, fit in result.fits.items():
            assert 1.5 < fit.parallelism < 10, name

    def test_saturation_close_to_geometry(self, result):
        from repro import storage

        for name, fit in result.fits.items():
            target = storage.build(name).geometry.saturated_read_bytes_per_second
            assert fit.saturation_bytes_per_second == pytest.approx(target, rel=0.15)

    def test_dam_overestimates_by_about_p(self, result):
        # Paper: "The DAM ... overestimates the completion time for large
        # numbers of threads by roughly P."
        for name, fit in result.fits.items():
            factor = result.dam_overestimate_factor(name)
            assert factor > max(1.5, 0.5 * fit.parallelism), name

    def test_flat_until_p_then_linear(self, result):
        # Figure 1's curve: completion time flat to p ~ P, linear past it.
        for name, times in result.times.items():
            assert times[1] < 1.4 * times[0], f"{name}: no flat region"
            assert times[-1] > 3 * times[0], f"{name}: never saturated"

    def test_fitted_p_orders_devices_like_their_geometry(self, result):
        fits = result.fits
        assert (
            fits["silicon-power-s55-sim"].parallelism
            < fits["samsung-970-pro-sim"].parallelism
        )

    def test_render(self, result):
        out = result.render()
        assert "Table 1" in out and "Figure 1" in out


class TestAffineValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_affine_validation.run(reads_per_size=32)

    def test_r2_near_one(self, result):
        # Paper: R^2 "within 0.1% of 1".
        for name, fit in result.fits.items():
            assert fit.r2 > 0.999, name

    def test_alpha_in_commodity_hdd_range(self, result):
        # Paper: 0.0012-0.0031 per 4 KiB block.
        for name, fit in result.fits.items():
            assert 0.0005 < fit.alpha < 0.01, name

    def test_bandwidth_recovered_exactly(self, result):
        for name, fit in result.fits.items():
            _, t4k = result.truth[name]
            assert fit.seconds_per_byte * 4096 == pytest.approx(t4k, rel=0.05), name

    def test_setup_within_25_percent(self, result):
        # Paper: "the affine model predicts the time for IOs of varying
        # sizes to within a 25% error."
        for name, fit in result.fits.items():
            s_true, _ = result.truth[name]
            assert fit.setup_seconds == pytest.approx(s_true, rel=0.25), name

    def test_alpha_ordering_matches_truth(self, result):
        names = sorted(result.fits)
        fitted = [result.fits[n].alpha for n in names]
        true = [result.truth[n][1] / result.truth[n][0] for n in names]
        import numpy as np

        assert list(np.argsort(fitted)) == list(np.argsort(true))

    def test_render(self, result):
        assert "Table 2" in result.render()


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_sensitivity.run()

    def test_btree_much_more_sensitive(self, result):
        assert result.sensitivity(result.btree) > 3 * result.sensitivity(result.betree_query)

    def test_betree_optimum_larger_than_btree(self, result):
        # Bε-trees tolerate (and want) much larger nodes.
        btree_optimum = result.optimum_entries(result.btree)
        assert result.optimum_entries(result.betree_query) >= btree_optimum
        assert result.optimum_entries(result.betree_insert) >= btree_optimum

    def test_render(self, result):
        assert "Table 3" in result.render()


@pytest.fixture(scope="module")
def btree_nodesize():
    """Figure 2's run; Figure 3's class compares against it."""
    return exp_btree_nodesize.run(
        n_entries=60_000, cache_bytes=2 << 20, n_queries=150, n_inserts=150
    )


class TestBTreeNodeSize:
    @pytest.fixture(scope="class")
    def result(self, btree_nodesize):
        return btree_nodesize

    def test_large_nodes_hurt(self, result):
        # Figure 2: past the optimum, cost grows roughly linearly.
        assert result.query_ms[-1] > 1.7 * min(result.query_ms)
        assert result.insert_ms[-1] > 1.7 * min(result.insert_ms)

    def test_optimum_below_half_bandwidth(self, result):
        from repro.experiments.devices import default_hdd

        half_bw = default_hdd().geometry.half_bandwidth_bytes
        assert result.best_node("query") < half_bw
        assert result.best_node("insert") < half_bw

    def test_overlay_fit_exists(self, result):
        assert result.query_fit is not None and result.query_fit.alpha > 0

    def test_render(self, result):
        assert "Figure 2" in result.render()


class TestBeTreeNodeSize:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_betree_nodesize.run(
            node_sizes=(64 << 10, 256 << 10, 1 << 20),
            n_entries=60_000,
            cache_bytes=2 << 20,
            n_queries=150,
            max_inserts=20_000,
        )

    def test_flatter_than_btree(self, result, btree_nodesize):
        # The headline Figure 3 claim: mild variation over a 16x node-size
        # range, and less than the B-tree's over the same sizes and load.
        assert result.sensitivity("query") < 3.0
        btree_ms = [
            btree_nodesize.query_ms[btree_nodesize.node_sizes.index(size)]
            for size in result.node_sizes
        ]
        assert result.sensitivity("query") < max(btree_ms) / min(btree_ms)

    def test_inserts_favour_large_nodes(self, result):
        # The paper's TokuDB insert optimum is 4 MiB, the top of its range.
        assert result.best_node("insert") >= result.node_sizes[-2]

    def test_insert_cost_way_below_query_cost(self, result):
        assert max(result.insert_ms) < min(result.query_ms)

    def test_render(self, result):
        assert "Figure 3" in result.render()


class TestPDAMConcurrency:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_pdam_concurrency.run(
            n_keys=1 << 12, clients=(1, 2, 4, 8, 16), queries_per_client=20
        )

    def test_lemma13_dominance(self, result):
        assert result.veb_dominates(slack=0.85)

    def test_flat_b_wastes_the_device_at_one_client(self, result):
        thr = result.throughput
        assert thr["veb_pb"][0] > 1.2 * thr["flat_b"][0]

    def test_flat_b_saturates(self, result):
        thr = result.throughput["flat_b"]
        assert thr[-1] == pytest.approx(thr[-2], rel=0.2)
        assert thr[-1] < 1.2 * thr[result.clients.index(result.parallelism)]

    def test_flat_pb_flat(self, result):
        thr = result.throughput["flat_pb"]
        assert max(thr) < 2.5 * min(thr)
        # Whole size-PB reads cannot scale: far below flat_b at k = P.
        k_p = result.clients.index(result.parallelism)
        assert thr[k_p] < 0.5 * result.throughput["flat_b"][k_p]

    def test_render(self, result):
        assert "Lemma 13" in result.render()


class TestWriteAmp:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_write_amp.run(n_loaded=40_000, n_inserts=2_500)

    def test_btree_linear_in_node_size(self, result):
        # 16 KiB -> 1 MiB is 64x; expect at least ~20x more write amp.
        assert result.btree[-1] > 20 * result.btree[0]

    def test_betree_flat_in_node_size(self, result):
        assert max(result.betree) < 10 * min(result.betree)

    def test_betree_much_lower_at_large_nodes(self, result):
        assert result.betree[-1] < result.btree[-1] / 100

    def test_render(self, result):
        assert "Write amplification" in result.render()


class TestTheorem9Ablation:
    @pytest.fixture(scope="class")
    def result(self):
        # Stock size: at 60-120 k entries the segmented variants read ~8 ms
        # an insert (0.25 ms here) and the insert comparison below fails.
        return exp_optimizations.run()

    def test_each_step_improves_queries(self, result):
        assert result.query_ms["segments"] < result.query_ms["naive"]
        assert result.query_ms["theorem9"] <= result.query_ms["segments"]

    def test_speedup_material(self, result):
        assert result.query_speedup > 1.5

    def test_inserts_within_an_order_of_magnitude(self, result):
        # Every variant moves whole nodes on the insert path.
        ins = result.insert_ms.values()
        assert max(ins) < 20 * max(min(ins), 1e-6)

    def test_render(self, result):
        assert "ablation" in result.render()


class TestOptima:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_optima.run()

    def test_optimum_fraction_shrinks_with_alpha(self, result):
        fracs = [b * a for b, a in zip(result.numeric_btree, result.alphas)]
        assert fracs == sorted(fracs, reverse=True)

    def test_numeric_optimum_tracks_the_closed_form(self, result):
        for i, alpha in enumerate(result.alphas):
            # Corollary 6/7: strictly below the half-bandwidth point.
            assert result.numeric_btree[i] < 1.0 / alpha
            assert 0.5 < result.numeric_btree[i] / result.closed_btree[i] < 3.0
            # Corollary 11's per-level overhead is sub-constant.
            assert result.query_overhead[i] < 1.0

    def test_speedup_grows(self, result):
        assert result.insert_speedup == sorted(result.insert_speedup)

    def test_render(self, result):
        assert "Corollaries" in result.render()


class TestLSM:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_lsm_nodesize.run(
            sstable_sizes=(256 << 10, 1 << 20),
            n_loaded=30_000,
            min_inserts=8_000,
            max_inserts=20_000,
            n_queries=100,
        )

    def test_queries_flat(self, result):
        assert max(result.query_ms) < 1.3 * min(result.query_ms)

    def test_insert_cheap(self, result):
        assert max(result.insert_ms) < min(result.query_ms)

    def test_compaction_happened(self, result):
        assert min(result.write_amp) > 1.0

    def test_render(self, result):
        assert "LSM" in result.render()


class TestPDAMWriteMix:
    def test_writes_lower_saturation_same_shape(self):
        from repro.experiments import exp_pdam_validation

        kwargs = dict(
            threads=(1, 2, 4, 8, 16, 32),
            bytes_per_thread=2 << 20,
            devices=("samsung-860-pro-sim",),
        )
        reads = exp_pdam_validation.run(**kwargs)
        mixed = exp_pdam_validation.run(write_fraction=0.5, **kwargs)
        name = "samsung-860-pro-sim"
        # Writes are slower: lower saturation throughput, same knee shape.
        assert (
            mixed.fits[name].saturation_bytes_per_second
            < reads.fits[name].saturation_bytes_per_second
        )
        assert mixed.fits[name].r2 > 0.97
        t = mixed.times[name]
        assert t[-1] > 2 * t[0]  # still saturates and grows linearly

    def test_bad_fraction_rejected(self):
        from repro.experiments import exp_pdam_validation

        with pytest.raises(ValueError):
            exp_pdam_validation.run(write_fraction=1.5)


class TestDurability:
    """E21's gates, on the stock sweep."""

    @pytest.fixture(scope="class")
    def result(self):
        return exp_durability.run(jobs=1, cache=None)

    def test_every_point_recovers_correctly(self, result):
        # The sweep doubles as a crash-consistency gate: each point
        # crashes mid-stream and must match the acked-prefix model.
        assert all(r["recovered_ok"] for r in result.rows)

    def test_affine_wants_a_larger_commit_batch(self, result):
        # Corollary 6/7 applied to the write path: the affine setup cost
        # amortizes over the group, the DAM's does not.
        ckpt = result.checkpoints[0]
        dam = result.argmin_batch("dam", checkpoint_every=ckpt)
        affine = result.argmin_batch("affine", checkpoint_every=ckpt)
        pdam = result.argmin_batch("pdam", checkpoint_every=ckpt)
        assert affine > dam
        assert pdam == dam  # one commit blob fits one parallel step

    def test_exposure_grows_with_the_batch(self, result):
        for device in result.devices:
            for ckpt in result.checkpoints:
                rows = sorted(
                    (
                        r
                        for r in result.rows
                        if r["device"] == device and r["checkpoint_every"] == ckpt
                    ),
                    key=lambda r: r["group_commit"],
                )
                exposures = [r["exposure"] for r in rows]
                assert exposures == sorted(exposures)
                assert exposures[0] < exposures[-1]

    def test_group_commit_amortizes_the_log_on_the_dam(self, result):
        shares = [
            r["wal_frac"]
            for r in result.rows
            if r["device"] == "dam" and r["group_commit"] >= 8
        ]
        assert shares and max(shares) < 0.5

    def test_rows_equal_across_jobs(self, result):
        assert exp_durability.run(jobs=2, cache=None).rows == result.rows

    def test_quick_keeps_an_explicit_axis(self):
        # Explicit axes that happen to equal the defaults are still explicit.
        batches = exp_durability.DEFAULT_GROUP_COMMITS
        checkpoints = exp_durability.DEFAULT_CHECKPOINTS
        quick = exp_durability.run(
            devices=("dam",),
            group_commits=batches,
            checkpoints=checkpoints,
            quick=True,
            cache=None,
        )
        assert quick.group_commits == batches
        assert quick.checkpoints == checkpoints
        assert len(quick.rows) == len(batches) * len(checkpoints)

    def test_unknown_device_rejected(self, result):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            exp_durability.make_durability_device("tape", node_bytes=4096)
        with pytest.raises(ConfigurationError):
            result.argmin_batch("tape")

    def test_render(self, result):
        out = result.render()
        assert "E21" in out
        assert "k*=" in out
        assert "Corollary 6/7" in out


class TestCOBCompare:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_cob_compare.run(quick=True, jobs=1, cache=None)

    def test_knobless_trees_flat_by_construction(self, result):
        for model in result.models:
            for tree in ("cola", "cob", "cob-buffered"):
                assert result.curves[(model, tree)].sensitivity() == 1.0
                assert result.curves[(model, tree)].sensitivity("insert") == 1.0

    def test_btree_sensitive_to_its_knob(self, result):
        # The knob matters: mis-sizing the B-tree costs real factors under
        # every model, which is the re-tuning burden cob avoids.
        for model in result.models:
            assert result.curves[(model, "btree")].sensitivity() > 1.5

    def test_btree_optimum_moves_across_models(self, result):
        # The paper's core point: the *same* tree wants a different node
        # size under DAM vs affine vs PDAM pricing.
        best = {m: result.curves[(m, "btree")].best_node() for m in result.models}
        assert len(set(best.values())) >= 2
        assert best["affine"] > best["dam"]  # affine rewards larger IOs

    def test_buffered_cob_insert_within_betree_band(self, result):
        # Theorem 9: the buffered cob variant matches the best-tuned
        # Bε-tree's amortized insert cost under the affine model.
        assert result.insert_vs_best_tuned_betree("affine", "cob-buffered") < 2.0

    def test_veb_layout_dominates_thread_panel(self, result):
        assert result.veb_dominates_threads(slack=0.85)

    def test_adversarial_scans_within_their_bound(self, result):
        # ROADMAP item 4's scan adversary: every row of the panel holds
        # c(1 + k/B) (full size: tests/trees/test_pma_floors.py).
        assert set(result.adversary) == {"cob", "cob-buffered"}
        for rows in result.adversary.values():
            assert len(rows) == 5
            assert all(0 < blocks <= bound for blocks, bound in rows)

    def test_every_cell_pays_io(self, result):
        # Regression guard for the scale parameters: a zero cell means the
        # cache swallowed the workload and the comparison is vacuous.
        for curve in result.curves.values():
            assert min(curve.query_ms) > 0 and min(curve.insert_ms) > 0

    def test_render(self, result):
        out = result.render()
        assert "E20" in out and "Lemma 13 panel" in out
        assert "no knob" in out
