"""Runs of the extension experiments (E12-E15), scaled down where the claim allows."""

import pytest

from repro.experiments import (
    exp_aging,
    exp_asymmetry,
    exp_epsilon_tradeoff,
    exp_model_error,
    exp_ycsb,
)


class TestEpsilonTradeoff:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_epsilon_tradeoff.run(
            node_bytes=128 << 10,
            fanouts=(2, 8, 64),
            n_entries=50_000,
            cache_bytes=1 << 20,
            n_queries=100,
        )

    def test_insert_cost_rises_with_fanout(self, result):
        inserts = [p.insert_ms for p in result.betree_points()]
        assert inserts == sorted(inserts)

    def test_query_cost_falls_from_brt_end(self, result):
        queries = [p.query_ms for p in result.betree_points()]
        assert queries[0] > queries[-1]
        assert queries[0] > 1.5 * min(queries)

    def test_btree_is_the_query_optimal_endpoint(self, result):
        btree = {p.label: p for p in result.points}["btree 64KiB"]
        be = result.betree_points()
        assert btree.query_ms <= 1.1 * min(p.query_ms for p in be)
        # ...and pays orders of magnitude more per insert than the F=2 tree.
        assert btree.insert_ms > 20 * be[0].insert_ms

    def test_all_reference_structures_present(self, result):
        labels = {p.label for p in result.points}
        assert any(label.startswith("btree") for label in labels)
        assert any(label.startswith("lsm") for label in labels)
        assert "cola" in labels

    def test_cola_is_write_optimal_but_not_query_optimal(self, result):
        by_label = {p.label: p for p in result.points}
        cola = by_label["cola"]
        assert cola.insert_ms == min(p.insert_ms for p in result.points)
        # Even with fence pointers, the COLA probes one block per level —
        # strictly worse for queries than the B-tree's single-leaf miss.
        assert cola.query_ms > by_label["btree 64KiB"].query_ms

    def test_render(self, result):
        assert "tradeoff" in result.render()


class TestAging:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_aging.run(
            node_sizes=(16 << 10, 256 << 10),
            n_entries=60_000,
            cache_bytes=1 << 20,
            n_scans=10,
        )

    def test_aging_hurts_small_nodes_more(self, result):
        slow = result.measured_slowdown
        assert slow[0] > 3 * slow[-1]
        assert slow[0] > 10  # point-query-sized nodes: an order of magnitude
        assert slow[-1] < 3  # scan-sized nodes barely notice

    def test_fresh_always_faster(self, result):
        for f, a in zip(result.fresh_mibps, result.aged_mibps):
            assert f > a

    def test_prediction_brackets_measurement(self, result):
        for measured, predicted in zip(result.measured_slowdown, result.predicted_slowdown):
            assert predicted / 2.5 < measured < predicted * 2.5

    def test_render(self, result):
        assert "aging" in result.render()


class TestAsymmetry:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_asymmetry.run(
            write_multipliers=(1.0, 10.0),
            fanouts=(2, 16, 32, 64),
            n_entries=40_000,
            cache_bytes=1 << 20,
            n_queries=80,
        )

    def test_model_optimum_falls_with_write_cost(self, result):
        assert result.model_optimal_fanout[1] < result.model_optimal_fanout[0]

    def test_measured_optimum_weakly_falls(self, result):
        # Weakly step by step (it is grid-quantized).  On this grid the best
        # fanout holds at 16 from 1x to 10x writes; the fall shows in the
        # next fanout up, which trails the best by more as writes get dearer.
        measured = result.measured_best_fanout
        assert all(a >= b for a, b in zip(measured, measured[1:]))
        up = result.fanouts[result.fanouts.index(measured[0]) + 1]
        trail = [c[up] / c[best] for c, best in zip(result.measured_cost_ms, measured)]
        assert trail[-1] > trail[0] > 1

    def test_both_fanout_extremes_lose_to_the_middle(self, result):
        # Tiny fanouts give queries no help; huge ones are flush-write heavy.
        for costs in result.measured_cost_ms:
            best = min(costs.values())
            assert costs[result.fanouts[0]] > 1.3 * best
            assert costs[result.fanouts[-1]] > 1.05 * best

    def test_costs_rise_with_write_multiplier(self, result):
        # Same workload, pricier writes: every fanout's cost goes up.
        for fanout in result.fanouts:
            assert result.measured_cost_ms[1][fanout] > result.measured_cost_ms[0][fanout]

    def test_render(self, result):
        assert "asymmetry" in result.render()


class TestModelError:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_model_error.run(
            node_sizes=(16 << 10, 256 << 10, 4 << 20),
            n_entries=80_000,
            cache_bytes=2 << 20,
            n_queries=150,
        )

    def test_affine_within_paper_bound(self, result):
        assert all(abs(e) < 0.25 for e in result.affine_errors)

    def test_dam_within_lemma1_factor_2(self, result):
        for m, p in zip(result.measured_ms, result.dam_ms):
            assert 0.45 < p / m < 2.6

    def test_dam_far_less_predictive_than_affine(self, result):
        worst_affine = max(abs(e) for e in result.affine_errors)
        worst_dam = max(abs(e) for e in result.dam_errors)
        assert worst_dam > 4 * worst_affine

    def test_dam_error_changes_sign(self, result):
        # ...so the DAM cannot even rank node sizes.
        assert min(result.dam_errors) < 0 < max(result.dam_errors)

    def test_render(self, result):
        assert "predictability" in result.render()


class TestYCSB:
    """E15, the Section 5 OLTP/OLAP claim on one table (stock size)."""

    @pytest.fixture(scope="class")
    def result(self):
        return exp_ycsb.run()

    def test_write_optimized_structure_wins_update_heavy(self, result):
        assert result.winner("A (50r/50u)") in ("betree", "lsm")
        costs = result.cost_ms["A (50r/50u)"]
        assert costs["btree"] > 2 * min(costs.values())

    def test_betree_matches_btree_read_only(self, result):
        # Theorem 9: the optimized Bε-tree's point query costs what the
        # B-tree's does, so on read-only C the two are within 10 % of each
        # other, and the LSM, which probes several runs, trails both.
        costs = result.cost_ms["C (100r)"]
        assert abs(costs["betree"] / costs["btree"] - 1) < 0.1
        assert costs["lsm"] > max(costs["btree"], costs["betree"])

    def test_upserts_make_rmw_nearly_free(self, result):
        costs = result.cost_ms["F (100 rmw)"]
        assert costs["betree"] < costs["btree"] / 20
        assert costs["betree"] < costs["lsm"] / 20

    def test_render(self, result):
        assert "YCSB" in result.render()
