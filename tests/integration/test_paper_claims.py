"""The paper's abstract, as executable assertions.

One test per headline claim, each citing the sentence it checks.  These
intentionally re-derive results from small scales rather than reusing the
benchmark fixtures — the point is that every claim holds from a cold start
in a few seconds.
"""

import math

import numpy as np
import pytest


class TestClaim1HalfBandwidthFactor2:
    """'if B is set to the half-bandwidth point ... the DAM approximates
    the IO cost on any hardware to within a factor of 2.'"""

    def test_lemma1_bound_on_random_io_mix(self):
        from repro.models.conversions import (
            affine_cost,
            dam_cost_of_affine_algorithm,
        )

        rng = np.random.default_rng(0)
        for alpha in (1e-2, 1e-4):
            ios = [int(x) for x in rng.integers(1, int(10 / alpha), size=300)]
            dam = dam_cost_of_affine_algorithm(ios, alpha)
            affine = affine_cost(ios, alpha)
            assert dam <= 2 * affine + 1e-9


class TestClaim2ModelsFitHardware:
    """'the affine and PDAM models give good approximations of the
    performance characteristics of hard drives and SSDs.'"""

    def test_affine_fits_hdd_with_high_r2(self):
        from repro.analysis.fitting import fit_affine_model
        from repro import storage

        hdd = storage.build("hitachi-1tb-2009-sim", seed=1)
        rng = np.random.default_rng(2)
        sizes, times = [], []
        for io in [4096 * 4**k for k in range(6)]:
            samples = [
                hdd.read(int(rng.integers(0, (hdd.capacity_bytes - io) // 512)) * 512, io)
                for _ in range(24)
            ]
            sizes.append(io)
            times.append(float(np.mean(samples)))
        assert fit_affine_model(sizes, times).r2 > 0.99

    def test_pdam_fits_ssd_with_high_r2(self):
        from repro.analysis.fitting import fit_pdam_model
        from repro import storage
        from repro.storage.device import ReadRequest

        per_thread = 2 << 20
        threads = (1, 2, 4, 8, 16, 32)
        times = []
        for p in threads:
            ssd = storage.build("silicon-power-s55-sim")
            rng = np.random.default_rng(p)
            stripes = ssd.capacity_bytes // 65536
            streams = [
                [
                    ReadRequest(int(o) * 65536, 65536)
                    for o in rng.integers(0, stripes, size=per_thread // 65536)
                ]
                for _ in range(p)
            ]
            times.append(ssd.run_closed_loop(streams))
        fit = fit_pdam_model(list(threads), times, bytes_per_thread=per_thread)
        assert fit.r2 > 0.98
        assert 1.5 < fit.parallelism < 6


class TestClaim3NodeSizeExplanations:
    """'the affine model explains node-size choices in B-trees and
    Bε-trees' — small B-tree nodes, large Bε-tree nodes."""

    def test_btree_optimum_below_half_bandwidth(self):
        from repro.models.analysis import optimal_btree_node_size

        for alpha in (1e-3, 1e-5):
            assert optimal_btree_node_size(alpha) < 1 / alpha

    def test_betree_optimal_node_nearly_square_of_btrees(self):
        """'an optimized Bε-tree node size can be nearly the square of the
        optimal node size for a B-tree.'"""
        from repro.models.analysis import (
            optimal_betree_params,
            optimal_btree_node_size,
        )

        alpha = 1e-4
        b_bt = optimal_btree_node_size(alpha)
        _, b_be = optimal_betree_params(alpha)
        assert 0.2 * b_bt**2 < b_be < 5 * b_bt**2


class TestClaim4Sensitivity:
    """'the B-tree is highly sensitive to variations in the node size
    whereas Bε-trees are much less sensitive.'"""

    def test_analytic_sensitivity_gap(self):
        from repro.models.analysis import (
            betree_query_cost_optimized,
            btree_op_cost,
        )

        alpha, N, M = 1e-4, 1e9, 1e6
        grid = [2**k for k in range(6, 20, 2)]
        bt = [btree_op_cost(b, alpha, N, M) for b in grid]
        be = [betree_query_cost_optimized(b, math.sqrt(b), alpha, N, M) for b in grid]
        assert (max(bt) / min(bt)) > 5 * (max(be) / min(be))


class TestClaim5SimultaneousOptimality:
    """'Bε-trees can be optimized so that all operations are simultaneously
    optimal, even up to lower order terms.'"""

    def test_corollary12_queries_match_btree_inserts_beat_it(self):
        from repro.models.analysis import (
            betree_insert_cost,
            betree_query_cost_optimized,
            btree_op_cost,
            optimal_betree_params,
            optimal_btree_node_size,
        )

        alpha, N, M = 1e-5, 1e9, 1e6
        x = optimal_btree_node_size(alpha)
        F, B = optimal_betree_params(alpha)
        assert betree_query_cost_optimized(B, F, alpha, N, M) <= 1.5 * btree_op_cost(
            x, alpha, N, M
        )
        assert betree_insert_cost(B, F, alpha, N, M) < btree_op_cost(x, alpha, N, M) / 5


class TestClaim6PDAMObliviousDesign:
    """'B-trees can be organized so that both sequential and concurrent
    workloads are handled efficiently' (Lemma 13)."""

    def test_veb_layout_dominates_both_extremes(self):
        from repro.models.pdam import PDAMModel
        from repro.storage.ideal import PDAMDevice
        from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree

        tree = StaticSearchTree(np.arange(1, 2**11 + 1) * 3)

        def throughput(mode, k):
            dev = PDAMDevice(PDAMModel(parallelism=8, block_bytes=4096))
            return PDAMQuerySimulator(dev, tree, mode=mode).run(k, 15, seed=0).throughput

        for k in (1, 8):
            best_fixed = max(throughput("flat_b", k), throughput("flat_pb", k))
            assert throughput("veb_pb", k) >= 0.9 * best_fixed


class TestClaim7DAMOverestimatesByP:
    """'The DAM ... overestimates the completion time for large numbers of
    threads by roughly P.'"""

    def test_overestimate_factor(self):
        from repro.experiments import exp_pdam_validation

        result = exp_pdam_validation.run(
            threads=(1, 2, 4, 8, 16, 32),
            bytes_per_thread=2 << 20,
            devices=("samsung-970-pro-sim",),
        )
        factor = result.dam_overestimate_factor("samsung-970-pro-sim")
        # "roughly P": compare against the device's true saturation ratio
        # (the knee fit systematically lands below it).
        true_p = result.expected_parallelism["samsung-970-pro-sim"]
        assert factor == pytest.approx(true_p, rel=0.3)
