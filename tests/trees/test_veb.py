"""Static search tree, vEB layout, and PDAM query-simulator tests."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.pdam import PDAMModel
from repro.storage.ideal import PDAMDevice
from repro.trees.btree.veb import (
    PDAMQuerySimulator,
    StaticSearchTree,
    VEBLayout,
)


class TestStaticSearchTree:
    def test_contains_all_keys(self):
        keys = np.arange(1, 100) * 5
        tree = StaticSearchTree(keys)
        for k in keys:
            assert tree.contains(int(k))

    def test_rejects_absent_keys(self):
        tree = StaticSearchTree(np.arange(1, 100) * 5)
        assert not tree.contains(7)
        assert not tree.contains(0)
        assert not tree.contains(10**9)

    def test_search_path_root_to_leaf(self):
        tree = StaticSearchTree(np.arange(1, 65))
        path = tree.search_path(30)
        assert path[0] == 0
        assert len(path) == tree.height
        for a, b in zip(path, path[1:]):
            assert b in (2 * a + 1, 2 * a + 2)

    def test_nodes_at_depth_contiguous(self):
        tree = StaticSearchTree(np.arange(1, 17))
        cohort = tree.nodes_at_depth(0, 2)
        assert list(cohort) == [3, 4, 5, 6]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticSearchTree([])
        with pytest.raises(ConfigurationError):
            StaticSearchTree([3, 2, 1])
        with pytest.raises(ConfigurationError):
            StaticSearchTree([1, 1])

    def test_non_power_of_two_padded(self):
        keys = np.arange(1, 100)  # 99 keys -> 128 leaves
        tree = StaticSearchTree(keys)
        assert tree.n_nodes == 2 * 128 - 1
        assert all(tree.contains(int(k)) for k in keys)

    def test_single_key(self):
        tree = StaticSearchTree([42])
        assert tree.contains(42)
        assert not tree.contains(41)
        assert not tree.contains(43)
        path = tree.search_path(42)
        assert path[0] == 0 and len(path) == tree.height

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 1024])
    def test_exact_power_of_two_counts(self, n):
        # No padded leaves: every leaf is a real key.
        keys = np.arange(1, n + 1) * 7
        tree = StaticSearchTree(keys)
        assert tree.n_nodes == 2 * n - 1
        assert all(tree.contains(int(k)) for k in keys)
        assert not tree.contains(int(keys[-1]) + 7)

    def test_int64_max_key_without_padding(self):
        # An exact power-of-two count needs no pad sentinel, so the
        # maximum representable key is legal as the largest key.
        top = np.iinfo(np.int64).max
        keys = np.array([1, 5, 9, top], dtype=np.int64)
        tree = StaticSearchTree(keys)
        for k in keys:
            assert tree.contains(int(k))
        assert not tree.contains(2)

    def test_int64_max_key_with_padding_rejected(self):
        # 3 keys -> 4 leaves: the pad sentinel would have to exceed
        # INT64_MAX, which wrapped to INT64_MIN before the fix and
        # corrupted every search right of the real keys.
        top = np.iinfo(np.int64).max
        with pytest.raises(ConfigurationError):
            StaticSearchTree(np.array([1, 5, top], dtype=np.int64))

    def test_near_max_key_with_padding_ok(self):
        # One below the boundary still pads fine.
        top = np.iinfo(np.int64).max - 1
        tree = StaticSearchTree(np.array([1, 5, top], dtype=np.int64))
        assert tree.contains(top)
        assert not tree.contains(top - 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100, 512])
    def test_nodes_at_depth_cohorts(self, n):
        # At every scale, each depth cohort under the root is contiguous,
        # sized 2^d, and the cohorts tile the whole heap.
        tree = StaticSearchTree(np.arange(1, n + 1))
        seen = []
        for d in range(tree.height):
            cohort = tree.nodes_at_depth(0, d)
            assert len(cohort) == 1 << d
            assert list(cohort) == list(
                range(cohort.start, cohort.start + (1 << d))
            )
            seen.extend(cohort)
        assert seen == list(range(tree.n_nodes))

    def test_nodes_at_depth_subtree_roots(self):
        tree = StaticSearchTree(np.arange(1, 17))
        # Cohorts of an internal root stay inside its subtree and line up
        # with its children's cohorts one level down.
        for root in (1, 2, 3):
            kids = tree.nodes_at_depth(root, 1)
            assert list(kids) == [2 * root + 1, 2 * root + 2]
            grand = tree.nodes_at_depth(root, 2)
            assert grand.start == 2 * (2 * root + 1) + 1


def reference_positions(height):
    """The recursion ``VEBLayout`` used to run node by node, kept as the
    definition the level-by-level numpy build is checked against: lay out
    the top ``ceil(h/2)`` levels, then each bottom subtree left to right."""
    position = [0] * ((1 << height) - 1)
    rank = iter(range(len(position)))

    def assign(root, h):
        if h == 1:
            position[root] = next(rank)
            return
        top_h = (h + 1) // 2
        assign(root, top_h)
        first = ((root + 1) << top_h) - 1
        for sub_root in range(first, first + (1 << top_h)):
            assign(sub_root, h - top_h)

    assign(0, height)
    return position


class TestVEBLayout:
    @pytest.mark.parametrize("height", [*range(1, 17), 19])
    def test_matches_the_recursion(self, height):
        layout = VEBLayout(height)
        assert layout.position.dtype == np.int64
        assert layout.position.tolist() == reference_positions(height)

    @pytest.mark.parametrize("nodes_per_block", [31, 255])  # 512 B and 4 KiB of 16 B pivots
    @pytest.mark.parametrize("height", range(4, 16))
    def test_blocks_never_decrease_along_a_level(self, height, nodes_per_block):
        # What lets the cob index repair read a level range's block set off
        # its two ends: same block at both ends, one block in between.
        block_of = VEBLayout(height).position // nodes_per_block
        for depth in range(height):
            level = block_of[(1 << depth) - 1 : (2 << depth) - 1]
            assert np.all(level[1:] >= level[:-1])

    @pytest.mark.parametrize("height", range(2, 13))
    def test_an_ancestor_is_stored_before_its_descendants(self, height):
        position = VEBLayout(height).position
        child = np.arange(1, position.size)
        assert np.all(position[(child - 1) >> 1] < position[child])

    @pytest.mark.parametrize("nodes_per_block", [1, 3, 7, 15, 511])
    @pytest.mark.parametrize("height", range(2, 13))
    def test_a_path_whose_ends_share_a_block_is_that_block(self, height, nodes_per_block):
        # What lets the cob index charge a path off its two ends: for every
        # leaf and every number of unpinned levels, the topmost unpinned
        # node in the leaf's block means one block on the whole path.
        block_of = VEBLayout(height).position // nodes_per_block
        leaves = np.arange((1 << (height - 1)) - 1, (1 << height) - 1)
        for unpinned in range(1, height + 1):
            path = np.stack([((leaves + 1) >> up) - 1 for up in range(unpinned)])
            blocks = block_of[path]
            one_block = blocks[0] == blocks[-1]
            assert np.all(blocks[:, one_block] == blocks[0, one_block])

    @pytest.mark.parametrize("height", [1, 2, 3, 4, 5, 8, 13])
    def test_is_a_permutation(self, height):
        layout = VEBLayout(height)
        assert sorted(layout.position.tolist()) == list(range(layout.n_nodes))

    def test_root_is_first(self):
        for h in (2, 5, 9):
            assert VEBLayout(h).position[0] == 0

    def test_height_one(self):
        layout = VEBLayout(1)
        assert layout.n_nodes == 1

    def test_bottom_subtrees_contiguous(self):
        # The vEB property: each recursive bottom subtree occupies a
        # contiguous range of positions.
        h = 6
        layout = VEBLayout(h)
        top_h = (h + 1) // 2
        bottom_h = h - top_h
        first = (1 << top_h) - 1
        for root in range(first, 2 * first + 1):
            # Collect the subtree of `root` of height bottom_h.
            nodes = [root]
            frontier = [root]
            for _ in range(bottom_h - 1):
                frontier = [c for n in frontier for c in (2 * n + 1, 2 * n + 2)]
                nodes.extend(frontier)
            positions = sorted(int(layout.position[n]) for n in nodes)
            assert positions == list(range(positions[0], positions[0] + len(nodes)))

    def test_path_spans_few_blocks(self):
        # A root-to-leaf path in vEB order touches O(log N / log B) blocks.
        h = 16
        layout = VEBLayout(h)
        tree = StaticSearchTree(np.arange(1, (1 << (h - 1)) + 1))
        entries_per_block = 255  # 8 levels per block
        rng = np.random.default_rng(0)
        for _ in range(20):
            key = int(rng.integers(1, 1 << (h - 1)))
            path = tree.search_path(key)
            blocks = {int(layout.position[n]) // entries_per_block for n in path}
            assert len(blocks) <= math.ceil(h / 8) + 1

    def test_bad_height(self):
        with pytest.raises(ConfigurationError):
            VEBLayout(0)


class TestPDAMQuerySimulator:
    def setup_method(self):
        self.tree = StaticSearchTree(np.arange(1, 2**12 + 1) * 3)

    def _sim(self, mode, P=8):
        dev = PDAMDevice(PDAMModel(parallelism=P, block_bytes=4096))
        return PDAMQuerySimulator(dev, self.tree, mode=mode)

    def test_all_queries_complete(self):
        for mode in ("flat_b", "flat_pb", "veb_pb"):
            res = self._sim(mode).run(3, 10, seed=1)
            assert res.queries_completed == 30
            assert res.steps > 0

    def test_flat_b_scales_with_clients_up_to_p(self):
        t1 = self._sim("flat_b").run(1, 20, seed=0).throughput
        t8 = self._sim("flat_b").run(8, 20, seed=0).throughput
        assert t8 == pytest.approx(8 * t1, rel=0.15)

    def test_flat_b_saturates_past_p(self):
        t8 = self._sim("flat_b").run(8, 20, seed=0).throughput
        t16 = self._sim("flat_b").run(16, 20, seed=0).throughput
        assert t16 == pytest.approx(t8, rel=0.15)

    def test_flat_pb_does_not_scale(self):
        t1 = self._sim("flat_pb").run(1, 20, seed=0).throughput
        t8 = self._sim("flat_pb").run(8, 20, seed=0).throughput
        assert t8 < 2 * t1

    def test_veb_beats_flat_b_single_client(self):
        v = self._sim("veb_pb").run(1, 30, seed=0).throughput
        f = self._sim("flat_b").run(1, 30, seed=0).throughput
        assert v > 1.2 * f

    def test_veb_matches_flat_b_at_saturation(self):
        v = self._sim("veb_pb").run(8, 30, seed=0).throughput
        f = self._sim("flat_b").run(8, 30, seed=0).throughput
        assert v > 0.9 * f

    def test_lemma13_dominance(self):
        # veb_pb within 90% of the best mode at every k.
        for k in (1, 2, 4, 8):
            results = {
                mode: self._sim(mode).run(k, 20, seed=2).throughput
                for mode in ("flat_b", "flat_pb", "veb_pb")
            }
            best = max(results.values())
            assert results["veb_pb"] >= 0.9 * best, (k, results)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            self._sim("diagonal")

    def test_bad_run_params_rejected(self):
        sim = self._sim("veb_pb")
        with pytest.raises(ConfigurationError):
            sim.run(0, 10)
        with pytest.raises(ConfigurationError):
            sim.run(1, 0)

    def test_deterministic(self):
        a = self._sim("veb_pb").run(4, 25, seed=9)
        b = self._sim("veb_pb").run(4, 25, seed=9)
        assert a.steps == b.steps
