"""Lead-graph masks: level conversion, per-layer block structure, SEP growth, plans."""

import numpy as np
import pytest

from granalign.ingest import LevelData
from granalign.leadgraph import (
    LeadGraph,
    format_grid,
    full_graph,
    layer_masks,
    mask_plan,
    pairs_to_matrix,
)
from conftest import append_sep_mask, level_graph, mask_for_layer, parse_grid


class TestLeadGraphType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LeadGraph(np.ones((2, 3)))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LeadGraph(np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_accepts_integer_binary(self):
        g = LeadGraph(np.array([[1, 0], [0, 1]]))
        assert g.matrix.dtype == np.float64
        assert g.size == 2


class TestPairsToMatrix:
    def test_four_by_four_golden(self):
        """The connection pairs [(0,1),(1,3),(3,2),(2,1)] as a dense 0/1 grid."""
        got = pairs_to_matrix([(0, 1), (1, 3), (3, 2), (2, 1)], 4).matrix
        expect = np.array([
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ], dtype=np.float64)
        np.testing.assert_array_equal(got, expect)

    def test_duplicates_are_harmless(self):
        a = pairs_to_matrix([(0, 1), (0, 1)], 2).matrix
        b = pairs_to_matrix([(0, 1)], 2).matrix
        np.testing.assert_array_equal(a, b)

    def test_out_of_range_pair_raises(self):
        with pytest.raises(ValueError):
            pairs_to_matrix([(0, 2)], 2)

    def test_self_loops_land_on_diagonal(self):
        m = pairs_to_matrix([(i, i) for i in range(3)], 3).matrix
        np.testing.assert_array_equal(m, np.eye(3))


class TestLayerMasks:
    def setup_method(self):
        self.g_img = pairs_to_matrix([(0, 1), (1, 2)], 3)
        self.g_q = pairs_to_matrix([(0, 1), (1, 0)], 2)
        self.masks = layer_masks(self.g_img, self.g_q)

    def test_layer1_question_block_only(self):
        m = self.masks[0].matrix
        np.testing.assert_array_equal(m[3:, 3:], np.ones((2, 2)))
        assert m[:3, :].sum() == 0
        assert m[3:, :3].sum() == 0

    def test_layer2_cross_modal_only(self):
        m = self.masks[1].matrix
        np.testing.assert_array_equal(m[:3, 3:], np.ones((3, 2)))
        np.testing.assert_array_equal(m[3:, :3], np.ones((2, 3)))
        assert m[:3, :3].sum() == 0
        assert m[3:, 3:].sum() == 0

    def test_layer3_structure_plus_full_cross(self):
        m = self.masks[2].matrix
        np.testing.assert_array_equal(m[:3, :3], self.g_img.matrix)
        np.testing.assert_array_equal(m[3:, 3:], self.g_q.matrix)
        np.testing.assert_array_equal(m[:3, 3:], np.ones((3, 2)))
        np.testing.assert_array_equal(m[3:, :3], np.ones((2, 3)))

    def test_layers_past_three_reuse_layer3(self):
        assert mask_for_layer(self.masks, 0) is self.masks[0]
        assert mask_for_layer(self.masks, 2) is self.masks[2]
        assert mask_for_layer(self.masks, 5) is self.masks[2]

    def test_image_block_comes_first(self):
        """Image tokens occupy the leading index range of the combined mask."""
        m = layer_masks(pairs_to_matrix([], 2), full_graph(1))[2].matrix
        np.testing.assert_array_equal(m[:2, :2], np.zeros((2, 2)))
        assert m[2, 2] == 1.0


class TestSep:
    def test_mask_grows_by_one_connected_row(self):
        g = pairs_to_matrix([(0, 1)], 2)
        g2 = append_sep_mask(g)
        assert g2.size == 3
        assert g2.has_sep
        np.testing.assert_array_equal(g2.matrix[:2, :2], g.matrix)
        np.testing.assert_array_equal(g2.matrix[2, :], np.ones(3))
        np.testing.assert_array_equal(g2.matrix[:, 2], np.ones(3))

    def test_self_only_variant(self):
        g2 = append_sep_mask(pairs_to_matrix([], 2), connect_all=False)
        np.testing.assert_array_equal(g2.matrix[2], [0, 0, 1])
        np.testing.assert_array_equal(g2.matrix[:, 2], [0, 0, 1])

    def test_double_append_asserts(self):
        g2 = append_sep_mask(full_graph(2))
        with pytest.raises(ValueError, match="already appended"):
            append_sep_mask(g2)


class TestLevelGraph:
    def test_full_level_is_all_ones(self):
        level = LevelData(level="entity", labels=["a", "b", "c"], full=True)
        np.testing.assert_array_equal(level_graph(level).matrix, np.ones((3, 3)))

    def test_pair_level_matches_pairs_to_matrix(self):
        level = LevelData(level="concept", labels=["a", "b", "c"], pairs=[(0, 1), (2, 0)])
        expect = pairs_to_matrix([(0, 1), (2, 0)], 3)
        np.testing.assert_array_equal(level_graph(level).matrix, expect.matrix)

    def test_empty_level_is_zero_by_zero(self):
        assert level_graph(LevelData(level="entity", labels=[], full=True)).size == 0


class TestMaskPlan:
    def setup_method(self):
        self.img = LevelData(level="concept", labels=["a", "b", "c"], pairs=[(0, 1), (1, 2)])
        self.q = LevelData(level="entity", labels=["x", "y"], full=True)

    def test_one_mask_per_layer_with_sep(self):
        for num_layers in (1, 2, 5):
            for connect_all in (True, False):
                plan = mask_plan(self.img, self.q, num_layers, sep_connect_all=connect_all)
                masks = layer_masks(append_sep_mask(level_graph(self.img), connect_all),
                                    level_graph(self.q))
                assert len(plan) == num_layers and plan.dtype == bool
                for i, m in enumerate(plan):
                    assert m.shape == (6, 6)
                    np.testing.assert_array_equal(m, mask_for_layer(masks, i).matrix)

    def test_sep_self_only_variant(self):
        m3 = mask_plan(self.img, self.q, num_layers=3, sep_connect_all=False)[2]
        np.testing.assert_array_equal(m3[3, :4], [0, 0, 0, 1])
        np.testing.assert_array_equal(m3[:4, 3], [0, 0, 0, 1])

    def test_without_lead_graphs_every_layer_is_all_ones(self):
        plan = mask_plan(self.img, self.q, num_layers=3, use_lead_graphs=False)
        assert len(plan) == 3
        for m in plan:
            np.testing.assert_array_equal(m, np.ones((6, 6)))


class TestGridFormat:
    def test_roundtrip(self):
        g = pairs_to_matrix([(0, 2), (2, 1), (1, 1)], 3)
        back = parse_grid(format_grid(g))
        np.testing.assert_array_equal(back.matrix, g.matrix)

    def test_parse_skips_comments(self):
        g = parse_grid("# header\n1 0\n0 1\n")
        np.testing.assert_array_equal(g.matrix, np.eye(2))
