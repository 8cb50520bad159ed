"""Lead-graph masks: level conversion, per-layer block structure, SEP growth, plans."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granalign.ingest import LevelData
from granalign.leadgraph import (
    LeadGraph,
    format_grid,
    full_graph,
    layer_masks,
    mask_plan,
    pairs_to_matrix,
)
from granalign.model import ModelConfig, build_levels, build_plans
from conftest import append_sep_mask, level_graph, mask_for_layer, parse_grid

ORACLE_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


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
        back = parse_grid(format_grid(g.matrix))
        np.testing.assert_array_equal(back.matrix, g.matrix)

    def test_parse_skips_comments(self):
        g = parse_grid("# header\n1 0\n0 1\n")
        np.testing.assert_array_equal(g.matrix, np.eye(2))


class TestCommittedDigest:
    """Every mask is pinned bit for bit: bool and float64 0/1 bytes do not
    depend on the platform, so a change of any mask changes the digest."""

    PLANS = "28a9699c79befee51cb42e8befbae80e026798c25414aa7d9c8ab67f7681d560"
    GRAPHS = "9f31abed13be5d2c89684e1d94df4390723140c73fa7bf2b86243a7bd3474544"

    @staticmethod
    def update(h, name, a):
        h.update(f"{name} {a.shape} {a.dtype.str}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    def test_plans_match_committed_digest(self, small_corpus):
        samples = small_corpus[0].samples + small_corpus[1].samples
        h = hashlib.sha256()
        for num_layers, use, reduce, connect_all in itertools.product(
                (1, 2, 3, 5), (True, False), (False, True), (True, False)):
            cfg = ModelConfig(num_layers=num_layers, use_lead_graphs=use,
                              node_reduction=reduce, sep_connect_all=connect_all)
            for s in samples:
                plans = build_plans(build_levels(s.scene, s.question, cfg), cfg)
                for name in sorted(plans):
                    self.update(h, name, plans[name])
        assert h.hexdigest() == self.PLANS

    def test_graphs_match_committed_digest(self):
        rng = np.random.default_rng(21)
        h = hashlib.sha256()
        for _ in range(100):
            graphs = []
            for n in rng.integers(0, 7, size=2):
                n = int(n)
                if rng.random() < 0.25:
                    graphs.append(full_graph(n))
                    continue
                cells = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)) if n else []
                graphs.append(pairs_to_matrix([(int(a), int(b)) for a, b in cells], n))
            for g in (*graphs, *layer_masks(*graphs)):
                self.update(h, "graph", g.matrix.astype("<f8"))
        assert h.hexdigest() == self.GRAPHS


@st.composite
def levels(draw, tag):
    """A level of 0-6 tokens, ``full`` or with up to 12 drawn pairs."""
    labels = ["t"] * draw(st.integers(0, 6))
    if not labels or draw(st.booleans()):
        return LevelData(level=tag, labels=labels, full=draw(st.booleans()))
    index = st.integers(0, len(labels) - 1)
    return LevelData(level=tag, labels=labels, pairs=draw(st.lists(st.tuples(index, index),
                                                                   max_size=12)))


def oracle_cell(layer, img, q, sep, connect_all, a, b):
    """Whether 0-based ``layer`` opens cell (a, b) over [image; SEP; question],
    with the SEP position only if ``sep``; written out cell by cell."""
    ni = img.n_tokens + sep
    if layer == 0:  # both question positions
        return a >= ni and b >= ni
    if (a < ni) != (b < ni):  # exactly one image position, SEP counted as one
        return True
    if layer == 1:
        return False
    if a >= ni:  # the question graph
        return q.full or (a - ni, b - ni) in q.pairs
    if sep and ni - 1 in (a, b):  # the SEP row or column
        return connect_all or a == b
    return img.full or (a, b) in img.pairs  # the image graph


class TestLayerRuleOracle:
    @ORACLE_SETTINGS
    @given(img=levels("concept"), q=levels("entity"), num_layers=st.integers(1, 5),
           use=st.booleans(), connect_all=st.booleans())
    def test_plan_cells(self, img, q, num_layers, use, connect_all):
        plan = mask_plan(img, q, num_layers, use, connect_all)
        n = img.n_tokens + 1 + q.n_tokens
        assert plan.shape == (num_layers, n, n) and plan.dtype == bool
        for i, a, b in itertools.product(range(num_layers), range(n), range(n)):
            expect = not use or oracle_cell(i, img, q, True, connect_all, a, b)
            assert plan[i, a, b] == expect, (i, a, b)

    @ORACLE_SETTINGS
    @given(img=levels("concept"), q=levels("entity"))
    def test_layer_mask_cells(self, img, q):
        masks = layer_masks(level_graph(img), level_graph(q))
        n = img.n_tokens + q.n_tokens
        for i, a, b in itertools.product(range(3), range(n), range(n)):
            assert masks[i].matrix[a, b] == oracle_cell(i, img, q, False, True, a, b), (i, a, b)
