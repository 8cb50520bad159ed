"""Tape-based reverse-mode autodiff: the tape, the parameter registry, and the
op-by-op reference operations (``reference_ops``) against independent oracles."""

import ast
import inspect
import pathlib
import weakref

import numpy as np
import pytest

import granalign.autodiff as ad
import reference_ops as refops
from conftest import fd_gradient, rel_err, weighted_sum


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, no numpy matmul involved."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for p in range(k):
                s += a[i, p] * b[p, j]
            out[i, j] = s
    return out


class TestTensor:
    def test_coerces_to_float64_contiguous(self):
        t = ad.Tensor(np.arange(6, dtype=np.int32).reshape(2, 3)[:, ::-1])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_scalar_shape_preserved(self):
        """0-d values must stay 0-d; losses rely on it."""
        assert ad.Tensor(3.5).data.shape == ()
        t = ad.Tensor(np.float64(2.0))
        assert t.data.shape == () and float(t.data) == 2.0

    def test_a_tensor_is_just_its_data(self):
        assert ad.Tensor.__slots__ == ("data",)


class TestTapeMechanics:
    def test_no_recording_outside_tape(self):
        x = ad.Tensor(np.ones((2, 2)))
        y = refops.relu(x)
        with ad.Tape() as t:
            pass
        assert t.nodes == []
        assert y.data.shape == (2, 2)

    def test_backward_rejects_nonscalar(self):
        x = ad.Tensor(np.ones(3))
        with ad.Tape() as t:
            y = refops.relu(x)
        with pytest.raises(ValueError, match=r"loss of shape \(3,\) needs an output gradient"):
            t.backward(y)

    def test_backward_takes_the_output_gradient_of_a_nonscalar_loss(self):
        x = ad.Tensor(np.array([-1.0, 2.0, 3.0]))
        with ad.Tape() as t:
            y = refops.relu(x)
        (gx,) = t.gradients(y, [x], np.array([5.0, 6.0, 7.0]))
        np.testing.assert_array_equal(gx, [0.0, 6.0, 7.0])

    @pytest.mark.parametrize("shape", [(), (2,), (3, 1), (1, 3)])
    def test_backward_rejects_an_output_gradient_of_the_wrong_shape(self, shape):
        x = ad.Tensor(np.ones(3))
        with ad.Tape() as t:
            y = refops.relu(x)
        with pytest.raises(ValueError, match=r"does not match the loss shape \(3,\)"):
            t.backward(y, np.ones(shape))

    @staticmethod
    def split_node(x, seen):
        """x's two halves as one tape node with a tuple output; ``seen`` collects
        what each backward call receives."""
        halves = (ad.Tensor(x.data[:2] * 2.0), ad.Tensor(x.data[2:] * 3.0))

        def backward(grads):
            seen.append(grads)
            g_a, g_b = grads
            return (np.concatenate([g_a * 2.0, g_b * 3.0]),)

        return ad.record(halves, (x,), backward)

    def test_tuple_node_gets_one_tuple_and_zeros_for_an_unused_output(self):
        x = ad.Tensor(np.ones(5))
        seen = []
        with ad.Tape() as t:
            a, b = self.split_node(x, seen)
            loss = refops.sum_all(b)
        assert len(t.nodes) == 2 and t.nodes[0][0] == (a, b)
        (gx,) = t.gradients(loss, [x])
        (g_a, g_b), = seen
        assert g_a.shape == (2,) and not g_a.any()
        np.testing.assert_array_equal(g_b, np.ones(3))
        np.testing.assert_array_equal(gx, [0.0, 0.0, 3.0, 3.0, 3.0])

    def test_tuple_node_with_no_used_output_is_skipped(self):
        x = ad.Tensor(np.ones(5))
        seen = []
        with ad.Tape() as t:
            self.split_node(x, seen)
            loss = refops.sum_all(x)
        (gx,) = t.gradients(loss, [x])
        assert seen == []
        np.testing.assert_array_equal(gx, np.ones(5))

    def test_gradients_zero_fill_unreached_leaves(self):
        x = ad.Tensor(np.ones(3))
        unused = ad.Tensor(np.ones((2, 2)))
        with ad.Tape() as t:
            loss = refops.sum_all(refops.relu(x))
        gx, gu = t.gradients(loss, [x, unused])
        assert np.array_equal(gx, np.ones(3))
        assert np.array_equal(gu, np.zeros((2, 2)))

    def test_gradients_hand_over_swept_arrays_and_fill_only_unused(self, monkeypatch):
        """An on-path leaf gets the sweep's own array; zeros are allocated only
        for leaves off the path."""
        swept = np.arange(3.0)

        def passthrough(x):
            return ad.record(ad.Tensor(x.data.copy()), (x,), lambda g: (swept,))

        x = ad.Tensor(np.ones(3))
        unused = ad.Tensor(np.ones((2, 2)))
        with ad.Tape() as t:
            loss = refops.sum_all(passthrough(x))
        zeros_calls = []
        real_zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k:
                            zeros_calls.append(shape) or real_zeros(shape, *a, **k))
        gx, gu, gx2 = t.gradients(loss, [x, unused, x])
        assert gx is swept and gx2 is swept
        assert gu.shape == (2, 2) and not gu.any()
        assert zeros_calls == [(2, 2)]

    def test_gradients_are_read_for_the_tensors_asked_for(self):
        """Tensors carry no flag. Every tensor that a node read and no node made
        gets the sweep's own array, parameter or not; an intermediate and an
        unreached tensor get zeros."""
        a_grad, c_grad = np.arange(3.0), np.arange(3.0, 6.0)
        a, c, unused = ad.Tensor(np.ones(3)), ad.Tensor(np.full(3, 2.0)), ad.Tensor(np.ones(2))
        with ad.Tape() as t:
            mid = ad.record(ad.Tensor(a.data + c.data), (a, c), lambda g: (a_grad, c_grad))
            loss = refops.sum_all(mid)
        assert t.backward(loss).keys() == {id(a), id(c)}
        ga, gc, g_mid, g_unused = t.gradients(loss, [a, c, mid, unused])
        assert ga is a_grad and gc is c_grad
        assert np.array_equal(g_mid, np.zeros(3)) and np.array_equal(g_unused, np.zeros(2))

    def test_gradient_accumulates_over_reuse(self):
        """A tensor feeding two branches receives the sum of both gradients."""
        x = ad.Tensor(np.array([1.0, 2.0]))
        with ad.Tape() as t:
            loss = refops.sum_all(refops.add(x, x))
        (gx,) = t.gradients(loss, [x])
        assert np.array_equal(gx, np.full(2, 2.0))

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))

        def run():
            x = ad.Tensor(a)
            w = ad.Tensor(a.T)
            with ad.Tape() as t:
                loss = refops.sum_all(refops.layer_norm_rows(refops.matmul(x, w), ad.Tensor(a[0]),
                                                      ad.Tensor(a[1]), 1e-5))
            return t.gradients(loss, [x, w])

        g1 = run()
        g2 = run()
        assert all(x1.tobytes() == x2.tobytes() for x1, x2 in zip(g1, g2))


    def test_backward_frees_swept_gradients(self):
        """Once a node has passed its output gradient to its inputs, the sweep
        holds no reference to that gradient."""
        seen, alive = [], []

        def double(x):
            out = ad.Tensor(x.data * 2.0)

            def backward(g):
                alive.append(sum(r() is not None for r in seen))
                seen.append(weakref.ref(g))
                return (g * 2.0,)

            return ad.record(out, (x,), backward)

        x = ad.Tensor(np.ones(64))
        with ad.Tape() as t:
            y = x
            for _ in range(6):
                y = double(y)
            loss = refops.sum_all(y)
        (g,) = t.gradients(loss, [x])
        assert alive == [0] * 6  # none of the gradients handed over before
        np.testing.assert_array_equal(g, np.full(64, 64.0))


class TestMatmul:
    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        for n, k, m in [(1, 1, 1), (2, 3, 4), (5, 2, 5)]:
            a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
            got = refops.matmul(ad.Tensor(a), ad.Tensor(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-13, atol=1e-13)

    def test_vector_times_matrix(self):
        """Operands are 2-D only; a row vector is a [1, k] matrix."""
        with pytest.raises(ValueError, match="2-D"):
            refops.matmul(ad.Tensor(np.ones(4)), ad.Tensor(np.ones((4, 3))))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            refops.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_backward_against_finite_differences(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        with ad.Tape() as t:
            loss = refops.sum_all(refops.relu(refops.matmul(ta, tb)))
        ga_, gb = t.gradients(loss, [ta, tb])

        def f():
            return float(np.maximum(ta.data @ tb.data, 0.0).sum())

        for arr, g in ((ta.data, ga_), (tb.data, gb)):
            fd = fd_gradient(f, arr, range(arr.size))
            for c, val in fd.items():
                assert rel_err(g.reshape(-1)[c], val) < 1e-7


class TestElementwiseOps:
    def test_add_bias_broadcast_backward_sums_rows(self):
        x = ad.Tensor(np.zeros((3, 2)))
        b = ad.Tensor(np.zeros(2))
        with ad.Tape() as t:
            loss = refops.sum_all(refops.add(x, b))
        _, gb = t.gradients(loss, [x, b])
        assert np.array_equal(gb, np.full(2, 3.0))

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            refops.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))

    def test_scale_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(refops.relu(ad.Tensor(x)).data, [0.0, 0.0, 3.0])
        assert np.array_equal(refops.scale(ad.Tensor(x), -1.5).data, [3.0, -0.0, -4.5])

    def test_relu_gradient_zero_in_dead_region(self):
        x = ad.Tensor(np.array([-1.0, 2.0]))
        with ad.Tape() as t:
            loss = refops.sum_all(refops.relu(x))
        (g,) = t.gradients(loss, [x])
        assert np.array_equal(g, [0.0, 1.0])


class TestLayerNormRows:
    def test_normalizes_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8)) * 3 + 2
        gain = ad.Tensor(np.ones(8))
        bias = ad.Tensor(np.zeros(8))
        y = refops.layer_norm_rows(ad.Tensor(x), gain, bias, 1e-12).data
        np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), np.ones(4), atol=1e-9)

    def test_constant_row_stays_finite(self):
        y = refops.layer_norm_rows(ad.Tensor(np.full((1, 4), 5.0)),
                               ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)), 1e-5).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, np.zeros((1, 4)), atol=1e-12)

    def test_one_dimensional_input(self):
        """Input is 2-D only; a single vector is a [1, d] matrix."""
        with pytest.raises(ValueError, match="2-D"):
            refops.layer_norm_rows(ad.Tensor(np.ones(4)), ad.Tensor(np.ones(4)),
                               ad.Tensor(np.zeros(4)), 1e-5)

    def test_backward_against_finite_differences(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(3, 5)))
        gain = ad.Tensor(rng.normal(size=5))
        bias = ad.Tensor(rng.normal(size=5))
        w = rng.normal(size=(3, 5))
        eps = 1e-5

        def f():
            mu = x.data.mean(axis=1, keepdims=True)
            var = x.data.var(axis=1, keepdims=True)
            xh = (x.data - mu) / np.sqrt(var + eps)
            return float(((xh * gain.data + bias.data) * w).sum())

        with ad.Tape() as t:
            y = refops.layer_norm_rows(x, gain, bias, eps)
            loss = weighted_sum(y, w)
        grads = t.gradients(loss, [x, gain, bias])
        for tensor, g in zip((x, gain, bias), grads):
            fd = fd_gradient(f, tensor.data, range(tensor.data.size))
            for c, val in fd.items():
                assert rel_err(g.reshape(-1)[c], val) < 1e-6

    def test_mean_as_sum_over_d_is_bitwise_np_mean(self):
        """The shared layer-norm helper computes means as sum / d; that must
        be bitwise what the np.mean formulation gives."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 32)) * 3 + 1
        gain, bias = rng.normal(size=32), rng.normal(size=32)
        centered = x - x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
        expect = gain * (centered * inv_std) + bias
        got = refops.layer_norm_rows(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias), 1e-5).data
        assert got.tobytes() == expect.tobytes()


class TestCrossEntropy:
    def test_uniform_logits_equal_log_classes(self):
        for c in (2, 5, 10):
            loss = refops.cross_entropy_logits(ad.Tensor(np.zeros(c)), 0)
            assert rel_err(float(loss.data), np.log(c)) < 1e-12

    def test_matches_negative_log_softmax(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=6) * 4
        p = np.exp(z - z.max())
        p /= p.sum()
        for a in range(6):
            loss = refops.cross_entropy_logits(ad.Tensor(z), a)
            assert rel_err(float(loss.data), -np.log(p[a])) < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        z = np.array([0.5, -1.0, 2.0])
        x = ad.Tensor(z)
        with ad.Tape() as t:
            loss = refops.cross_entropy_logits(x, 2)
        (g,) = t.gradients(loss, [x])
        p = np.exp(z - z.max())
        p /= p.sum()
        expect = p.copy()
        expect[2] -= 1.0
        np.testing.assert_allclose(g, expect, atol=1e-12)

    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 5)) * 3
        answers = [0, 4, 2, 2]
        x = ad.Tensor(z)
        w = rng.normal(size=4)
        with ad.Tape() as t:
            losses = refops.cross_entropy_logits(x, answers)
            loss = weighted_sum(losses, w)
        (g,) = t.gradients(loss, [x])
        assert losses.data.shape == (4,)
        for i, a in enumerate(answers):
            row = ad.Tensor(z[i])
            with ad.Tape() as t1:
                single = refops.cross_entropy_logits(row, a)
            assert losses.data[i] == single.data
            np.testing.assert_allclose(g[i], w[i] * t1.gradients(single, [row])[0],
                                       rtol=1e-14, atol=1e-16)

    def test_answer_count_must_match_rows(self):
        with pytest.raises(ValueError, match="answers"):
            refops.cross_entropy_logits(ad.Tensor(np.zeros((3, 4))), [0, 1])
        with pytest.raises(ValueError, match="answers"):
            refops.cross_entropy_logits(ad.Tensor(np.zeros(4)), [0])
        with pytest.raises(ValueError, match="out of range"):
            refops.cross_entropy_logits(ad.Tensor(np.zeros((2, 4))), [0, 4])

    def test_answer_out_of_range(self):
        with pytest.raises(ValueError):
            refops.cross_entropy_logits(ad.Tensor(np.zeros(3)), 3)
        with pytest.raises(ValueError):
            refops.cross_entropy_logits(ad.Tensor(np.zeros(3)), -1)


class TestStructuralOps:
    def test_concat_and_slice_roundtrip(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(6.0, 15.0).reshape(3, 3)
        cat = refops.concat_rows([ad.Tensor(a), ad.Tensor(b)])
        assert cat.data.shape == (5, 3)
        np.testing.assert_array_equal(cat.data[:2], a)
        np.testing.assert_array_equal(cat.data[2:], b)

    def test_concat_backward_splits(self):
        a = ad.Tensor(np.ones((2, 2)))
        b = ad.Tensor(np.ones((1, 2)))
        with ad.Tape() as t:
            cat = refops.concat_rows([a, b])
            loss = weighted_sum(cat, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        ga_, gb = t.gradients(loss, [a, b])
        assert np.array_equal(ga_, np.zeros((2, 2)))
        assert np.array_equal(gb, np.ones((1, 2)))

    def test_concat_columns_backward_splits(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.full((2, 1), 2.0))
        w = np.arange(8.0).reshape(2, 4)
        with ad.Tape() as t:
            cat = refops.concat_rows([a, b], axis=1)
            loss = weighted_sum(cat, w)
        np.testing.assert_array_equal(cat.data, [[1, 1, 1, 2], [1, 1, 1, 2]])
        ga_, gb = t.gradients(loss, [a, b])
        np.testing.assert_array_equal(ga_, w[:, :3])
        np.testing.assert_array_equal(gb, w[:, 3:])
        with pytest.raises(ValueError, match="row counts"):
            refops.concat_rows([a, ad.Tensor(np.ones((3, 1)))], axis=1)
        with pytest.raises(ValueError, match="2-D"):
            refops.concat_rows([ad.Tensor(np.ones(2)), ad.Tensor(np.ones(2))])

    def test_embedding_lookup_scatter_adds_repeats(self):
        """The same row looked up twice accumulates both output gradients."""
        table = ad.Tensor(np.zeros((4, 2)))
        with ad.Tape() as t:
            rows = refops.embedding_lookup(table, [1, 1, 3])
            loss = refops.sum_all(rows)
        (g,) = t.gradients(loss, [table])
        np.testing.assert_array_equal(g, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_reshape_gradient(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        w = np.arange(6.0).reshape(3, 2)
        with ad.Tape() as t:
            loss = weighted_sum(refops.reshape(x, (3, 2)), w)
        (g,) = t.gradients(loss, [x])
        np.testing.assert_array_equal(g, w.reshape(2, 3))


class TestParameters:
    def test_registration_order_is_stable(self):
        p = ad.Parameters([("b", (2,), "zeros"), ("a", (3,), "ones")],
                          np.random.default_rng(0))
        assert p.names() == ["b", "a"]
        assert [t.data.shape for t in p.tensors()] == [(2,), (3,)]
        assert p.flat.tolist() == [0, 0, 1, 1, 1]

    @pytest.mark.parametrize("blocks, match", [
        ([("w", (2, 2), "linear"), ("w", (2, 2), "linear")], "'w' already exists"),
        ([("w", (2, 2), "linear"), ("v", (2, -1), "zeros")], "'v' has a negative size"),
        ([("w", (2, 2), "linear"), ("v", (2,), "xavier")], "unknown init 'xavier'"),
    ], ids=["duplicate", "negative", "unknown-init"])
    def test_bad_declaration_rejected_before_any_draw(self, blocks, match):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=match):
            ad.Parameters(blocks, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_linear_init_bounded_by_fan_in(self):
        w = ad.Parameters([("w", (64, 32), "linear")], np.random.default_rng(9))["w"]
        bound = 1.0 / np.sqrt(64)
        assert np.all(np.abs(w.data) <= bound)
        assert w.data.std() > bound / 4  # actually spread out, not degenerate

    def test_embed_init_scale(self):
        e = ad.Parameters([("e", (500, 40), "embed")], np.random.default_rng(10))["e"]
        assert 0.015 < e.data.std() < 0.025

    THREE_BLOCKS = [("a", (2, 3), "linear"), ("empty", (0,), "zeros"), ("c", (4,), "embed")]

    @classmethod
    def three_blocks(cls):
        """Blocks of 2x3, 0 and 4 values."""
        return ad.Parameters(cls.THREE_BLOCKS, np.random.default_rng(5))

    def test_blocks_are_views_of_flat_at_registration_offsets(self):
        p = self.three_blocks()
        flat = p.flat
        assert flat.dtype == np.float64 and flat.shape == (10,)
        assert flat.tobytes() == refops.incremental_draw(
            self.THREE_BLOCKS, np.random.default_rng(5)).tobytes()
        for name, t in p.items():
            assert t.data.flags.c_contiguous, name
            assert t.data.base is flat, name
        assert [t.data.shape for t in p.tensors()] == [(2, 3), (0,), (4,)]
        for name, start in (("a", 0), ("c", 6)):  # an empty view has no meaningful address
            offset = (p[name].data.__array_interface__["data"][0]
                      - flat.__array_interface__["data"][0])
            assert offset == 8 * start, name
        flat[7] = 42.0
        assert p["c"].data[1] == 42.0
        assert p.flat is flat

    def test_placement_leaves_every_block_its_draw(self):
        """``order`` places the blocks in ``flat``; each is still drawn in
        declaration order, so it holds the same values wherever it lies."""
        order = ["c", "a", "empty"]
        p = ad.Parameters(self.THREE_BLOCKS, np.random.default_rng(5), order)
        assert p.names() == order and [t.data.shape for t in p.tensors()] == [(4,), (2, 3), (0,)]
        assert p.flat.tobytes() == refops.incremental_draw(
            self.THREE_BLOCKS, np.random.default_rng(5), order=order).tobytes()
        for name, t in self.three_blocks().items():
            assert p[name].data.tobytes() == t.data.tobytes(), name
        assert p.span(["a", "empty"]).tolist() == p["a"].data.ravel().tolist()
        assert p.block_at(0) == "c" and p.block_at(4) == "a"

    @pytest.mark.parametrize("order", [["a", "c"], ["a", "c", "c"], ["a", "empty", "c", "x"]],
                             ids=["missing", "repeated", "unknown"])
    def test_placement_names_every_block_once(self, order):
        with pytest.raises(ValueError, match="does not name every block once"):
            ad.Parameters(self.THREE_BLOCKS, np.random.default_rng(5), order)

    def test_span_is_one_run_in_order(self):
        p = self.three_blocks()
        assert p.span(["empty", "c"]).base is p.flat
        assert p.span(["a", "empty", "c"]).size == 10
        for names in (["a", "c"], ["c", "empty"]):
            with pytest.raises(ValueError, match="not one run of the parameters"):
                p.span(names)

    def test_no_blocks_is_an_empty_vector(self):
        p = ad.Parameters([], np.random.default_rng(0))
        assert len(p) == 0 and p.flat.shape == (0,) and p.views(np.zeros(0)) == {}

    def test_block_at_is_right_at_block_boundaries(self):
        p = self.three_blocks()
        assert [p.block_at(i) for i in (0, 5, 6, 9)] == ["a", "a", "c", "c"]
        for i in (-1, 10):
            with pytest.raises(IndexError):
                p.block_at(i)

    def test_views_share_the_given_vector(self):
        p = self.three_blocks()
        g = np.arange(10.0)
        views = p.views(g)
        assert list(views) == ["a", "empty", "c"]
        assert views["a"].tolist() == [[0, 1, 2], [3, 4, 5]] and views["c"].tolist() == [6, 7, 8, 9]
        views["c"][0] = -1.0
        assert g[6] == -1.0
        with pytest.raises(ValueError, match="layout"):
            p.views(np.zeros(9))



class TestExports:
    def test_the_engine_exports_no_operations(self):
        """Every node is a fused step with its own backward; the engine itself
        exports only the tape, its tensors, the parameters and ``record``."""
        assert ad.__all__ == ["Tensor", "Tape", "Parameters", "record"]

    def test_the_tape_keeps_the_names_the_benchmark_tracer_hooks(self):
        # perfbench's tracer wraps Tape.add_node to count nodes and time each
        # backward closure, times Tape.backward as the sweep and skips record
        assert callable(ad.Tape.backward) and callable(ad.Tape.add_node)
        assert callable(ad.record)

    def test_every_exported_op_is_called_from_src(self):
        """Each ``__all__`` name exists, and every exported function is called
        from some other ``granalign`` module: the engine keeps only the
        operations the model runs."""
        assert [n for n in ad.__all__ if not hasattr(ad, n)] == []
        called = set()
        for path in pathlib.Path(ad.__file__).parent.glob("*.py"):
            if path.name == "autodiff.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            aliases = {a.asname or a.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for a in node.names if a.name == "autodiff"}
            for node in ast.walk(tree):
                f = node.func if isinstance(node, ast.Call) else None
                if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                        and f.value.id in aliases):
                    called.add(f.attr)
        ops = [n for n in ad.__all__ if inspect.isfunction(getattr(ad, n, None))]
        assert ops and [n for n in ops if n not in called] == []
