"""Masked attention semantics, the fused multi-head path, and stream encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import granalign.autodiff as ad
from granalign import encoder
from granalign.encoder import (
    WHOLE_GRID,
    EncoderConfig,
    EncoderStack,
    Layout,
    _ga_backward,
    _ga_forward,
    _segment_plan,
    encoder_layer,
    ga_attention,
    sentence_pretransform,
)
from granalign.leadgraph import LeadGraph, full_graph, pairs_to_matrix
import reference_ops as refops
from test_contract import SETTINGS
from conftest import (fd_gradient, multi_head_ga, reference_encoder_layer, rel_err,
                      weighted_sum, whole_grid, whole_grid_plan)


def textbook_attention(q, k, v):
    s = q @ k.T / np.sqrt(q.shape[1])
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


def rand_qkv(rng, n, d):
    return (ad.Tensor(rng.normal(size=(n, d))),
            ad.Tensor(rng.normal(size=(n, d))),
            ad.Tensor(rng.normal(size=(n, d))))


class TestMaskedAttention:
    def test_full_mask_equals_textbook_attention(self):
        rng = np.random.default_rng(0)
        q, k, v = rand_qkv(rng, 6, 4)
        out = ga_attention(q, k, v, full_graph(6)).data
        np.testing.assert_allclose(out, textbook_attention(q.data, k.data, v.data),
                                   atol=1e-12)

    def test_two_token_swap_mask(self):
        """G=[[0,1],[1,0]] leaves each row exactly the other token's value."""
        rng = np.random.default_rng(1)
        q, k, v = rand_qkv(rng, 2, 3)
        out = ga_attention(q, k, v, LeadGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))).data
        np.testing.assert_allclose(out[0], v.data[1], atol=1e-14)
        np.testing.assert_allclose(out[1], v.data[0], atol=1e-14)

    def test_masked_rows_renormalize_to_one(self):
        rng = np.random.default_rng(2)
        n = 5
        q, k, v = rand_qkv(rng, n, 4)
        g = pairs_to_matrix([(0, 1), (0, 3), (1, 1), (2, 0), (2, 2), (2, 4),
                             (3, 3), (4, 0)], n)
        # recover the attention weights by feeding identity values
        eye = ad.Tensor(np.eye(n))
        weights = ga_attention(q, k, eye, g).data
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(n), atol=1e-12)
        assert np.all(weights[g.matrix == 0.0] == 0.0)

    def test_all_zero_row_outputs_exact_zero(self):
        rng = np.random.default_rng(3)
        q, k, v = rand_qkv(rng, 3, 4)
        g = np.ones((3, 3))
        g[1, :] = 0.0
        out = ga_attention(q, k, v, LeadGraph(g)).data
        assert np.all(out[1] == 0.0)
        assert np.any(out[0] != 0.0)

    def test_all_zero_row_gradient_exactly_zero(self):
        rng = np.random.default_rng(4)
        q = ad.Tensor(rng.normal(size=(3, 4)))
        k = ad.Tensor(rng.normal(size=(3, 4)))
        v = ad.Tensor(rng.normal(size=(3, 4)))
        g = np.ones((3, 3))
        g[1, :] = 0.0
        with ad.Tape() as t:
            loss = refops.sum_all(ga_attention(q, k, v, LeadGraph(g)))
        gq, _, _ = t.gradients(loss, [q, k, v])
        assert np.all(gq[1] == 0.0)

    @staticmethod
    def threshold_forward(q, k, v, g, eps_row):
        """The attention core with the dead-row rule ``z > eps_row`` in place of
        ``z > 0``, step by step as ``_ga_forward`` computes it."""
        scores = np.where(g, np.matmul(q / np.sqrt(q.shape[-1]), k.swapaxes(-1, -2)), -np.inf)
        row_max = np.maximum(scores.max(axis=-1, keepdims=True), np.finfo(np.float64).min)
        e = np.exp(scores - row_max)
        z = e.sum(axis=-1, keepdims=True)
        return np.matmul(e, v) / np.where(z > eps_row, z, np.inf)

    @pytest.mark.parametrize("eps_row", [1e-12, 0.999])
    def test_dead_row_rule_is_bitwise_any_threshold_below_one(self, eps_row):
        """A live row holds exp(0) = 1 at its max cell, so its z is at least 1:
        ``z > 0`` keeps exactly the rows that ``z > eps_row`` keeps for any
        threshold below 1. A row with one open cell gives it weight exactly 1."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            q, k, v = (rng.normal(scale=10.0 ** rng.uniform(-3, 2.5), size=(2, n, 4))
                       for _ in range(3))
            g = rng.random((2, n, n)) < rng.random()
            g[:, 0] = False  # an all-masked row
            g[:, 1] = False
            g[:, 1, rng.integers(n)] = True  # a row with one open cell
            out, _ = _ga_forward(q, k, v, g)
            assert out.tobytes() == self.threshold_forward(q, k, v, g, eps_row).tobytes()
            weights, _ = _ga_forward(q, k, np.broadcast_to(np.eye(n), (2, n, n)), g)
            assert not weights[:, 0].any()
            assert (weights[:, 1] == g[:, 1]).all()

    def test_masked_out_token_has_exactly_zero_influence(self):
        """Perturbing a token no row may attend to changes nothing, bit for bit."""
        rng = np.random.default_rng(5)
        n = 4
        q, k, v = rand_qkv(rng, n, 4)
        g = np.ones((n, n))
        g[:, 2] = 0.0  # nobody attends to token 2
        base = ga_attention(q, k, v, LeadGraph(g)).data
        k2 = ad.Tensor(k.data.copy())
        v2 = ad.Tensor(v.data.copy())
        k2.data[2] += 3.7
        v2.data[2] -= 11.1
        again = ga_attention(q, k2, v2, LeadGraph(g)).data
        assert base.tobytes() == again.tobytes()

    def test_renormalization_cancels_masked_mass(self):
        """Masking then renormalizing equals softmax over the unmasked entries."""
        rng = np.random.default_rng(6)
        q, k, v = rand_qkv(rng, 4, 4)
        g = pairs_to_matrix([(0, 0), (0, 2), (1, 1), (2, 3), (3, 0), (3, 1), (3, 3)], 4)
        out = ga_attention(q, k, v, g).data
        s = q.data @ k.data.T / 2.0
        expect = np.zeros((4, 4))
        for i in range(4):
            cols = np.where(g.matrix[i] == 1.0)[0]
            e = np.exp(s[i, cols] - s[i, cols].max())
            expect[i] = (e / e.sum()) @ v.data[cols]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        n = 5
        q, k, v = rand_qkv(rng, n, 4)
        g = pairs_to_matrix([(0, 1), (1, 2), (2, 0), (3, 4), (4, 4), (0, 0),
                             (1, 1), (2, 2), (3, 3)], n)
        perm = np.array([3, 0, 4, 1, 2])
        qp = ad.Tensor(q.data[perm])
        kp = ad.Tensor(k.data[perm])
        vp = ad.Tensor(v.data[perm])
        gp = LeadGraph(g.matrix[perm][:, perm])
        out = ga_attention(q, k, v, g).data
        outp = ga_attention(qp, kp, vp, gp).data
        np.testing.assert_allclose(outp, out[perm], atol=1e-12)

    def test_qkv_gradients_against_finite_differences(self):
        rng = np.random.default_rng(8)
        q = ad.Tensor(rng.normal(size=(4, 3)))
        k = ad.Tensor(rng.normal(size=(4, 3)))
        v = ad.Tensor(rng.normal(size=(4, 3)))
        g = pairs_to_matrix([(0, 0), (0, 1), (1, 2), (1, 1), (2, 0), (2, 3),
                             (3, 3)], 4)
        w = rng.normal(size=(4, 3))
        with ad.Tape() as t:
            loss = weighted_sum(ga_attention(q, k, v, g), w)
        grads = t.gradients(loss, [q, k, v])

        def f():
            s = q.data @ k.data.T / np.sqrt(3)
            e = np.exp(s - s.max(axis=1, keepdims=True)) * g.matrix
            z = e.sum(axis=1, keepdims=True)
            norm = np.divide(e, z, out=np.zeros_like(e), where=z > 0)
            return float(((norm @ v.data) * w).sum())

        for tensor, grad in zip((q, k, v), grads):
            fd = fd_gradient(f, tensor.data, range(tensor.data.size))
            for c, val in fd.items():
                assert rel_err(grad.reshape(-1)[c], val) < 1e-6

    def test_mask_shape_mismatch_raises(self):
        rng = np.random.default_rng(9)
        q, k, v = rand_qkv(rng, 3, 2)
        with pytest.raises(ValueError):
            ga_attention(q, k, v, full_graph(4))


def make_layer(rng, d, f):
    def t(shape):
        return ad.Tensor(rng.normal(size=shape) / np.sqrt(shape[0]))

    from granalign.encoder import LayerParams
    return LayerParams(
        wq=t((d, d)), wk=t((d, d)), wv=t((d, d)), wo=t((d, d)),
        ffn_w1=t((d, f)), ffn_b1=ad.Tensor(np.zeros(f)),
        ffn_w2=t((f, d)), ffn_b2=ad.Tensor(np.zeros(d)),
        ln1_gain=ad.Tensor(np.ones(d)),
        ln1_bias=ad.Tensor(np.zeros(d)),
        ln2_gain=ad.Tensor(np.ones(d)),
        ln2_bias=ad.Tensor(np.zeros(d)),
    )


class TestDeferredDivision:
    """``_ga_forward`` divides e V by the softmax row sum and ``_ga_backward``
    takes the row term with vecdot; the reference core (``reference_ops``)
    normalizes the weights on the score grid first."""

    @staticmethod
    def close(got, expect):
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @staticmethod
    def case(rng):
        """Three sequences padded onto one grid, each with a dead row and a row
        with one open cell; q, k and v hold garbage in the padded rows. Returns
        them with the blocks of a random segment split."""
        bsz, heads, d_k = 3, 2, 4
        lengths = rng.integers(2, 9, size=bsz)
        width = int(lengths.max()) + int(rng.integers(0, 3))
        g = np.zeros((bsz, width, width), dtype=bool)
        for b, n in enumerate(lengths.tolist()):
            g[b, :n, :n] = rng.random((n, n)) < rng.uniform(0.2, 0.9)
            dead, single = rng.choice(n, 2, replace=False)
            g[b, dead] = False
            g[b, single] = False
            g[b, single, rng.integers(n)] = True
        # unit scale: at 10x a saturated one-row block's d_q nearly cancels,
        # and both cores round it to about 2e-11 of its size
        q, k, v = (rng.normal(size=(bsz, heads, width, d_k)) for _ in range(3))
        w0 = int(rng.integers(1, width))
        blocks = encoder._blocks(*(rng.random(4) < 0.7).tolist(), w0) or WHOLE_GRID
        return q, k, v, g, blocks

    def test_matches_the_normalized_core(self):
        """Outputs and the q, k, v gradients agree to 1e-12 on every block;
        rows with one open cell get exactly zero score gradients (zero d_q
        rows), and dead rows exactly zero outputs and no gradient anywhere."""
        rng = np.random.default_rng(50)
        n_dead = n_single = 0
        for _ in range(60):
            q, k, v, g, blocks = self.case(rng)
            for r, c in blocks:
                args = (q[:, :, r], k[:, :, c], v[:, :, c], g[:, None, r, c])
                out, cache = _ga_forward(*args)
                ref, ref_cache = refops.normalized_forward(*args)
                grad = rng.normal(size=out.shape)
                got = _ga_backward(grad, cache)
                self.close(out, ref)
                for a, b in zip(got, refops.normalized_backward(grad, ref_cache)):
                    self.close(a, b)
                open_cells = np.broadcast_to(args[3].sum(axis=-1), out.shape[:-1])
                dead = open_cells == 0
                assert not out[dead].any()
                assert not got[0][open_cells <= 1].any()
                grad[dead] = 1e3  # a dead row passes nothing back
                again = _ga_backward(grad, cache)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(again, got))
                n_dead += int(dead.sum())
                n_single += int((open_cells == 1).sum())
        assert n_dead > 100 and n_single > 100


class TestFastPaths:
    """The core's fast paths against the paths they replace, bitwise: the row
    max over the columns against the reduction, and an open block (no closed
    cell, g = None) against the masked path."""

    @pytest.mark.parametrize("w", [1, 2, 5, 10, 55])
    def test_column_max_is_the_reduction_at_both_edges(self, w, monkeypatch):
        """One row below COLUMN_MAX_ROWS rows per column and at it, with dead
        (-inf) rows and -inf cells, the rule's path, the column path and the
        reduction all give the reduction's bits, and none a view of the
        scores."""
        rng = np.random.default_rng(w)
        edge = encoder.COLUMN_MAX_ROWS * w
        for rows in (edge - 1, edge):
            s = rng.normal(size=(rows, w))
            s[rng.random((rows, w)) < 0.3] = -np.inf
            s[::7] = -np.inf
            expect = s.max(axis=-1, keepdims=True).tobytes()
            for rule in (encoder.COLUMN_MAX_ROWS, 0, rows + 1):  # the rule, columns, reduction
                monkeypatch.setattr(encoder, "COLUMN_MAX_ROWS", rule)
                got = encoder._row_max(s)
                assert got.shape == (rows, 1) and got.tobytes() == expect
                assert not np.shares_memory(got, s)

    @pytest.mark.parametrize("shape", [(1, 8, 4, 4), (1, 8, 1, 9), (16, 8, 5, 5),
                                       (16, 8, 12, 55)])
    def test_open_block_is_the_masked_path(self, shape):
        """On either side of the column rule, a block with every cell open gives
        bitwise the same output, weights, row sums and q, k, v gradients
        without its mask as with it."""
        rng = np.random.default_rng(sum(shape))
        bsz, heads, n, w = shape
        q = rng.normal(size=(bsz, heads, n, 4))
        k, v = (rng.normal(size=(bsz, heads, w, 4)) for _ in range(2))
        masked = _ga_forward(q, k, v, np.ones((bsz, 1, n, w), dtype=bool))
        open_ = _ga_forward(q, k, v, None)
        assert masked[0].tobytes() == open_[0].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(masked[1][3:5], open_[1][3:5]))
        grad = rng.normal(size=masked[0].shape)
        for a, b in zip(_ga_backward(grad, masked[1]), _ga_backward(grad, open_[1])):
            assert a.tobytes() == b.tobytes()

    def test_layer_sends_only_open_blocks_unmasked(self, monkeypatch):
        """``encoder_layer`` passes None for exactly the scored blocks with no
        closed cell, and its output and every gradient are bitwise those of
        the masked path on every block."""
        rng = np.random.default_rng(62)
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16)
        layer = make_layer(rng, 8, 16)
        x = ad.Tensor(rng.normal(size=(6, 8)))
        w = rng.normal(size=(6, 8))
        g = np.ones((1, 6, 6), dtype=bool)
        g[0, 3:, :3] = False  # segment 1 rows reach segment 1 only
        g[0, 5, 4] = False
        blocks = encoder._blocks(True, True, False, True, 3)
        real, seen = encoder._ga_forward, []

        def run(force_mask):
            def core(q, k, v, g_b):
                seen.append(g_b is None)
                if force_mask and g_b is None:
                    g_b = np.ones(q.shape[:1] + (1,) + q.shape[2:3] + k.shape[2:3], dtype=bool)
                return real(q, k, v, g_b)

            monkeypatch.setattr(encoder, "_ga_forward", core)
            with ad.Tape() as t:
                out = encoder_layer(x, g, layer, cfg, Layout([6]), blocks)
                loss = weighted_sum(out, w)
            tensors = [x] + [getattr(layer, n) for n in TestFusedLayer.LAYER_INPUTS]
            return [out.data] + t.gradients(loss, tensors)

        fast, masked = run(False), run(True)
        assert seen == [True, False] * 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fast, masked))


class TestMultiHead:
    def test_fused_heads_match_per_head_loop(self):
        """The batched head computation equals slicing the fused projections
        into per-head blocks and running single-head attention on each."""
        rng = np.random.default_rng(10)
        d, heads, n = 8, 4, 5
        layer = make_layer(rng, d, 16)
        x = ad.Tensor(rng.normal(size=(n, d)))
        g = pairs_to_matrix([(i, (i + 1) % n) for i in range(n)]
                            + [(i, i) for i in range(n)], n)
        got = multi_head_ga(x, g, layer, heads).data

        dk = d // heads
        pieces = []
        for h in range(heads):
            sl = slice(h * dk, (h + 1) * dk)
            qh = ad.Tensor(x.data @ layer.wq.data[:, sl])
            kh = ad.Tensor(x.data @ layer.wk.data[:, sl])
            vh = ad.Tensor(x.data @ layer.wv.data[:, sl])
            pieces.append(ga_attention(qh, kh, vh, g).data)
        expect = np.concatenate(pieces, axis=1) @ layer.wo.data
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(11)
        d, heads, n = 4, 2, 3
        layer = make_layer(rng, d, 8)
        x = ad.Tensor(rng.normal(size=(n, d)))
        g = full_graph(n)
        w = rng.normal(size=(n, d))
        with ad.Tape() as t:
            loss = weighted_sum(multi_head_ga(x, g, layer, heads), w)
        tensors = [x, layer.wq, layer.wk, layer.wv, layer.wo]
        grads = t.gradients(loss, tensors)

        def f():
            out = multi_head_ga(ad.Tensor(x.data), g, layer, heads)
            return float((out.data * w).sum())

        for tensor, grad in zip(tensors, grads):
            fd = fd_gradient(f, tensor.data, rng.choice(tensor.data.size, 4, replace=False))
            for c, val in fd.items():
                assert rel_err(grad.reshape(-1)[c], val) < 1e-6

    def test_head_count_must_divide_d_model(self):
        rng = np.random.default_rng(12)
        layer = make_layer(rng, 6, 8)
        with pytest.raises(ValueError):
            multi_head_ga(ad.Tensor(rng.normal(size=(2, 6))), full_graph(2), layer, 4)


def one_sequence(x, g, layer, cfg):
    """encoder_layer on one [n, d] sequence and its n x n mask (LeadGraph or array)."""
    gm = g.matrix if isinstance(g, LeadGraph) else np.asarray(g)
    return encoder_layer(x, gm[None], layer, cfg,
                         Layout([x.data.shape[0]]))


class TestEncoderLayer:
    def test_mask_chain_reachability(self):
        """Through a one-step mask, influence travels one hop per layer."""
        rng = np.random.default_rng(13)
        d = 4
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=d, d_ff=8)
        layer1 = make_layer(rng, d, 8)
        layer2 = make_layer(rng, d, 8)
        g = pairs_to_matrix([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], 3)

        def run(x_arr, depth):
            x = ad.Tensor(x_arr)
            for lp in (layer1, layer2)[:depth]:
                x = one_sequence(x, g, lp, cfg)
            return x.data

        base = rng.normal(size=(3, d))
        bumped = base.copy()
        bumped[2] += 1.0
        one_base, one_bump = run(base, 1), run(bumped, 1)
        assert one_base[0].tobytes() == one_bump[0].tobytes()  # not yet reachable
        assert one_base[1].tobytes() != one_bump[1].tobytes()
        two_base, two_bump = run(base, 2), run(bumped, 2)
        assert two_base[0].tobytes() != two_bump[0].tobytes()  # two hops away

    def test_finite_difference_through_layer(self):
        rng = np.random.default_rng(14)
        d = 4
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=d, d_ff=8)
        layer = make_layer(rng, d, 8)
        x = ad.Tensor(rng.normal(size=(3, d)))
        g = pairs_to_matrix([(0, 0), (1, 1), (2, 2), (0, 2), (2, 1)], 3)
        w = rng.normal(size=(3, d))
        with ad.Tape() as t:
            loss = weighted_sum(one_sequence(x, g, layer, cfg), w)
        tensors = [x, layer.wq, layer.ffn_w1, layer.ln1_gain, layer.ln2_bias]
        grads = t.gradients(loss, tensors)

        def f():
            return float((one_sequence(ad.Tensor(x.data), g, layer, cfg).data * w).sum())

        for tensor, grad in zip(tensors, grads):
            fd = fd_gradient(f, tensor.data,
                             rng.choice(tensor.data.size, 3, replace=False))
            for c, val in fd.items():
                assert rel_err(grad.reshape(-1)[c], val) < 2e-6


class TestFusedLayer:
    LAYER_INPUTS = ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
                    "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")

    def make(self, seed, d=8, f=16, heads=2):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(num_layers=1, num_heads=heads, d_model=d, d_ff=f)
        return rng, cfg, make_layer(rng, d, f)

    def grads(self, fn, x, layer, w):
        with ad.Tape() as t:
            out = fn(x)
            loss = weighted_sum(out, w)
        return out, t.gradients(loss, [x] + [getattr(layer, n) for n in self.LAYER_INPUTS])

    def test_one_tape_node_per_layer(self):
        rng, cfg, layer = self.make(30)
        x = ad.Tensor(rng.normal(size=(5, 8)))
        with ad.Tape() as t:
            one_sequence(x, np.ones((5, 5)), layer, cfg)
        assert len(t.nodes) == 1

    def test_mask_shape_must_match_layout(self):
        rng, cfg, layer = self.make(35)
        x = ad.Tensor(rng.normal(size=(5, 8)))
        with pytest.raises(ValueError, match="does not match"):
            encoder_layer(x, np.ones((5, 5)), layer, cfg, Layout([5]))
        with pytest.raises(ValueError, match="does not match"):
            encoder_layer(x, np.ones((1, 4, 4)), layer, cfg, Layout([5]))

    def test_matches_reference_chain(self):
        """One sequence: bitwise values, and gradients of x and all 12 blocks
        equal to the op-by-op chain's to 1e-12."""
        rng, cfg, layer = self.make(31)
        n = 6
        x = ad.Tensor(rng.normal(size=(n, 8)))
        g = (rng.random((n, n)) < 0.5).astype(float)
        g[2] = 0.0  # one dead row
        w = rng.normal(size=(n, 8))
        layout = Layout([n])
        out, grads = self.grads(lambda t: encoder_layer(t, g[None], layer, cfg, layout),
                                x, layer, w)
        ref, ref_grads = self.grads(
            lambda t: reference_encoder_layer(t, g[None], layer, cfg, layout), x, layer, w)
        assert out.data.tobytes() == ref.data.tobytes()
        for got, expect in zip(grads, ref_grads):
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_packed_batch_matches_each_sequence(self):
        """Three sequences of different lengths, stored part-major in three
        parts (so not grouped by sequence) on a segment-aligned grid, match
        three separate calls, values and gradients."""
        rng, cfg, layer = self.make(32)
        layout = Layout([2, 0, 4], [1, 5, 0], [0, 2, 1], split=1)
        lengths = layout.lengths.tolist()
        assert lengths == [3, 7, 5] and not layout.dense
        seqs = [rng.normal(size=(n, 8)) for n in lengths]
        masks = [(rng.random((n, n)) < 0.6).astype(float) for n in lengths]
        ws = [rng.normal(size=(n, 8)) for n in lengths]
        sample, pos = layout.sample, layout.pos
        order = np.cumsum([0] + lengths[:-1])[sample] + pos  # row pos[r] of sequence sample[r]
        x = ad.Tensor(np.concatenate(seqs)[order])
        out, grads = self.grads(
            lambda t: encoder_layer(t, layout.pad_masks(masks), layer, cfg, layout),
            x, layer, np.concatenate(ws)[order])
        block_sum = [np.zeros_like(gr) for gr in grads[1:]]
        for b, n in enumerate(lengths):
            xb = ad.Tensor(seqs[b])
            ob, gb = self.grads(lambda t: one_sequence(t, masks[b], layer, cfg),
                                xb, layer, ws[b])
            rows = np.flatnonzero(sample == b)[np.argsort(pos[sample == b])]
            np.testing.assert_allclose(out.data[rows], ob.data, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(grads[0][rows], gb[0], rtol=1e-12, atol=1e-13)
            for acc, gr in zip(block_sum, gb[1:]):
                acc += gr
        for got, expect in zip(grads[1:], block_sum):
            np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-13)

    def test_finite_differences_on_packed_batch(self):
        rng, cfg, layer = self.make(33, d=4, f=8)
        layout = Layout([2, 4])
        masks = [np.ones((2, 2)), (rng.random((4, 4)) < 0.7).astype(float)]
        g = layout.pad_masks(masks)
        x = ad.Tensor(rng.normal(size=(6, 4)))
        w = rng.normal(size=(6, 4))
        _, grads = self.grads(lambda t: encoder_layer(t, g, layer, cfg, layout), x, layer, w)

        def f():
            return float((encoder_layer(ad.Tensor(x.data), g, layer, cfg, layout).data
                          * w).sum())

        tensors = [x] + [getattr(layer, n) for n in self.LAYER_INPUTS]
        for tensor, grad in zip(tensors, grads):
            coords = rng.choice(tensor.data.size, min(3, tensor.data.size), replace=False)
            for c, val in fd_gradient(f, tensor.data, coords).items():
                assert rel_err(grad.reshape(-1)[c], val) < 2e-6

    def test_finite_differences_at_three_sequences_on_two_blocks(self):
        """Three sequences of mixed lengths on a padded segment grid, scored as
        the two cross blocks of a lead-graph layer: seeded random coordinates
        of x and of all 12 blocks against central differences."""
        rng, cfg, layer = self.make(37, d=4, f=8)
        n_img, n_q = [2, 4, 1], [3, 1, 2]
        grid = stream_layout(n_img, n_q)
        masks = [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)]
        g, blocks = _segment_plan(grid, masks)
        g, blocks = g[1], blocks[1]
        assert len(blocks) == 2 and len(grid.pos) < grid.batch * grid.n_max
        x = ad.Tensor(rng.normal(size=(len(grid.pos), 4)))
        w = rng.normal(size=x.data.shape)
        _, grads = self.grads(lambda t: encoder_layer(t, g, layer, cfg, grid, blocks),
                              x, layer, w)

        def f():
            return float((encoder_layer(ad.Tensor(x.data), g, layer, cfg, grid, blocks).data
                          * w).sum())

        tensors = [x] + [getattr(layer, n) for n in self.LAYER_INPUTS]
        for tensor, grad in zip(tensors, grads):
            coords = rng.choice(tensor.data.size, min(4, tensor.data.size), replace=False)
            for c, val in fd_gradient(f, tensor.data, coords).items():
                assert rel_err(grad.reshape(-1)[c], val) < 2e-6


@st.composite
def part_counts(draw):
    """Row counts of 1-4 parts of 1-6 sequences, zeros included, and a split point."""
    bsz, n_parts = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    sizes = st.lists(st.integers(0, 5), min_size=bsz, max_size=bsz)
    parts = draw(st.lists(sizes, min_size=n_parts, max_size=n_parts))
    return parts, draw(st.integers(1, n_parts))


class TestLayout:
    @SETTINGS
    @given(drawn=part_counts(), seed=st.integers(0, 2**32 - 1))
    def test_rows_cells_padding_and_masks(self, drawn, seed):
        """Rows run part-major over sequence positions; segment 0 keeps its
        positions on the grid and segment 1 starts at column w0; the cells
        are distinct, ``pad`` and ``unpad`` round-trip, and ``pad_masks``
        puts entry (i, j) at the grid columns of positions i and j."""
        parts, split = drawn
        layout = Layout(*parts, split=split)
        counts = np.array(parts)
        starts = counts.cumsum(axis=0) - counts
        n0, lengths = counts[:split].sum(axis=0), counts.sum(axis=0)
        assert layout.n0.tolist() == n0.tolist() and layout.lengths.tolist() == lengths.tolist()
        w0, bsz = int(n0.max()), len(lengths)
        assert layout.w0 == w0 and layout.n_max == w0 + (lengths - n0).max()
        rows = [(b, p) for k, part in enumerate(parts) for b, n in enumerate(part)
                for p in range(starts[k, b], starts[k, b] + n)]
        assert list(zip(layout.sample.tolist(), layout.pos.tolist())) == rows
        sample, pos = layout.sample, layout.pos
        cell = sample * layout.n_max + pos + np.where(pos < n0[sample], 0, w0 - n0[sample])
        assert layout.index.tolist() == cell.tolist()
        assert len(set(cell.tolist())) == len(cell)

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(len(rows), 3))
        padded = layout.pad(x)
        assert padded.shape == (bsz, layout.n_max, 3)
        flat = padded.reshape(-1, 3)
        assert layout.unpad(flat).tobytes() == x.tobytes()
        assert flat[cell].tobytes() == x.tobytes()
        assert not np.delete(flat, cell, axis=0).any()

        masks = [rng.random((2, n, n)) < 0.5 for n in lengths]
        g = layout.pad_masks(masks)
        assert g.dtype == bool and g.shape == (2, bsz, layout.n_max, layout.n_max)
        for b, (k, n) in enumerate(zip(n0, lengths)):
            at = np.where(np.arange(n) < k, np.arange(n), np.arange(n) + w0 - k)
            ref = np.zeros((2, layout.n_max, layout.n_max), dtype=bool)
            ref[:, at[:, None], at] = masks[b]
            assert np.array_equal(g[:, b], ref)

    @SETTINGS
    @given(drawn=part_counts(), seed=st.integers(0, 2**32 - 1))
    def test_one_sequence_is_the_general_build(self, drawn, seed):
        """A layout of one sequence, built in plain Python, agrees attribute by
        attribute with the general build of that sequence beside an empty
        second one, whose cells cannot move it; zero-size parts included.
        Its masks are the sequence's own, bool."""
        parts, split = drawn
        one = Layout(*[p[:1] for p in parts], split=split)
        pair = Layout(*[p[:1] + [0] for p in parts], split=split)
        assert (one.batch, one.dense) == (1, True)
        for name in ("counts", "lengths", "n0", "sample", "pos", "index"):
            a, b = getattr(one, name), getattr(pair, name)
            b = b[..., :1] if name in ("counts", "lengths", "n0") else b
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        assert (one.w0, one.n_max) == (pair.w0, pair.n_max)
        assert type(one.w0) is int and type(one.n_max) is int
        n = int(one.lengths[0])
        assert one.pos.tolist() == one.index.tolist() == list(range(n))
        m = np.random.default_rng(seed).random((2, n, n)) < 0.5
        g = one.pad_masks([m.astype(float)])
        assert g.dtype == bool and g.shape == (2, 1, n, n)
        assert g.tobytes() == pair.pad_masks([m, np.zeros((2, 0, 0))])[:, :1].tobytes()
        assert one.mean_matrix().tobytes() == pair.mean_matrix()[:1].tobytes()

    def test_single_sequence_is_dense(self):
        layout = Layout([4])
        rows = np.arange(8.0).reshape(4, 2)
        assert layout.dense
        assert np.shares_memory(layout.pad(rows), rows)
        assert Layout([3], [1], [2], split=2).dense

    def test_parts_are_part_major(self):
        """Three parts: all part-0 rows, then all part-1 rows, then all part-2
        rows, each part sequence after sequence; positions run per sequence.
        With two parts in segment 0, the third part's rows move right to the
        end of the longest segment 0."""
        parts = ([2, 0, 1], [1, 1, 1], [1, 2, 0])
        layout = Layout(*parts)
        assert layout.sample.tolist() == [0, 0, 2, 0, 1, 2, 0, 1, 1]
        assert layout.pos.tolist() == [0, 1, 0, 2, 0, 1, 3, 1, 2]
        assert layout.lengths.tolist() == [4, 3, 2]
        assert layout.n_max == 4 and layout.index.tolist() == [0, 1, 8, 2, 4, 9, 3, 5, 6]
        aligned = Layout(*parts, split=2)
        assert aligned.pos.tolist() == layout.pos.tolist()
        assert aligned.n0.tolist() == [3, 1, 2] and aligned.w0 == 3 and aligned.n_max == 5
        assert aligned.index.tolist() == [0, 1, 10, 2, 5, 11, 3, 8, 9]

    def test_one_part_is_sequences_in_order(self):
        lengths = [3, 1, 0, 2]
        layout = Layout(lengths)
        assert layout.sample.tolist() == [0, 0, 0, 1, 3, 3]
        assert layout.pos.tolist() == [0, 1, 2, 0, 0, 1]
        assert layout.lengths.tolist() == lengths
        assert not layout.dense
        assert Layout([5]).dense

    def test_mean_matrix_and_masks(self):
        layout = Layout([1, 3])
        p = layout.mean_matrix()
        np.testing.assert_allclose(p, [[1, 0, 0, 0], [0, 1 / 3, 1 / 3, 1 / 3]])
        assert p.tobytes() == layout.mean_matrix(0).tobytes()
        m = layout.pad_masks([np.ones((1, 1)), np.eye(3)])
        assert m.dtype == bool and m.shape == (2, 3, 3)
        assert m[0].sum() == 1 and m[0, 0, 0]
        np.testing.assert_array_equal(m[1], np.eye(3, dtype=bool))

    def test_mean_matrix_of_one_part(self):
        """On a stream layout, part 1 pools each sample's SEP row alone, with one
        exact 1.0; without a part every row of a sample weighs 1 / its length,
        bitwise as a scatter of ``1.0 / lengths`` over the rows."""
        n_img, n_q = [3, 0, 5, 1], [2, 4, 0, 1]
        layout = stream_layout(n_img, n_q)
        sep = layout.mean_matrix(1)
        assert sep.shape == (4, len(layout.pos))
        for b, row in enumerate(sep):
            (r,) = np.flatnonzero(row)
            assert row[r] == 1.0 and layout.sample[r] == b and layout.pos[r] == n_img[b]
        whole = np.zeros((4, len(layout.pos)))
        whole[layout.sample, np.arange(len(layout.pos))] = 1.0 / layout.lengths[layout.sample]
        assert layout.mean_matrix().tobytes() == whole.tobytes()
        image = layout.mean_matrix(0)
        np.testing.assert_allclose(image.sum(axis=1), [1, 0, 1, 1], rtol=1e-15)
        assert not image[:, sum(n_img):].any()

    def test_padded_keys_and_values_have_no_influence(self):
        """Garbage in the padded rows of q, k and v leaves the real rows of
        the attention output bitwise unchanged: padding is zero mask entries."""
        rng = np.random.default_rng(34)
        q, k, v = (rng.normal(size=(2, 3, 6, 4)) for _ in range(3))
        g = np.zeros((2, 1, 6, 6), dtype=bool)
        g[0, :, :4, :4] = rng.random((4, 4)) < 0.7
        g[1, :, :6, :6] = rng.random((6, 6)) < 0.7
        base, _ = _ga_forward(q, k, v, g)
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        for a in (q2, k2, v2):
            a[0, :, 4:] = 1e3
        out, _ = _ga_forward(q2, k2, v2, g)
        assert out[0, :, :4].tobytes() == base[0, :, :4].tobytes()
        assert out[1].tobytes() == base[1].tobytes()
        assert not out[0, :, 4:].any()


class TestEncodeStream:
    def make_stack(self, cfg, seed=0):
        params = ad.Parameters()
        return EncoderStack.build(params, "enc", cfg, np.random.default_rng(seed))

    def test_layout_and_sep_index(self):
        cfg = EncoderConfig(num_layers=3, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        rng = np.random.default_rng(15)
        t_img = ad.Tensor(rng.normal(size=(3, 4)))
        t_q = ad.Tensor(rng.normal(size=(2, 4)))
        sep = ad.Tensor(rng.normal(size=4))
        layout = stream_layout([3], [2])
        hidden = stack.run([t_img, sep, t_q], layout, [np.ones((3, 6, 6))])
        assert hidden.data.shape == (6, 4)
        assert np.flatnonzero(layout.mean_matrix(1)).tolist() == [3]
        assert layout.pos.tolist() == list(range(6))

    def test_empty_question_side(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        t_img = ad.Tensor(np.random.default_rng(16).normal(size=(2, 4)))
        t_q = ad.Tensor(np.zeros((0, 4)))
        layout = stream_layout([2], [0])
        hidden = stack.run([t_img, ad.Tensor(np.zeros(4)), t_q], layout, [np.ones((1, 3, 3))])
        assert hidden.data.shape == (3, 4)
        assert np.flatnonzero(layout.mean_matrix(1)).tolist() == [2]

    def test_sep_row_follows_image_tokens(self):
        """With all-zero masks rows do not mix, so the SEP vector moves only its own row."""
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        rng = np.random.default_rng(17)
        t_img = ad.Tensor(rng.normal(size=(2, 4)))
        t_q = ad.Tensor(rng.normal(size=(2, 4)))
        plans, layout = [np.zeros((1, 5, 5))], stream_layout([2], [2])
        a, b = (stack.run([t_img, ad.Tensor(sep), t_q], layout, plans)
                for sep in (np.zeros(4), np.arange(4.0)))
        assert np.flatnonzero(layout.mean_matrix(1)).tolist() == [2]
        changed = [i for i in range(5) if a.data[i].tobytes() != b.data[i].tobytes()]
        assert changed == [2]

    def test_matches_reference_layer_loop(self):
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        rng = np.random.default_rng(18)
        t_img = ad.Tensor(rng.normal(size=(2, 4)))
        t_q = ad.Tensor(rng.normal(size=(3, 4)))
        sep = ad.Tensor(rng.normal(size=4))
        masks = [(rng.random((6, 6)) < 0.5).astype(float) for _ in range(2)]
        hidden = stack.run([t_img, sep, t_q], stream_layout([2], [3]), [np.array(masks)])
        x = ad.Tensor(np.vstack([t_img.data, sep.data, t_q.data]) + stack.pos_table.data[:6])
        for g, layer in zip(masks, stack.layers):
            x = one_sequence(x, g, layer, cfg)
        assert hidden.data.tobytes() == x.data.tobytes()

    def test_mask_count_and_shape_checked(self):
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        t_img, t_q, sep = (ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((1, 4))),
                           ad.Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="needs 2 masks"):
            stack.run([t_img, sep, t_q], stream_layout([2], [1]), [np.ones((1, 4, 4))])
        with pytest.raises(ValueError, match="needs 2 masks of 4 x 4"):
            stack.run([t_img, sep, t_q], stream_layout([2], [1]), [np.ones((2, 3, 3))])
        with pytest.raises(ValueError, match="do not match"):
            stack.run([t_img, sep, t_q], stream_layout([2], [0]), [np.ones((2, 3, 3))])

    def test_sequence_longer_than_max_len_raises(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=4)
        stack = self.make_stack(cfg)
        t_img = ad.Tensor(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="max_len"):
            stack.run([t_img, ad.Tensor(np.zeros(4)), ad.Tensor(np.zeros((2, 4)))],
                      stream_layout([4], [2]), [np.ones((1, 7, 7))])


class TestSentencePretransform:
    def make_stack(self, seed=20):
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=4, d_ff=8, max_len=8)
        params = ad.Parameters()
        return EncoderStack.build(params, "sent", cfg, np.random.default_rng(seed))

    def test_disconnected_components_do_not_mix(self):
        """Tokens in different dependency components never influence each other."""
        stack = self.make_stack()
        rng = np.random.default_rng(21)
        adj = np.eye(3, dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # component {0,1}; token 2 isolated
        masks = [np.broadcast_to(adj, (2, 3, 3))]
        base = rng.normal(size=(3, 4))
        bumped = base.copy()
        bumped[2] += 5.0
        out_a = sentence_pretransform(ad.Tensor(base), [3], masks, stack).data
        out_b = sentence_pretransform(ad.Tensor(bumped), [3], masks, stack).data
        assert out_a[:2].tobytes() == out_b[:2].tobytes()
        assert out_a[2].tobytes() != out_b[2].tobytes()


class TestEncoderConfig:
    def test_head_divisibility_validated(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_heads=3, d_model=32)

    def test_d_k(self):
        assert EncoderConfig(num_heads=8, d_model=32).d_k == 4


def lead_graph_masks(rng, n_img, n_q):
    """Random 3-layer masks over [image; SEP; question] with the lead-graph
    block structure: layer 1 question block only, layer 2 cross blocks only,
    layer 3 random everywhere with the SEP row open."""
    n0 = n_img + 1
    n = n0 + n_q
    m = rng.random((3, n, n)) < 0.6
    m[0, :n0] = False
    m[0, n0:, :n0] = False
    m[1, :n0, :n0] = False
    m[1, n0:, n0:] = False
    m[2, n_img] = True
    return m


def stream_layout(n_img, n_q, split=2):
    """The layout ``Model.run_stream`` builds: all image rows, the SEP rows, all
    question rows, with image rows and SEP as segment 0 (one segment with
    ``split=None``)."""
    return Layout(n_img, [1] * len(n_img), n_q, split=split)


def same_grid(a, b):
    """Two layouts that put every row at the same cell of equally wide grids."""
    return a.n_max == b.n_max and np.array_equal(a.index, b.index)


class TestSegmentPlan:
    """The grouped attention of ``_segment_plan`` against the one-group plan
    that scores each layer's whole padded grid."""

    LAYER_INPUTS = TestFusedLayer.LAYER_INPUTS

    def run_layer(self, layout, mask, blocks, x, layer, cfg, w):
        with ad.Tape() as t:
            out = encoder_layer(x, mask, layer, cfg, layout, blocks)
            loss = weighted_sum(out, w)
        return out.data, t.gradients(loss, [x] + [getattr(layer, n) for n in self.LAYER_INPUTS])

    def check_layers(self, n_img, n_q, masks, seed=40):
        """Every layer of the grouped plan against the whole grid: values and
        the 13 gradients to 1e-12, bitwise where the plan keeps the layout's
        grid and scores it whole. Returns the plan's grid and blocks."""
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16)
        layer = make_layer(rng, 8, 16)
        grid, layout = stream_layout(n_img, n_q), stream_layout(n_img, n_q, None)
        g, blocks = _segment_plan(grid, masks)
        ref_g, _ = whole_grid_plan(layout, masks)
        assert g.shape == (len(ref_g), grid.batch, grid.n_max, grid.n_max)
        x = ad.Tensor(rng.normal(size=(len(layout.pos), 8)))
        w = rng.normal(size=x.data.shape)
        for mask, layer_blocks, ref_mask in zip(g, blocks, ref_g):
            out, grads = self.run_layer(grid, mask, layer_blocks, x, layer, cfg, w)
            ref, ref_grads = self.run_layer(layout, ref_mask, WHOLE_GRID, x, layer, cfg, w)
            if same_grid(grid, layout) and layer_blocks == WHOLE_GRID:
                assert out.tobytes() == ref.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, ref_grads))
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
            for a, b in zip(grads, ref_grads):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        return grid, blocks

    def test_lead_graph_blocks(self):
        """Layer 1 scores the question block, layer 2 the two cross blocks,
        layer 3 the whole grid."""
        rng = np.random.default_rng(41)
        n_img, n_q = [3, 3], [2, 4]
        masks = [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)]
        _, blocks = self.check_layers(n_img, n_q, masks)
        seg0, seg1 = slice(0, 4), slice(4, None)
        assert blocks[0] == ((seg1, seg1),)
        assert blocks[1] == ((seg0, seg1), (seg1, seg0))
        assert blocks[2] == WHOLE_GRID

    def test_one_sample(self):
        rng = np.random.default_rng(42)
        grid, _ = self.check_layers([5], [3], [lead_graph_masks(rng, 5, 3)])
        assert grid.dense

    def test_mixed_lengths(self):
        """Image segments of different lengths run on a segment-aligned grid
        wider than the longest sequence, the fully open layer 3 too."""
        rng = np.random.default_rng(43)
        n_img, n_q = [2, 6, 4, 1], [5, 0, 3, 1]
        grid, blocks = self.check_layers(
            n_img, n_q, [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)])
        assert grid.n_max == 7 + 5
        assert blocks[2] == WHOLE_GRID

    def test_block_open_in_one_sample_only(self):
        """A block open in one sample is scored for the whole batch; the others
        see only their own (closed) mask entries in it."""
        rng = np.random.default_rng(44)
        n_img, n_q = [3, 2, 4], [2, 3, 2]
        masks = []
        for b, (a, q) in enumerate(zip(n_img, n_q)):
            m = np.zeros((1, a + 1 + q, a + 1 + q), dtype=bool)
            m[0, a + 1:, a + 1:] = True  # question block open everywhere
            if b == 1:
                m[0, :a + 1, :a + 1] = rng.random((a + 1, a + 1)) < 0.7
            masks.append(m)
        _, blocks = self.check_layers(n_img, n_q, masks)
        assert blocks[0] == ((slice(0, 5), slice(0, 5)), (slice(5, None), slice(5, None)))

    def test_overlapping_column_spans(self):
        """Image rows reach every column and question rows their own block:
        both blocks score the question columns, whose key and value gradients
        add up."""
        rng = np.random.default_rng(47)
        n_img, n_q = [2, 4], [3, 2]
        masks = []
        for a, q in zip(n_img, n_q):
            m = rng.random((1, a + 1 + q, a + 1 + q)) < 0.7
            m[0, a + 1:, :a + 1] = False
            masks.append(m)
        _, blocks = self.check_layers(n_img, n_q, masks)
        assert blocks[0] == ((slice(0, 5), slice(None)), (slice(5, None), slice(5, None)))

    def test_empty_question_segment(self):
        """No question rows anywhere: one segment, scored as the whole grid."""
        rng = np.random.default_rng(45)
        n_img, n_q = [3, 5], [0, 0]
        masks = [rng.random((2, a + 1, a + 1)) < 0.6 for a in n_img]
        _, blocks = self.check_layers(n_img, n_q, masks)
        assert blocks == [WHOLE_GRID] * 2

    def test_fully_masked_layer_scores_nothing(self):
        n_img, n_q = [2, 3], [1, 2]
        masks = [np.zeros((1, a + 1 + q, a + 1 + q), dtype=bool) for a, q in zip(n_img, n_q)]
        _, blocks = self.check_layers(n_img, n_q, masks)
        assert blocks == [()]

    def test_all_ones_is_one_group(self):
        """Without lead graphs every layer scores its whole grid as one block."""
        n_img, n_q = [2, 5, 3], [4, 1, 0]
        masks = [np.ones((3, a + 1 + q, a + 1 + q), dtype=bool) for a, q in zip(n_img, n_q)]
        _, blocks = self.check_layers(n_img, n_q, masks)
        assert blocks == [WHOLE_GRID] * 3

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("lengths", [([4], [3]), ([2, 5, 3], [3, 2, 0])],
                             ids=["one-sample", "mixed"])
    def test_encode_stream_matches_whole_grid(self, num_layers, lengths, monkeypatch):
        """Stream outputs and the gradients of every stack parameter and input
        agree with the whole-grid plan to 1e-12."""
        n_img, n_q = lengths
        rng = np.random.default_rng(46 + num_layers)
        cfg = EncoderConfig(num_layers=num_layers, num_heads=2, d_model=8, d_ff=16,
                            max_len=16)
        params = ad.Parameters()
        stack = EncoderStack.build(params, "enc", cfg, np.random.default_rng(0))
        plans = [lead_graph_masks(rng, a, b)[:num_layers]
                 for a, b in zip(n_img, n_q)]
        t_img = ad.Tensor(rng.normal(size=(sum(n_img), 8)))
        t_q = ad.Tensor(rng.normal(size=(sum(n_q), 8)))
        sep = params.new("sep", (8,), "embed", rng)
        w = rng.normal(size=(sum(n_img) + len(n_img) + sum(n_q), 8))
        tensors = [t_img, t_q] + params.tensors()

        def run():
            with ad.Tape() as t:
                hidden = stack.run([t_img, sep, t_q], stream_layout(n_img, n_q), plans)
                loss = weighted_sum(hidden, w)
            return hidden.data, t.gradients(loss, tensors)

        out, grads = run()
        whole_grid(monkeypatch)
        ref, ref_grads = run()
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        for a, b in zip(grads, ref_grads):
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)

    def test_question_free_sequences_keep_the_grid(self):
        """Every sequence with question rows starts them at the same position:
        the segment-aligned grid puts every row where the layout does."""
        rng = np.random.default_rng(49)
        n_img, n_q = [4, 2, 1], [3, 0, 0]
        grid, blocks = self.check_layers(
            n_img, n_q, [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)])
        assert blocks[0] == ((slice(5, None), slice(5, None)),)
        assert blocks[2] == WHOLE_GRID
        assert same_grid(grid, stream_layout(n_img, n_q, None)) and grid.n_max == 8

    def test_one_segment_is_the_whole_grid(self):
        """Segment 0 spanning every sequence, as in the sentence stack: each
        layer scores the layout's grid with the padded masks themselves."""
        rng = np.random.default_rng(50)
        layout = Layout([2, 5, 3])
        masks = [rng.random((2, n, n)) < 0.5 for n in (2, 5, 3)]
        g, blocks = _segment_plan(layout, masks)
        assert layout.w0 == layout.n_max == 5 and blocks == [WHOLE_GRID] * 2
        assert layout.index.tolist() == (layout.sample * 5 + layout.pos).tolist()
        assert g.tobytes() == layout.pad_masks(masks).tobytes()

    @pytest.mark.parametrize("n_img, n_q", [([2, 6, 4, 1], [5, 0, 3, 1]), ([3, 3], [2, 4])],
                             ids=["aligned-grid", "layout-grid"])
    def test_every_layer_of_a_call_gets_one_layout(self, n_img, n_q, monkeypatch):
        """The three layers of one stack call, partly and fully open, all run
        on the call's own layout."""
        rng = np.random.default_rng(53)
        cfg = EncoderConfig(num_layers=3, num_heads=2, d_model=8, d_ff=16, max_len=16)
        stack = EncoderStack.build(ad.Parameters(), "enc", cfg, np.random.default_rng(1))
        layout = stream_layout(n_img, n_q)
        masks = [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)]
        seen = []

        def spy(x, g, layer, cfg, grid, blocks):
            seen.append((grid, blocks))
            return encoder_layer(x, g, layer, cfg, grid, blocks)

        monkeypatch.setattr(encoder, "encoder_layer", spy)
        stack.run([ad.Tensor(rng.normal(size=(len(layout.pos), 8)))], layout, masks)
        assert len(seen) == 3 and seen[0][1] != WHOLE_GRID and seen[2][1] == WHOLE_GRID
        assert all(grid is layout for grid, _ in seen)
        assert seen[0][0].n_max == max(n_img) + 1 + max(n_q)


class TestStackRun:
    def make(self, seed=51, num_layers=3):
        cfg = EncoderConfig(num_layers=num_layers, num_heads=2, d_model=8, d_ff=16, max_len=16)
        return cfg, EncoderStack.build(ad.Parameters(), "enc", cfg, np.random.default_rng(1))

    def test_layer_i_runs_with_mask_i(self):
        """The stack equals its layers applied one by one on the grid of the
        segment plan, layer i with mask i and blocks i, bitwise."""
        rng = np.random.default_rng(52)
        cfg, stack = self.make()
        n_img, n_q = [3, 1], [2, 4]
        layout = stream_layout(n_img, n_q)
        masks = [lead_graph_masks(rng, a, b) for a, b in zip(n_img, n_q)]
        x = ad.Tensor(rng.normal(size=(len(layout.pos), 8)))
        out = stack.run([x], layout, masks).data
        h = ad.Tensor(x.data + stack.pos_table.data[layout.pos])
        g, blocks = _segment_plan(layout, masks)
        for mask, layer_blocks, layer in zip(g, blocks, stack.layers):
            h = encoder_layer(h, mask, layer, cfg, layout, layer_blocks)
        assert h.data.tobytes() == out.tobytes()

    @pytest.mark.parametrize("shape, message", [
        ((2, 6, 6), "needs 3 masks of 6 x 6"),  # one layer short: no mask is reused
        ((4, 6, 6), "needs 3 masks of 6 x 6"),
        ((3, 5, 5), "needs 3 masks of 6 x 6"),
        ((3, 6, 5), "needs 3 masks of 6 x 6"),
        ((6, 6), "needs 3 masks of 6 x 6"),
    ])
    def test_rejects_masks_of_the_wrong_count_or_size(self, shape, message):
        cfg, stack = self.make()
        layout = Layout([4, 6])
        masks = [np.ones((3, 4, 4), dtype=bool), np.ones(shape, dtype=bool)]
        with pytest.raises(ValueError, match=f"sequence 1 {message}"):
            stack.run([ad.Tensor(np.zeros((10, 8)))], layout, masks)

    def test_rejects_rows_or_mask_sets_not_matching_the_layout(self):
        cfg, stack = self.make()
        layout = Layout([4, 6])
        masks = [np.ones((3, n, n), dtype=bool) for n in (4, 6)]
        with pytest.raises(ValueError, match="do not match"):
            stack.run([ad.Tensor(np.zeros((9, 8)))], layout, masks)
        with pytest.raises(ValueError, match="do not match"):
            stack.run([ad.Tensor(np.zeros((10, 8)))], layout, masks[:1])
