"""Masked attention semantics, the fused multi-head path, and stream encoding."""

import numpy as np
import pytest

import granalign.autodiff as ad
from granalign.encoder import (
    EncoderConfig,
    EncoderStack,
    encode_stream,
    encoder_layer,
    ga_attention,
    multi_head_ga,
    sentence_pretransform,
)
from granalign.leadgraph import LeadGraph, full_graph, pairs_to_matrix
from conftest import fd_gradient, rel_err


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
        q = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        g = np.ones((3, 3))
        g[1, :] = 0.0
        with ad.Tape() as t:
            loss = ad.sum_all(ga_attention(q, k, v, LeadGraph(g)))
        gq, _, _ = t.gradients(loss, [q, k, v])
        assert np.all(gq[1] == 0.0)

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
        q = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        g = pairs_to_matrix([(0, 0), (0, 1), (1, 2), (1, 1), (2, 0), (2, 3),
                             (3, 3)], 4)
        w = rng.normal(size=(4, 3))
        with ad.Tape() as t:
            loss = ad.sum_all(ad.mul(ga_attention(q, k, v, g), ad.Tensor(w)))
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
        return ad.Tensor(rng.normal(size=shape) / np.sqrt(shape[0]), requires_grad=True)

    from granalign.encoder import LayerParams
    return LayerParams(
        wq=t((d, d)), wk=t((d, d)), wv=t((d, d)), wo=t((d, d)),
        ffn_w1=t((d, f)), ffn_b1=ad.Tensor(np.zeros(f), requires_grad=True),
        ffn_w2=t((f, d)), ffn_b2=ad.Tensor(np.zeros(d), requires_grad=True),
        ln1_gain=ad.Tensor(np.ones(d), requires_grad=True),
        ln1_bias=ad.Tensor(np.zeros(d), requires_grad=True),
        ln2_gain=ad.Tensor(np.ones(d), requires_grad=True),
        ln2_bias=ad.Tensor(np.zeros(d), requires_grad=True),
    )


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
        x = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
        g = full_graph(n)
        w = rng.normal(size=(n, d))
        with ad.Tape() as t:
            loss = ad.sum_all(ad.mul(multi_head_ga(x, g, layer, heads), ad.Tensor(w)))
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
                x = encoder_layer(x, g, lp, cfg)
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
        x = ad.Tensor(rng.normal(size=(3, d)), requires_grad=True)
        g = pairs_to_matrix([(0, 0), (1, 1), (2, 2), (0, 2), (2, 1)], 3)
        w = rng.normal(size=(3, d))
        with ad.Tape() as t:
            loss = ad.sum_all(ad.mul(encoder_layer(x, g, layer, cfg), ad.Tensor(w)))
        tensors = [x, layer.wq, layer.ffn_w1, layer.ln1_gain, layer.ln2_bias]
        grads = t.gradients(loss, tensors)

        def f():
            return float((encoder_layer(ad.Tensor(x.data), g, layer, cfg).data * w).sum())

        for tensor, grad in zip(tensors, grads):
            fd = fd_gradient(f, tensor.data,
                             rng.choice(tensor.data.size, 3, replace=False))
            for c, val in fd.items():
                assert rel_err(grad.reshape(-1)[c], val) < 2e-6


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
        hidden, sep_index = encode_stream(t_img, t_q, [np.ones((6, 6))] * 3, stack, sep)
        assert hidden.data.shape == (6, 4)
        assert sep_index == 3

    def test_empty_question_side(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        t_img = ad.Tensor(np.random.default_rng(16).normal(size=(2, 4)))
        t_q = ad.Tensor(np.zeros((0, 4)))
        hidden, sep_index = encode_stream(t_img, t_q, [np.ones((3, 3))], stack,
                                          ad.Tensor(np.zeros(4)))
        assert hidden.data.shape == (3, 4)
        assert sep_index == 2

    def test_sep_row_follows_image_tokens(self):
        """With all-zero masks rows do not mix, so the SEP vector moves only its own row."""
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        rng = np.random.default_rng(17)
        t_img = ad.Tensor(rng.normal(size=(2, 4)))
        t_q = ad.Tensor(rng.normal(size=(2, 4)))
        masks = [np.zeros((5, 5))]
        a, sep_index = encode_stream(t_img, t_q, masks, stack, ad.Tensor(np.zeros(4)))
        b, _ = encode_stream(t_img, t_q, masks, stack, ad.Tensor(np.arange(4.0)))
        assert sep_index == 2
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
        hidden, _ = encode_stream(t_img, t_q, masks, stack, sep)
        x = stack.add_positions(ad.Tensor(np.vstack([t_img.data, sep.data, t_q.data])))
        for g, layer in zip(masks, stack.layers):
            x = encoder_layer(x, g, layer, cfg)
        assert hidden.data.tobytes() == x.data.tobytes()

    def test_sep_vector_must_be_1d(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=16)
        with pytest.raises(ValueError, match="1-D"):
            encode_stream(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((0, 4))),
                          [np.ones((3, 3))], self.make_stack(cfg),
                          ad.Tensor(np.zeros((1, 4))))

    def test_mask_count_and_shape_checked(self):
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=4, d_ff=8, max_len=16)
        stack = self.make_stack(cfg)
        t_img, t_q, sep = (ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((1, 4))),
                           ad.Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="needs 2 masks"):
            encode_stream(t_img, t_q, [np.ones((4, 4))], stack, sep)
        with pytest.raises(ValueError, match="of 4 x 4"):
            encode_stream(t_img, t_q, [np.ones((3, 3))] * 2, stack, sep)

    def test_sequence_longer_than_max_len_raises(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=8, max_len=4)
        stack = self.make_stack(cfg)
        t_img = ad.Tensor(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="max_len"):
            encode_stream(t_img, ad.Tensor(np.zeros((2, 4))), [np.ones((7, 7))],
                          stack, ad.Tensor(np.zeros(4)))


class TestSentencePretransform:
    def make_stack(self, seed=20):
        cfg = EncoderConfig(num_layers=2, num_heads=2, d_model=4, d_ff=8, max_len=8)
        params = ad.Parameters()
        return EncoderStack.build(params, "sent", cfg, np.random.default_rng(seed))

    def test_rejects_asymmetric_adjacency(self):
        stack = self.make_stack()
        adj = np.eye(3)
        adj[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            sentence_pretransform(ad.Tensor(np.zeros((3, 4))), adj, stack)

    def test_rejects_missing_self_loops(self):
        stack = self.make_stack()
        with pytest.raises(ValueError, match="diagonal"):
            sentence_pretransform(ad.Tensor(np.zeros((3, 4))), np.zeros((3, 3)), stack)

    def test_disconnected_components_do_not_mix(self):
        """Tokens in different dependency components never influence each other."""
        stack = self.make_stack()
        rng = np.random.default_rng(21)
        adj = np.eye(3)
        adj[0, 1] = adj[1, 0] = 1.0  # component {0,1}; token 2 isolated
        base = rng.normal(size=(3, 4))
        bumped = base.copy()
        bumped[2] += 5.0
        out_a = sentence_pretransform(ad.Tensor(base), adj, stack).data
        out_b = sentence_pretransform(ad.Tensor(bumped), adj, stack).data
        assert out_a[:2].tobytes() == out_b[:2].tobytes()
        assert out_a[2].tobytes() != out_b[2].tobytes()


class TestEncoderConfig:
    def test_head_divisibility_validated(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_heads=3, d_model=32)

    def test_d_k(self):
        assert EncoderConfig(num_heads=8, d_model=32).d_k == 4
