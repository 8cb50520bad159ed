"""Encoder stacks whose attention is masked per layer by binary lead graphs.

The attention variant here multiplies the softmaxed score matrix pointwise
with a 0/1 lead graph and renormalizes each surviving row:

    out = norm(softmax(Q K^T / sqrt(d_k)) * G) V

Rows whose mask is entirely zero produce a zero attention output; the
residual connection carries those tokens through the layer. The rest of
the layer is standard: multi-head projections, output projection, a
two-layer ReLU feed-forward block, and post-norm residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .leadgraph import LeadGraph


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 3
    num_heads: int = 8
    d_model: int = 32
    d_ff: int = 128
    eps_norm: float = 1e-5
    eps_row: float = 1e-12
    max_len: int = 64

    def __post_init__(self):
        if self.num_layers < 1 or self.num_heads < 1 or self.d_model < 1 or self.d_ff < 1:
            raise ValueError("encoder sizes must be positive")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")

    @property
    def d_k(self) -> int:
        return self.d_model // self.num_heads


# ---------------------------------------------------------------------------
# masked attention core
#
# Operates on head-batched arrays [h, n, d_k]; the public single-head
# ga_attention wraps it with h = 1. Saved intermediates make the backward
# pass a handful of batched matmuls.
# ---------------------------------------------------------------------------


def _ga_forward(q, k, v, g, eps_row):
    d_k = q.shape[-1]
    scores = np.matmul(q, k.transpose(0, 2, 1)) / np.sqrt(d_k)
    # Stabilize over the unmasked support only, so masked tokens cannot
    # perturb even the last bit of the surviving rows. Mask-then-renormalize
    # equals a softmax restricted to the support; the common shift cancels.
    support = g > 0.0
    row_max = np.max(np.where(support, scores, -np.inf), axis=2, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    shifted = np.where(support, scores - row_max, -np.inf)
    e = np.exp(shifted) * g
    z = e.sum(axis=2, keepdims=True)
    alive = z > eps_row
    safe = np.where(alive, z, 1.0)
    normed = np.where(alive, e / safe, 0.0)
    out = np.matmul(normed, v)
    cache = (q, k, v, normed, d_k)
    return out, cache


def _ga_backward(grad_out, cache):
    q, k, v, normed, d_k = cache
    d_normed = np.matmul(grad_out, v.transpose(0, 2, 1))
    d_v = np.matmul(normed.transpose(0, 2, 1), grad_out)
    # Softmax-on-support Jacobian; rows of `normed` are zero off support and
    # on dead rows, which zeroes those score gradients automatically.
    d_scores = normed * (d_normed - (d_normed * normed).sum(axis=2, keepdims=True))
    d_scores /= np.sqrt(d_k)
    d_q = np.matmul(d_scores, k)
    d_k_ = np.matmul(d_scores.transpose(0, 2, 1), q)
    return d_q, d_k_, d_v


def _mask_array(g) -> np.ndarray:
    return g.matrix if isinstance(g, LeadGraph) else np.asarray(g, dtype=np.float64)


def ga_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, g,
                 eps_row: float = 1e-12) -> ad.Tensor:
    """Lead-graph-masked scaled dot-product attention for one head.

    ``q``, ``k``, ``v`` are [n, d_k]; ``g`` is an n x n binary mask
    (LeadGraph or array). Rows of the masked attention matrix renormalize
    to sum to 1, except all-masked rows, which yield a zero output row.
    """
    gm = _mask_array(g)
    n = q.data.shape[0]
    if q.data.ndim != 2 or k.data.shape != q.data.shape:
        raise ValueError("ga_attention: q and k must share shape [n, d_k]")
    if v.data.ndim != 2 or v.data.shape[0] != n:
        raise ValueError("ga_attention: v must have shape [n, d_v]")
    if gm.shape != (n, n):
        raise ValueError(f"ga_attention: mask shape {gm.shape} does not match {n} tokens")
    out3, cache = _ga_forward(q.data[None], k.data[None], v.data[None], gm[None], eps_row)
    out = ad.Tensor(out3[0])

    def backward(grad):
        d_q, d_k, d_v = _ga_backward(grad[None], cache)
        return d_q[0], d_k[0], d_v[0]

    return ad.record(out, (q, k, v), backward)


@dataclass
class LayerParams:
    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    wo: ad.Tensor
    ffn_w1: ad.Tensor
    ffn_b1: ad.Tensor
    ffn_w2: ad.Tensor
    ffn_b2: ad.Tensor
    ln1_gain: ad.Tensor
    ln1_bias: ad.Tensor
    ln2_gain: ad.Tensor
    ln2_bias: ad.Tensor


def multi_head_ga(x: ad.Tensor, g, layer: LayerParams, num_heads: int,
                  eps_row: float = 1e-12) -> ad.Tensor:
    """All heads of masked attention plus the output projection.

    Head projections live in fused [d_model, d_model] matrices whose
    column blocks are the per-head maps; every head sees the same mask.
    The head loop runs batched in one tape node for speed, equivalent to
    per-head ga_attention on sliced projections.
    """
    gm = _mask_array(g)
    n, d_model = x.data.shape
    if d_model % num_heads != 0:
        raise ValueError("d_model not divisible by head count")
    d_k = d_model // num_heads
    wq, wk, wv = layer.wq, layer.wk, layer.wv

    def split(a):
        return a.reshape(n, num_heads, d_k).transpose(1, 0, 2)

    qh = split(x.data @ wq.data)
    kh = split(x.data @ wk.data)
    vh = split(x.data @ wv.data)
    out3, cache = _ga_forward(qh, kh, vh, gm[None], eps_row)
    heads = ad.Tensor(out3.transpose(1, 0, 2).reshape(n, d_model))

    def backward(grad):
        d_out3 = grad.reshape(n, num_heads, d_k).transpose(1, 0, 2)
        d_qh, d_kh, d_vh = _ga_backward(d_out3, cache)

        def join(a):
            return a.transpose(1, 0, 2).reshape(n, d_model)

        d_q, d_k_, d_v = join(d_qh), join(d_kh), join(d_vh)
        d_x = d_q @ wq.data.T + d_k_ @ wk.data.T + d_v @ wv.data.T
        return d_x, x.data.T @ d_q, x.data.T @ d_k_, x.data.T @ d_v

    ad.record(heads, (x, wq, wk, wv), backward)
    return ad.matmul(heads, layer.wo)


def feed_forward(x: ad.Tensor, layer: LayerParams) -> ad.Tensor:
    hidden = ad.relu(ad.add(ad.matmul(x, layer.ffn_w1), layer.ffn_b1))
    return ad.add(ad.matmul(hidden, layer.ffn_w2), layer.ffn_b2)


def encoder_layer(x: ad.Tensor, g, layer: LayerParams, cfg: EncoderConfig) -> ad.Tensor:
    """Post-norm residual layer: attention sublayer then feed-forward sublayer."""
    attended = multi_head_ga(x, g, layer, cfg.num_heads, cfg.eps_row)
    y = ad.layer_norm_rows(ad.add(x, attended), layer.ln1_gain, layer.ln1_bias, cfg.eps_norm)
    z = ad.layer_norm_rows(ad.add(y, feed_forward(y, layer)),
                           layer.ln2_gain, layer.ln2_bias, cfg.eps_norm)
    return z


class EncoderStack:
    """A stack of identically shaped layers plus its positional table."""

    def __init__(self, cfg: EncoderConfig, layers: list[LayerParams], pos_table: ad.Tensor):
        self.cfg = cfg
        self.layers = layers
        self.pos_table = pos_table

    @classmethod
    def build(cls, params: ad.Parameters, prefix: str, cfg: EncoderConfig,
              rng: np.random.Generator) -> "EncoderStack":
        layers = []
        d, f = cfg.d_model, cfg.d_ff
        for i in range(cfg.num_layers):
            p = f"{prefix}.layer{i}"
            layers.append(LayerParams(
                wq=params.new(f"{p}.wq", (d, d), "linear", rng),
                wk=params.new(f"{p}.wk", (d, d), "linear", rng),
                wv=params.new(f"{p}.wv", (d, d), "linear", rng),
                wo=params.new(f"{p}.wo", (d, d), "linear", rng),
                ffn_w1=params.new(f"{p}.ffn_w1", (d, f), "linear", rng),
                ffn_b1=params.new(f"{p}.ffn_b1", (f,), "zeros", rng),
                ffn_w2=params.new(f"{p}.ffn_w2", (f, d), "linear", rng),
                ffn_b2=params.new(f"{p}.ffn_b2", (d,), "zeros", rng),
                ln1_gain=params.new(f"{p}.ln1_gain", (d,), "ones", rng),
                ln1_bias=params.new(f"{p}.ln1_bias", (d,), "zeros", rng),
                ln2_gain=params.new(f"{p}.ln2_gain", (d,), "ones", rng),
                ln2_bias=params.new(f"{p}.ln2_bias", (d,), "zeros", rng),
            ))
        pos = params.new(f"{prefix}.pos", (cfg.max_len, cfg.d_model), "embed", rng)
        return cls(cfg, layers, pos)

    def add_positions(self, x: ad.Tensor) -> ad.Tensor:
        n = x.data.shape[0]
        if n > self.cfg.max_len:
            raise ValueError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        return ad.add(x, ad.embedding_lookup(self.pos_table, range(n)))


def encode_stream(t_img: ad.Tensor, t_q: ad.Tensor, masks: Sequence[np.ndarray],
                  stack: EncoderStack, sep: ad.Tensor) -> tuple[ad.Tensor, int]:
    """Run one alignment stream: [image tokens; SEP; question tokens].

    Appends the learned SEP row after the image tokens, concatenates the
    modalities, adds learnable positional embeddings over the combined
    index space, and applies ``masks[i]`` (SEP included, see
    ``leadgraph.mask_plan``) at layer ``i``. Returns the final hidden
    states and the SEP position.
    """
    if sep.data.ndim != 1:
        raise ValueError(f"SEP vector must be 1-D, got shape {sep.data.shape}")
    sep_index = t_img.data.shape[0]
    x = ad.concat_rows([t_img, ad.reshape(sep, (1, sep.data.shape[0])), t_q])
    n = x.data.shape[0]
    if len(masks) != len(stack.layers) or any(np.shape(m) != (n, n) for m in masks):
        raise ValueError(f"encode_stream needs {len(stack.layers)} masks of {n} x {n}")
    x = stack.add_positions(x)
    for g, layer in zip(masks, stack.layers):
        x = encoder_layer(x, g, layer, stack.cfg)
    return x, sep_index


def sentence_pretransform(word_tokens: ad.Tensor, dep_adjacency: np.ndarray,
                          stack: EncoderStack) -> ad.Tensor:
    """Context-aware question features from a dependency-masked encoder.

    A separate, independently parameterized stack processes the question
    words with the symmetrized dependency adjacency as the attention mask
    for every layer; downstream alignment then treats the output as fully
    connectable.
    """
    adj = np.asarray(dep_adjacency, dtype=np.float64)
    n = word_tokens.data.shape[0]
    if adj.shape != (n, n):
        raise ValueError(f"adjacency shape {adj.shape} does not match {n} tokens")
    if not np.array_equal(adj, adj.T):
        raise ValueError("dependency adjacency must be symmetric")
    if not np.all(np.diag(adj) == 1.0):
        raise ValueError("dependency adjacency must have unit diagonal")
    x = stack.add_positions(word_tokens)
    for layer in stack.layers:
        x = encoder_layer(x, adj, layer, stack.cfg)
    return x
