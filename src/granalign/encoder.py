"""Encoder stacks whose attention is masked per layer by binary lead graphs.

The attention variant here multiplies the softmaxed score matrix pointwise
with a 0/1 lead graph and renormalizes each surviving row:

    out = norm(softmax(Q K^T / sqrt(d_k)) * G) V

Rows whose mask is entirely zero produce a zero attention output; the
residual connection carries those tokens through the layer. The rest of
the layer is standard: multi-head projections, output projection, a
two-layer ReLU feed-forward block, and post-norm residuals.

The core defers the softmax division, as FlashAttention does (arXiv
2205.14135): it keeps the unnormalized weights e and their row sums z and
returns (e V) / z, and its backward takes the softmax row term with a
vecdot instead of a grid-sized product. Each way it makes 7 passes over the
[..., n, n] score grid, against 9 with the weights normalized on the grid.
The row max is the reduction over the last axis on a small block and, from
COLUMN_MAX_ROWS rows per column, a running maximum over the columns, one
call per column; a max is exact, so both give the same bits.

A batch of sequences runs as one packed [N, d] matrix of all their rows:
every row-wise step works on it unchanged, and only the attention core pads
to a [B, heads, W, W] grid, where padding is nothing but zero mask entries.
Each encoder layer is a single tape node with a hand-written backward.
An ``EncoderStack`` is S same-shaped stacks run as one call (after
PyTorch's ``torch.func.stack_module_state``), S = 1 being a single stack:
each layer's weights are [S, ...] views of the parameters and each product
is one batched matmul. For S > 1 the rows a layer sees are the grid's
cells, group by group, and every layer scores the whole grid. That pays
while the grid is small (``merges``).

``EncoderStack.run`` runs all four stacks, the three alignment streams and
the sentence pre-transform (``model.Model.encode`` packs each stream's
[image tokens; SEP; question tokens] and takes its pooling matrix from
``Layout.mean_matrix``). A sequence splits into segment 0 (a stream's image
tokens with SEP, or the whole sentence) and segment 1 (a stream's question
tokens), and a lead graph opens only some of the four segment blocks per
layer. The call's one ``Layout`` puts every row on a grid with
segment 0 in columns [0, w0) and segment 1 in [w0, W), one description of
packing and segments as in FlashAttention-2's varlen interface (arXiv
2307.08691); ``run`` pads the masks onto it once and, for one stack, finds
which blocks each layer opens anywhere in the batch. Every layer runs on
that grid: a layer that opens all four scores it as one block, and in any
other layer each row segment scores only the columns of the segments it
reaches (its own, the other, or both); a row segment that reaches none is
skipped and gets zero context, as a fully masked row does. A merged call of
several stacks scores its whole grid in every layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .ingest import BLOCK_LIMIT, check_bound, check_size


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 3
    num_heads: int = 8
    d_model: int = 32
    d_ff: int = 128
    max_len: int = 64

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "d_model", "d_ff"):
            check_bound(name, getattr(self, name), 1)
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        check_bound("max_len", self.max_len, 1)
        layer = _layer_blocks(self.d_model, self.d_ff)
        check_size("an encoder stack's parameter count (num_layers, d_model, d_ff, max_len)",
                   self.num_layers * sum(math.prod(shape) for _, shape, _ in layer)
                   + self.max_len * self.d_model)
        check_size("an encoder stack's block count (num_layers)",
                   self.num_layers * len(layer) + 1, BLOCK_LIMIT)

    @property
    def d_k(self) -> int:
        return self.d_model // self.num_heads


# ---------------------------------------------------------------------------
# masked attention core
#
# Operates on head-batched arrays [..., n, d_k] with any leading axes; the
# mask broadcasts against the [..., n, n] scores. Saved intermediates make
# the backward pass a handful of batched matmuls. One [..., n, n] array is
# alive at a time each way, updated in place. The forward passes over it
# are q k^T, the mask, the row max, the shift, exp, the row sum and e V; the
# backward's are e^T g, g v^T, the row vecdot, the subtraction, the product
# with e and the two products that give d_q and d_k.
# ---------------------------------------------------------------------------


_LOWEST = np.finfo(np.float64).min
EPS_NORM = 1e-5  # the variance floor of every layer norm
# The fast paths' size rules, in one place: from COLUMN_MAX_ROWS rows per
# column a block's row max runs over its columns, 2-20x cheaper there than the
# reduction over a short last axis, which wins on smaller blocks (B = 1); a
# layout of one sequence is built in plain Python (Layout). Same-shaped stacks
# run as one call while its padded grid holds fewer than MERGE_GRID_CELLS
# cells (``merges``): every one-question forward of the pinned world (at most
# 432 cells) and none of a 7x7-grid world (8,748 and up) or of a pinned batch
# of 4 or more (1,200 and up). As one call, its weights a view of the
# parameters and its whole grid scored in every layer, the three stream
# stacks (layouts included) took 0.55x the time of three calls at B = 1 and
# B = 2 on the pinned world, 0.85x at B = 4 and 1.33x at B = 16, and 1.86x
# for one 7x7-grid question, where a segment plan would take 1.18x; at B = 1
# and 2 the whole grid is ~4% faster than the plan (medians over seeds 5 and
# 4242, 2-core x86-64, one BLAS thread).
COLUMN_MAX_ROWS = 32
MERGE_GRID_CELLS = 1024


def merges(n_sequences: int, n_max: int) -> bool:
    """Whether a call of ``n_sequences`` sequences on a grid ``n_max`` wide runs as one."""
    return n_sequences * n_max * n_max < MERGE_GRID_CELLS


def _row_max(scores):
    """The [..., n, 1] max of each row of the [..., n, w] ``scores``."""
    w = scores.shape[-1]
    if scores.size < COLUMN_MAX_ROWS * w * w:
        return scores.max(axis=-1, keepdims=True)
    row_max = scores[..., 0].copy()
    for j in range(1, w):
        np.maximum(row_max, scores[..., j], out=row_max)
    return row_max[..., None]


def _ga_forward(q, k, v, g):
    """``g`` is a bool mask that broadcasts against the [..., n, w] scores."""
    d_k = q.shape[-1]
    scores = np.matmul(q / math.sqrt(d_k), k.swapaxes(-1, -2))
    # Stabilize over the unmasked support only, so masked tokens cannot
    # perturb even the last bit of the surviving rows. Mask-then-renormalize
    # equals a softmax restricted to the support; the common shift cancels.
    # Masked cells become -inf by a broadcast minimum (for any score but
    # NaN), which runs 2.7x faster than copyto with where= on the
    # [16, 8, 55, 55] wide-grid scores.
    np.minimum(scores, np.where(g, np.inf, -np.inf), out=scores)
    row_max = _row_max(scores)
    np.maximum(row_max, _LOWEST, out=row_max)  # a fully masked row stays -inf, not NaN
    scores -= row_max
    e = np.exp(scores, out=scores)  # exp(-inf) = 0: masked cells are exactly zero
    z = e.sum(axis=-1, keepdims=True)  # >= 1 on a live row: its max cell is exp(0)
    z = np.where(z > 0.0, z, np.inf)  # dead rows (z = 0) divide to exactly zero
    # The division by z is deferred to the [..., n, d_k] rows of e V.
    out = np.matmul(e, v)
    out /= z
    return out, (q, k, v, e, z, d_k)


def _ga_backward(grad_out, cache):
    q, k, v, e, z, d_k = cache
    g = grad_out / z
    d_v = np.matmul(e.swapaxes(-1, -2), g)
    d_scores = np.matmul(g, v.swapaxes(-1, -2))
    # Softmax-on-support Jacobian with the weights e / z: the row term
    # sum(d_scores * e) / z comes from vecdot, without a grid temporary. Rows
    # of e are zero off support and on dead rows, which zeroes those score
    # gradients; a row with one open cell (e = 1, z = 1) cancels exactly.
    d_scores -= np.vecdot(d_scores, e)[..., None] / z
    d_scores *= e
    d_q = np.matmul(d_scores, k)
    d_q /= math.sqrt(d_k)
    d_k_ = np.matmul(d_scores.swapaxes(-1, -2), q)
    d_k_ /= math.sqrt(d_k)
    return d_q, d_k_, d_v


def ga_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, g) -> ad.Tensor:
    """Lead-graph-masked scaled dot-product attention for one head.

    ``q``, ``k``, ``v`` are [n, d_k]; ``g`` is an n x n ``LeadGraph``. Rows of
    the masked attention matrix renormalize to sum to 1, except all-masked
    rows, which yield a zero output row.
    """
    gm = g.matrix
    n = q.data.shape[0]
    if q.data.ndim != 2 or k.data.shape != q.data.shape:
        raise ValueError("ga_attention: q and k must share shape [n, d_k]")
    if v.data.ndim != 2 or v.data.shape[0] != n:
        raise ValueError("ga_attention: v must have shape [n, d_v]")
    if gm.shape != (n, n):
        raise ValueError(f"ga_attention: mask shape {gm.shape} does not match {n} tokens")
    out3, cache = _ga_forward(q.data[None], k.data[None], v.data[None], gm[None])
    out = ad.Tensor(out3[0])

    def backward(grad):
        d_q, d_k, d_v = _ga_backward(grad[None], cache)
        return d_q[0], d_k[0], d_v[0]

    return ad.record(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# packed batches
# ---------------------------------------------------------------------------


class Layout:
    """The packed [N, d] rows of a stack call and their cells on its padded
    [B, n_max] grid. ``counts[k, b] = parts[k][b]`` counts the rows of part k
    of sequence b; rows are stored part-major (part 0 of every sequence, then
    part 1, ...), and row r is position ``pos[r]`` of sequence ``sample[r]``.
    The first ``split`` parts (1 to all; all by default) are segment 0: the
    first ``n0[b]`` positions of sequence b, at their own columns of the grid.
    Segment 1 starts at column ``w0 = max(n0)``. Row r sits at cell
    ``index[r]``; B must be at least 1.

    A call of S ``groups`` (S same-shaped stacks run as one) holds S·b'
    sequences, sequence s·b' + b being group s's sample b. Its layers work on
    the grid's cells themselves, padding included: ``rows`` places the packed
    rows there, and group s owns the s-th 1/S of them. With one group the
    layers work on the packed rows."""

    def __init__(self, *parts, split: int | None = None, groups: int = 1):
        split = len(parts) if split is None else split
        self.groups = groups
        self.counts = counts = np.array(parts, dtype=np.intp)  # [P, B]
        if counts.shape[1] % groups:
            raise ValueError(f"{counts.shape[1]} sequences do not split into {groups} groups")
        if counts.shape[1] == 1:  # one sequence: row r is position r and cell r
            sizes = [int(p[0]) for p in parts]
            n0, n = sum(sizes[:split]), sum(sizes)
            self.lengths, self.n0 = np.array([n]), np.array([n0])
            self.batch, self.w0, self.n_max, self.dense = 1, n0, n, True
            self.sample, self.pos = np.zeros(n, dtype=np.intp), np.arange(n)
            self.index = self.pos
            self.n_rows = n
            return
        ends = counts.cumsum(axis=0)  # position after each part in its sequence
        starts = ends - counts
        self.lengths, self.n0 = ends[-1], ends[split - 1]
        self.batch = len(self.lengths)
        self.w0 = max(self.n0.tolist())
        self.n_max = self.w0 + max((self.lengths - self.n0).tolist())
        cells = starts + np.arange(self.batch) * self.n_max  # grid cell of each part's first row
        cells[split:] += self.w0 - self.n0
        counts = counts.ravel()
        first_row = counts.cumsum() - counts
        rows = np.arange(first_row[-1] + counts[-1])
        self.sample = (np.arange(counts.size) % self.batch).repeat(counts)
        self.pos = rows - (first_row - starts.ravel()).repeat(counts)
        self.index = rows - (first_row - cells.ravel()).repeat(counts)
        self.dense = groups > 1  # the layer rows are the grid's cells: pad and unpad are reshapes
        self.n_rows = self.batch * self.n_max if groups > 1 else len(rows)  # layer rows

    def rows(self, a: np.ndarray) -> np.ndarray:
        """The layer rows of the packed [N, ...] rows ``a``: ``a`` itself, or
        with more than one group ``a`` at its cells of a zero grid."""
        if self.groups == 1:
            return a
        out = np.zeros((self.batch * self.n_max,) + a.shape[1:])
        out[self.index] = a
        return out

    def pad(self, a: np.ndarray) -> np.ndarray:
        """[N, ...] layer rows into a zero-padded [B, n_max, ...] array."""
        shape = (self.batch, self.n_max) + a.shape[1:]
        if self.dense:
            return a.reshape(shape)
        out = np.zeros((self.batch * self.n_max,) + a.shape[1:])
        out[self.index] = a
        return out.reshape(shape)

    def unpad(self, a: np.ndarray) -> np.ndarray:
        """[B * n_max, ...] padded rows back to the [N, ...] layer rows."""
        return a if self.dense else a[self.index]

    def pad_masks(self, masks) -> np.ndarray:
        """Per-sequence [..., n_b, n_b] masks into one bool [..., B, n_max, n_max],
        each entry at the grid columns of its two positions."""
        if self.batch == 1:  # the grid is the sequence's own
            return np.asarray(masks[0], dtype=bool)[..., None, :, :]
        lead = np.shape(masks[0])[:-2]
        out = np.zeros(lead + (self.batch, self.n_max, self.n_max), dtype=bool)
        for b, (k, n, m) in enumerate(zip(self.n0.tolist(), self.lengths.tolist(), masks)):
            if k == self.w0:  # no gap between the segments: the mask lands whole
                out[..., b, :n, :n] = m
                continue
            spans = ((slice(0, k), slice(0, k)), (slice(self.w0, self.w0 + n - k), slice(k, n)))
            for grid_rows, rows in spans:  # (grid span, mask span) of each segment
                for grid_cols, cols in spans:
                    out[..., b, grid_rows, grid_cols] = m[..., rows, cols]
        return out

    def mean_matrix(self, part: int | None = None) -> np.ndarray:
        """[B, N] matrix whose product with the layer rows is each sequence's
        mean over all its rows, or over the rows of part ``part`` alone. Part
        k's rows are one run, since rows are stored part-major."""
        counts = self.lengths if part is None else self.counts[part]
        start = 0 if part is None else int(self.counts[:part].sum())
        rows = np.arange(start, start + int(counts.sum()))
        sample = self.sample[rows]
        p = np.zeros((self.batch, self.n_rows))
        p[sample, rows if self.groups == 1 else self.index[rows]] = 1.0 / counts[sample]
        return p


# ---------------------------------------------------------------------------
# encoder layer: one tape node
# ---------------------------------------------------------------------------


def _layer_blocks(d: int, f: int) -> list[tuple[str, tuple[int, ...], str]]:
    """One layer's blocks at width ``d`` and FFN width ``f``, as ``(field of
    LayerParams, shape, init)`` in draw order."""
    return [("wq", (d, d), "linear"),
            ("wk", (d, d), "linear"),
            ("wv", (d, d), "linear"),
            ("wo", (d, d), "linear"),
            ("ffn_w1", (d, f), "linear"),
            ("ffn_b1", (f,), "zeros"),
            ("ffn_w2", (f, d), "linear"),
            ("ffn_b2", (d,), "zeros"),
            ("ln1_gain", (d,), "ones"),
            ("ln1_bias", (d,), "zeros"),
            ("ln2_gain", (d,), "ones"),
            ("ln2_bias", (d,), "zeros")]


# A layer's blocks in draw order, which is also the order of its tape node's inputs.
LayerParams = NamedTuple("LayerParams",
                         [(field, ad.Tensor) for field, _, _ in _layer_blocks(0, 0)])


WHOLE_GRID = ((slice(None), slice(None)),)  # one block: every grid row over every column


def _assemble(shape, spans, parts):
    """Each [B, h, len(span), d_k] part added into its span of grid positions of a
    zero [B, h, W, d_k] grid; a single part spanning the whole grid is the grid."""
    if len(parts) == 1 and spans[0] == slice(None):
        return parts[0]
    out = np.zeros(shape)
    for span, part in zip(spans, parts):
        out[:, :, span] += part
    return out


def encoder_layer(x: ad.Tensor, g: np.ndarray, weights: LayerParams,
                  inputs: Sequence[ad.Tensor], cfg: EncoderConfig, layout: Layout,
                  blocks=WHOLE_GRID) -> ad.Tensor:
    """Post-norm residual layer: attention sublayer then feed-forward sublayer.

    ``x`` packs the layer rows of ``layout.batch`` sequences and ``g`` holds
    their padded [B, n_max, n_max] masks (one sequence of n rows: ``g[None]``
    with ``Layout([n])``). ``blocks`` lists the (row slice, column slice)
    blocks of the padded grid that attention scores, with disjoint row
    slices; grid rows outside every block get zero context, exactly as fully
    masked rows do. The default scores the whole grid as one block.

    ``weights`` holds the layer of S stacks for a layout of S groups as [S,
    ...] stacks, vectors as [S, 1, n]; group s's rows multiply stack s's
    weights, and each product is one batched matmul over them. ``inputs``
    lists the blocks that hold those values, stack by stack in
    ``LayerParams`` order. Head projections live in fused [d_model, d_model]
    matrices whose column blocks are the per-head maps; every head sees its
    sequence's mask. The whole layer is one tape node whose inputs are ``x``
    and ``inputs``; their gradients are views of the stacked ones. Its
    backward recomputes the feed-forward hidden activations instead of
    keeping them.
    """
    w, xd = weights, x.data
    if g.shape != (layout.batch, layout.n_max, layout.n_max):
        raise ValueError(f"encoder_layer: mask shape {g.shape} does not match the layout")
    h, d, n_groups = cfg.num_heads, xd.shape[1], len(w.wq)
    bsz, n_max, d_k = layout.batch, layout.n_max, d // h
    rows, cols = [r for r, _ in blocks], [c for _, c in blocks]
    x3 = xd.reshape(n_groups, -1, d)  # group s's rows: the s-th 1/S of them

    def split(a):  # [S, R, d] layer rows -> [B, h, n_max, d_k]
        return layout.pad(a.reshape(-1, d)).reshape(bsz, n_max, h, d_k).transpose(0, 2, 1, 3)

    def join(a):  # [B, h, n_max, d_k] -> [S, R, d] layer rows
        return layout.unpad(a.transpose(0, 2, 1, 3).reshape(bsz * n_max, d)).reshape(
            n_groups, -1, d)

    def t(a):  # each group's matrix transposed
        return a.swapaxes(-1, -2)

    q, k, v = split(x3 @ w.wq), split(x3 @ w.wk), split(x3 @ w.wv)
    parts, caches = [], []
    for r, c in blocks:
        out_b, cache = _ga_forward(q[:, :, r], k[:, :, c], v[:, :, c], g[:, None, r, c])
        parts.append(out_b)
        caches.append(cache)
    ctx = join(_assemble(q.shape, rows, parts))
    del q, k, v, parts
    # The row-wise steps update fresh [S, R, d] products in place; a sum is
    # commutative, so `a += x` is bitwise `x + a`.
    r1 = ctx @ w.wo
    r1 += x3
    y, xhat1, inv1 = ad._ln_forward(r1, w.ln1_gain, w.ln1_bias, EPS_NORM)
    hidden = y @ w.ffn_w1
    hidden += w.ffn_b1
    r2 = np.maximum(hidden, 0.0, out=hidden) @ w.ffn_w2
    r2 += w.ffn_b2
    r2 += y
    z, xhat2, inv2 = ad._ln_forward(r2, w.ln2_gain, w.ln2_bias, EPS_NORM)
    del r1, y, hidden, r2
    out = ad.Tensor(z.reshape(-1, d))

    def backward(gz):
        gz = gz.reshape(n_groups, -1, d)
        g_r2 = ad._ln_backward(gz, w.ln2_gain, xhat2, inv2)
        y = xhat1 * w.ln1_gain
        y += w.ln1_bias
        hidden = y @ w.ffn_w1  # the forward's hidden, recomputed bitwise
        hidden += w.ffn_b1
        np.maximum(hidden, 0.0, out=hidden)
        g_h = g_r2 @ t(w.ffn_w2)
        g_h *= hidden > 0.0
        g_y = g_h @ t(w.ffn_w1)
        g_y += g_r2
        g_r1 = ad._ln_backward(g_y, w.ln1_gain, xhat1, inv1)
        g_att = split(g_r1 @ t(w.wo))
        d_qkv = [_ga_backward(g_att[:, :, r], cache) for r, cache in zip(rows, caches)]
        d_q, d_k_, d_v = (join(_assemble(g_att.shape, spans, [a[i] for a in d_qkv]))
                          for i, spans in enumerate((rows, cols, cols)))
        g_x = d_q @ t(w.wq)
        g_x += d_k_ @ t(w.wk)
        g_x += d_v @ t(w.wv)
        g_x += g_r1
        stacked = (t(x3) @ d_q, t(x3) @ d_k_, t(x3) @ d_v, t(ctx) @ g_r1,
                   t(y) @ g_h, g_h.sum(axis=1), t(hidden) @ g_r2, g_r2.sum(axis=1),
                   (g_y * xhat1).sum(axis=1), g_y.sum(axis=1),
                   (gz * xhat2).sum(axis=1), gz.sum(axis=1))
        return (g_x.reshape(-1, d), *(a[s] for s in range(n_groups) for a in stacked))

    return ad.record(out, (x, *inputs), backward)


def _segment_plan(layout: Layout, masks) -> tuple[np.ndarray, list]:
    """The bool [L, B, W, W] masks of a stack call on ``layout``'s grid, from
    each sequence's [L, n_b, n_b] ``masks``, and per layer the blocks to score
    (see ``_blocks``): with more than one group the whole grid, whose few
    cells cost less to score than the plan would save."""
    g = layout.pad_masks(masks)
    if layout.groups > 1:
        return g, [WHOLE_GRID] * len(g)
    w0 = layout.w0
    if w0 < layout.n_max:
        # opened[l, b, s, t]: in layer l some row of segment s of sequence b
        # may attend to some column of its segment t
        opened = np.logical_or.reduceat(np.logical_or.reduceat(g, [0, w0], axis=-1),
                                        [0, w0], axis=-2)
        flags = np.logical_or.reduce(opened, axis=1).tolist()
    else:  # no segment-1 rows in the batch: one block, open or not
        flags = [((o, o), (o, o)) for o in g.any(axis=(1, 2, 3)).tolist()]
    return g, [_blocks(o00, o01, o10, o11, w0) for (o00, o01), (o10, o11) in flags]


@functools.lru_cache(maxsize=None)
def _blocks(o00: bool, o01: bool, o10: bool, o11: bool, w0: int) -> tuple:
    """The grid blocks a layer scores when segment s rows may reach segment t
    columns where ``o{s}{t}``: the whole grid when all four are open, else
    each row segment over its own segment, the other one, or both."""
    if o00 and o01 and o10 and o11:
        return WHOLE_GRID
    segments = (slice(0, w0), slice(w0, None))
    blocks = []
    for rows, to0, to1 in ((segments[0], o00, o01), (segments[1], o10, o11)):
        if to0 or to1:
            blocks.append((rows, slice(None) if to0 and to1 else segments[to1]))
    return tuple(blocks)


class EncoderStack:
    """S same-shaped stacks of layers plus their positional tables, run as one
    call, as PyTorch's ``torch.func.stack_module_state`` runs same-shaped
    modules under ``vmap``; S = 1 is a single stack. Stack s holds the blocks
    that ``blocks(prefixes[s], cfg)`` declares, and the S stacks must be one
    run of ``params``, stack after stack, so that each layer's ``weights``
    are [S, ...] views of ``params.flat`` (vectors as [S, 1, n]) and ``pos``
    the [S, max_len, d_model] view of the tables: every update of the
    parameters shows in them without a copy. The tape nodes take the blocks
    themselves: ``inputs[i]`` lists layer i's, stack by stack in
    ``LayerParams`` order, and ``tables`` the positional tables. Sequence
    s·B + b of a call's ``Layout`` of S groups is stack s's sample b."""

    def __init__(self, params: ad.Parameters, prefixes: Sequence[str], cfg: EncoderConfig):
        if isinstance(prefixes, str) or not prefixes:
            raise ValueError(f"an encoder stack needs a list of prefixes, got {prefixes!r}")
        self.cfg, n_stacks = cfg, len(prefixes)
        flat = params.span([name for prefix in prefixes
                            for name, _, _ in self.blocks(prefix, cfg)]).reshape(n_stacks, -1)
        self.weights, self.inputs, at = [], [], 0
        for i in range(cfg.num_layers):
            views = []
            for _, shape, _ in _layer_blocks(cfg.d_model, cfg.d_ff):
                size = math.prod(shape)
                views.append(flat[:, at:at + size].reshape(
                    (n_stacks,) + (shape if len(shape) > 1 else (1, size))))
                at += size
            self.weights.append(LayerParams(*views))
            self.inputs.append(tuple(params[f"{prefix}.layer{i}.{field}"]
                                     for prefix in prefixes for field in LayerParams._fields))
        self.pos = flat[:, at:].reshape(n_stacks, cfg.max_len, cfg.d_model)
        self.tables = tuple(params[f"{prefix}.pos"] for prefix in prefixes)

    @staticmethod
    def blocks(prefix: str, cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
        """The ``(name, shape, init)`` declarations of a stack's blocks, in draw order."""
        layer = _layer_blocks(cfg.d_model, cfg.d_ff)
        return [(f"{prefix}.layer{i}.{field}", shape, init)
                for i in range(cfg.num_layers) for field, shape, init in layer] + [
            (f"{prefix}.pos", (cfg.max_len, cfg.d_model), "embed")]

    def _input_rows(self, parts: Sequence[ad.Tensor], layout: Layout) -> ad.Tensor:
        """The rows of ``parts`` stacked in order plus each row's positional
        row from its own stack's table, on ``layout``'s layer rows, as one tape
        node; a 1-D part gives one row per sequence of one group."""
        n = int(layout.pos.max()) + 1 if len(layout.pos) else 0
        if n > self.cfg.max_len:
            raise ValueError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        n_groups, max_len = len(self.tables), self.cfg.max_len
        bsz = layout.batch // n_groups
        group = layout.sample // bsz
        rows = [t.data if t.data.ndim == 2 else t.data[None].repeat(bsz, axis=0) for t in parts]
        out = ad.Tensor(layout.rows(np.concatenate(rows) + self.pos[group, layout.pos]))
        ends = list(itertools.accumulate(map(len, rows)))

        def backward(g):
            if layout.groups > 1:  # the packed rows' gradients
                g = g[layout.index]
            grads = [g[a:b] if t.data.ndim == 2 else
                     ad._scatter_rows(1, np.zeros(bsz, np.intp), g[a:b])[0]
                     for t, a, b in zip(parts, [0] + ends, ends)]
            g_pos = ad._scatter_rows(n_groups * max_len, group * max_len + layout.pos, g)
            return (*grads, *g_pos.reshape(n_groups, max_len, -1))

        return ad.record(out, (*parts, *self.tables), backward)

    def run(self, parts: Sequence[ad.Tensor], layout: Layout,
            masks: Sequence[np.ndarray]) -> ad.Tensor:
        """The stacks over ``layout``'s sequences, whose packed rows are the rows
        of ``parts`` in order (a 1-D part, a SEP vector, gives one row per
        sequence of one group): their positions, then layer i with mask i of
        each sequence's bool [num_layers, n_b, n_b] ``masks[b]``, every layer on
        ``layout``'s segment-aligned grid and the blocks ``_segment_plan``
        finds for it (the whole grid for more than one stack). Returns the
        layer rows of the last layer."""
        n_layers, n_groups = self.cfg.num_layers, len(self.tables)
        if layout.groups != n_groups:
            raise ValueError(f"a layout of {layout.groups} groups for {n_groups} stacks")
        n_rows = sum(t.data.shape[0] if t.data.ndim == 2 else layout.batch // n_groups
                     for t in parts)
        if len(masks) != layout.batch or n_rows != len(layout.pos):
            raise ValueError(f"{len(masks)} mask sets and {n_rows} rows do not match "
                             f"{layout.batch} sequences of {len(layout.pos)} rows")
        for b, (n, m) in enumerate(zip(layout.lengths.tolist(), masks)):
            if m.shape != (n_layers, n, n):
                raise ValueError(f"sequence {b} needs {n_layers} masks of {n} x {n}, "
                                 f"got shape {m.shape}")
        x = self._input_rows(parts, layout)
        g, blocks = _segment_plan(layout, masks)
        for mask, layer_blocks, weights, inputs in zip(g, blocks, self.weights, self.inputs):
            x = encoder_layer(x, mask, weights, inputs, self.cfg, layout, layer_blocks)
        return x


def sentence_pretransform(word_tokens: ad.Tensor, lengths: Sequence[int],
                          masks: Sequence[np.ndarray], stack: EncoderStack) -> ad.Tensor:
    """Context-aware question features from a dependency-masked encoder.

    ``word_tokens`` packs the question words of B samples, sample after
    sample, ``lengths[b]`` counts sample b's words and ``masks[b]`` is its
    dependency adjacency for every layer (see ``model.build_plans``). A
    separate, independently parameterized stack processes the words as one
    segment; downstream alignment then treats the output as fully
    connectable.
    """
    return stack.run([word_tokens], Layout(lengths), masks)
