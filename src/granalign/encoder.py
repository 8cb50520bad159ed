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
A block with no closed cell skips the mask pass and the two dead-row guards,
so its forward makes 6. The row max is the reduction over the last axis on
a small block and, from COLUMN_MAX_ROWS rows per column, a running maximum
over the columns, one call per column; a max is exact, so both give the
same bits.

A batch of sequences runs as one packed [N, d] matrix of all their rows:
every row-wise step works on it unchanged, and only the attention core pads
to a [B, heads, W, W] grid, where padding is nothing but zero mask entries.
Each encoder layer is a single tape node with a hand-written backward.

``EncoderStack.run`` runs all four stacks, the three alignment streams and
the sentence pre-transform (``model.Model.run_stream`` packs a stream's
[image tokens; SEP; question tokens] and takes its pooling matrix from
``Layout.mean_matrix``). A sequence splits into segment 0 (a stream's image
tokens with SEP, or the whole sentence) and segment 1 (a stream's question
tokens), and a lead graph opens only some of the four segment blocks per
layer. The call's one ``Layout`` puts every row on a grid with
segment 0 in columns [0, w0) and segment 1 in [w0, W), one description of
packing and segments as in FlashAttention-2's varlen interface (arXiv
2307.08691); ``run`` pads the masks onto it once and finds which blocks
each layer opens anywhere in the batch. Every layer runs on that grid: a
layer that opens all four scores it as one block, and in any other layer
each row segment scores only the columns of the segments it reaches (its
own, the other, or both); a row segment that reaches none is skipped and
gets zero context, as a fully masked row does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .ingest import check_bound, check_size


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
        layer = sum(math.prod(shape) for _, shape, _ in _layer_blocks(self.d_model, self.d_ff))
        check_size("an encoder stack's parameter count (num_layers, d_model, d_ff, max_len)",
                   self.num_layers * layer + self.max_len * self.d_model)

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
# are q k^T, the mask (none on an open block), the row max, the shift, exp,
# the row sum and e V; the backward's are e^T g, g v^T, the row vecdot, the
# subtraction, the product with e and the two products that give d_q and d_k.
# ---------------------------------------------------------------------------


_LOWEST = np.finfo(np.float64).min
EPS_NORM = 1e-5  # the variance floor of every layer norm
# The fast paths' size rules, in one place: from COLUMN_MAX_ROWS rows per
# column a block's row max runs over its columns, 2-20x cheaper there than the
# reduction over a short last axis, which wins on smaller blocks (B = 1); a
# layout of one sequence is built in plain Python (Layout).
COLUMN_MAX_ROWS = 32


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
    """``g`` broadcasts against the scores; None marks a block with no closed
    cell, where the three mask steps are the identity and are skipped."""
    d_k = q.shape[-1]
    scores = np.matmul(q / math.sqrt(d_k), k.swapaxes(-1, -2))
    # Stabilize over the unmasked support only, so masked tokens cannot
    # perturb even the last bit of the surviving rows. Mask-then-renormalize
    # equals a softmax restricted to the support; the common shift cancels.
    # Masked cells become -inf by a broadcast minimum (for any score but
    # NaN), which runs 2.7x faster than copyto with where= on the
    # [16, 8, 55, 55] wide-grid scores.
    if g is not None:
        np.minimum(scores, np.where(g, np.inf, -np.inf), out=scores)
    row_max = _row_max(scores)
    if g is not None:
        np.maximum(row_max, _LOWEST, out=row_max)  # a fully masked row stays -inf, not NaN
    scores -= row_max
    e = np.exp(scores, out=scores)  # exp(-inf) = 0: masked cells are exactly zero
    z = e.sum(axis=-1, keepdims=True)  # >= 1 on a live row: its max cell is exp(0)
    if g is not None:
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
    ``index[r]``; B must be at least 1."""

    def __init__(self, *parts, split: int | None = None):
        split = len(parts) if split is None else split
        self.counts = counts = np.array(parts, dtype=np.intp)  # [P, B]
        if counts.shape[1] == 1:  # one sequence: row r is position r and cell r
            sizes = [int(p[0]) for p in parts]
            n0, n = sum(sizes[:split]), sum(sizes)
            self.lengths, self.n0 = np.array([n]), np.array([n0])
            self.batch, self.w0, self.n_max, self.dense = 1, n0, n, True
            self.sample, self.pos = np.zeros(n, dtype=np.intp), np.arange(n)
            self.index = self.pos
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
        # every grid cell holds a row, in row order: pad and unpad are reshapes
        self.dense = len(rows) == self.batch * self.n_max and bool((self.index == rows).all())

    def pad(self, a: np.ndarray) -> np.ndarray:
        """[N, ...] rows into a zero-padded [B, n_max, ...] array."""
        shape = (self.batch, self.n_max) + a.shape[1:]
        if self.dense:
            return a.reshape(shape)
        out = np.zeros((self.batch * self.n_max,) + a.shape[1:])
        out[self.index] = a
        return out.reshape(shape)

    def unpad(self, a: np.ndarray) -> np.ndarray:
        """[B * n_max, ...] padded rows back to the packed [N, ...] rows."""
        return a if self.dense else a[self.index]

    def pad_masks(self, masks) -> np.ndarray:
        """Per-sequence [..., n_b, n_b] masks into one bool [..., B, n_max, n_max],
        each entry at the grid columns of its two positions."""
        if self.batch == 1:  # the grid is the sequence's own
            return np.asarray(masks[0], dtype=bool)[..., None, :, :]
        lead = np.shape(masks[0])[:-2]
        out = np.zeros(lead + (self.batch, self.n_max, self.n_max), dtype=bool)
        for b, (k, n, m) in enumerate(zip(self.n0.tolist(), self.lengths.tolist(), masks)):
            spans = ((slice(0, k), slice(0, k)), (slice(self.w0, self.w0 + n - k), slice(k, n)))
            for grid_rows, rows in spans:  # (grid span, mask span) of each segment
                for grid_cols, cols in spans:
                    out[..., b, grid_rows, grid_cols] = m[..., rows, cols]
        return out

    def mean_matrix(self, part: int | None = None) -> np.ndarray:
        """[B, N] matrix whose product with the rows is each sequence's mean over
        all its rows, or over the rows of part ``part`` alone. Part k's rows are
        one run, since rows are stored part-major."""
        counts = self.lengths if part is None else self.counts[part]
        start = 0 if part is None else int(self.counts[:part].sum())
        rows = np.arange(start, start + int(counts.sum()))
        sample = self.sample[rows]
        p = np.zeros((self.batch, len(self.sample)))
        p[sample, rows] = 1.0 / counts[sample]
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


def encoder_layer(x: ad.Tensor, g: np.ndarray, layer: LayerParams, cfg: EncoderConfig,
                  layout: Layout, blocks=WHOLE_GRID) -> ad.Tensor:
    """Post-norm residual layer: attention sublayer then feed-forward sublayer.

    ``x`` packs the rows of ``layout.batch`` sequences and ``g`` holds their
    padded [B, n_max, n_max] masks (one sequence of n rows: ``g[None]`` with
    ``Layout([n])``). ``blocks`` lists the (row slice, column slice) blocks
    of the padded grid that attention scores, with disjoint row slices; grid
    rows outside every block get zero context, exactly as fully masked rows
    do. The default scores the whole grid as one block.

    Head projections live in fused [d_model, d_model] matrices whose column
    blocks are the per-head maps; every head sees its sequence's mask. The
    whole layer is one tape node. Its backward recomputes the feed-forward
    hidden activations instead of keeping them.
    """
    p = layer
    xd = x.data
    if g.shape != (layout.batch, layout.n_max, layout.n_max):
        raise ValueError(f"encoder_layer: mask shape {g.shape} does not match the layout")
    h, d = cfg.num_heads, xd.shape[1]
    bsz, n_max, d_k = layout.batch, layout.n_max, d // h
    rows, cols = [r for r, _ in blocks], [c for _, c in blocks]

    def split(a):  # packed [N, d] -> [B, h, n_max, d_k]
        return layout.pad(a).reshape(bsz, n_max, h, d_k).transpose(0, 2, 1, 3)

    def join(a):  # [B, h, n_max, d_k] -> packed [N, d]
        return layout.unpad(a.transpose(0, 2, 1, 3).reshape(bsz * n_max, d))

    q, k, v = split(xd @ p.wq.data), split(xd @ p.wk.data), split(xd @ p.wv.data)
    parts, caches = [], []
    for r, c in blocks:
        g_b = g[:, None, r, c]
        out_b, cache = _ga_forward(q[:, :, r], k[:, :, c], v[:, :, c],
                                   None if g_b.all() else g_b)
        parts.append(out_b)
        caches.append(cache)
    ctx = join(_assemble(q.shape, rows, parts))
    del q, k, v, parts
    # The row-wise steps update fresh [N, d] products in place; a sum is
    # commutative, so `a += x` is bitwise `x + a`.
    r1 = ctx @ p.wo.data
    r1 += xd
    y, xhat1, inv1 = ad._ln_forward(r1, p.ln1_gain.data, p.ln1_bias.data, EPS_NORM)
    hidden = y @ p.ffn_w1.data
    hidden += p.ffn_b1.data
    r2 = np.maximum(hidden, 0.0, out=hidden) @ p.ffn_w2.data
    r2 += p.ffn_b2.data
    r2 += y
    z, xhat2, inv2 = ad._ln_forward(r2, p.ln2_gain.data, p.ln2_bias.data, EPS_NORM)
    del r1, y, hidden, r2
    out = ad.Tensor(z)

    def backward(gz):
        g_r2 = ad._ln_backward(gz, p.ln2_gain.data, xhat2, inv2)
        y = xhat1 * p.ln1_gain.data
        y += p.ln1_bias.data
        hidden = y @ p.ffn_w1.data  # the forward's hidden, recomputed bitwise
        hidden += p.ffn_b1.data
        np.maximum(hidden, 0.0, out=hidden)
        g_h = g_r2 @ p.ffn_w2.data.T
        g_h *= hidden > 0.0
        g_y = g_h @ p.ffn_w1.data.T
        g_y += g_r2
        g_r1 = ad._ln_backward(g_y, p.ln1_gain.data, xhat1, inv1)
        g_att = split(g_r1 @ p.wo.data.T)
        d_qkv = [_ga_backward(g_att[:, :, r], cache) for r, cache in zip(rows, caches)]
        d_q, d_k_, d_v = (join(_assemble(g_att.shape, spans, [a[i] for a in d_qkv]))
                          for i, spans in enumerate((rows, cols, cols)))
        g_x = d_q @ p.wq.data.T
        g_x += d_k_ @ p.wk.data.T
        g_x += d_v @ p.wv.data.T
        g_x += g_r1
        return (g_x, xd.T @ d_q, xd.T @ d_k_, xd.T @ d_v, ctx.T @ g_r1,
                y.T @ g_h, g_h.sum(axis=0), hidden.T @ g_r2, g_r2.sum(axis=0),
                (g_y * xhat1).sum(axis=0), g_y.sum(axis=0),
                (gz * xhat2).sum(axis=0), gz.sum(axis=0))

    return ad.record(out, (x, *p), backward)


def _segment_plan(layout: Layout, masks) -> tuple[np.ndarray, list]:
    """The bool [L, B, W, W] masks of a stack call on ``layout``'s grid, from
    each sequence's [L, n_b, n_b] ``masks``, and per layer the blocks to score
    (see ``_blocks``)."""
    g = layout.pad_masks(masks)
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
    """A stack of identically shaped layers plus its positional table."""

    def __init__(self, cfg: EncoderConfig, layers: list[LayerParams], pos_table: ad.Tensor):
        self.cfg = cfg
        self.layers = layers
        self.pos_table = pos_table

    @staticmethod
    def blocks(prefix: str, cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
        """The ``(name, shape, init)`` declarations of a stack's blocks, in draw order."""
        layer = _layer_blocks(cfg.d_model, cfg.d_ff)
        return [(f"{prefix}.layer{i}.{field}", shape, init)
                for i in range(cfg.num_layers) for field, shape, init in layer] + [
            (f"{prefix}.pos", (cfg.max_len, cfg.d_model), "embed")]

    @classmethod
    def of(cls, params: ad.Parameters, prefix: str, cfg: EncoderConfig) -> "EncoderStack":
        """The stack over the blocks of ``params`` that ``blocks(prefix, cfg)`` declares."""
        layers = [LayerParams(*(params[f"{prefix}.layer{i}.{f}"] for f in LayerParams._fields))
                  for i in range(cfg.num_layers)]
        return cls(cfg, layers, params[f"{prefix}.pos"])

    def _input_rows(self, parts: Sequence[ad.Tensor], layout: Layout) -> ad.Tensor:
        """The rows of ``parts`` stacked in order plus each row's positional
        row, as one tape node; a 1-D part gives one row per sequence."""
        n = int(layout.pos.max()) + 1 if len(layout.pos) else 0
        if n > self.cfg.max_len:
            raise ValueError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        bsz = layout.batch
        rows = [t.data if t.data.ndim == 2 else np.broadcast_to(t.data, (bsz,) + t.data.shape)
                for t in parts]
        out = ad.Tensor(np.concatenate(rows) + self.pos_table.data[layout.pos])
        ends = np.cumsum([len(r) for r in rows]).tolist()

        def backward(g):
            grads = [g[a:b] if t.data.ndim == 2 else
                     ad._scatter_rows(1, np.zeros(bsz, np.intp), g[a:b])[0]
                     for t, a, b in zip(parts, [0] + ends, ends)]
            return (*grads, ad._scatter_rows(len(self.pos_table.data), layout.pos, g))

        return ad.record(out, (*parts, self.pos_table), backward)

    def run(self, parts: Sequence[ad.Tensor], layout: Layout,
            masks: Sequence[np.ndarray]) -> ad.Tensor:
        """The stack over ``layout``'s sequences, whose packed rows are the rows
        of ``parts`` in order (a 1-D part, the SEP vector, gives one row per
        sequence): their positions, then layer i with mask i of each
        sequence's bool [num_layers, n_b, n_b] ``masks[b]``, every layer on
        ``layout``'s segment-aligned grid and the blocks ``_segment_plan``
        finds for it."""
        n_layers = len(self.layers)
        n_rows = sum(t.data.shape[0] if t.data.ndim == 2 else layout.batch for t in parts)
        if len(masks) != layout.batch or n_rows != len(layout.pos):
            raise ValueError(f"{len(masks)} mask sets and {n_rows} rows do not match "
                             f"{layout.batch} sequences of {len(layout.pos)} rows")
        for b, (n, m) in enumerate(zip(layout.lengths.tolist(), masks)):
            if m.shape != (n_layers, n, n):
                raise ValueError(f"sequence {b} needs {n_layers} masks of {n} x {n}, "
                                 f"got shape {m.shape}")
        x = self._input_rows(parts, layout)
        g, blocks = _segment_plan(layout, masks)
        for layer, mask, layer_blocks in zip(self.layers, g, blocks):
            x = encoder_layer(x, mask, layer, self.cfg, layout, layer_blocks)
        return x


def sentence_pretransform(word_tokens: ad.Tensor, lengths: Sequence[int],
                          masks: Sequence[np.ndarray], stack: EncoderStack) -> ad.Tensor:
    """Context-aware question features from a dependency-masked encoder.

    ``word_tokens`` packs the question words of B samples, sample after
    sample, ``lengths[b]`` counts sample b's words and ``masks[b]`` is its
    dependency adjacency for every layer (see ``model.build_streams``). A
    separate, independently parameterized stack processes the words as one
    segment; downstream alignment then treats the output as fully
    connectable.
    """
    return stack.run([word_tokens], Layout(lengths), masks)
