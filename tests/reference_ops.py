"""The op-by-op reference of the fused tape nodes.

Before the model recorded its input side, fusion head and loss as fused tape
nodes, it ran them as chains of ten generic differentiable operations, one
tape node each. This module keeps those operations and that chain:
``reference_forward_batch`` and ``reference_loss`` compute what
``Model.forward_batch`` and ``Model.loss`` compute, op by op, and the tests
require the fused nodes to match them bitwise. The encoder layers themselves
run fused in both (their reference is ``conftest.reference_encoder_layer``),
with the stream stacks grouped into calls as ``Model.encode`` groups them.
It also keeps the attention core as it was before the softmax division was
deferred, ``normalized_forward`` and ``normalized_backward``, which
``encoder._ga_forward`` and ``encoder._ga_backward`` must match to 1e-12.
And it keeps the first-occurrence loops that concept merging, node reduction
and the world's vocabularies were written with before they shared one
collapse (``ingest._collapse``): ``merge_duplicate_concept_tokens``,
``node_reduction``, ``word_vocab`` and ``answer_vocab``, whose results the
tests require the package's to equal exactly. Last, ``ablation_rows`` keeps
the ablation loop as it ran before it shared the train command's model
builder and split reader: per variant a fresh ``TrainConfig``, a ``Model``,
``Trainer.fit`` and ``evaluate``, whose rows ``training.ablation_table`` must
equal float for float. And ``checkpoint_header`` keeps the checkpoint header
as it was written field by field before it became the ``training.Header``
record, whose JSON bytes ``save_checkpoint`` must equal. ``incremental_draw``
keeps how a model's blocks were drawn before ``autodiff.Parameters``
allocated one vector and drew each block into its view: an array per block,
in declaration order, then one concatenation in the arena's placement order,
which the arena's bytes must equal.
"""

from __future__ import annotations

from typing import Sequence

import dataclasses
import math
import os

import numpy as np

import granalign.autodiff as ad
from granalign import encoder
from granalign.data import load_manifest
from granalign.encoder import EPS_NORM
from granalign.ingest import LevelData
from granalign.model import STREAMS, LogitsBundle, Model, ModelConfig
from granalign.training import ABLATION_VARIANTS, Trainer, TrainConfig, evaluate

# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Product of 2-D matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: operands must be 2-D, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {a.data.shape} x {b.data.shape}")
    out = ad.Tensor(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return ad.record(out, (a, b), backward)


def add(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a."""
    if a.data.shape == b.data.shape:
        out = ad.Tensor(a.data + b.data)

        def backward(g):
            return g, g

        return ad.record(out, (a, b), backward)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        out = ad.Tensor(a.data + b.data)

        def backward(g):
            return g, g.sum(axis=0)

        return ad.record(out, (a, b), backward)
    raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    c = float(c)
    out = ad.Tensor(a.data * c)

    def backward(g):
        return (g * c,)

    return ad.record(out, (a,), backward)


def relu(a: ad.Tensor) -> ad.Tensor:
    out = ad.Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0.0

    def backward(g):
        return (g * pos,)

    return ad.record(out, (a,), backward)


def layer_norm_rows(a: ad.Tensor, gain: ad.Tensor, bias: ad.Tensor, eps: float) -> ad.Tensor:
    """Per-row layer normalization of a 2-D [m, d] tensor with biased variance;
    ``gain`` and ``bias`` are 1-D [d]."""
    if a.data.ndim != 2:
        raise ValueError(f"layer_norm_rows: expected 2-D input, got {a.data.shape}")
    d = a.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm_rows: gain/bias shape must match the feature dim")
    y, xhat, inv_std = ad._ln_forward(a.data, gain.data, bias.data, eps)
    out = ad.Tensor(y)

    def backward(g):
        return (ad._ln_backward(g, gain.data, xhat, inv_std),
                (g * xhat).sum(axis=0), g.sum(axis=0))

    return ad.record(out, (a, gain, bias), backward)


def cross_entropy_logits(logits: ad.Tensor, answer) -> ad.Tensor:
    """Negative log softmax probability of the answer class.

    A 1-D logit vector and an int give a scalar; [B, c] logits and B answers
    give the B per-row losses.
    """
    z = logits.data
    if z.ndim not in (1, 2):
        raise ValueError(f"cross_entropy_logits: expected 1-D or 2-D logits, got {z.shape}")
    n = z.shape[-1]
    rows = z.reshape(-1, n)
    idx = np.asarray(answer, dtype=np.intp).reshape(-1)
    if idx.shape != (rows.shape[0],) or (z.ndim == 1) != (np.ndim(answer) == 0):
        raise ValueError(f"cross_entropy_logits: {np.shape(answer)} answers for logits {z.shape}")
    bad = (idx < 0) | (idx >= n)
    if bad.any():
        raise ValueError(f"cross_entropy_logits: answer {idx[bad][0]} out of range [0, {n})")
    r = np.arange(rows.shape[0])
    m = rows.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - rows[r, idx]
    out = ad.Tensor(losses.reshape(z.shape[:-1]))
    p = np.exp(rows - lse)

    def backward(g):
        g = np.reshape(g, (-1, 1))
        dz = p * g
        dz[r, idx] -= g[:, 0]
        return (dz.reshape(z.shape),)

    return ad.record(out, (logits,), backward)


def concat_rows(tensors: Sequence[ad.Tensor], axis: int = 0) -> ad.Tensor:
    """Concatenate 2-D tensors along the rows (equal column counts), or with
    ``axis=1`` along the columns (equal row counts)."""
    if not tensors:
        raise ValueError("concat_rows: need at least one tensor")
    if axis not in (0, 1) or any(t.data.ndim != 2 for t in tensors):
        raise ValueError(f"concat_rows: cannot join along axis {axis}; tensors must be 2-D")
    other = {t.data.shape[1 - axis] for t in tensors}
    if len(other) != 1:
        what = "column" if axis == 0 else "row"
        raise ValueError(f"concat_rows: {what} counts disagree: {sorted(other)}")
    out = ad.Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    ends = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, ends, axis=axis))

    return ad.record(out, tuple(tensors), backward)


def embedding_lookup(table: ad.Tensor, ids: Sequence[int]) -> ad.Tensor:
    """Gather rows of ``table`` by integer id; gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("embedding_lookup: ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError("embedding_lookup: id out of range")
    out = ad.Tensor(table.data[idx])

    def backward(g):
        dt = np.zeros(table.data.shape)
        np.add.at(dt, idx, g)
        return (dt,)

    return ad.record(out, (table,), backward)


def reshape(a: ad.Tensor, shape: Sequence[int]) -> ad.Tensor:
    shape = tuple(int(s) for s in shape)
    out = ad.Tensor(a.data.reshape(shape))

    def backward(g):
        return (g.reshape(a.data.shape),)

    return ad.record(out, (a,), backward)


def sum_all(a: ad.Tensor) -> ad.Tensor:
    out = ad.Tensor(np.asarray(a.data.sum()))

    def backward(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return ad.record(out, (a,), backward)


# ---------------------------------------------------------------------------
# the model chain
# ---------------------------------------------------------------------------


def embed_tokens(labels, vocab, table, w1, b1, w2, b2) -> ad.Tensor:
    rows = embedding_lookup(table, vocab.ids(labels))
    hidden = relu(add(matmul(rows, w1), b1))
    return add(matmul(hidden, w2), b2)


def project_features(features, w, b) -> ad.Tensor:
    return add(matmul(ad.Tensor(features), w), b)


def place_rows(x: ad.Tensor, index: np.ndarray, n_rows: int) -> ad.Tensor:
    """The rows of ``x`` at rows ``index`` of an ``n_rows``-row zero matrix."""
    out = np.zeros((n_rows, x.data.shape[1]))
    out[index] = x.data

    def backward(g):
        return (g[index],)

    return ad.record(ad.Tensor(out), (x,), backward)


def stacked_weights(inputs: Sequence[ad.Tensor]) -> encoder.LayerParams:
    """The [S, ...] weights of one layer of S stacks, vectors as [S, 1, n],
    stacked from copies of its blocks ``inputs``, listed stack by stack in
    ``LayerParams`` order."""
    n = len(encoder.LayerParams._fields)
    layers = [inputs[s:s + n] for s in range(0, len(inputs), n)]
    return encoder.LayerParams(*(np.stack([t.data for t in ts]).reshape(
        (len(ts),) + (ts[0].data.shape if ts[0].data.ndim > 1 else (1, -1)))
        for ts in zip(*layers)))


def stack_run(model, prefixes, x, layout, masks) -> ad.Tensor:
    """``EncoderStack.run`` of the stacks ``prefixes`` of ``model`` on the
    packed rows ``x``: positions added by a lookup in the stacks' tables one
    after another, the rows placed on the layer rows of ``layout`` (its
    grid's cells for more than one stack), then the fused layers, whose
    weights are stacked from copies of the blocks."""
    p, cfg = model.params, model.config
    n = int(layout.pos.max()) + 1 if len(layout.pos) else 0
    if n > cfg.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    group = layout.sample // (layout.batch // len(prefixes))
    tables = concat_rows([p[f"{prefix}.pos"] for prefix in prefixes])
    x = add(x, embedding_lookup(tables, group * cfg.max_len + layout.pos))
    if len(prefixes) > 1:
        x = place_rows(x, layout.index, layout.n_rows)
    g, blocks = encoder._segment_plan(layout, masks)
    for i, (mask, layer_blocks) in enumerate(zip(g, blocks)):
        inputs = [p[f"{prefix}.layer{i}.{field}"] for prefix in prefixes
                  for field in encoder.LayerParams._fields]
        x = encoder.encoder_layer(x, mask, stacked_weights(inputs), inputs, cfg, layout,
                                  layer_blocks)
    return x


def stream_parts(model, tag, preps):
    """One stream's [image rows, SEP rows, question rows] over a batch, and
    each sample's image and question token counts."""
    p, s = model.params, STREAMS[tag]
    imgs = [prep.levels[s.image] for prep in preps]
    qs = [prep.levels[s.question] for prep in preps]

    def mlp(labels, prefix):
        return embed_tokens(labels, model.vocab, p["embed.table"], p[f"{prefix}.w1"],
                            p[f"{prefix}.b1"], p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    if imgs[0].features is not None:
        t_img = project_features(np.concatenate([img.features for img in imgs]),
                                 p[f"{s.image_input}.w"], p[f"{s.image_input}.b"])
    else:
        t_img = mlp([w for img in imgs for w in img.labels], s.image_input)
    t_q = mlp([w for q in qs for w in q.labels], s.question_input)
    n_img, n_q = [img.n_tokens for img in imgs], [q.n_tokens for q in qs]
    if s.question == "sentence":
        t_q = stack_run(model, ["sent.enc"], t_q, encoder.Layout(n_q),
                        [prep.plans["sent"] for prep in preps])
    sep = p[f"{tag}.sep"]
    seps = embedding_lookup(reshape(sep, (1, sep.data.shape[0])), np.zeros(len(preps), np.intp))
    return [t_img, seps, t_q], n_img, n_q


def run_streams(model, preps):
    """Each stream's hidden rows, layout and group index, with the stream
    stacks grouped as ``Model.encode`` groups them: all in one call where
    ``encoder.merges`` allows it, else each alone."""
    tags, bsz = model.config.streams, len(preps)
    inputs = {tag: stream_parts(model, tag, preps) for tag in tags}
    n_max = (max(n for _, n_img, _ in inputs.values() for n in n_img) + 1
             + max(n for *_, n_q in inputs.values() for n in n_q))
    merged = encoder.merges(len(tags) * bsz, n_max)
    out = {}
    for group in [tags] if merged else [(tag,) for tag in tags]:
        parts, n_img, n_q = zip(*(inputs[tag] for tag in group))
        layout = encoder.Layout(sum(n_img, []), [1] * (len(group) * bsz), sum(n_q, []),
                                split=2, groups=len(group))
        hidden = stack_run(model, [f"{tag}.enc" for tag in group],
                           concat_rows([ps[k] for k in range(3) for ps in parts]), layout,
                           [prep.plans[tag] for tag in group for prep in preps])
        out.update({tag: (hidden, layout, s) for s, tag in enumerate(group)})
    return out


def reference_forward_batch(model, preps) -> LogitsBundle:
    """[B, c] logits of ``Model.forward_batch``, op by op."""
    p, cfg, bsz = model.params, model.config, len(preps)
    projected, logits = {}, {}
    for tag, (hidden, layout, s) in run_streams(model, preps).items():
        rows = slice(s * bsz, (s + 1) * bsz)
        if cfg.pooling == "sep":
            sep_rows = int(layout.counts[0].sum()) + np.arange(layout.batch)  # packed
            if layout.groups > 1:
                sep_rows = layout.index[sep_rows]
            pooled = embedding_lookup(hidden, sep_rows[rows])
        else:
            pooled = matmul(ad.Tensor(layout.mean_matrix()[rows]), hidden)
        normed = layer_norm_rows(pooled, p[f"fuse.{tag}.ln_gain"], p[f"fuse.{tag}.ln_bias"],
                                 EPS_NORM)
        projected[tag] = matmul(normed, p[f"fuse.{tag}.w"])
        logits[tag] = add(matmul(projected[tag], p[f"fuse.{tag}.head_w"]),
                          p[f"fuse.{tag}.head_b"])
    h_ga = matmul(concat_rows([projected[tag] for tag in cfg.streams], axis=1), p["fuse.ga.w"])
    f_ga = add(matmul(h_ga, p["fuse.ga.head_w"]), p["fuse.ga.head_b"])
    return LogitsBundle(f_ce=logits.get("ce"), f_rn=logits.get("rn"), f_ss=logits.get("ss"),
                        f_ga=f_ga)


def reference_forward(model, prep) -> LogitsBundle:
    """1-D logits of ``Model.forward``: the one-sample batch, reshaped."""
    bundle = reference_forward_batch(model, [prep])
    return LogitsBundle(*(None if t is None else reshape(t, (model.n_answers,))
                          for t in (bundle.f_ce, bundle.f_rn, bundle.f_ss, bundle.f_ga)))


def reference_loss(bundle: LogitsBundle, answer_index) -> ad.Tensor:
    """``Model.loss``: the sum of every head's cross-entropy, added in head order."""
    terms = [cross_entropy_logits(t, answer_index) for t in bundle.all_logits().values()]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


def reference_batch_gradients(model, preps):
    """Logits, per-sample losses and every block's gradient of one training
    step, op by op: the batch loss is ``scale(sum_all(losses), 1 / B)``."""
    with ad.Tape() as tape:
        bundle = reference_forward_batch(model, preps)
        losses = reference_loss(bundle, [prep.answer_index for prep in preps])
        loss = scale(sum_all(losses), 1.0 / len(preps))
    return bundle, losses.data, dict(zip(model.params.names(),
                                         tape.gradients(loss, model.params.tensors())))


# ---------------------------------------------------------------------------
# normalized attention core: the softmax weights divided by their row sum
# before they multiply V
# ---------------------------------------------------------------------------


def normalized_forward(q, k, v, g):
    """``encoder._ga_forward`` with the weights normalized on the score grid."""
    d_k = q.shape[-1]
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores /= math.sqrt(d_k)
    np.copyto(scores, -np.inf, where=np.logical_not(g))
    row_max = scores.max(axis=-1, keepdims=True)
    np.maximum(row_max, np.finfo(np.float64).min, out=row_max)
    scores -= row_max
    np.exp(scores, out=scores)
    z = scores.sum(axis=-1, keepdims=True)
    scores /= np.where(z > 0.0, z, np.inf)
    return np.matmul(scores, v), (q, k, v, scores, d_k)


def normalized_backward(grad_out, cache):
    """The gradients of ``normalized_forward``'s q, k and v."""
    q, k, v, normed, d_k = cache
    d_v = np.matmul(normed.swapaxes(-1, -2), grad_out)
    d_scores = np.matmul(grad_out, v.swapaxes(-1, -2))
    d_scores -= (d_scores * normed).sum(axis=-1, keepdims=True)
    d_scores *= normed
    d_scores /= math.sqrt(d_k)
    return np.matmul(d_scores, k), np.matmul(d_scores.swapaxes(-1, -2), q), d_v


# ---------------------------------------------------------------------------
# first-occurrence loops: concept merging, node reduction, vocabularies
# ---------------------------------------------------------------------------


def merge_duplicate_concept_tokens(level: LevelData) -> LevelData:
    """Same-label relation and attribute nodes merged onto the first one."""
    first: dict[tuple[str, str], int] = {}
    keep: list[int] = []
    target: dict[int, int] = {}
    for i, (label, kind) in enumerate(zip(level.labels, level.kinds)):
        if kind == "object":
            target[i] = len(keep)
            keep.append(i)
            continue
        key = (kind, label)
        if key in first:
            target[i] = first[key]
        else:
            first[key] = len(keep)
            target[i] = len(keep)
            keep.append(i)
    return LevelData(
        level="concept",
        labels=[level.labels[i] for i in keep],
        kinds=[level.kinds[i] for i in keep],
        pairs=list(dict.fromkeys((target[s], target[d]) for s, d in level.pairs)),
    )


def node_reduction(image_level: LevelData, question_level: LevelData) -> LevelData:
    """Question tokens merged onto the first token with their label."""
    labels = list(image_level.labels)
    kinds = list(image_level.kinds or ["object"] * len(labels))
    first = {}
    for i, label in enumerate(labels):
        first.setdefault(label, i)
    mapping: dict[int, int] = {}
    for j, label in enumerate(question_level.labels):
        if label in first:
            mapping[j] = first[label]
        else:
            idx = len(labels)
            labels.append(label)
            kinds.append("entity")
            first[label] = idx
            mapping[j] = idx
    n_q = question_level.n_tokens
    q_pairs = ([(s, d) for s in range(n_q) for d in range(n_q)] if question_level.full
               else question_level.pairs)
    pairs = list(dict.fromkeys([(s, d) for s, d in image_level.pairs]
                               + [(mapping[s], mapping[d]) for s, d in q_pairs]))
    return LevelData(level="concept", labels=labels, kinds=kinds, pairs=pairs)


def word_vocab(spec) -> list[str]:
    """``ToyWorldSpec.word_vocab``: the fixed words, then each new world word."""
    words = ["what", "color", "is", "the", "there", "a"]
    for group in (spec.categories, spec.attributes, spec.relations):
        for w in group:
            if w not in words:
                words.append(w)
    return words


def answer_vocab(spec) -> list[str]:
    """``ToyWorldSpec.answer_vocab``: attributes, new categories, yes and no."""
    out = list(spec.attributes)
    for c in spec.categories:
        if c not in out:
            out.append(c)
    for yn in ("yes", "no"):
        if yn not in out:
            out.append(yn)
    return out


def ablation_rows(data_dir: str, model_kw: dict, train_kw: dict,
                  word_vector_file=None, relation_data: str | None = None) -> list[dict]:
    """``training.ablation_table``: every variant on ``data_dir``, then the
    full and mask-free variants on ``relation_data``, each trained from a
    fresh seeded model and evaluated on its corpus's eval split."""
    rows = []
    runs = [("", data_dir, ABLATION_VARIANTS)]
    if relation_data is not None:
        runs.append((" (relation corpus)", relation_data, ABLATION_VARIANTS[:2]))
    for suffix, d, variants in runs:
        train_ds = load_manifest(os.path.join(d, "train.json"))
        eval_ds = load_manifest(os.path.join(d, "eval.json"))
        for name, patch in variants:
            cfg = TrainConfig(**train_kw)
            model = Model(ModelConfig(**{**model_kw, **patch}), train_ds.word_vocab,
                          train_ds.answer_vocab, train_ds.d_region, train_ds.d_spatial,
                          seed=cfg.seed, word_vector_file=word_vector_file)
            train = Trainer(model, train_ds, cfg).fit()[-1]
            report = evaluate(model, eval_ds)
            rows.append({"variant": name + suffix, "train_acc": train["acc_avg"],
                         "eval_acc": report["acc_avg"], "eval_loss": report["loss"]})
    return rows


def checkpoint_header(model: Model, optimizer=None) -> dict:
    """The JSON header ``training.save_checkpoint`` writes for ``model`` and
    ``optimizer``, key by key."""
    header = {
        "model_config": dataclasses.asdict(model.config),
        "word_vocab": list(model.vocab.words),
        "answer_vocab": list(model.answer_vocab),
        "d_region": model.d_region,
        "d_spatial": model.d_spatial,
        "d_emb": model.d_emb,
        "blocks": [{"name": n, "shape": list(t.data.shape)} for n, t in model.params.items()],
        "optimizer": None,
    }
    if optimizer is not None:
        header["optimizer"] = {"lr": optimizer.lr, "step": optimizer.step_count}
    return header


# ---------------------------------------------------------------------------
# incremental parameter draw
# ---------------------------------------------------------------------------


def incremental_draw(blocks, rng: np.random.Generator, table_rows=None,
                     order=None) -> np.ndarray:
    """Each ``(name, shape, init)`` block drawn from ``rng`` into an array of
    its own, in order, then all of them concatenated in the order of the
    names ``order`` (by default the draw order). ``table_rows`` maps a row of
    the first block, the embedding table, to the word vector that replaces it."""
    arrays = {}
    for name, shape, init in blocks:
        if init == "linear":
            bound = 1.0 / np.sqrt(max(shape[0], 1))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        elif init == "embed":
            arrays[name] = rng.normal(0.0, 0.02, size=shape)
        elif init == "ones":
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    for row, vector in (table_rows or {}).items():
        arrays[blocks[0][0]][row] = vector
    return np.concatenate([np.empty(0)] + [arrays[name] for name in order or arrays],
                          axis=None)
