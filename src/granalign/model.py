"""Three-stream alignment model: stream assembly, decision fusion, loss, prediction.

``STREAMS`` pairs one image level with one question level per stream and
runs a separately parameterized masked encoder over the concatenated
tokens (the ss stream's words pass the dependency-masked sentence stack
first). ``prepare`` keeps a sample's six levels keyed by level tag and
builds every stack's per-layer masks once per sample. The fusion head pools
every stream, projects and concatenates the pooled vectors into fused
logits, and the loss is the unweighted sum of the per-stream and fused
cross-entropies. ``HEADS`` names the heads, the streams and then the fused
one, and a ``LogitsBundle`` is a named tuple of their logits in that order.
The head and the loss are one tape node each, with hand-written backwards;
the head's node has the logits of every head as its tuple of outputs.

``forward_batch`` is the one forward path and ``forward`` its one-sample
case. ``encode`` packs the streams' tokens of a whole minibatch into one
matrix per stack call (see ``encoder.Layout``): the three stream stacks as
one call while its padded grid is small (one question of the pinned world),
else each alone. It returns each stream's rows and the matrix that pools
them, so ``fuse`` pools the row mean and the SEP row alike.

A ``Model`` is built from its config, vocabularies, feature widths and seed
alone, and reads no file: ``training.build_model`` writes word vectors into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from . import ingest
from .encoder import EPS_NORM, EncoderConfig, EncoderStack, Layout, merges, sentence_pretransform
from .ingest import LevelData, QuestionParse, SceneGraph, Vocab
from .leadgraph import mask_plan


class Stream(NamedTuple):
    image: str           # image level name
    question: str        # question level name
    image_input: str     # parameter prefix of the image-side MLP or projection
    question_input: str  # parameter prefix of the question-side MLP


STREAMS = {
    "ce": Stream("concept", "entity", "ce.concept_mlp", "ce.entity_mlp"),
    "rn": Stream("region", "noun_phrase", "rn.region_proj", "rn.np_mlp"),
    "ss": Stream("spatial", "sentence", "ss.spatial_proj", "ss.sent_mlp"),
}
HEADS = (*STREAMS, "ga")  # the logit heads: one per stream, then the fused head


@dataclass(frozen=True)
class ModelConfig(EncoderConfig):
    """The encoder sizes every stack shares, plus the model-level switches."""

    d_emb: int = 32
    pooling: str = "mean"  # "mean" or "sep"
    use_lead_graphs: bool = True
    node_reduction: bool = False
    streams: tuple[str, ...] = tuple(STREAMS)
    sep_connect_all: bool = True

    def __post_init__(self):
        super().__post_init__()
        ingest.check_bound("d_emb", self.d_emb, 1)
        if self.pooling not in ("mean", "sep"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if not self.streams or any(s not in STREAMS for s in self.streams):
            raise ValueError(f"streams must be a nonempty subset of {tuple(STREAMS)}")
        if len(set(self.streams)) != len(self.streams):
            raise ValueError("streams holds a duplicate entry")
        object.__setattr__(self, "streams", tuple(self.streams))


class LogitsBundle(NamedTuple):
    """The answer logits of every head, one field per head in ``HEADS`` order:
    1-D [c] class scores for one sample, or [B, c] for a batch. A stream the
    model does not run has None."""

    f_ce: ad.Tensor | None
    f_rn: ad.Tensor | None
    f_ss: ad.Tensor | None
    f_ga: ad.Tensor

    def rows(self) -> list["LogitsBundle"]:
        """One untaped 1-D bundle per sample of a [B, c] bundle."""
        if self.f_ga.data.ndim != 2:
            raise ValueError(f"rows: expected [B, c] logits, got shape {self.f_ga.data.shape}")
        columns = [repeat(None) if t is None else map(ad.Tensor, t.data) for t in self]
        return [LogitsBundle(*heads) for heads in zip(*columns)]

    def all_logits(self) -> dict[str, ad.Tensor]:
        """The heads the model runs, keyed in ``HEADS`` order."""
        return {head: t for head, t in zip(HEADS, self) if t is not None}

    def averaged_argmax(self) -> np.ndarray:
        """Argmax of the mean of every head's logits, per sample; ties resolve
        to the lowest class. The heads are added in order and divided by their
        count, which is bitwise ``np.mean(axis=0)`` over them at a fraction of
        its call overhead."""
        heads = [t.data for t in self.all_logits().values()]
        return np.argmax(sum(heads[1:], heads[0]) / len(heads), axis=-1)


@dataclass
class PreparedSample:
    """The six ingested levels, keyed by level tag, plus each configured
    stream's per-layer masks."""

    answer_index: int
    levels: dict[str, LevelData]
    plans: dict[str, np.ndarray]


def build_levels(scene: SceneGraph, question: QuestionParse, cfg: ModelConfig
                 ) -> dict[str, LevelData]:
    """The six levels of one sample, keyed by level tag."""
    concept = ingest.merge_duplicate_concept_tokens(ingest.build_concept_level(scene))
    entity = ingest.build_entity_level(question)
    if cfg.node_reduction:
        concept = ingest.node_reduction(concept, entity)
        entity = LevelData(level="entity", labels=[])
    return {lv.level: lv for lv in (concept, ingest.build_region_level(scene),
                                    ingest.build_spatial_level(scene), entity,
                                    ingest.build_noun_phrase_level(question),
                                    ingest.build_sentence_level(question))}


def build_plans(levels: dict[str, LevelData], cfg: ModelConfig) -> dict[str, np.ndarray]:
    """The per-layer masks of each encoder stack a sample passes: a stream's
    mask plan under its tag, and under ``"sent"`` the dependency adjacency."""
    plans = {}
    for tag in cfg.streams:
        img, q = levels[STREAMS[tag].image], levels[STREAMS[tag].question]
        if STREAMS[tag].question == "sentence":
            adj = q.dep_adjacency
            plans["sent"] = np.broadcast_to(adj, (cfg.num_layers,) + adj.shape)
        plans[tag] = mask_plan(img, q, cfg.num_layers, cfg.use_lead_graphs,
                               cfg.sep_connect_all)
    return plans


class Model:
    """The full model: parameters plus the forward/fuse/loss/predict pipeline."""

    def __init__(self, config: ModelConfig, word_vocab: Sequence[str],
                 answer_vocab: Sequence[str], d_region: int, d_spatial: int,
                 seed: int | None = 0, layout: Sequence[tuple[str, list[int]]] | None = None):
        self.config = config
        self.vocab = Vocab(word_vocab)
        self.answer_vocab = list(answer_vocab)
        if not self.answer_vocab:
            raise ValueError("answer vocabulary is empty")
        self.d_region = int(d_region)
        self.d_spatial = int(d_spatial)
        # every check on the declared blocks runs before the first draw
        blocks = list(self._blocks())
        ingest.check_size("a model's parameter count",
                          sum(math.prod(shape) for _, shape, _ in blocks))
        # the stream stacks lie last, one run in config.streams order, so that
        # their merged call's weights are a view of the parameters
        last = {name for tag in config.streams
                for name, _, _ in EncoderStack.blocks(f"{tag}.enc", config)}
        placed = sorted(blocks, key=lambda block: block[0] in last)
        if layout is not None:
            declared = [(name, list(shape)) for name, shape, _ in placed]
            if declared != list(layout):
                i = next((i for i, (a, b) in enumerate(zip(declared, layout)) if a != b), None)
                raise ValueError("parameter blocks do not match this build: " + (
                    f"{len(layout)} listed, {len(declared)} built" if i is None
                    else f"block {i} is {declared[i]}, listed as {layout[i]}"))
        # drawn in declaration order, placed as above; without a seed nothing
        # is drawn: a checkpoint load fills every value
        self.params = ad.Parameters(blocks, None if seed is None else np.random.default_rng(seed),
                                    [name for name, _, _ in placed])
        # each stack alone, and the stream stacks as one call
        self.stacks: dict[str, EncoderStack] = {}
        for tag in config.streams:
            if STREAMS[tag].question == "sentence":
                self.stacks["sent"] = EncoderStack(self.params, ["sent.enc"], config)
            self.stacks[tag] = EncoderStack(self.params, [f"{tag}.enc"], config)
        self.merged = EncoderStack(self.params, [f"{tag}.enc" for tag in config.streams], config)

    @property
    def n_answers(self) -> int:
        return len(self.answer_vocab)

    # -- parameter declaration ----------------------------------------------

    def _blocks(self):
        """Every parameter block as ``(name, shape, init)``, in draw order
        (``__init__`` places the stream stacks last)."""
        cfg = self.config
        d, c = cfg.d_model, self.n_answers

        def mlp(prefix):
            return [(f"{prefix}.w1", (cfg.d_emb, d), "linear"),
                    (f"{prefix}.b1", (d,), "zeros"),
                    (f"{prefix}.w2", (d, d), "linear"),
                    (f"{prefix}.b2", (d,), "zeros")]

        yield "embed.table", (self.vocab.size, cfg.d_emb), "embed"
        feature_dims = {"region": self.d_region, "spatial": self.d_spatial}
        for tag in cfg.streams:
            s = STREAMS[tag]
            if s.image in feature_dims:
                yield f"{s.image_input}.w", (feature_dims[s.image], d), "linear"
                yield f"{s.image_input}.b", (d,), "zeros"
            else:
                yield from mlp(s.image_input)
            yield from mlp(s.question_input)
            if s.question == "sentence":
                yield from EncoderStack.blocks("sent.enc", cfg)
            yield f"{tag}.sep", (d,), "embed"
            yield from EncoderStack.blocks(f"{tag}.enc", cfg)

        for tag in cfg.streams:
            yield f"fuse.{tag}.ln_gain", (d,), "ones"
            yield f"fuse.{tag}.ln_bias", (d,), "zeros"
            yield f"fuse.{tag}.w", (d, d), "linear"
            yield f"fuse.{tag}.head_w", (d, c), "linear"
            yield f"fuse.{tag}.head_b", (c,), "zeros"
        yield "fuse.ga.w", (len(cfg.streams) * d, d), "linear"
        yield "fuse.ga.head_w", (d, c), "linear"
        yield "fuse.ga.head_b", (c,), "zeros"

    # -- sample preparation -----------------------------------------------

    def prepare(self, scene: SceneGraph, question: QuestionParse,
                answer_index: int) -> PreparedSample:
        """Ingest one sample into its levels and, once every stream fits
        ``config.max_len`` (else ValueError), its per-stream mask plans."""
        levels = build_levels(scene, question, self.config)
        for tag in self.config.streams:  # a stream is [image tokens; SEP; question tokens]
            n = levels[STREAMS[tag].image].n_tokens + 1 + levels[STREAMS[tag].question].n_tokens
            if n > self.config.max_len:
                raise ValueError(f"stream {tag} has {n} tokens, more than max_len "
                                 f"{self.config.max_len}")
        return PreparedSample(int(answer_index), levels, build_plans(levels, self.config))

    # -- forward ------------------------------------------------------------

    def _mlp_apply(self, labels, prefix) -> ad.Tensor:
        p = self.params
        return ingest.embed_tokens(labels, self.vocab, p["embed.table"],
                                   p[f"{prefix}.w1"], p[f"{prefix}.b1"],
                                   p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def run_stream(self, tag: str, preps: Sequence[PreparedSample]
                   ) -> tuple[list[ad.Tensor], list[int], list[int]]:
        """One alignment stream's input to its stack over a batch: the parts
        [image tokens, SEP, question tokens], the question words through the
        sentence stack first on a sentence stream, and each sample's image
        and question token counts."""
        p, s = self.params, STREAMS[tag]
        imgs = [prep.levels[s.image] for prep in preps]
        qs = [prep.levels[s.question] for prep in preps]
        if imgs[0].features is not None:
            t_img = ingest.project_features(np.concatenate([img.features for img in imgs]),
                                            p[f"{s.image_input}.w"], p[f"{s.image_input}.b"])
        else:
            t_img = self._mlp_apply([w for img in imgs for w in img.labels], s.image_input)
        t_q = self._mlp_apply([w for q in qs for w in q.labels], s.question_input)
        n_q = [q.n_tokens for q in qs]
        if s.question == "sentence":
            t_q = sentence_pretransform(t_q, n_q, [prep.plans["sent"] for prep in preps],
                                        self.stacks["sent"])
        return [t_img, p[f"{tag}.sep"], t_q], [img.n_tokens for img in imgs], n_q

    def encode(self, preps: Sequence[PreparedSample]) -> list[tuple[ad.Tensor, np.ndarray]]:
        """Every configured stream's final rows and the [B, N] matrix that pools
        them, each sample's row mean or its SEP row, in ``config.streams``
        order: ``fuse``'s input.

        The stream stacks run as one call (``merged``) on one ``Layout`` of
        S·B sequences, sequence s·B + b being stream s of sample b, when its
        padded grid is small enough (``encoder.merges``); otherwise each runs
        alone. A sequence packs its [image tokens; SEP; question tokens]
        part-major, the image rows and SEP being segment 0. A call's streams
        share its rows and each pools its own."""
        tags, bsz = self.config.streams, len(preps)
        inputs = {tag: self.run_stream(tag, preps) for tag in tags}
        n_max = (max(n for _, n_img, _ in inputs.values() for n in n_img) + 1
                 + max(n for *_, n_q in inputs.values() for n in n_q))
        part = 1 if self.config.pooling == "sep" else None
        outputs = []
        for group in [tags] if merges(len(tags) * bsz, n_max) else [(tag,) for tag in tags]:
            stack = self.merged if len(group) > 1 else self.stacks[group[0]]
            parts, n_img, n_q = zip(*(inputs[tag] for tag in group))
            layout = Layout([n for ns in n_img for n in ns], [1] * (len(group) * bsz),
                            [n for ns in n_q for n in ns], split=2, groups=len(group))
            hidden = stack.run(  # part-major, then stream by stream
                [ps[k] for k in range(3) for ps in parts], layout,
                [prep.plans[tag] for tag in group for prep in preps])
            pool = layout.mean_matrix(part)
            outputs += [(hidden, pool[s * bsz:(s + 1) * bsz]) for s in range(len(group))]
        return outputs

    def forward_batch(self, preps: Sequence[PreparedSample]) -> LogitsBundle:
        """[B, c] logits of a minibatch, all samples in one pass."""
        if not preps:
            raise ValueError("forward_batch needs at least one sample")
        return self.fuse(self.encode(preps))

    def forward(self, prep: PreparedSample) -> LogitsBundle:
        """1-D logits of one sample: ``forward_batch`` with B = 1."""
        return self.fuse(self.encode([prep]), (self.n_answers,))

    # -- decision fusion ----------------------------------------------------

    def fuse(self, outputs: Sequence[tuple[ad.Tensor, np.ndarray]],
             shape: tuple[int, ...] | None = None) -> LogitsBundle:
        """Pool, normalize, project, and concatenate the stream outputs, as one
        tape node whose outputs are the logits of every head: [B, c], or
        ``shape`` when given. ``outputs`` holds ``encode``'s ``(hidden, pool)``
        of each configured stream, in ``config.streams`` order. Per
        stream: the pooled rows ``pool @ hidden``, layer norm, projection
        ``h`` and head; the fused head reads the streams' ``h`` side by side."""
        p, c = self.params, self.n_answers
        shape = (len(outputs[0][1]), c) if shape is None else shape
        tags = self.config.streams
        per_stream = [[p[f"fuse.{tag}.{n}"] for n in ("ln_gain", "ln_bias", "w", "head_w",
                                                       "head_b")] for tag in tags]
        ga_w, ga_head_w, ga_head_b = (p[f"fuse.ga.{n}"] for n in ("w", "head_w", "head_b"))
        saved, logits = [], []
        for (hidden, pool), (gain, bias, w, head_w, head_b) in zip(outputs, per_stream):
            normed, xhat, inv_std = ad._ln_forward(pool @ hidden.data, gain.data, bias.data,
                                                   EPS_NORM)
            h = normed @ w.data
            saved.append((pool, normed, xhat, inv_std, h))
            logits.append(h @ head_w.data + head_b.data)
        cat = np.concatenate([h for *_, h in saved], axis=1)
        h_ga = cat @ ga_w.data
        logits.append(h_ga @ ga_head_w.data + ga_head_b.data)
        result = tuple(ad.Tensor(z.reshape(shape)) for z in logits)

        def backward(grads):
            *g_heads, g_ga = (np.reshape(g, (-1, c)) for g in grads)
            g_hga = g_ga @ ga_head_w.data.T
            g_cat = g_hga @ ga_w.data.T
            d = self.config.d_model
            g_hidden, g_blocks = [], []
            for i, ((pool, normed, xhat, inv_std, h), g, (gain, _, w, head_w, _)) in \
                    enumerate(zip(saved, g_heads, per_stream)):
                g_h = g_cat[:, i * d:(i + 1) * d] + g @ head_w.data.T
                g_normed = g_h @ w.data.T
                g_pooled = ad._ln_backward(g_normed, gain.data, xhat, inv_std)
                g_hidden.append(pool.T @ g_pooled)
                g_blocks += [(g_normed * xhat).sum(axis=0), g_normed.sum(axis=0),
                             normed.T @ g_h, h.T @ g, g.sum(axis=0)]
            return (*g_hidden, *g_blocks, cat.T @ g_hga, h_ga.T @ g_ga, g_ga.sum(axis=0))

        inputs = (*(hidden for hidden, _ in outputs), *(t for b in per_stream for t in b),
                  ga_w, ga_head_w, ga_head_b)
        ad.record(result, inputs, backward)
        heads = dict(zip(tags, result))
        return LogitsBundle(*map(heads.get, STREAMS), result[-1])

    # -- loss and prediction -----------------------------------------------

    def loss(self, bundle: LogitsBundle, answer_index) -> ad.Tensor:
        """Unweighted sum of the per-stream and fused cross-entropies, as one
        tape node.

        A scalar for a 1-D bundle and one answer index; the B per-sample
        sums for a [B, c] bundle and B answer indices.
        """
        heads = tuple(bundle.all_logits().values())
        shape = heads[0].data.shape
        if len(shape) not in (1, 2):
            raise ValueError(f"loss: expected 1-D or 2-D logits, got {shape}")
        n = shape[-1]
        z = np.stack([t.data for t in heads]).reshape(len(heads), -1, n)
        idx = np.asarray(answer_index, dtype=np.intp).reshape(-1)
        if idx.shape != (z.shape[1],) or (len(shape) == 1) != (np.ndim(answer_index) == 0):
            raise ValueError(f"loss: {np.shape(answer_index)} answers for logits {shape}")
        bad = (idx < 0) | (idx >= n)
        if bad.any():
            raise ValueError(f"loss: answer {idx[bad][0]} out of range [0, {n})")
        r = np.arange(z.shape[1])
        m = z.max(axis=2, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=2, keepdims=True))
        terms = lse[:, :, 0] - z[:, r, idx]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        out = ad.Tensor(total.reshape(shape[:-1]))

        def backward(g):  # the softmax is computed only when a tape sweeps back
            g = np.reshape(g, (1, -1, 1))
            dz = np.exp(z - lse) * g
            dz[:, r, idx] -= g[0, :, 0]
            return tuple(dz.reshape((len(heads),) + shape))

        return ad.record(out, heads, backward)

    def predict(self, bundle: LogitsBundle) -> int:
        """Argmax of the averaged logits; ties resolve to the lowest class."""
        return int(bundle.averaged_argmax())
