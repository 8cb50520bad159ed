"""Adam optimizer, training loop, evaluation, gradient check, ablations, checkpoints.

All arithmetic is 64-bit and deterministic given (seed, config, data):
shuffling uses a dedicated generator, each minibatch runs as one forward
pass on one tape, and the metric log is one sorted-key JSON object per
epoch.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset, load_split
from .ingest import SchemaError, check_bound, from_json, to_json
from .model import LogitsBundle, Model, ModelConfig, PreparedSample

# samples per forward pass in evaluate: a forward pays ~1.9 ms of fixed cost
# (pinned corpus, one BLAS thread), so one 32-sample call is ~13% faster per
# sample than two of 16; 64 would be ~7% faster again, but holds 2x the
# attention score grids on wide scenes and moves the losses' last bits
EVAL_CHUNK = 32
ADAM_CHUNK = 1 << 14  # elements per in-place Adam pass: 128 KiB per operand stays in cache
# Adam's decay rates and denominator floor: the defaults of Kingma & Ba (arXiv 1412.6980)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over ``params.flat``.

    The moments are flat vectors of the same layout, with per-block views
    ``m[name]`` and ``v[name]``. A step updates them and the parameters in
    place, ``ADAM_CHUNK`` elements at a time, with the elementwise operations
    of the per-block textbook update in the same order: bitwise the same.
    """

    def __init__(self, params: ad.Parameters, lr: float):
        check_bound("lr", lr, 0.0, strict=True)
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m_flat, self.v_flat = np.zeros((2, params.flat.size))
        self.m, self.v = params.views(self.m_flat), params.views(self.v_flat)
        self._scratch = np.empty((2, min(params.flat.size, ADAM_CHUNK)))

    def step(self, g: np.ndarray) -> None:
        """One update from the flat gradient ``g``, which is left unchanged;
        raises on a wrong shape or a non-finite value before any state changes."""
        if g.shape != self.m_flat.shape:
            raise ValueError(f"gradient shape {g.shape} is not the flat shape {self.m_flat.shape}")
        if not np.isfinite(g).all():
            bad = self.params.block_at(int(np.argmin(np.isfinite(g))))
            raise FloatingPointError(
                f"non-finite gradient in parameter block {bad!r}; training halted")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for start in range(0, g.size, ADAM_CHUNK):
            part = slice(start, start + ADAM_CHUNK)
            gc, m, v = g[part], self.m_flat[part], self.v_flat[part]
            tmp, upd = self._scratch[:, :gc.size]
            m *= BETA1
            m += np.multiply(1.0 - BETA1, gc, out=tmp)
            v *= BETA2
            np.multiply(1.0 - BETA2, gc, out=tmp)
            v += np.multiply(tmp, gc, out=tmp)
            # upd becomes lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
            tmp += ADAM_EPS
            np.divide(m, bc1, out=upd)
            upd *= self.lr
            upd /= tmp
            self.params.flat[part] -= upd


@dataclass
class TrainConfig:
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    lr: float = 1e-4
    grad_clip: float | None = None
    checkpoint_interval: int = 0  # epochs between checkpoint writes; 0 disables

    def __post_init__(self):
        check_bound("batch_size", self.batch_size, 1)
        check_bound("epochs", self.epochs, 0)
        check_bound("seed", self.seed, 0)
        check_bound("lr", self.lr, 0.0, strict=True)
        if self.grad_clip is not None:
            check_bound("grad_clip", self.grad_clip, 0.0, strict=True)
        check_bound("checkpoint_interval", self.checkpoint_interval, 0)


def loss_value(model: Model, prep: PreparedSample) -> float:
    """Forward pass outside any tape; used by evaluation and finite differences."""
    bundle = model.forward(prep)
    return float(model.loss(bundle, prep.answer_index).data)


def _clip(params: ad.Parameters, g: np.ndarray, max_norm: float) -> None:
    """Scale the flat gradient ``g`` in place to norm at most ``max_norm``. The
    norm sums block by block, so its rounding is that of the per-block path."""
    total = np.sqrt(sum(float(np.sum(b * b)) for b in params.views(g).values()))
    if total > max_norm:
        g *= max_norm / total


def _accuracy_update(counts: dict[str, int], bundle: LogitsBundle, answers: list[int],
                     averaged: np.ndarray | list[int]) -> None:
    """Add a [B, c] bundle's hits per logit head, and those of the ``averaged``
    predictions, to ``counts``."""
    answers = np.asarray(answers)
    for tag, t in bundle.all_logits().items():
        counts[tag] = counts.get(tag, 0) + int(np.count_nonzero(
            np.argmax(t.data, axis=1) == answers))
    counts["avg"] = counts.get("avg", 0) + int(np.count_nonzero(
        np.asarray(averaged) == answers))


def _metrics(loss_sum: float, counts: dict[str, int], n: int) -> dict[str, float]:
    """The mean loss over ``n`` samples and the accuracy of each entry of
    ``counts``, in the order ``_accuracy_update`` first filled them."""
    return {"loss": loss_sum / n, **{f"acc_{k}": hits / n for k, hits in counts.items()}}


def _check_fits(model: Model, dataset: Dataset) -> None:
    """A ValueError unless ``dataset`` has samples, ``model``'s answers and feature widths."""
    if not dataset.samples:
        raise ValueError("dataset is empty")
    if dataset.answer_vocab != model.answer_vocab:
        raise ValueError("dataset answer vocabulary does not match the model")
    for key in ("d_region", "d_spatial"):
        data_width, model_width = getattr(dataset, key), getattr(model, key)
        if data_width != model_width:
            raise ValueError(f"dataset {key} {data_width} does not match the model's "
                             f"{model_width}")


class Trainer:
    """Minibatch training: one forward pass and one tape per batch."""

    def __init__(self, model: Model, dataset: Dataset, cfg: TrainConfig):
        _check_fits(model, dataset)
        self.model = model
        self.cfg = cfg
        self.optimizer = Adam(model.params, cfg.lr)
        self.prepared = [model.prepare(s.scene, s.question, dataset.answer_index(s.answer))
                         for s in dataset.samples]
        self.shuffle_rng = np.random.default_rng(cfg.seed)
        self.epoch = 0

    def run_epoch(self) -> dict[str, float]:
        """One pass over the data; returns the epoch's metric record."""
        model, cfg = self.model, self.cfg
        order = self.shuffle_rng.permutation(len(self.prepared))
        loss_sum = 0.0
        counts: dict[str, int] = {}
        for start in range(0, len(order), cfg.batch_size):
            batch = [self.prepared[i] for i in order[start:start + cfg.batch_size]]
            answers = [prep.answer_index for prep in batch]
            with ad.Tape() as tape:
                bundle = model.forward_batch(batch)
                losses = model.loss(bundle, answers)
            # the batch loss is the mean of the per-sample losses
            g = np.concatenate(tape.gradients(losses, model.params.tensors(),
                                              np.full(len(batch), 1.0 / len(batch))), axis=None)
            del tape
            for value in losses.data.tolist():
                loss_sum += value
            _accuracy_update(counts, bundle, answers, bundle.averaged_argmax())
            if cfg.grad_clip is not None:
                _clip(model.params, g, cfg.grad_clip)
            self.optimizer.step(g)
        self.epoch += 1
        return {"epoch": self.epoch, **_metrics(loss_sum, counts, len(self.prepared))}

    def fit(self, metrics_out=None, checkpoint_path: str | None = None) -> list[dict]:
        """cfg.epochs passes; logs one JSON object per epoch, checkpoints on
        schedule and once at the end, also after zero epochs."""
        history = []
        for i in range(self.cfg.epochs):
            record = self.run_epoch()
            history.append(record)
            if metrics_out is not None:
                metrics_out.write(json.dumps(record, sort_keys=True) + "\n")
                metrics_out.flush()
            due = (self.cfg.checkpoint_interval
                   and self.epoch % self.cfg.checkpoint_interval == 0)
            if checkpoint_path and due and i + 1 < self.cfg.epochs:
                save_checkpoint(checkpoint_path, self.model, self.optimizer)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, self.model, self.optimizer)
        return history


def evaluate(model: Model, dataset: Dataset,
             prepared: list[PreparedSample] | None = None) -> dict[str, float]:
    """Top-1 accuracy of the averaged prediction and of each logit head."""
    _check_fits(model, dataset)
    if prepared is None:
        prepared = [model.prepare(s.scene, s.question, dataset.answer_index(s.answer))
                    for s in dataset.samples]
    counts: dict[str, int] = {}
    loss_sum = 0.0
    for start in range(0, len(prepared), EVAL_CHUNK):
        chunk = prepared[start:start + EVAL_CHUNK]
        answers = [prep.answer_index for prep in chunk]
        bundle = model.forward_batch(chunk)
        losses = model.loss(bundle, answers)
        for value in losses.data.tolist():
            loss_sum += value
        # one predict call per sample, so that callers can observe each answer
        _accuracy_update(counts, bundle, answers, [model.predict(row) for row in bundle.rows()])
    return {"n": len(prepared), **_metrics(loss_sum, counts, len(prepared))}


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------


def generic_parameter_point(model: Model, seed: int = 123) -> None:
    """Redraw all parameters at a larger, well-conditioned scale, in place.

    At the training initialization the embeddings are small and post-norm
    attention starts near uniform, so some early-layer gradient
    coordinates are ~1e-6; a central difference of a ~10-magnitude loss
    then drowns in float64 cancellation at step 1e-5. Verifying gradients
    at a generic point keeps every coordinate's signal well above that
    noise floor without touching the training init.
    """
    rng = np.random.default_rng(seed)
    for name, t in model.params.items():
        if name.endswith("gain"):
            t.data[...] = rng.uniform(0.5, 1.5, t.data.shape)
        elif t.data.ndim >= 2:
            t.data[...] = rng.uniform(-0.3, 0.3, t.data.shape)
        else:
            t.data[...] = rng.uniform(-0.5, 0.5, t.data.shape)


@dataclass
class BlockReport:
    name: str
    checked: int
    max_rel_err: float
    passed: bool


def gradcheck(model: Model, prep: PreparedSample, step: float = 1e-5,
              tol: float = 1e-5, coords_per_block: int = 2) -> list[BlockReport]:
    """Central finite differences vs the tape gradient, per parameter block.

    Every declared block appears in the report exactly once; within a
    block the largest-magnitude gradient coordinates are probed, where the
    central difference carries signal (a coordinate whose gradient sits at
    the difference's cancellation noise floor cannot be checked at any
    tolerance). Relative error uses |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8);
    a non-finite one fails its block, which reports ``max_rel_err`` NaN.
    ``step`` and ``tol`` must be finite and > 0, ``coords_per_block`` >= 1.
    """
    check_bound("gradcheck step", step, 0.0, strict=True)
    check_bound("gradcheck tol", tol, 0.0, strict=True)
    check_bound("gradcheck coords_per_block", coords_per_block, 1)
    with ad.Tape() as tape:
        bundle = model.forward(prep)
        loss = model.loss(bundle, prep.answer_index)
    grads = dict(zip(model.params.names(),
                     tape.gradients(loss, model.params.tensors())))
    reports = []
    for name, tensor in model.params.items():
        size = tensor.data.size
        k = min(coords_per_block, size)
        coords = np.argsort(-np.abs(grads[name].reshape(-1)))[:k]
        worst = 0.0
        flat = tensor.data.reshape(-1)
        for c in coords:
            c = int(c)
            saved = flat[c]
            flat[c] = saved + step
            up = loss_value(model, prep)
            flat[c] = saved - step
            down = loss_value(model, prep)
            flat[c] = saved
            g_fd = (up - down) / (2.0 * step)
            g_ad = float(grads[name].reshape(-1)[c])
            rel = abs(g_ad - g_fd) / max(abs(g_ad), abs(g_fd), 1e-8)
            worst = max(worst, rel) if math.isfinite(rel) else math.nan  # NaN fails
        reports.append(BlockReport(name=name, checked=k, max_rel_err=worst,
                                   passed=worst < tol))
    return reports


# ---------------------------------------------------------------------------
# experiments and the ablation table
# ---------------------------------------------------------------------------


def build_model(dataset: Dataset, model_kw: dict, seed: int, word_vectors=None) -> Model:
    """A fresh seeded model for ``dataset``'s vocabularies and feature widths."""
    return Model(ModelConfig(**model_kw), dataset.word_vocab, dataset.answer_vocab,
                 dataset.d_region, dataset.d_spatial, seed=seed, word_vector_file=word_vectors)


ABLATION_VARIANTS = (
    ("full", {}),
    ("no_lead_graph", {"use_lead_graphs": False}),
    ("ce_only", {"streams": ("ce",)}),
    ("rn_only", {"streams": ("rn",)}),
    ("ss_only", {"streams": ("ss",)}),
    ("node_reduction", {"node_reduction": True}),
)


def ablation_table(data_dir: str, model_kw: dict, train_kw: dict, extra: dict,
                   relation_data: str | None = None) -> list[dict]:
    """Train every ablation variant on one corpus and report accuracies.

    Each variant is a fresh ``build_model`` trained by ``Trainer.fit`` on the
    ``train`` split and scored by ``evaluate`` on the ``eval`` split, with one
    ``TrainConfig`` for all. ``relation_data`` optionally names a
    relation-question-only corpus; the full and mask-free variants run on it
    too, as extra rows. Rows report numbers, not verdicts: orderings are not
    asserted anywhere.
    """
    cfg = TrainConfig(**train_kw)
    if cfg.epochs < 1:
        raise ValueError(f"an experiment needs epochs >= 1 to report training metrics, "
                         f"got {cfg.epochs}")
    runs = [("", data_dir, ABLATION_VARIANTS)]
    if relation_data is not None:
        runs.append((" (relation corpus)", relation_data, ABLATION_VARIANTS[:2]))
    rows = []
    for suffix, d, variants in runs:
        train_ds, eval_ds = load_split(d, "train"), load_split(d, "eval")
        for name, patch in variants:
            model = build_model(train_ds, {**model_kw, **patch}, cfg.seed,
                                extra.get("word_vectors"))
            train = Trainer(model, train_ds, cfg).fit()[-1]
            report = evaluate(model, eval_ds)
            rows.append({"variant": name + suffix, "train_acc": train["acc_avg"],
                         "eval_acc": report["acc_avg"], "eval_loss": report["loss"]})
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    header = f"{'variant':<32} {'train_acc':>9} {'eval_acc':>9} {'eval_loss':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['variant']:<32} {r['train_acc']:>9.3f} "
                     f"{r['eval_acc']:>9.3f} {r['eval_loss']:>9.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"GALN"
CKPT_VERSION = 3  # 3: the stream stacks' blocks lie last, one run (see model.Model)
SECTIONS = ("parameter", "optimizer first-moment", "optimizer second-moment")  # in file order


def save_checkpoint(path: str, model: Model, optimizer: Adam | None = None) -> None:
    """Binary container: magic, version, JSON header, raw little-endian float64s.

    After the header come ``params.flat`` and, if optimizer state is present,
    its first- and second-moment vectors: each block in header order, three times.
    The bytes go to a temporary file beside ``path`` that replaces it only once
    written and synced, so a failed or interrupted save leaves the old file whole.
    """
    header = Header(model.config, model.vocab.words, model.answer_vocab, model.d_region,
                    model.d_spatial, model.d_emb,
                    [Block(n, list(t.data.shape)) for n, t in model.params.items()],
                    None if optimizer is None else AdamState(optimizer.lr, optimizer.step_count))
    blob = json.dumps(to_json(header), sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC + struct.pack("<IQ", CKPT_VERSION, len(blob)) + blob)
            for flat in _sections(model.params, optimizer):
                f.write(flat.astype("<f8", copy=False))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _sections(params: ad.Parameters, optimizer: Adam | None) -> list[np.ndarray]:
    """The flat vectors a checkpoint holds after its header, in file order."""
    return [params.flat] + ([] if optimizer is None else [optimizer.m_flat, optimizer.v_flat])


@dataclass
class Block:
    name: str
    shape: list[int]

    def __post_init__(self):
        if any(n < 0 for n in self.shape):
            raise ValueError("field 'shape' must hold integers >= 0")


@dataclass
class AdamState:
    lr: float
    step: int

    def __post_init__(self):
        check_bound("lr", self.lr, 0.0, strict=True)
        check_bound("step", self.step, 0)


@dataclass
class Header:
    """A checkpoint's JSON header: its blocks in file order, and ``d_emb`` the
    model's, which a word-vector file sets apart from ``model_config``'s."""

    model_config: ModelConfig
    word_vocab: list[str]
    answer_vocab: list[str]
    d_region: int
    d_spatial: int
    d_emb: int
    blocks: list[Block]
    optimizer: AdamState | None

    def __post_init__(self):
        check_bound("d_emb", self.d_emb, 1)


def _model_from_header(doc, left: int) -> tuple[Model, Adam | None]:
    """The model the header ``doc`` describes, checked against the header's
    blocks before any is drawn; plus the optimizer it records, with zero
    moments. The blocks the header lists must fill the ``left`` bytes after it."""
    h = from_json(Header, doc, "checkpoint header", required=True)
    # the file size is checked against the listed blocks before any is drawn
    ends = list(itertools.accumulate(math.prod(b.shape) for b in h.blocks))
    want = 8 * (ends[-1] if ends else 0) * (1 if h.optimizer is None else len(SECTIONS))
    if left > want:
        raise ValueError(f"{left - want} trailing bytes after the last block")
    if left < want:
        section, at = divmod(left // 8, ends[-1])
        raise ValueError(f"truncated checkpoint: file ends inside the {SECTIONS[section]} "
                         f"block {h.blocks[bisect.bisect_right(ends, at)].name}")
    # the top-level d_emb wins; nothing is drawn, as the file holds every value
    model = Model(dataclasses.replace(h.model_config, d_emb=h.d_emb), h.word_vocab,
                  h.answer_vocab, h.d_region, h.d_spatial, seed=None,
                  layout=[(b.name, b.shape) for b in h.blocks])
    if h.optimizer is None:
        return model, None
    optimizer = Adam(model.params, h.optimizer.lr)
    optimizer.step_count = h.optimizer.step
    return model, optimizer


def load_checkpoint(path: str) -> tuple[Model, Adam | None]:
    """Read a checkpoint written by ``save_checkpoint``.

    The file must be exactly magic, version, header and the blocks the header
    names. Any other content raises ValueError naming ``path``.
    """
    with open(path, "rb") as f:
        try:
            return _read_checkpoint(f)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _read_checkpoint(f) -> tuple[Model, Adam | None]:
    end = os.fstat(f.fileno()).st_size

    def take(size: int, what: str) -> bytes:
        if f.tell() + size > end:
            raise ValueError(f"truncated checkpoint: file ends inside the {what}")
        return f.read(size)

    if take(4, "magic") != CKPT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", take(8, "header length"))
    try:
        header = json.loads(take(hlen, "header").decode("utf-8"))
    except (ValueError, RecursionError) as e:  # also UnicodeDecodeError, deep nesting
        raise SchemaError(f"checkpoint header: not valid JSON ({e})") from None
    model, optimizer = _model_from_header(header, end - f.tell())
    for flat in _sections(model.params, optimizer):
        f.readinto(flat)
        if sys.byteorder == "big":
            flat.byteswap(inplace=True)  # the file is little-endian
    return model, optimizer
