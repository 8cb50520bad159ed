"""Optimizer behavior, the training loop, gradient checking, checkpoints."""

import dataclasses
import errno
import io
import json
import os
import re
import struct

import numpy as np
import pytest

import granalign.autodiff as ad
from granalign.data import DEFAULT_WORLD, Dataset, Sample, ToyWorldSpec, gen_corpus, load_manifest
from granalign.model import LogitsBundle, Model, ModelConfig
from granalign import training
from granalign.training import (
    Adam,
    TrainConfig,
    Trainer,
    evaluate,
    generic_parameter_point,
    gradcheck,
    load_checkpoint,
    loss_value,
    save_checkpoint,
)
import reference_ops as refops
from conftest import TextbookAdam, built_model, fixture_path

WORDS = ["what", "color", "is", "the", "there", "a",
         "girl", "dog", "brown", "left", "right"]
ANSWERS = ["brown", "red", "yes", "no"]


def tiny_model(seed=0, **cfg_kw):
    base = dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16, max_len=32)
    base.update(cfg_kw)
    return Model(ModelConfig(**base), WORDS, ANSWERS,
                 d_region=4, d_spatial=4, seed=seed)


def tiny_dataset(girl_dog):
    scene, question = girl_dog
    samples = [
        Sample("s0", "attribute", scene, question, "brown"),
        Sample("s1", "attribute", scene, question, "red"),
    ]
    return Dataset(samples=samples, word_vocab=WORDS, answer_vocab=ANSWERS,
                   d_region=4, d_spatial=4, grid_size=2)


class TestAdam:
    def setup_params(self):
        params = ad.Parameters([("w", (3,), "ones")], np.random.default_rng(0))
        return params, params["w"]

    def test_first_step_moves_by_about_lr(self):
        params, t = self.setup_params()
        opt = Adam(params, 0.1)
        opt.step(np.ones(3))
        # bias-corrected first step is lr * g / (|g| + eps) regardless of scale
        np.testing.assert_allclose(t.data, 1.0 - 0.1, atol=1e-6)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        params, t = self.setup_params()
        opt = Adam(params, 0.1)
        opt.step(np.zeros(3))
        np.testing.assert_array_equal(t.data, np.ones(3))

    def test_nonfinite_gradient_raises_before_touching_state(self):
        params, t = self.setup_params()
        opt = Adam(params, 0.1)
        with pytest.raises(FloatingPointError, match="w"):
            opt.step(np.array([1.0, np.nan, 1.0]))
        np.testing.assert_array_equal(t.data, np.ones(3))
        assert opt.step_count == 0

    def test_descends_a_quadratic(self):
        params, t = self.setup_params()
        t.data[:] = 5.0
        opt = Adam(params, 0.05)
        for _ in range(2000):
            opt.step(2.0 * t.data)
        assert np.all(np.abs(t.data) < 0.05)

    @staticmethod
    def chunk_spanning_params(seed):
        """A block larger than the update chunk, a total that is not a multiple
        of it, a zero-gradient block and small ones."""
        big = training.ADAM_CHUNK + 123
        return ad.Parameters([("big", (big // 3, 3), "linear"), ("bias", (7,), "embed"),
                              ("frozen", (5, 4), "linear"), ("gain", (11,), "ones")],
                             np.random.default_rng(seed))

    @pytest.mark.parametrize("lr", [1e-4, 3e-2])
    def test_bitwise_equal_to_textbook_adam(self, lr):
        fast_params, ref_params = self.chunk_spanning_params(3), self.chunk_spanning_params(3)
        assert sum(t.data.size for t in fast_params.tensors()) % training.ADAM_CHUNK != 0
        fast, ref = Adam(fast_params, lr), TextbookAdam(ref_params, lr)
        rng = np.random.default_rng(0)
        for step in range(60):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=t.data.shape)
                     for name, t in ref_params.items()}
            grads["frozen"] = np.zeros_like(grads["frozen"])
            g = np.concatenate(list(grads.values()), axis=None)
            if step % 7 == 3:
                g = np.repeat(g, 2)[::2]  # a non-contiguous gradient
            kept = g.copy()
            fast.step(g)
            assert g.tobytes() == kept.tobytes()  # the gradient is left as it was
            ref.step(grads)
        for name, t in ref_params.items():
            assert fast_params[name].data.tobytes() == t.data.tobytes(), name
            assert fast.m[name].tobytes() == ref.m[name].tobytes(), name
            assert fast.v[name].tobytes() == ref.v[name].tobytes(), name
        assert fast.step_count == ref.step_count == 60

    def test_moments_are_views_of_the_flat_vectors(self):
        params = self.chunk_spanning_params(0)
        opt = Adam(params, 1e-4)
        opt.step(np.ones(params.flat.size))
        assert np.concatenate([m.reshape(-1) for m in opt.m.values()]).tobytes() == \
            opt.m_flat.tobytes()
        opt.v["bias"][2] = 5.0
        assert opt.v_flat[params["big"].data.size + 2] == 5.0

    def test_nonfinite_gradient_names_its_block_and_changes_nothing(self):
        params = self.chunk_spanning_params(0)
        opt = Adam(params, 1e-4)
        opt.step(np.ones(params.flat.size))
        before = params.flat.copy(), opt.m_flat.copy(), opt.v_flat.copy()
        g = np.ones(params.flat.size)
        params.views(g)["frozen"][1, 2] = np.inf
        with pytest.raises(FloatingPointError, match="'frozen'"):
            opt.step(g)
        assert before[0].tobytes() == params.flat.tobytes()
        assert before[1].tobytes() == opt.m_flat.tobytes()
        assert before[2].tobytes() == opt.v_flat.tobytes()
        assert opt.step_count == 1

    @pytest.mark.parametrize("shape", [lambda n: (n - 1,), lambda n: (n + 1,),
                                       lambda n: (1, n), lambda n: (n, 1)],
                             ids=["one-short", "one-long", "as-a-row", "as-a-column"])
    def test_gradient_of_the_wrong_shape_is_rejected(self, shape):
        params = self.chunk_spanning_params(0)
        opt = Adam(params, 1e-4)
        n = params.flat.size
        with pytest.raises(ValueError, match=re.escape(f"is not the flat shape ({n},)")):
            opt.step(np.ones(shape(n)))
        assert opt.step_count == 0 and not opt.m_flat.any()

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=f"lr must be a finite value > 0, got {lr}"):
            Adam(self.chunk_spanning_params(0), lr)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
        ("lr", float("inf")), ("grad_clip", -1.0), ("grad_clip", 0.0),
        ("grad_clip", float("nan")), ("grad_clip", float("inf")),
        ("checkpoint_interval", -1)])
    def test_bad_setting_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_settings_accepted(self):
        TrainConfig(epochs=0, grad_clip=None, checkpoint_interval=0)
        TrainConfig(lr=1e-12, grad_clip=1e-12)


class TestTrainer:
    def test_empty_dataset_rejected(self, girl_dog):
        ds = tiny_dataset(girl_dog)
        ds.samples = []
        with pytest.raises(ValueError, match="empty"):
            Trainer(tiny_model(), ds, TrainConfig(batch_size=1, epochs=1))

    def test_answer_vocab_mismatch_rejected(self, girl_dog):
        ds = tiny_dataset(girl_dog)
        model = Model(ModelConfig(d_model=8, d_emb=8, num_heads=2, num_layers=2,
                                  d_ff=16, max_len=32),
                      WORDS, ["yes", "no"], d_region=4, d_spatial=4)
        with pytest.raises(ValueError, match="vocabulary"):
            Trainer(model, ds, TrainConfig(batch_size=1, epochs=1))

    def test_epoch_record_fields(self, girl_dog):
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        record = trainer.run_epoch()
        assert set(record) == {"epoch", "loss", "acc_ce", "acc_rn", "acc_ss",
                               "acc_ga", "acc_avg"}
        assert record["epoch"] == 1

    def test_fit_writes_one_json_line_per_epoch(self, girl_dog):
        out = io.StringIO()
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=3, lr=1e-3))
        history = trainer.fit(metrics_out=out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        for line, record in zip(lines, history):
            parsed = json.loads(line)
            assert parsed == record
            assert list(parsed) == sorted(parsed)

    def test_overfits_one_sample(self, girl_dog):
        scene, question = girl_dog
        ds = Dataset(samples=[Sample("s0", "attribute", scene, question, "brown")],
                     word_vocab=WORDS, answer_vocab=ANSWERS,
                     d_region=4, d_spatial=4, grid_size=2)
        trainer = Trainer(tiny_model(), ds,
                          TrainConfig(batch_size=1, epochs=300, lr=3e-3))
        history = trainer.fit()
        losses = [h["loss"] for h in history]
        assert losses[-1] < 0.01
        assert all(b <= a + 1e-6 for a, b in zip(losses[50:], losses[51:]))
        assert history[-1]["acc_avg"] == 1.0

    def test_grad_clip_caps_update_size(self, girl_dog):
        ds = tiny_dataset(girl_dog)
        free = Trainer(tiny_model(), ds, TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        clipped = Trainer(tiny_model(), ds,
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3,
                                      grad_clip=1e-6))
        free.run_epoch()
        clipped.run_epoch()
        name = "fuse.ga.head_w"
        base = tiny_model().params[name].data
        moved_free = np.abs(free.model.params[name].data - base).max()
        moved_clipped = np.abs(clipped.model.params[name].data - base).max()
        assert moved_clipped < moved_free

    def test_clipped_run_is_bitwise_the_per_block_reference(self, girl_dog):
        """Two clipped epochs against the per-block path: one gradient per
        block, the norm of all of them end to end in the parameters' order
        (one pairwise sum), each block scaled on its own, and the textbook
        Adam."""
        ds = tiny_dataset(girl_dog)
        ds.samples = ds.samples * 3
        cfg = TrainConfig(batch_size=4, epochs=2, seed=3, lr=1e-2, grad_clip=4.0)
        trainer = Trainer(tiny_model(seed=3), ds, cfg)
        trainer.fit()
        model = tiny_model(seed=3)
        ref = TextbookAdam(model.params, cfg.lr)
        prepared = [model.prepare(s.scene, s.question, ds.answer_index(s.answer))
                    for s in ds.samples]
        shuffle_rng, norms = np.random.default_rng(cfg.seed), []
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(prepared))
            for start in range(0, len(order), cfg.batch_size):
                batch = [prepared[i] for i in order[start:start + cfg.batch_size]]
                with ad.Tape() as tape:
                    losses = model.loss(model.forward_batch(batch),
                                        [prep.answer_index for prep in batch])
                    loss = refops.scale(refops.sum_all(losses), 1.0 / len(batch))
                grads = dict(zip(model.params.names(),
                                 tape.gradients(loss, model.params.tensors())))
                flat = np.concatenate(list(grads.values()), axis=None)
                norms.append(np.sqrt(np.sum(flat * flat)))
                if norms[-1] > cfg.grad_clip:
                    grads = {n: g * (cfg.grad_clip / norms[-1]) for n, g in grads.items()}
                ref.step(grads)
        assert min(norms) < cfg.grad_clip < max(norms)  # some steps clip, some do not
        for (name, t), fast in zip(model.params.items(), trainer.model.params.tensors()):
            assert fast.data.tobytes() == t.data.tobytes(), name


class TestClip:
    @pytest.mark.parametrize("scale", [1e-6, 0.3, 1.0 - 1e-9, 1e6])
    def test_clipped_norm_is_the_bound(self, scale):
        """Scaled to ``max_norm`` within 1e-12 relative, its direction kept."""
        g = np.random.default_rng(2).standard_normal(177_960)  # the default model's size
        norm = np.sqrt(np.sum(g * g))
        max_norm = scale * norm if scale < 1 else norm / scale
        clipped = g.copy()
        training._clip(clipped, max_norm)
        assert abs(np.sqrt(np.sum(clipped * clipped)) - max_norm) <= 1e-12 * max_norm
        assert clipped.tobytes() == (g * (max_norm / norm)).tobytes()

    @pytest.mark.parametrize("over", [1.0, 1.5, 1e300])
    def test_gradient_within_the_bound_is_unchanged(self, over):
        g = np.random.default_rng(3).standard_normal(1001) * 1e-3
        max_norm = over * np.sqrt(np.sum(g * g))
        kept = g.copy()
        training._clip(kept, max_norm)
        assert kept.tobytes() == g.tobytes()


class TestDeterminism:
    def run_once(self, girl_dog, seed):
        trainer = Trainer(tiny_model(seed=seed), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=1, epochs=3, seed=seed, lr=1e-3))
        history = trainer.fit()
        blob = b"".join(t.data.tobytes() for t in trainer.model.params.tensors())
        return history, blob

    def test_same_seed_identical_trajectory_and_weights(self, girl_dog):
        h1, b1 = self.run_once(girl_dog, 4)
        h2, b2 = self.run_once(girl_dog, 4)
        assert h1 == h2
        assert b1 == b2

    def test_different_seed_diverges(self, girl_dog):
        _, b1 = self.run_once(girl_dog, 4)
        _, b2 = self.run_once(girl_dog, 5)
        assert b1 != b2


class TestEvaluate:
    def test_empty_dataset_rejected(self, girl_dog):
        ds = tiny_dataset(girl_dog)
        ds.samples = []
        with pytest.raises(ValueError, match="empty"):
            evaluate(tiny_model(), ds)

    @pytest.mark.parametrize("change, message", [
        (dict(answer_vocab=ANSWERS[::-1]), "dataset answer vocabulary does not match the model"),
        (dict(d_region=5), "dataset d_region 5 does not match the model's 4"),
        (dict(d_spatial=3), "dataset d_spatial 3 does not match the model's 4"),
    ], ids=["answers", "d_region", "d_spatial"])
    def test_dataset_the_model_does_not_fit_rejected(self, girl_dog, change, message):
        """The same check as ``Trainer``: no accuracy against another
        vocabulary, no numpy shape error for another feature width."""
        ds = dataclasses.replace(tiny_dataset(girl_dog), **change)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(tiny_model(), ds)
        with pytest.raises(ValueError, match=re.escape(message)):
            Trainer(tiny_model(), ds, TrainConfig())

    def test_report_fields_and_ranges(self, girl_dog):
        report = evaluate(tiny_model(), tiny_dataset(girl_dog))
        assert set(report) == {"n", "loss", "acc_ce", "acc_rn", "acc_ss",
                               "acc_ga", "acc_avg"}
        assert report["n"] == 2
        for key in ("acc_ce", "acc_rn", "acc_ss", "acc_ga", "acc_avg"):
            assert 0.0 <= report[key] <= 1.0

    def test_records_list_the_heads_in_heads_order(self, girl_dog):
        """Both metric records list each head the model runs in ``HEADS`` order,
        then the averaged prediction, whatever the order of the streams."""
        model = tiny_model(streams=("ss", "ce"))
        trainer = Trainer(model, tiny_dataset(girl_dog), TrainConfig(batch_size=2, epochs=1))
        want = ["loss", "acc_ce", "acc_ss", "acc_ga", "acc_avg"]
        assert list(trainer.run_epoch()) == ["epoch", *want]
        assert list(evaluate(model, tiny_dataset(girl_dog))) == ["n", *want]


class TestGradcheck:
    def test_every_block_reported_once_and_passes(self, girl_dog):
        # full-width model: at d_model=8 some deep-layer gradients are small
        # enough that the finite difference itself is at the noise floor
        scene, question = girl_dog
        model = Model(ModelConfig(), WORDS, ANSWERS, d_region=4, d_spatial=4)
        generic_parameter_point(model)
        prep = model.prepare(scene, question, answer_index=0)
        reports = gradcheck(model, prep)
        assert [r.name for r in reports] == model.params.names()
        failed = [r for r in reports if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("rule", ["_ln_backward", "_scatter_rows"])
    def test_detects_a_corrupted_backward(self, girl_dog, monkeypatch, rule):
        """Negative control: a wrong gradient rule must be caught. The layer
        norm rule serves the encoder layers and the fusion head; the row
        scatter serves the embedding lookup and the stack input rows."""
        scene, question = girl_dog
        model = tiny_model()
        generic_parameter_point(model)
        prep = model.prepare(scene, question, answer_index=0)
        original = getattr(ad, rule)
        monkeypatch.setattr(ad, rule, lambda *args: original(*args) * 1.01)
        reports = gradcheck(model, prep)
        assert any(not r.passed for r in reports)

    def test_a_nan_parameter_fails_its_blocks(self, girl_dog):
        """A NaN relative error fails its block and is reported as NaN; ``max``
        would drop it and pass every block."""
        scene, question = girl_dog
        model = tiny_model()
        generic_parameter_point(model)
        prep = model.prepare(scene, question, answer_index=0)
        model.params["fuse.ga.head_b"].data[0] = np.nan
        reports = {r.name: r for r in gradcheck(model, prep)}
        assert not reports["fuse.ga.head_b"].passed
        assert np.isnan(reports["fuse.ga.head_b"].max_rel_err)
        assert all(np.isnan(r.max_rel_err) for r in reports.values() if not r.passed)

    @pytest.mark.parametrize("kw, message", [
        ({"step": 0.0}, "step must be a finite value > 0, got 0.0"),
        ({"step": float("inf")}, "step must be a finite value > 0, got inf"),
        ({"tol": float("nan")}, "tol must be a finite value > 0, got nan"),
        ({"tol": -1e-5}, "tol must be a finite value > 0, got -1e-05"),
        ({"coords_per_block": 0}, "coords_per_block must be >= 1, got 0"),
    ])
    def test_rejects_meaningless_settings(self, girl_dog, kw, message):
        scene, question = girl_dog
        model = tiny_model()
        with pytest.raises(ValueError, match=message):
            gradcheck(model, model.prepare(scene, question, answer_index=0), **kw)


class CutWriter:
    """A binary file that fails with "no space left" once ``limit`` bytes are written."""

    def __init__(self, path, limit):
        self.file = open(path, "wb")
        self.left = limit

    def write(self, data):
        data = memoryview(data).cast("B")
        self.file.write(data[:self.left])
        if len(data) > self.left:
            self.left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= len(data)
        return len(data)

    def flush(self):
        self.file.flush()

    def fileno(self):
        return self.file.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


class TestAtomicCheckpoint:
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A save that fails after k bytes, for k from none to all but one,
        leaves the previous checkpoint byte-identical and no temporary file."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), tiny_model(seed=1))
        before = path.read_bytes()
        model = tiny_model(seed=2)
        optimizer = training.Adam(model.params, 1e-3)
        save_checkpoint(str(tmp_path / "other.ckpt"), model, optimizer)
        total = (tmp_path / "other.ckpt").stat().st_size
        os.remove(tmp_path / "other.ckpt")
        for k in (0, 5, 1000, total // 2, total - 1):
            monkeypatch.setattr(training, "open", lambda p, mode: CutWriter(p, k), raising=False)
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(str(path), model, optimizer)
            monkeypatch.undo()
            assert path.read_bytes() == before, k
            assert os.listdir(tmp_path) == ["model.ckpt"], k

    def test_save_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), tiny_model(seed=1))
        save_checkpoint(str(path), tiny_model(seed=2))
        save_checkpoint(str(tmp_path / "fresh.ckpt"), tiny_model(seed=2))
        assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.ckpt", "model.ckpt"]


class TestCheckpoint:
    def test_roundtrip_restores_weights_and_optimizer(self, girl_dog, tmp_path):
        ds = tiny_dataset(girl_dog)
        trainer = Trainer(tiny_model(seed=9), ds,
                          TrainConfig(batch_size=2, epochs=2, seed=9, lr=1e-3))
        trainer.fit()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), trainer.model, trainer.optimizer)
        restored, opt = load_checkpoint(str(path))

        assert restored.answer_vocab == trainer.model.answer_vocab
        assert restored.params.names() == trainer.model.params.names()
        for a, b in zip(restored.params.tensors(), trainer.model.params.tensors()):
            assert a.data.tobytes() == b.data.tobytes()
        assert opt.step_count == trainer.optimizer.step_count
        for name in trainer.optimizer.m:
            assert opt.m[name].tobytes() == trainer.optimizer.m[name].tobytes()
            assert opt.v[name].tobytes() == trainer.optimizer.v[name].tobytes()

    def test_load_draws_nothing(self, girl_dog, tmp_path, monkeypatch):
        """A load builds its model without a random generator, since the file
        overwrites every value, and still restores every value bitwise."""
        trainer = Trainer(tiny_model(seed=9), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, seed=9, lr=1e-3))
        trainer.fit()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), trainer.model, trainer.optimizer)
        calls = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args))
        restored, opt = load_checkpoint(str(path))
        assert calls == []
        assert restored.params.flat.tobytes() == trainer.model.params.flat.tobytes()
        assert opt.m_flat.tobytes() == trainer.optimizer.m_flat.tobytes()
        assert opt.v_flat.tobytes() == trainer.optimizer.v_flat.tobytes()
        prep = trainer.prepared[0]
        assert restored.forward(prep).f_ga.data.tobytes() == \
            trainer.model.forward(prep).f_ga.data.tobytes()

    def test_resaved_checkpoint_is_byte_identical(self, girl_dog, tmp_path):
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        trainer.fit()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), trainer.model, trainer.optimizer)
        restored, opt = load_checkpoint(str(p1))
        save_checkpoint(str(p2), restored, opt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restored_model_predicts_identically(self, girl_dog, tmp_path):
        scene, question = girl_dog
        model = tiny_model(seed=2)
        prep = model.prepare(scene, question, answer_index=0)
        before = model.forward(prep).f_ga.data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)
        restored, opt = load_checkpoint(str(path))
        assert opt is None
        prep2 = restored.prepare(scene, question, answer_index=0)
        after = restored.forward(prep2).f_ga.data
        assert before.tobytes() == after.tobytes()

    def test_file_is_header_then_each_block_then_each_moment_block(self, girl_dog, tmp_path):
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        trainer.fit()
        params, opt = trainer.model.params, trainer.optimizer
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), trainer.model, opt)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = blob[16:16 + hlen]
        assert json.loads(header)["blocks"] == [{"name": n, "shape": list(t.data.shape)}
                                                for n, t in params.items()]
        assert json.loads(header)["optimizer"] == {"lr": 1e-3, "step": 1}
        reference = b"GALN" + struct.pack("<I", 4) + struct.pack("<Q", hlen) + header
        reference += b"".join(t.data.astype("<f8").tobytes() for t in params.tensors())
        reference += b"".join(moments[n].astype("<f8").tobytes()
                              for moments in (opt.m, opt.v) for n in params.names())
        assert blob == reference

    def test_bad_magic_rejected(self, girl_dog, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic|checkpoint"):
            load_checkpoint(str(path))

    def test_resumed_run_is_bitwise_the_uninterrupted_run(self, girl_dog, tmp_path):
        ds = tiny_dataset(girl_dog)
        ds.samples = ds.samples * 3
        cfg = TrainConfig(batch_size=4, epochs=4, seed=5, lr=1e-2)
        whole = Trainer(tiny_model(seed=5), ds, cfg)
        history = whole.fit()
        first = Trainer(tiny_model(seed=5), ds, cfg)
        head = [first.run_epoch() for _ in range(2)]
        path = tmp_path / "half.ckpt"
        save_checkpoint(str(path), first.model, first.optimizer)
        model, opt = load_checkpoint(str(path))
        resumed = Trainer(model, ds, cfg)
        resumed.optimizer = opt
        resumed.shuffle_rng.bit_generator.state = first.shuffle_rng.bit_generator.state
        resumed.epoch = 2
        tail = [resumed.run_epoch() for _ in range(2)]
        assert head + tail == history
        for a, b in zip(model.params.tensors(), whole.model.params.tensors()):
            assert a.data.tobytes() == b.data.tobytes()
        assert opt.step_count == whole.optimizer.step_count == 8
        assert opt.m_flat.tobytes() == whole.optimizer.m_flat.tobytes()
        assert opt.v_flat.tobytes() == whole.optimizer.v_flat.tobytes()

    def test_trainer_with_a_loaded_optimizer_moves_the_model(self, girl_dog, tmp_path):
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        trainer.fit()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), trainer.model, trainer.optimizer)
        model, opt = load_checkpoint(str(path))
        again = Trainer(model, tiny_dataset(girl_dog), TrainConfig(batch_size=2, lr=1e-3))
        again.optimizer = opt  # a second Adam over the same parameters, replaced
        before = [t.data.copy() for t in model.params.tensors()]
        m_before = opt.m_flat.copy()
        again.run_epoch()
        moved = [not np.array_equal(a, t.data) for a, t in zip(before, model.params.tensors())]
        assert sum(moved) > len(moved) // 2
        assert opt.step_count == 2 and not np.array_equal(m_before, opt.m_flat)

    def test_checkpoint_interval_writes_during_fit(self, girl_dog, tmp_path):
        path = tmp_path / "periodic.ckpt"
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=2, lr=1e-3,
                                      checkpoint_interval=1))
        trainer.fit(checkpoint_path=str(path))
        restored, opt = load_checkpoint(str(path))
        assert opt.step_count == trainer.optimizer.step_count


def write_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its JSON header passed through ``edit``."""
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:]


class TestHeaderBytes:
    @pytest.mark.parametrize("case", ["optimizer", "no optimizer", "word vectors", "ce only"])
    def test_header_is_the_field_by_field_header(self, tmp_path, case):
        """The ``Header`` record is written byte for byte as the header was
        written field by field, and loading gives back the saved model's config;
        with a word-vector file its ``d_emb`` is the file's width."""
        vectors = fixture_path("wordvecs.txt") if case == "word vectors" else None
        model = built_model(dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16,
                                 max_len=32, **({"streams": ("ce",)} if case == "ce only"
                                                else {})),
                            WORDS, ANSWERS, vectors)
        optimizer = None if case == "no optimizer" else Adam(model.params, 1e-3)
        if optimizer is not None:
            optimizer.step_count = 3
        path = tmp_path / "h.ckpt"
        save_checkpoint(str(path), model, optimizer)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        want = json.dumps(refops.checkpoint_header(model, optimizer), sort_keys=True)
        assert blob[16:16 + hlen] == want.encode("utf-8")
        loaded, opt = load_checkpoint(str(path))
        assert loaded.config == model.config
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
        assert (opt is None) == (optimizer is None)
        assert "d_emb" not in json.loads(blob[16:16 + hlen])
        if case == "word vectors":
            assert model.config.d_emb == model.params["embed.table"].data.shape[1] == 3


class TestStrictCheckpoint:
    @pytest.fixture
    def saved(self, girl_dog, tmp_path):
        trainer = Trainer(tiny_model(), tiny_dataset(girl_dog),
                          TrainConfig(batch_size=2, epochs=1, lr=1e-3))
        trainer.fit()
        path = tmp_path / "good.ckpt"
        save_checkpoint(str(path), trainer.model, trainer.optimizer)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        n_params = sum(t.data.size for t in trainer.model.params.tensors())
        return tmp_path, blob, 16 + hlen, 8 * n_params

    def rejects(self, tmp_path, blob, match):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=match) as exc:
            load_checkpoint(str(path))
        assert str(path) in str(exc.value)

    def test_missing_d_emb(self, saved):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, write_header(blob, lambda h: h["model_config"].pop("d_emb")),
                     "checkpoint header: model_config: missing field 'd_emb'")

    def test_top_level_d_emb_is_an_unknown_field(self, saved):
        """Since version 4 the header states d_emb once, in model_config."""
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, write_header(blob, lambda h: h.update(d_emb=8)),
                     r"checkpoint header: unknown fields \['d_emb'\]")

    def test_trailing_bytes(self, saved):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, blob + b"\x00" * 8, "8 trailing bytes")

    def test_trailing_bytes_short_of_a_value(self, saved):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, blob + b"\x00" * 3, "3 trailing bytes after the last block$")

    @pytest.mark.parametrize("where", ["magic", "header", "parameter", "optimizer"])
    def test_truncation(self, saved, where):
        tmp_path, blob, params_at, param_bytes = saved
        cut = {"magic": 2, "header": params_at - 5, "parameter": params_at + param_bytes // 2,
               "optimizer": params_at + param_bytes + 12}[where]
        assert cut < len(blob)
        self.rejects(tmp_path, blob[:cut], f"truncated checkpoint: file ends inside the {where}")

    # The cases whose messages changed wording keep the ids the suite has
    # always listed them under.
    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda h: h.update(d_region="4"),
                     "field 'd_region' must be an integer, got str",
                     id="<lambda>-d_region has the wrong type"),
        pytest.param(lambda h: h["model_config"].update(use_lead_graphs=1),
                     "model_config: field 'use_lead_graphs' must be a boolean, got int",
                     id="<lambda>-use_lead_graphs has the wrong"),
        pytest.param(lambda h: h["model_config"].update(extra=1),
                     r"model_config: unknown fields \['extra'\]",
                     id="<lambda>-unknown model_config keys"),
        pytest.param(lambda h: h["model_config"].pop("pooling"),
                     "model_config: missing field 'pooling'", id="<lambda>-pooling is missing"),
        pytest.param(lambda h: h["blocks"][3].update(shape=[16, 4]),
                     re.escape("block 3 is ('ce.concept_mlp.w2', [8, 8]), "
                               "listed as ('ce.concept_mlp.w2', [16, 4])"),
                     id="<lambda>-has shape"),
        # the last block is ss.enc.pos, 32 x 8 values in each of the three sections
        pytest.param(lambda h: h["blocks"].pop(), "6144 trailing bytes after the last block",
                     id="<lambda>-one block fewer"),
        pytest.param(lambda h: h["blocks"].append({"name": "extra", "shape": [0]}),
                     "do not match this build: .* listed, .* built", id="<lambda>-extra block"),
        pytest.param(lambda h: h.update(optimizer=None), r"\d+ trailing bytes after the last block",
                     id="<lambda>-optimizer record dropped"),
        pytest.param(lambda h: h["blocks"][2].update(shape=[8, -1]),
                     r"blocks\[2\]: field 'shape' must hold integers >= 0",
                     id="<lambda>-negative shape"),
        pytest.param(lambda h: h["blocks"][2].update(shape=[True]),
                     r"blocks\[2\]: shape must hold integers, got bool",
                     id="<lambda>-boolean shape"),
        pytest.param(lambda h: h["blocks"][0].pop("name"), r"blocks\[0\]: missing field 'name'",
                     id="<lambda>-block without a name"),
        pytest.param(lambda h: h["optimizer"].update(step=1.5),
                     "optimizer: field 'step' must be an integer, got float",
                     id="<lambda>-optimizer.step"),
        (lambda h: h.update(word_vocab="abc"), "word_vocab"),
        pytest.param(lambda h: h["optimizer"].update(lr=-1.0),
                     "optimizer: lr must be a finite value > 0, got -1.0",
                     id="<lambda>-optimizer.lr must be > 0"),
        pytest.param(lambda h: h["optimizer"].update(lr=0),
                     "optimizer: lr must be a finite value > 0, got 0.0",
                     id="<lambda>-optimizer.lr zero"),
        pytest.param(lambda h: h["optimizer"].update(lr=float("nan")),
                     "optimizer: lr must be a finite value > 0, got nan",
                     id="<lambda>-optimizer.lr nan"),
        pytest.param(lambda h: h["optimizer"].update(lr=10**400),
                     "optimizer: field 'lr' is out of the float range",
                     id="<lambda>-optimizer.lr beyond the float range"),
        pytest.param(lambda h: h["optimizer"].pop("lr"), "optimizer: missing field 'lr'",
                     id="<lambda>-optimizer.lr missing"),
        pytest.param(lambda h: h["optimizer"].update(beta1=0.9),
                     r"optimizer: unknown fields \['beta1'\]", id="<lambda>-optimizer.beta1"),
        pytest.param(lambda h: h["optimizer"].update(beta2=0.999),
                     r"optimizer: unknown fields \['beta2'\]", id="<lambda>-optimizer.beta2"),
        pytest.param(lambda h: h["optimizer"].update(eps=1e-8),
                     r"optimizer: unknown fields \['eps'\]", id="<lambda>-optimizer.eps"),
        pytest.param(lambda h: h["optimizer"].update(step=-1), "optimizer: step must be >= 0",
                     id="<lambda>-optimizer.step must be >= 0"),
        (lambda h: h.update(extra=1), r"checkpoint header: unknown fields \['extra'\]"),
        (lambda h: h["optimizer"].update(extra=1), r"optimizer: unknown fields \['extra'\]"),
        (lambda h: h["blocks"][0].update(extra=1), r"blocks\[0\]: unknown fields \['extra'\]"),
        pytest.param(lambda h: h["model_config"].update(eps_norm=1e-5),
                     r"model_config: unknown fields \['eps_norm'\]", id="<lambda>-eps_norm"),
        pytest.param(lambda h: h["model_config"].update(eps_row=1e-12),
                     r"model_config: unknown fields \['eps_row'\]", id="<lambda>-eps_row"),
        pytest.param(lambda h: h["model_config"].update(streams=["ce", "ce"]),
                     "model_config: streams holds a duplicate entry", id="<lambda>-streams repeat"),
    ])
    def test_header_keys_types_and_blocks(self, saved, edit, match):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, write_header(blob, edit), match)

    def test_header_listing_fewer_blocks_than_its_config_stops_the_build(self, saved,
                                                                         monkeypatch):
        """The declared blocks are compared with the header's list before the
        arena is allocated, so a config of 2000 layers draws no block."""
        tmp_path, blob, _, _ = saved
        calls = []
        monkeypatch.setattr(ad, "Parameters", lambda *args: calls.append(args))
        self.rejects(tmp_path, write_header(blob, lambda h: h["model_config"].update(
            num_layers=2000)), "parameter blocks do not match this build")
        assert calls == []

    def test_version_1_rejected(self, saved):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, blob[:4] + struct.pack("<I", 1) + blob[8:],
                     "unsupported checkpoint version 1$")

    def test_header_only_file_draws_no_block(self, saved, monkeypatch):
        """The size the header lists is checked against the file before the
        model is built, so a file cut after its header allocates nothing."""
        tmp_path, blob, params_at, _ = saved
        calls = []
        monkeypatch.setattr(ad, "Parameters", lambda *args: calls.append(args))
        self.rejects(tmp_path, blob[:params_at],
                     "truncated checkpoint: file ends inside the parameter block embed.table$")
        assert calls == []

    @pytest.mark.parametrize("section", [0, 1, 2])
    def test_cut_at_a_block_boundary_names_the_next_block(self, saved, section):
        tmp_path, blob, params_at, param_bytes = saved
        blocks = json.loads(blob[16:params_at])["blocks"]
        first = 8 * int(np.prod(blocks[0]["shape"]))
        name = ("parameter", "optimizer first-moment", "optimizer second-moment")[section]
        self.rejects(tmp_path, blob[:params_at + section * param_bytes + first],
                     f"ends inside the {name} block {re.escape(blocks[1]['name'])}$")

    def test_listed_size_beyond_int64_is_a_truncation(self, saved):
        tmp_path, blob, _, _ = saved
        self.rejects(tmp_path, write_header(blob, lambda h: h["blocks"][0].update(
            shape=[2**62, 2**62])), "ends inside the parameter block embed.table$")

    @pytest.mark.parametrize("section, moment", [(1, "first"), (2, "second")])
    def test_truncated_moment_names_its_block(self, saved, section, moment):
        tmp_path, blob, params_at, param_bytes = saved
        blocks = json.loads(blob[16:params_at])["blocks"]
        sizes = [int(np.prod(b["shape"])) for b in blocks]
        for i in (0, 5, len(blocks) - 1):
            cut = params_at + section * param_bytes + 8 * (sum(sizes[:i]) + sizes[i] // 2)
            self.rejects(tmp_path, blob[:cut], f"ends inside the optimizer {moment}-moment "
                                               f"block {re.escape(blocks[i]['name'])}$")

    def test_header_not_json(self, saved):
        tmp_path, blob, params_at, _ = saved
        self.rejects(tmp_path, blob[:16] + b"{" * (params_at - 16) + blob[params_at:], "JSON")

    def test_header_nested_too_deep(self, saved):
        tmp_path, blob, params_at, _ = saved
        self.rejects(tmp_path, blob[:16] + b"[" * (params_at - 16) + blob[params_at:],
                     "not valid JSON")

    def test_good_file_still_loads(self, saved):
        tmp_path, blob, _, _ = saved
        path = tmp_path / "copy.ckpt"
        path.write_bytes(blob)
        model, opt = load_checkpoint(str(path))
        assert opt is not None and opt.step_count == 1


class TestBatchedTraining:
    def test_one_tape_and_one_step_per_batch(self, girl_dog, monkeypatch):
        ds = tiny_dataset(girl_dog)
        ds.samples = ds.samples * 3  # 6 samples: batches of 4 and 2
        trainer = Trainer(tiny_model(), ds, TrainConfig(batch_size=4, epochs=1, lr=1e-3))
        tapes, steps, sizes = [], [], []
        monkeypatch.setattr(ad.Tape, "__enter__",
                            lambda t, enter=ad.Tape.__enter__: tapes.append(t) or enter(t))
        monkeypatch.setattr(trainer.optimizer, "step", steps.append)
        forward_batch = trainer.model.forward_batch
        monkeypatch.setattr(trainer.model, "forward_batch",
                            lambda preps: sizes.append(len(preps)) or forward_batch(preps))
        trainer.run_epoch()
        assert len(tapes) == 2 and len(steps) == 2 and sizes == [4, 2]

    def test_batch_gradient_is_mean_of_sample_gradients(self, girl_dog, monkeypatch):
        scene, question = girl_dog
        model = tiny_model()
        preps = [model.prepare(scene, question, a) for a in (0, 2, 3)]
        trainer = Trainer(model, tiny_dataset(girl_dog), TrainConfig(batch_size=3, lr=1e-3))
        trainer.prepared = preps
        got = []
        monkeypatch.setattr(trainer.optimizer, "step", got.append)
        record = trainer.run_epoch()
        expect = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        losses = []
        for prep in preps:
            with ad.Tape() as t:
                loss = model.loss(model.forward(prep), prep.answer_index)
            for name, g in zip(model.params.names(), t.gradients(loss, model.params.tensors())):
                expect[name] += g / 3
            losses.append(float(loss.data))
        assert abs(record["loss"] - sum(losses) / 3) <= 1e-12 * record["loss"]
        for name, g in model.params.views(got[0]).items():
            np.testing.assert_allclose(g, expect[name], rtol=1e-10,
                                       atol=1e-12 * np.abs(expect[name]).max())

    def test_evaluate_runs_chunks_and_predicts_in_order(self, girl_dog, monkeypatch):
        ds = tiny_dataset(girl_dog)
        ds.samples = ds.samples * 33  # 66 samples: chunks of 32, 32 and 2
        model = tiny_model()
        sizes, preds = [], []
        forward_batch, predict = model.forward_batch, model.predict
        monkeypatch.setattr(model, "forward_batch",
                            lambda preps: sizes.append(len(preps)) or forward_batch(preps))
        monkeypatch.setattr(model, "predict", lambda b: preds.append(predict(b)) or preds[-1])
        report = evaluate(model, ds)
        assert sizes == [training.EVAL_CHUNK] * 2 + [2] and training.EVAL_CHUNK == 32
        scene, question = girl_dog
        single = [predict(model.forward(model.prepare(scene, question, 0)))] * 66
        assert preds == single
        assert report["n"] == 66

    @pytest.mark.parametrize("world, n", [({}, 100),
                                          ({"objects_min": 1, "objects_max": 4,
                                            "grid_size": 7}, 80)],
                             ids=["pinned", "grid7"])
    def test_evaluate_matches_single_questions_and_chunk_16(self, tmp_path, monkeypatch,
                                                            world, n):
        """On a whole eval split, one forward per 32 samples answers every
        question as the one-question path does, and its mean loss stays within
        rounding of 16-sample forwards."""
        # the eval split of seed 7 is drawn from seed 8
        ds = load_manifest(gen_corpus(ToyWorldSpec(**world), 1, n, 7, str(tmp_path))[1])
        model = Model(ModelConfig(), ds.word_vocab, ds.answer_vocab, ds.d_region,
                      ds.d_spatial, seed=7)
        prepared = [model.prepare(s.scene, s.question, ds.answer_index(s.answer))
                    for s in ds.samples]
        preds, predict = [], model.predict
        monkeypatch.setattr(model, "predict", lambda b: preds.append(predict(b)) or preds[-1])
        report = evaluate(model, ds, prepared)
        assert preds == [predict(model.forward(p)) for p in prepared]
        monkeypatch.setattr(training, "EVAL_CHUNK", 16)
        report_16 = evaluate(model, ds, prepared)
        assert abs(report["loss"] - report_16["loss"]) <= 1e-12 * report_16["loss"]


class TestAccuracyCounts:
    @pytest.mark.parametrize("heads", [("f_ce", "f_rn", "f_ss"), ("f_rn",)])
    def test_batched_counts_match_per_row_predictions(self, heads):
        model = tiny_model()
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = int(rng.integers(1, 12))
            # small integer logits: ties within a head and in the averaged scores
            logits = {name: ad.Tensor(rng.integers(-2, 3, size=(b, 4)).astype(float))
                      for name in (*heads, "f_ga")}
            bundle = LogitsBundle(**{"f_ce": None, "f_rn": None, "f_ss": None, **logits})
            answers = rng.integers(0, 4, size=b).tolist()
            expect: dict[str, int] = {}
            for row, answer in zip(bundle.rows(), answers):
                for tag, t in row.all_logits().items():
                    expect[tag] = expect.get(tag, 0) + (int(np.argmax(t.data)) == answer)
                expect["avg"] = expect.get("avg", 0) + (model.predict(row) == answer)
            got: dict[str, int] = {}
            averaged = bundle.averaged_argmax()
            assert averaged.tolist() == [model.predict(row) for row in bundle.rows()]
            training._accuracy_update(got, bundle, answers, averaged)
            assert got == expect


class TestLossValue:
    def test_matches_tape_loss(self, girl_dog):
        scene, question = girl_dog
        model = tiny_model()
        prep = model.prepare(scene, question, answer_index=1)
        with ad.Tape():
            bundle = model.forward(prep)
            tape_loss = float(model.loss(bundle, 1).data)
        assert loss_value(model, prep) == tape_loss


class TestAblationTable:
    @pytest.mark.parametrize("vectors", [None, fixture_path("wordvecs.txt")],
                             ids=["init", "vectors"])
    def test_rows_are_the_per_variant_reference_runs(self, tmp_path, vectors):
        """Every row, float for float, is a fresh seeded model trained by
        ``Trainer.fit`` and scored by ``evaluate``, as the reference loop runs it."""
        data, rel = tmp_path / "full", tmp_path / "relation"
        gen_corpus(DEFAULT_WORLD, 8, 4, 23, str(data))
        gen_corpus(ToyWorldSpec(templates=("relation",)), 4, 2, 31, str(rel))
        model_kw = dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16)
        train_kw = dict(batch_size=4, epochs=1, seed=5, lr=1e-3)
        rows = training.ablation_table(str(data), model_kw, train_kw,
                                       {} if vectors is None else {"word_vectors": vectors},
                                       relation_data=str(rel))
        assert rows == refops.ablation_rows(str(data), model_kw, train_kw, vectors,
                                            relation_data=str(rel))
        assert [r["variant"] for r in rows] == [
            *(name for name, _ in training.ABLATION_VARIANTS),
            "full (relation corpus)", "no_lead_graph (relation corpus)"]
