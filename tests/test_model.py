"""End-to-end model contracts: logits, fusion, loss, prediction, variants."""

import re

import numpy as np
import pytest

import granalign.autodiff as ad
from granalign import encoder, ingest, leadgraph, training
from granalign.data import DEFAULT_WORLD, ToyWorldSpec, gen_corpus, gen_samples, load_manifest
from granalign.encoder import EncoderConfig, Layout, encoder_layer
from granalign.ingest import question_from_dict
from granalign.leadgraph import layer_masks, pairs_to_matrix
from granalign.model import HEADS, STREAMS, LogitsBundle, Model, ModelConfig
from granalign.training import (ABLATION_VARIANTS, Adam, generic_parameter_point,
                                load_checkpoint, save_checkpoint)
import reference_ops as refops
from conftest import (append_sep_mask, fd_gradient, fixture_path, level_graph, reference_batch,
                      rel_err, weighted_sum, whole_grid)

WORDS = ["what", "color", "is", "the", "there", "a",
         "girl", "dog", "brown", "left", "right"]
ANSWERS = ["brown", "red", "yes", "no"]


def small_config(**kw):
    base = dict(d_model=8, d_emb=8, num_heads=2, num_layers=3, d_ff=16, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


def make_model(girl_dog, seed=0, word_vector_file=None, **cfg_kw):
    scene, question = girl_dog
    model = Model(small_config(**cfg_kw), WORDS, ANSWERS,
                  d_region=4, d_spatial=4, seed=seed,
                  word_vector_file=word_vector_file)
    prep = model.prepare(scene, question, answer_index=0)
    return model, prep


def np_cross_entropy(logits, target):
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[target])


class TestForward:
    def test_logit_shapes_and_presence(self, girl_dog):
        model, prep = make_model(girl_dog)
        bundle = model.forward(prep)
        logits = bundle.all_logits()
        assert list(logits) == ["ce", "rn", "ss", "ga"]
        for t in logits.values():
            assert t.data.shape == (len(ANSWERS),)
            assert np.all(np.isfinite(t.data))

    def test_stream_subset_drops_logits_and_parameters(self, girl_dog):
        model, prep = make_model(girl_dog, streams=("ce",))
        bundle = model.forward(prep)
        assert bundle.f_rn is None and bundle.f_ss is None
        assert list(bundle.all_logits()) == ["ce", "ga"]
        names = model.params.names()
        assert not any(n.startswith("rn.") or n.startswith("ss.") for n in names)
        assert not any(n.startswith("sent.") for n in names)

    def test_sentence_stack_built_only_for_ss(self, girl_dog):
        model, _ = make_model(girl_dog, streams=("ce", "ss"))
        assert any(n.startswith("sent.enc") for n in model.params.names())
        assert "rn" not in model.stacks

    def test_forward_is_deterministic(self, girl_dog):
        model, prep = make_model(girl_dog)
        a = model.forward(prep)
        b = model.forward(prep)
        for ta, tb in zip(a.all_logits().values(), b.all_logits().values()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_same_seed_same_parameters(self, girl_dog):
        m1, _ = make_model(girl_dog, seed=5)
        m2, _ = make_model(girl_dog, seed=5)
        m3, _ = make_model(girl_dog, seed=6)
        for t1, t2 in zip(m1.params.tensors(), m2.params.tensors()):
            assert t1.data.tobytes() == t2.data.tobytes()
        assert any(t1.data.tobytes() != t3.data.tobytes()
                   for t1, t3 in zip(m1.params.tensors(), m3.params.tensors()))


class TestParameterDraw:
    """The model's blocks drawn into one vector against the reference that
    draws each block into an array of its own, in declaration order, and
    concatenates them in the model's placement order."""

    @pytest.mark.parametrize("streams, vectors", [(tuple(STREAMS), None), (("ce",), None),
                                                  (tuple(STREAMS), "wordvecs.txt")],
                             ids=["default", "ce-only", "word-vectors"])
    def test_flat_matches_the_incremental_draw(self, streams, vectors):
        path = vectors and fixture_path(vectors)
        model = Model(ModelConfig(streams=streams), WORDS, ANSWERS, d_region=4, d_spatial=4,
                      seed=3, word_vector_file=path)
        rows = {}
        if path:
            words, table = ingest.load_word_vectors(path)
            rows = {i + 1: table[words.index(w)] for i, w in enumerate(model.vocab.words)
                    if w in words}
            assert rows
        ref = refops.incremental_draw(list(model._blocks()), np.random.default_rng(3), rows,
                                      model.params.names())
        assert model.params.flat.tobytes() == ref.tobytes()
        assert all(t.data.base is model.params.flat for t in model.params.tensors())

    @pytest.mark.parametrize("edit, match", [
        (lambda layout: layout[:-1], r"do not match this build: 189 listed, 190 built$"),
        (lambda layout: layout + [("extra", [0])], r": 191 listed, 190 built$"),
        (lambda layout: [("x", [1])] + layout[1:],
         re.escape(": block 0 is ('embed.table', [12, 32]), listed as ('x', [1])")),
    ], ids=["one-fewer", "one-more", "other-block"])
    def test_layout_mismatch_draws_no_block(self, edit, match, monkeypatch):
        layout = [(n, list(t.data.shape)) for n, t in
                  Model(ModelConfig(), WORDS, ANSWERS, 4, 4).params.items()]
        calls = []
        monkeypatch.setattr(ad, "Parameters", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=match):
            Model(ModelConfig(), WORDS, ANSWERS, 4, 4, layout=edit(layout))
        assert calls == []

    def test_model_beyond_the_size_limit_draws_no_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ad, "Parameters", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^a model's parameter count is \d+, beyond"):
            Model(ModelConfig(d_emb=10**12), WORDS, ANSWERS, 4, 4)
        assert calls == []


class TestModelConfig:
    def test_is_the_encoder_config_of_every_stack(self, girl_dog):
        model, _ = make_model(girl_dog)
        assert isinstance(model.config, EncoderConfig)
        assert all(stack.cfg is model.config for stack in model.stacks.values())
        assert model.config.d_k == 4

    def test_encoder_sizes_validated(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=30)
        with pytest.raises(ValueError, match="^num_layers must be >= 1, got 0$"):
            ModelConfig(num_layers=0)

    @pytest.mark.parametrize("field", ["d_emb", "max_len"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_embedding_width_and_max_len_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("streams", [("ce", "ce"), ("rn", "ss", "rn")])
    def test_repeated_stream_rejected(self, streams):
        with pytest.raises(ValueError, match="streams holds a duplicate entry"):
            ModelConfig(streams=streams)


class TestPrepare:
    def test_graphs_cover_configured_streams(self, girl_dog):
        model, prep = make_model(girl_dog, streams=("ce", "rn"))
        assert set(prep.plans) == {"ce", "rn"}
        assert prep.answer_index == 0

    def test_concept_graph_matches_pairs(self, girl_dog):
        model, prep = make_model(girl_dog)
        ni, nq = prep.levels["concept"].n_tokens, prep.levels["entity"].n_tokens
        layer3 = prep.plans["ce"][2]
        expect = pairs_to_matrix(prep.levels["concept"].pairs, ni)
        assert np.array_equal(layer3[:ni, :ni], expect.matrix)
        assert layer3[ni + 1:, ni + 1:].shape == (nq, nq)

    @pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
    def test_plans_keyed_like_stacks(self, girl_dog, variant):
        model, prep = make_model(girl_dog, **dict(ABLATION_VARIANTS)[variant])
        assert set(prep.plans) == set(model.stacks)

    def test_sentence_masks_view_the_dependency_adjacency(self, girl_dog):
        """The sentence stack's masks are its adjacency at every layer: a
        broadcast view, not a copy."""
        model, prep = make_model(girl_dog, num_layers=4)
        adj = prep.levels["sentence"].dep_adjacency
        masks = prep.plans["sent"]
        assert masks.shape == (4,) + adj.shape and masks.dtype == bool
        assert np.shares_memory(masks, adj)
        for m in masks:
            np.testing.assert_array_equal(m, adj)

    def test_full_graphs_when_lead_graphs_disabled(self, girl_dog):
        model, prep = make_model(girl_dog, use_lead_graphs=False)
        for tag in model.config.streams:
            plan = prep.plans[tag]
            img, q = prep.levels[STREAMS[tag].image], prep.levels[STREAMS[tag].question]
            n = img.n_tokens + 1 + q.n_tokens
            assert len(plan) == model.config.num_layers
            for m in plan:
                np.testing.assert_array_equal(m, np.ones((n, n)))

    @pytest.mark.parametrize("node_reduction", [False, True])
    def test_plans_match_layer_masks(self, girl_dog, node_reduction):
        model, prep = make_model(girl_dog, node_reduction=node_reduction, num_layers=4)
        for tag in model.config.streams:
            plan = prep.plans[tag]
            img, q = prep.levels[STREAMS[tag].image], prep.levels[STREAMS[tag].question]
            masks = layer_masks(append_sep_mask(level_graph(img)), level_graph(q))
            assert len(plan) == 4
            assert plan.dtype == bool
            for i, m in enumerate(plan):
                np.testing.assert_array_equal(m, masks[min(i, 2)].matrix)

    def test_stream_longer_than_max_len_rejected(self, girl_dog):
        scene, _ = girl_dog
        words = ["what"] * 70
        question = question_from_dict({"tokens": words, "entities": ["dog"],
                                       "noun_phrases": [["dog"]], "dependency_edges": []})
        model = Model(small_config(max_len=64), WORDS, ANSWERS, d_region=4, d_spatial=4)
        with pytest.raises(ValueError, match="stream ss has 75 tokens"):
            model.prepare(scene, question, answer_index=0)

    def test_stream_is_refused_before_any_mask_plan(self, monkeypatch):
        """A 100 x 100 grid at d_spatial 1 makes a 10,005-token ss stream.
        ``prepare`` refuses it from its levels' lengths, with the error it
        always gave, and builds no mask plan for any stream first."""
        spec = ToyWorldSpec(grid_size=100, d_spatial=1)
        sample = gen_samples(spec, 1, np.random.SeedSequence(0), "train")[0]
        model = Model(small_config(max_len=64), WORDS, ANSWERS, spec.d_region, spec.d_spatial)
        calls, real = [], leadgraph.mask_plan
        monkeypatch.setattr("granalign.model.mask_plan",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        with pytest.raises(ValueError) as err:
            model.prepare(sample.scene, sample.question, answer_index=0)
        assert str(err.value) == "stream ss has 10005 tokens, more than max_len 64"
        assert calls == []

    def test_forward_reads_plans_without_building_graphs(self, girl_dog, monkeypatch):
        model, prep = make_model(girl_dog)
        before = {tag: [m.copy() for m in plan] for tag, plan in prep.plans.items()}
        built = []
        original = leadgraph.LeadGraph.__post_init__
        monkeypatch.setattr(leadgraph.LeadGraph, "__post_init__",
                            lambda g: built.append(g) or original(g))
        model.forward(prep)
        assert built == []
        for tag, plan in prep.plans.items():
            for a, b in zip(plan, before[tag]):
                assert a.tobytes() == b.tobytes()

    def test_node_reduction_empties_entity_level(self, girl_dog):
        model, prep = make_model(girl_dog, node_reduction=True)
        assert prep.levels["entity"].n_tokens == 0
        bundle = model.forward(prep)
        assert bundle.f_ce.data.shape == (len(ANSWERS),)


class TestLoss:
    def test_loss_is_sum_of_cross_entropies(self, girl_dog):
        model, prep = make_model(girl_dog)
        bundle = model.forward(prep)
        with ad.Tape():
            loss = model.loss(bundle, 2)
        expect = sum(np_cross_entropy(t.data, 2) for t in bundle.all_logits().values())
        assert abs(float(loss.data) - expect) <= 1e-12

    def test_zeroed_heads_give_uniform_loss(self, girl_dog):
        model, prep = make_model(girl_dog)
        for name in model.params.names():
            if ".head_w" in name or ".head_b" in name:
                model.params[name].data[:] = 0.0
        bundle = model.forward(prep)
        with ad.Tape():
            loss = model.loss(bundle, 0)
        assert abs(float(loss.data) - 4.0 * np.log(len(ANSWERS))) <= 1e-9

    def test_answer_index_out_of_range(self, girl_dog):
        model, prep = make_model(girl_dog)
        bundle = model.forward(prep)
        with pytest.raises(ValueError):
            model.loss(bundle, len(ANSWERS))
        with pytest.raises(ValueError):
            model.loss(bundle, -1)

    def test_subset_loss_counts_terms(self, girl_dog):
        model, prep = make_model(girl_dog, streams=("ce",))
        for name in model.params.names():
            if ".head_w" in name or ".head_b" in name:
                model.params[name].data[:] = 0.0
        bundle = model.forward(prep)
        with ad.Tape():
            loss = model.loss(bundle, 0)
        assert abs(float(loss.data) - 2.0 * np.log(len(ANSWERS))) <= 1e-9


class TestNames:
    """The heads are named once, in ``HEADS``; the levels once, in
    ``ingest.LEVEL_TAGS``."""

    def test_heads_are_the_streams_then_the_fused_head(self):
        assert HEADS == (*STREAMS, "ga")
        assert LogitsBundle._fields == tuple(f"f_{h}" for h in HEADS)

    @pytest.mark.parametrize("node_reduction", [False, True])
    def test_prepared_levels_are_keyed_by_level_tag(self, girl_dog, node_reduction):
        _, prep = make_model(girl_dog, node_reduction=node_reduction)
        assert set(prep.levels) == set(ingest.LEVEL_TAGS)
        assert all(level.level == tag for tag, level in prep.levels.items())

    @pytest.mark.parametrize("streams", [("ss", "ce"), ("rn",), ("ce", "rn", "ss")])
    def test_a_stream_subset_keeps_heads_order(self, girl_dog, streams):
        """``all_logits`` and ``rows`` follow ``HEADS``, whatever the order of
        the configured streams."""
        model, prep = make_model(girl_dog, streams=streams)
        bundle = model.forward_batch([prep, prep])
        want = [h for h in HEADS if h in streams or h == "ga"]
        assert list(bundle.all_logits()) == want
        for i, row in enumerate(bundle.rows()):
            assert [t is None for t in row] == [t is None for t in bundle]
            assert list(row.all_logits()) == want
            for head, t in row.all_logits().items():
                assert t.data.tobytes() == bundle.all_logits()[head].data[i].tobytes()


class TestPredict:
    def test_predict_averages_all_logit_vectors(self, girl_dog):
        model, _ = make_model(girl_dog)
        bundle = LogitsBundle(
            f_ce=ad.Tensor([10.0, 0.0, 0.0, 0.0]),
            f_rn=ad.Tensor([0.0, 0.0, 0.0, 2.0]),
            f_ss=ad.Tensor([0.0, 0.0, 0.0, 3.0]),
            f_ga=ad.Tensor([0.0, 0.0, 0.0, 6.0]),
        )
        assert model.predict(bundle) == 3

    def test_tie_resolves_to_lowest_class(self, girl_dog):
        model, _ = make_model(girl_dog)
        bundle = LogitsBundle(
            f_ce=ad.Tensor([1.0, 2.0, 0.0, 0.0]),
            f_rn=ad.Tensor([2.0, 1.0, 0.0, 0.0]),
            f_ss=ad.Tensor([0.0, 0.0, 3.0, 0.0]),
            f_ga=ad.Tensor([3.0, 3.0, 0.0, 0.0]),
        )
        assert model.predict(bundle) == 0

    @pytest.mark.parametrize("batch", [None, 5], ids=["1-D", "B x c"])
    def test_averaged_argmax_matches_np_mean(self, batch):
        """Same answers as the argmax of ``np.mean(axis=0)`` over the heads,
        including exact and rounding-level ties between classes."""
        rng = np.random.default_rng(5)
        shape = (7,) if batch is None else (batch, 7)
        for trial in range(400):
            streams = [s for s in ("f_ce", "f_rn", "f_ss") if rng.random() < 0.6]
            if trial % 2:  # tenths: class scores tie exactly or within rounding
                draw = lambda: rng.integers(-3, 4, size=shape) / 10.0
            else:
                draw = lambda: rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
            heads = {name: draw() for name in (*streams, "f_ga")}
            bundle = LogitsBundle(**{"f_ce": None, "f_rn": None, "f_ss": None,
                                     **{k: ad.Tensor(v) for k, v in heads.items()}})
            expect = np.argmax(np.mean(list(heads.values()), axis=0), axis=-1)
            np.testing.assert_array_equal(bundle.averaged_argmax(), expect)

    def test_stream_predictions_keys(self, girl_dog):
        model, prep = make_model(girl_dog)
        bundle = model.forward(prep)
        preds = {tag: int(np.argmax(t.data)) for tag, t in bundle.all_logits().items()}
        assert list(preds) == ["ce", "rn", "ss", "ga"]
        assert all(0 <= v < len(ANSWERS) for v in preds.values())


CALLS = {"merged": 10**9, "per-stream": 0}  # MERGE_GRID_CELLS that forces each kind of call


class TestPooling:
    @pytest.mark.parametrize("call", list(CALLS))
    def test_sep_pool_reads_sep_row(self, girl_dog, monkeypatch, call):
        """Under SEP pooling the head reads nothing of a stream but its SEP row,
        the one row after the image rows of the stream's share of the rows."""
        monkeypatch.setattr(encoder, "MERGE_GRID_CELLS", CALLS[call])
        model, prep = make_model(girl_dog, pooling="sep")
        outputs = model.encode([prep])
        base = model.fuse(outputs).all_logits()
        sep_rows = {}  # per distinct hidden: the hidden and its streams' SEP rows
        for s, (tag, (hidden, pool)) in enumerate(zip(model.config.streams, outputs)):
            (sep_row,) = np.flatnonzero(pool[0])
            n_groups = sum(h is hidden for h, _ in outputs)  # streams sharing the rows
            start = (s if n_groups > 1 else 0) * len(hidden.data) // n_groups
            assert sep_row == start + prep.levels[STREAMS[tag].image].n_tokens
            assert pool[0, sep_row] == 1
            sep_rows.setdefault(id(hidden), (hidden, []))[1].append(sep_row)
        assert len(sep_rows) == (1 if call == "merged" else 3)
        for hidden, rows in sep_rows.values():
            others = np.ones(len(hidden.data), dtype=bool)
            others[rows] = False
            hidden.data[others] += np.arange(hidden.data.shape[1])
        bumped = model.fuse(outputs).all_logits()
        for tag, t in base.items():
            assert bumped[tag].data.tobytes() == t.data.tobytes()
        hidden = outputs[0][0].data
        hidden[np.flatnonzero(outputs[0][1][0])] += np.arange(hidden.shape[1])
        assert not np.allclose(model.fuse(outputs).f_ce.data, base["ce"].data)

    @pytest.mark.parametrize("call", list(CALLS))
    def test_mean_pool_averages_rows(self, girl_dog, monkeypatch, call):
        """Under mean pooling each stream's rows act as their mean alone."""
        monkeypatch.setattr(encoder, "MERGE_GRID_CELLS", CALLS[call])
        model, prep = make_model(girl_dog, pooling="mean")
        outputs = model.encode([prep])
        means = [(ad.Tensor(hidden.data[pool[0] > 0].mean(axis=0, keepdims=True)),
                  np.ones((1, 1))) for hidden, pool in outputs]
        got, expect = model.fuse(outputs).all_logits(), model.fuse(means).all_logits()
        for tag in got:
            np.testing.assert_allclose(got[tag].data, expect[tag].data, rtol=1e-12, atol=1e-12)

    def test_pooling_changes_logits(self, girl_dog):
        m_mean, prep_mean = make_model(girl_dog, pooling="mean")
        m_sep, prep_sep = make_model(girl_dog, pooling="sep")
        a = m_mean.forward(prep_mean).f_ga.data
        b = m_sep.forward(prep_sep).f_ga.data
        assert not np.allclose(a, b)


class TestVariants:
    def test_lead_graph_ablation_changes_output(self, girl_dog):
        masked, prep_m = make_model(girl_dog)
        ones, prep_o = make_model(girl_dog, use_lead_graphs=False)
        a = masked.forward(prep_m).f_ga.data
        b = ones.forward(prep_o).f_ga.data
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("call", list(CALLS))
    def test_all_ones_plan_matches_reference_loop(self, girl_dog, monkeypatch, call):
        """Without lead graphs the logits equal a plain unmasked encoder loop
        over the parts ``run_stream`` hands each stream's stack: bitwise when
        each stack runs alone, within 1e-12 when they run as one call, whose
        grid pads every stream to the widest."""
        monkeypatch.setattr(encoder, "MERGE_GRID_CELLS", CALLS[call])
        model, prep = make_model(girl_dog, use_lead_graphs=False)
        parts, run = {}, encoder.EncoderStack.run

        def capture(stack, tensors, layout, masks):
            for s, table in enumerate(stack.tables):  # tensors: part-major, stack by stack
                parts[id(table)] = [t.data for t in tensors[s::len(stack.tables)]]
            return run(stack, tensors, layout, masks)

        monkeypatch.setattr(encoder.EncoderStack, "run", capture)
        got = model.forward_batch([prep]).all_logits()
        monkeypatch.undo()
        outputs = []
        for tag in model.config.streams:
            stack = model.stacks[tag]
            t_img, sep, t_q = parts[id(stack.tables[0])]
            rows = np.concatenate([t_img, sep[None], t_q])
            n = len(rows)
            x = ad.Tensor(rows + stack.pos[0, :n])
            for weights, inputs in zip(stack.weights, stack.inputs):
                x = encoder_layer(x, np.ones((1, n, n)), weights, inputs, stack.cfg, Layout([n]))
            outputs.append((x, Layout([n]).mean_matrix()))
        reference = model.fuse(outputs).all_logits()
        assert list(got) == list(reference)
        for tag in got:
            ref = reference[tag].data
            if call == "per-stream":
                assert got[tag].data.tobytes() == ref.tobytes()
            else:
                assert np.abs(got[tag].data - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_word_vector_file_seeds_embedding_rows(self, girl_dog):
        path = fixture_path("wordvecs.txt")
        model, prep = make_model(girl_dog, word_vector_file=path)
        assert model.d_emb == 3
        row = model.params["embed.table"].data[WORDS.index("dog") + 1]
        np.testing.assert_allclose(row, [0.1, 0.2, 0.3], atol=1e-12)
        bundle = model.forward(prep)
        assert bundle.f_ga.data.shape == (len(ANSWERS),)

    def test_word_vectors_change_only_the_matched_embedding_rows(self, girl_dog):
        path = fixture_path("wordvecs.txt")
        seeded, _ = make_model(girl_dog, seed=4, word_vector_file=path)
        plain, _ = make_model(girl_dog, seed=4, d_emb=3)
        for name, t in plain.params.items():
            if name != "embed.table":
                assert seeded.params[name].data.tobytes() == t.data.tobytes(), name
        changed = (seeded.params["embed.table"].data != plain.params["embed.table"].data)
        matched = [seeded.vocab.words.index(w) + 1 for w in ("girl", "dog", "brown", "left")]
        assert np.flatnonzero(changed.any(axis=1)).tolist() == sorted(matched)

    def test_unknown_pooling_rejected(self):
        with pytest.raises(ValueError):
            small_config(pooling="max")

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            small_config(streams=())

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError):
            small_config(streams=("ce", "xx"))

    def test_empty_answer_vocab_rejected(self):
        with pytest.raises(ValueError):
            Model(small_config(), WORDS, [], d_region=4, d_spatial=4)


@pytest.fixture(scope="module")
def mixed_batch(tmp_path_factory):
    """Pinned-world samples (5-11 tokens per stream) together with 7x7-grid
    samples (ss streams of 54-55 tokens), prepared for a full-width model at
    a generic parameter point."""
    root = tmp_path_factory.mktemp("mixed")
    pinned = load_manifest(gen_corpus(DEFAULT_WORLD, 6, 1, 3, str(root / "pinned"))[0])
    wide = load_manifest(gen_corpus(ToyWorldSpec(objects_min=1, objects_max=4, grid_size=7),
                                    6, 1, 3, str(root / "wide"))[0])
    model = Model(ModelConfig(), pinned.word_vocab, pinned.answer_vocab,
                  pinned.d_region, pinned.d_spatial, seed=1)
    generic_parameter_point(model)
    preps = [model.prepare(s.scene, s.question, pinned.answer_index(s.answer))
             for s in pinned.samples + wide.samples]
    return model, preps


def batch_loss_and_grads(model, preps):
    with ad.Tape() as tape:
        bundle = model.forward_batch(preps)
        losses = model.loss(bundle, [p.answer_index for p in preps])
    grads = tape.gradients(losses, model.params.tensors(), np.full(len(preps), 1.0 / len(preps)))
    return bundle, losses.data, dict(zip(model.params.names(), grads))


class TestBatch:
    def test_lengths_are_mixed(self, mixed_batch):
        _, preps = mixed_batch
        lengths = {p.plans["ss"].shape[-1] for p in preps}
        assert min(lengths) < 12 and max(lengths) > 50

    def test_matches_per_sample_reference(self, mixed_batch, monkeypatch):
        """One packed tape with fused layers against one tape per sample
        through the op-by-op layer chain with per-sample accumulation."""
        model, preps = mixed_batch
        _, losses, grads = batch_loss_and_grads(model, preps)
        ref_losses, ref_grads = reference_batch(model, preps, monkeypatch)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        assert list(grads) == list(ref_grads) and len(grads) == 190
        for name, g in grads.items():
            ref = ref_grads[name]
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_forward_matches_its_batch_row(self, mixed_batch):
        model, preps = mixed_batch
        batch = model.forward_batch(preps)
        for i, prep in enumerate(preps):
            single = model.forward(prep).all_logits()
            for tag, t in batch.all_logits().items():
                assert single[tag].data.shape == (model.n_answers,)
                np.testing.assert_allclose(single[tag].data, t.data[i], rtol=1e-12, atol=1e-14)

    def test_sep_pooling_matches_its_batch_row(self, mixed_batch):
        model, preps = mixed_batch
        sep = Model(ModelConfig(pooling="sep"), model.vocab.words, model.answer_vocab,
                    model.d_region, model.d_spatial, seed=1)
        batch = sep.forward_batch(preps).f_ga.data
        for i, prep in enumerate(preps):
            np.testing.assert_allclose(sep.forward(prep).f_ga.data, batch[i],
                                       rtol=1e-12, atol=1e-14)

    def test_other_samples_unchanged_bitwise(self, mixed_batch):
        """Perturbing one sample's token features leaves the other rows of the
        batch's logits bitwise equal."""
        model, preps = mixed_batch
        base = model.forward_batch(preps).all_logits()
        victim = preps[7].levels
        saved = [victim["region"].features.copy(), victim["spatial"].features.copy()]
        try:
            victim["region"].features += 0.5
            victim["spatial"].features -= 0.25
            bumped = model.forward_batch(preps).all_logits()
        finally:
            victim["region"].features[...], victim["spatial"].features[...] = saved
        for tag in base:
            others = [i for i in range(len(preps)) if i != 7]
            assert bumped[tag].data[others].tobytes() == base[tag].data[others].tobytes()
            if tag != "ce":  # the concept stream reads labels, not features
                assert bumped[tag].data[7].tobytes() != base[tag].data[7].tobytes()

    def test_padding_content_has_no_influence(self, mixed_batch, monkeypatch):
        """Attention pads each sample to the longest; whatever the padded rows
        hold, every logit stays bitwise the same."""
        model, preps = mixed_batch
        base = model.forward_batch(preps).all_logits()
        pad = encoder.Layout.pad

        def noisy_pad(layout, a):
            out = pad(layout, a)
            if not layout.dense:
                flat = out.reshape((layout.batch * layout.n_max, -1))
                hole = np.ones(len(flat), dtype=bool)
                hole[layout.index] = False
                flat[hole] = 1e3
            return out

        monkeypatch.setattr(encoder.Layout, "pad", noisy_pad)
        noisy = model.forward_batch(preps).all_logits()
        for tag in base:
            assert noisy[tag].data.tobytes() == base[tag].data.tobytes()

    def test_rows_split_the_batch(self, mixed_batch):
        model, preps = mixed_batch
        bundle = model.forward_batch(preps[:3])
        rows = bundle.rows()
        assert len(rows) == 3
        for i, row in enumerate(rows):
            for tag, t in row.all_logits().items():
                assert t.data.tobytes() == bundle.all_logits()[tag].data[i].tobytes()

    def test_rows_of_a_one_sample_bundle_raise(self, mixed_batch):
        """``forward``'s 1-D bundle has no rows to split: a ValueError naming
        the shape, not one bundle of 0-d tensors per class."""
        model, preps = mixed_batch
        with pytest.raises(ValueError, match=rf"\({model.n_answers},\)"):
            model.forward(preps[0]).rows()

    def test_batch_loss_is_per_sample(self, mixed_batch):
        model, preps = mixed_batch
        answers = [p.answer_index for p in preps[:4]]
        losses = model.loss(model.forward_batch(preps[:4]), answers)
        assert losses.data.shape == (4,)
        for value, prep in zip(losses.data, preps[:4]):
            single = model.loss(model.forward(prep), prep.answer_index).data
            assert abs(value - single) <= 1e-12 * abs(single)
        with pytest.raises(ValueError, match="out of range"):
            model.loss(model.forward_batch(preps[:2]), [0, model.n_answers])

    def test_empty_batch_rejected(self, mixed_batch):
        model, _ = mixed_batch
        with pytest.raises(ValueError, match="at least one"):
            model.forward_batch([])


@pytest.fixture(scope="module")
def mixed_samples(tmp_path_factory):
    """The samples of ``mixed_batch`` with the pinned manifest, for models of
    other configurations."""
    root = tmp_path_factory.mktemp("mixed_samples")
    pinned = load_manifest(gen_corpus(DEFAULT_WORLD, 6, 1, 3, str(root / "pinned"))[0])
    wide = load_manifest(gen_corpus(ToyWorldSpec(objects_min=1, objects_max=4, grid_size=7),
                                    6, 1, 3, str(root / "wide"))[0])
    return pinned, pinned.samples + wide.samples


def uniform_n0(preps):
    """The largest group of at least two samples whose image levels match in
    length on every stream, so each stream's segment 0 is equally long."""
    groups = {}
    for p in preps:
        groups.setdefault(tuple(p.levels[s.image].n_tokens for s in STREAMS.values()),
                          []).append(p)
    group = max(groups.values(), key=len)
    assert len(group) > 1
    return group


class TestSegmentGroups:
    """Whole-model batches through the grouped attention against the same
    batches with every layer scoring its whole padded grid."""

    def both(self, mixed_samples, monkeypatch, pick=list, **cfg_kw):
        """Grouped and whole-grid results on ``pick`` of the prepared samples."""
        ds, samples = mixed_samples
        model = Model(ModelConfig(**cfg_kw), ds.word_vocab, ds.answer_vocab,
                      ds.d_region, ds.d_spatial, seed=1)
        generic_parameter_point(model)
        preps = pick([model.prepare(s.scene, s.question, ds.answer_index(s.answer))
                      for s in samples])
        grouped = batch_loss_and_grads(model, preps)
        with monkeypatch.context() as m:
            whole_grid(m)
            whole = batch_loss_and_grads(model, preps)
        return grouped, whole

    @pytest.mark.parametrize("cfg_kw", [{}, {"num_layers": 1}, {"num_layers": 2},
                                        {"node_reduction": True}, {"sep_connect_all": False},
                                        {"use_lead_graphs": False}],
                             ids=["default", "one-layer", "two-layers", "node-reduction",
                                  "sep-self-only", "no-lead-graphs"])
    def test_matches_whole_grid(self, mixed_samples, monkeypatch, cfg_kw):
        (bundle, losses, grads), (ref_bundle, ref_losses, ref_grads) = self.both(
            mixed_samples, monkeypatch, **cfg_kw)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        for tag, t in bundle.all_logits().items():
            ref = ref_bundle.all_logits()[tag].data
            assert np.abs(t.data - ref).max() <= 1e-12 * np.abs(ref).max(), tag
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            ref = ref_grads[name]
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("pick", [lambda preps: preps[-1:], uniform_n0],
                             ids=["one-sample", "uniform-n0"])
    def test_without_lead_graphs_bitwise(self, mixed_samples, monkeypatch, pick):
        """Where every stream's segment 0 is equally long, the plan keeps the
        layout's grid and scores it whole, as the whole-grid plan does."""
        (bundle, losses, grads), (ref_bundle, ref_losses, ref_grads) = self.both(
            mixed_samples, monkeypatch, pick, use_lead_graphs=False)
        assert losses.tobytes() == ref_losses.tobytes()
        for tag, t in bundle.all_logits().items():
            assert t.data.tobytes() == ref_bundle.all_logits()[tag].data.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name


@pytest.fixture(scope="module")
def seed7_corpora(tmp_path_factory):
    """16 training samples each of the seed-7 pinned corpus and the seed-7
    7x7-grid corpus."""
    root = tmp_path_factory.mktemp("seed7")
    specs = {"pinned": DEFAULT_WORLD,
             "grid": ToyWorldSpec(objects_min=1, objects_max=4, grid_size=7)}
    return {name: load_manifest(gen_corpus(spec, 16, 1, 7, str(root / name))[0])
            for name, spec in specs.items()}


def seed7_model(corpora, corpus, **cfg_kw):
    ds = corpora[corpus]
    model = Model(ModelConfig(**cfg_kw), ds.word_vocab, ds.answer_vocab, ds.d_region,
                  ds.d_spatial, seed=1)
    generic_parameter_point(model)
    return model, [model.prepare(s.scene, s.question, ds.answer_index(s.answer))
                   for s in ds.samples]


CONFIGS = {"default": {}, "no-lead-graphs": {"use_lead_graphs": False},
           "sep-pooling": {"pooling": "sep"},
           "sep-no-lead-graphs": {"pooling": "sep", "use_lead_graphs": False},
           "two-streams": {"streams": ("ce", "ss")}}


class TestOpByOpReference:
    """The fused input, head and loss nodes against the op-by-op chain of
    ``reference_ops``: logits, per-sample losses and every block's gradient,
    bitwise."""

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("corpus", ["pinned", "grid"])
    @pytest.mark.parametrize("batch", [16, 1])
    def test_batch_bitwise(self, seed7_corpora, config, corpus, batch):
        model, preps = seed7_model(seed7_corpora, corpus, **CONFIGS[config])
        bundle, losses, grads = batch_loss_and_grads(model, preps[:batch])
        ref_bundle, ref_losses, ref_grads = refops.reference_batch_gradients(model, preps[:batch])
        assert losses.shape == (batch,) and losses.tobytes() == ref_losses.tobytes()
        ref_logits = ref_bundle.all_logits()
        assert list(bundle.all_logits()) == list(ref_logits)
        for tag, t in bundle.all_logits().items():
            assert t.data.shape == ref_logits[tag].data.shape
            assert t.data.tobytes() == ref_logits[tag].data.tobytes(), tag
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("corpus", ["pinned", "grid"])
    def test_one_sample_forward_bitwise(self, seed7_corpora, config, corpus):
        """``forward``'s 1-D logits and the scalar loss gradcheck differentiates."""
        model, preps = seed7_model(seed7_corpora, corpus, **CONFIGS[config])
        prep = preps[5]

        def run(forward, loss):
            with ad.Tape() as tape:
                bundle = forward(prep)
                value = loss(bundle, prep.answer_index)
            return bundle.all_logits(), value.data, tape.gradients(value, model.params.tensors())

        logits, value, grads = run(model.forward, model.loss)
        ref_logits, ref_value, ref_grads = run(lambda p: refops.reference_forward(model, p),
                                               refops.reference_loss)
        assert value.shape == () and value.tobytes() == ref_value.tobytes()
        for tag, t in logits.items():
            assert t.data.shape == (model.n_answers,)
            assert t.data.tobytes() == ref_logits[tag].data.tobytes(), tag
        for name, g, ref in zip(model.params.names(), grads, ref_grads):
            assert g.tobytes() == ref.tobytes(), name


def within(got, ref, what):
    """``got`` equals ``ref`` to 1e-12 of ``ref``'s largest magnitude."""
    assert got.shape == ref.shape, what
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0), what


def merged_and_per_stream(model, preps, monkeypatch):
    """``batch_loss_and_grads`` with the stream stacks forced into one call,
    then with each forced to run alone."""
    results = []
    for cells in (CALLS["merged"], CALLS["per-stream"]):
        with monkeypatch.context() as m:
            m.setattr(encoder, "MERGE_GRID_CELLS", cells)
            results.append(batch_loss_and_grads(model, preps))
    return results


class TestMergedCall:
    """The stream stacks run as one call against each running alone: the
    same logits and gradients to 1e-12, the one call padding every stream to
    the widest."""

    @pytest.mark.parametrize("config", [*CONFIGS, "ce-only", "node-reduction"])
    @pytest.mark.parametrize("corpus", ["pinned", "grid"])
    @pytest.mark.parametrize("size", [1, 4])
    def test_matches_per_stream_calls(self, seed7_corpora, monkeypatch, config, corpus, size):
        extra = {"ce-only": {"streams": ("ce",)}, "node-reduction": {"node_reduction": True}}
        model, preps = seed7_model(seed7_corpora, corpus, **{**CONFIGS, **extra}[config])
        (bundle, losses, grads), (ref_bundle, ref_losses, ref_grads) = merged_and_per_stream(
            model, preps[3:3 + size], monkeypatch)
        within(losses, ref_losses, "losses")
        assert list(bundle.all_logits()) == list(ref_bundle.all_logits())
        for tag, t in bundle.all_logits().items():
            within(t.data, ref_bundle.all_logits()[tag].data, tag)
        assert list(grads) == list(ref_grads) == model.params.names()
        for name, g in grads.items():
            within(g, ref_grads[name], name)

    @pytest.mark.parametrize("size", [1, 2])
    def test_padding_content_has_no_influence(self, seed7_corpora, monkeypatch, size):
        """A merged call's layers work on every cell of its grid, and
        ``Layout.rows`` leaves zeros in the cells no row fills. Filled with 1e3
        instead, they leave every logit bitwise the same: scoring the whole
        grid, only the mask closes their columns."""
        model, preps = seed7_model(seed7_corpora, "pinned")
        base = model.forward_batch(preps[:size]).all_logits()
        rows, filled = encoder.Layout.rows, []

        def noisy_rows(layout, a):
            out = rows(layout, a)
            if layout.groups > 1:
                hole = np.ones(len(out), dtype=bool)
                hole[layout.index] = False
                out[hole] = 1e3
                filled.append(int(hole.sum()))
            return out

        monkeypatch.setattr(encoder.Layout, "rows", noisy_rows)
        noisy = model.forward_batch(preps[:size]).all_logits()
        assert len(filled) == 1 and filled[0] > 0  # one merged call, with padding
        for tag in base:
            assert noisy[tag].data.tobytes() == base[tag].data.tobytes(), tag

    def test_size_rule(self, seed7_corpora, monkeypatch):
        """Every one-question forward of the pinned world runs its stream
        stacks as one call; a batch of 16 of either world and one question of
        the 7x7 world run them one by one."""
        groups, run = [], encoder.EncoderStack.run

        def spy(stack, parts, layout, masks):
            groups.append(len(stack.tables))
            return run(stack, parts, layout, masks)

        monkeypatch.setattr(encoder.EncoderStack, "run", spy)
        for corpus in ("pinned", "grid"):
            model, preps = seed7_model(seed7_corpora, corpus)
            for prep in preps:
                groups.clear()
                model.forward(prep)
                assert groups == ([1, 3] if corpus == "pinned" else [1] * 4), corpus
            groups.clear()
            model.forward_batch(preps)
            assert len(preps) == 16 and groups == [1] * 4, corpus


WRITERS = ["adam-step", "checkpoint-load", "gradcheck-probes", "generic-point", "word-vectors"]


def one_question_forwards(model, prep, monkeypatch):
    """The bundles of ``forward(prep)`` with the stream stacks as one call, with
    each alone, and with each alone through the reference chain, whose
    layers stack their weights from the blocks themselves."""
    out = []
    for cells, forward in ((CALLS["merged"], model.forward), (CALLS["per-stream"], model.forward),
                           (CALLS["per-stream"], lambda p: refops.reference_forward(model, p))):
        with monkeypatch.context() as m:
            m.setattr(encoder, "MERGE_GRID_CELLS", cells)
            out.append(forward(prep))
    return out


def assert_merged_reads_the_parameters(model, prep, monkeypatch):
    """One question's merged forward within 1e-12 of the per-stream call, and
    that call bitwise the reference chain's; returns the merged bundle."""
    merged, per_stream, reference = one_question_forwards(model, prep, monkeypatch)
    for tag, t in merged.all_logits().items():
        within(t.data, per_stream.all_logits()[tag].data, tag)
        assert per_stream.all_logits()[tag].data.tobytes() == \
            reference.all_logits()[tag].data.tobytes(), tag
    return merged


class TestMergedWeights:
    """A merged call's [S, ...] weights are views of the parameters, never a
    copy, so no writer of the parameters leaves them stale."""

    @pytest.mark.parametrize("config", [*CONFIGS, "ss-only", "ce-only"])
    def test_views_of_the_parameters(self, seed7_corpora, config):
        """Every stack, the sentence stack, each stream's alone and the merged
        one: each layer's weights and ``pos`` share ``params.flat``, stack s's
        row at the addresses of stack s's own blocks, and ``inputs[i]`` and
        ``tables`` are those blocks themselves, stack by stack in
        ``LayerParams`` order. The stream stacks are the last run of the
        parameters, in ``config.streams`` order."""
        extra = {"ss-only": {"streams": ("ss",)}, "ce-only": {"streams": ("ce",)}}
        model, _ = seed7_model(seed7_corpora, "pinned", **{**CONFIGS, **extra}[config])
        p, tags, fields = model.params, model.config.streams, encoder.LayerParams._fields
        stacks = [(model.stacks[tag], [f"{tag}.enc"]) for tag in model.stacks]
        stacks.append((model.merged, [f"{tag}.enc" for tag in tags]))
        assert ("sent" in model.stacks) == ("ss" in tags)
        for stack, prefixes in stacks:
            assert len(stack.weights) == len(stack.inputs) == model.config.num_layers
            for i, (weights, inputs) in enumerate(zip(stack.weights, stack.inputs)):
                blocks = [p[f"{prefix}.layer{i}.{field}"] for prefix in prefixes
                          for field in fields]
                assert len(inputs) == len(blocks)
                assert all(a is b for a, b in zip(inputs, blocks)), (prefixes, i)
                for f, (field, w) in enumerate(zip(fields, weights)):
                    assert np.shares_memory(w, p.flat) and len(w) == len(prefixes)
                    for s, prefix in enumerate(prefixes):
                        block = blocks[s * len(fields) + f].data
                        assert (w[s].ctypes.data, w[s].size) == (block.ctypes.data, block.size), \
                            (prefix, i, field)
            assert stack.tables == tuple(p[f"{prefix}.pos"] for prefix in prefixes)
            assert np.shares_memory(stack.pos, p.flat)
            for s, table in enumerate(stack.tables):
                assert stack.pos[s].shape == table.data.shape
                assert stack.pos[s].ctypes.data == table.data.ctypes.data, prefixes[s]
        run = [name for tag in tags for name, _, _ in encoder.EncoderStack.blocks(
            f"{tag}.enc", model.config)]
        assert p.names()[-len(run):] == run

    @pytest.mark.parametrize("prefixes, message", [
        ([], "needs a list of prefixes"), ("ce.enc", "needs a list of prefixes"),
        (("ss.enc", "ce.enc"), "not one run of the parameters")],
        ids=["empty", "bare-string", "not-one-run"])
    def test_prefixes_must_be_one_run(self, seed7_corpora, prefixes, message):
        model, _ = seed7_model(seed7_corpora, "pinned")
        with pytest.raises(ValueError, match=message):
            encoder.EncoderStack(model.params, prefixes, model.config)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_merged_call_reads_every_write(self, seed7_corpora, monkeypatch, tmp_path, writer):
        """After each writer of the parameters a one-question merged forward
        equals the per-stream call; ``gradcheck``'s probes are checked at every
        probe, and every block's check passes."""
        model, preps = seed7_model(seed7_corpora, "pinned")
        prep = preps[0]
        before = model.forward(prep).f_ga.data.copy()
        if writer == "adam-step":
            _, _, grads = batch_loss_and_grads(model, [prep])
            Adam(model.params, 1e-2).step(np.concatenate(list(grads.values()), axis=None))
        elif writer == "checkpoint-load":
            save_checkpoint(str(tmp_path / "m.ckpt"), model)
            model, _ = load_checkpoint(str(tmp_path / "m.ckpt"))
        elif writer == "gradcheck-probes":
            probes = []

            def checked_loss(m, p):
                probes.append(p)
                bundle = assert_merged_reads_the_parameters(m, p, monkeypatch)
                return float(m.loss(bundle, p.answer_index).data)

            monkeypatch.setattr(training, "loss_value", checked_loss)
            reports = training.gradcheck(model, prep, coords_per_block=1)
            assert len(probes) == 2 * len(model.params)
            assert [r.name for r in reports if not r.passed] == []
        elif writer == "generic-point":
            generic_parameter_point(model, seed=5)
        else:
            ds = seed7_corpora["pinned"]
            model = Model(ModelConfig(), ds.word_vocab, ds.answer_vocab, ds.d_region,
                          ds.d_spatial, seed=1, word_vector_file=fixture_path("wordvecs.txt"))
        merged = assert_merged_reads_the_parameters(model, prep, monkeypatch).f_ga.data
        if writer in ("adam-step", "generic-point"):
            assert np.abs(merged - before).max() > 1e-3  # the write moved the logits
        elif writer == "checkpoint-load":
            assert merged.tobytes() == before.tobytes()


class TestTapeNodes:
    """Each fused step records one tape node: per stream an input node for
    each side, one stack-input node per stack call and one node per layer;
    then the head and the loss. One question runs the three stream stacks
    as one call."""

    @pytest.mark.parametrize("streams, expect", [(tuple(STREAMS), 24), (("ce", "ss"), 18)])
    def test_nodes_per_batch(self, seed7_corpora, streams, expect):
        model, preps = seed7_model(seed7_corpora, "pinned", streams=streams)
        with ad.Tape() as tape:
            model.loss(model.forward_batch(preps), [p.answer_index for p in preps])
        assert len(preps) == 16 and len(tape.nodes) == expect

    def test_nodes_of_one_sample(self, seed7_corpora):
        model, preps = seed7_model(seed7_corpora, "pinned")
        with ad.Tape() as tape:
            model.loss(model.forward(preps[0]), preps[0].answer_index)
        assert len(tape.nodes) == 16


class TestOneLayoutPerStackCall:
    @pytest.mark.parametrize("batch, calls", [(None, [1, 3]), (16, [16] * 4)],
                             ids=["forward", "forward_batch"])
    def test_every_layer_runs_on_its_calls_layout(self, seed7_corpora, monkeypatch, batch,
                                                  calls):
        """A default forward builds one ``Layout`` per stack call, and every
        layer of a call receives that layout: for one question the sentence
        stack's and one of the three streams as one call; for a batch of 16
        the sentence stack's and one per stream."""
        model, preps = seed7_model(seed7_corpora, "pinned")
        built, used = [], []
        init, layer = encoder.Layout.__init__, encoder.encoder_layer

        def spy_init(self, *parts, **kw):
            built.append(self)
            init(self, *parts, **kw)

        def spy_layer(x, g, weights, inputs, cfg, layout, blocks):
            used.append(layout)
            return layer(x, g, weights, inputs, cfg, layout, blocks)

        monkeypatch.setattr(encoder.Layout, "__init__", spy_init)
        monkeypatch.setattr(encoder, "encoder_layer", spy_layer)
        if batch is None:
            model.forward(preps[0])
        else:
            model.forward_batch(preps[:batch])
        assert [layout.batch for layout in built] == calls
        assert used == [layout for layout in built for _ in range(model.config.num_layers)]


def check_node(fn, tensors, seed, coords=4, tol=1e-6):
    """Tape gradients of ``sum_i(out_i * w_i)`` over the output(s) of ``fn()``,
    for random weights ``w_i``, against central differences at ``coords``
    seeded random coordinates of each tensor."""
    rng = np.random.default_rng(seed)

    def outputs():
        out = fn()
        return out if isinstance(out, tuple) else (out,)

    weights = [rng.normal(size=o.data.shape) for o in outputs()]

    def value():
        return sum(float((o.data * w).sum()) for o, w in zip(outputs(), weights))

    with ad.Tape() as tape:
        terms = [weighted_sum(o, w) for o, w in zip(outputs(), weights)]
        total = terms[0]
        for t in terms[1:]:
            total = refops.add(total, t)
    for tensor, grad in zip(tensors, tape.gradients(total, tensors)):
        picked = rng.choice(tensor.data.size, min(coords, tensor.data.size), replace=False)
        for c, fd in fd_gradient(value, tensor.data, picked).items():
            assert rel_err(grad.reshape(-1)[c], fd) < tol, (tensor.data.shape, c)


class TestFusedNodes:
    """Every fused node's hand-written backward against central differences."""

    @pytest.fixture(scope="class")
    def batch(self, seed7_corpora):
        return seed7_model(seed7_corpora, "pinned")

    def test_input_mlp(self, batch):
        model, preps = batch
        p = model.params
        blocks = [p["embed.table"]] + [p[f"ce.entity_mlp.{n}"] for n in ("w1", "b1", "w2", "b2")]
        labels = [w for prep in preps[:4] for w in prep.levels["entity"].labels]
        check_node(lambda: ingest.embed_tokens(labels, model.vocab, *blocks), blocks, seed=60,
                   coords=6)

    def test_feature_projection(self, batch):
        model, preps = batch
        p = model.params
        features = np.concatenate([prep.levels["region"].features for prep in preps[:4]])
        blocks = [p["rn.region_proj.w"], p["rn.region_proj.b"]]
        check_node(lambda: ingest.project_features(features, *blocks), blocks, seed=61)

    @pytest.mark.parametrize("tags", [("ce",), tuple(STREAMS)], ids=["one-stack", "three"])
    def test_stack_input_rows_with_sep(self, batch, tags):
        """The input node of one stack's call, and of the three stream stacks'
        call, which places the rows on the grid's cells."""
        model, _ = batch
        stack = model.merged if len(tags) > 1 else model.stacks[tags[0]]
        rng = np.random.default_rng(62)
        n_img, n_q = [3, 1, 4] * len(tags), [2, 0, 3] * len(tags)
        t_img = [ad.Tensor(rng.normal(size=(sum(n_img[:3]), 32))) for _ in tags]
        t_q = [ad.Tensor(rng.normal(size=(sum(n_q[:3]), 32))) for _ in tags]
        seps = [model.params[f"{tag}.sep"] for tag in tags]
        layout = Layout(n_img, [1] * len(n_img), n_q, split=2, groups=len(tags))
        tensors = [*t_img, *seps, *t_q, *stack.tables]

        check_node(lambda: stack._input_rows([*t_img, *seps, *t_q], layout), tensors, seed=63,
                   coords=8)

    @pytest.mark.parametrize("pooling", ["mean", "sep"])
    @pytest.mark.parametrize("size", [4, 1])
    def test_head(self, seed7_corpora, pooling, size):
        """At B = 4 every stream has rows of its own; at B = 1 the three share
        the rows of one stack call."""
        model, preps = seed7_model(seed7_corpora, "pinned", pooling=pooling)
        hiddens = {}
        outputs = [(hiddens.setdefault(id(hidden), ad.Tensor(hidden.data)), pool)
                   for hidden, pool in model.encode(preps[:size])]
        assert len(hiddens) == (3 if size == 4 else 1)
        tensors = list(hiddens.values()) + [
            t for name, t in model.params.items() if name.startswith("fuse.")]
        check_node(lambda: tuple(model.fuse(outputs).all_logits().values()), tensors,
                   seed=64 if pooling == "mean" else 65)

    @pytest.mark.parametrize("batch_size", [None, 5], ids=["1-D", "B x c"])
    def test_loss(self, batch_size, girl_dog):
        model, _ = make_model(girl_dog)
        rng = np.random.default_rng(66)
        shape = (model.n_answers,) if batch_size is None else (batch_size, model.n_answers)
        heads = [ad.Tensor(rng.normal(size=shape) * 2.0) for _ in range(4)]
        bundle = LogitsBundle(*heads)
        answers = 2 if batch_size is None else rng.integers(0, model.n_answers, batch_size)
        # random coordinates include small gradients, which sit closer to the
        # central difference's noise floor; hence the looser tolerance
        check_node(lambda: model.loss(bundle, answers), heads, seed=67, tol=1e-5)
