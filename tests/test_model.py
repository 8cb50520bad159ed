"""End-to-end model contracts: logits, fusion, loss, prediction, variants."""

import numpy as np
import pytest

import granalign.autodiff as ad
from granalign import leadgraph
from granalign.encoder import encoder_layer
from granalign.ingest import question_from_dict
from granalign.leadgraph import append_sep_mask, layer_masks, level_graph, pairs_to_matrix
from granalign.model import STREAMS, LogitsBundle, Model, ModelConfig, StreamOutput
from conftest import fixture_path

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


class TestPrepare:
    def test_graphs_cover_configured_streams(self, girl_dog):
        model, prep = make_model(girl_dog, streams=("ce", "rn"))
        assert set(prep.plans) == {"ce", "rn"}
        assert prep.answer_index == 0

    def test_concept_graph_matches_pairs(self, girl_dog):
        model, prep = make_model(girl_dog)
        ni, nq = prep.concept.n_tokens, prep.entity.n_tokens
        layer3 = prep.plans["ce"][2]
        expect = pairs_to_matrix(prep.concept.pairs, ni)
        assert np.array_equal(layer3[:ni, :ni], expect.matrix)
        assert layer3[ni + 1:, ni + 1:].shape == (nq, nq)

    def test_full_graphs_when_lead_graphs_disabled(self, girl_dog):
        model, prep = make_model(girl_dog, use_lead_graphs=False)
        for tag, plan in prep.plans.items():
            img, q = getattr(prep, STREAMS[tag].image), getattr(prep, STREAMS[tag].question)
            n = img.n_tokens + 1 + q.n_tokens
            assert len(plan) == model.config.num_layers
            for m in plan:
                np.testing.assert_array_equal(m, np.ones((n, n)))

    @pytest.mark.parametrize("node_reduction", [False, True])
    def test_plans_match_layer_masks(self, girl_dog, node_reduction):
        model, prep = make_model(girl_dog, node_reduction=node_reduction, num_layers=4)
        for tag, plan in prep.plans.items():
            img, q = getattr(prep, STREAMS[tag].image), getattr(prep, STREAMS[tag].question)
            masks = layer_masks(append_sep_mask(level_graph(img)), level_graph(q))
            assert len(plan) == 4
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
        assert prep.entity.n_tokens == 0
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

    def test_stream_predictions_keys(self, girl_dog):
        model, prep = make_model(girl_dog)
        preds = model.stream_predictions(model.forward(prep))
        assert list(preds) == ["ce", "rn", "ss", "ga"]
        assert all(0 <= v < len(ANSWERS) for v in preds.values())


class TestPooling:
    def test_sep_pool_reads_sep_row(self, girl_dog):
        model, prep = make_model(girl_dog, pooling="sep")
        out = model.run_stream("ce", prep)
        pooled = model._pool(out)
        np.testing.assert_array_equal(pooled.data, out.hidden.data[out.sep_index])

    def test_mean_pool_averages_rows(self, girl_dog):
        model, prep = make_model(girl_dog, pooling="mean")
        out = model.run_stream("ce", prep)
        pooled = model._pool(out)
        np.testing.assert_allclose(pooled.data, out.hidden.data.mean(axis=0),
                                   atol=1e-12)

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

    def test_all_ones_plan_matches_reference_loop(self, girl_dog):
        """Without lead graphs the logits equal a plain unmasked encoder loop, bitwise."""
        model, prep = make_model(girl_dog, use_lead_graphs=False)
        outputs = []
        for tag in model.config.streams:
            t_img, t_q = model._stream_inputs(tag, prep)
            sep = model.params[f"{tag}.sep"]
            stack = model.stacks[tag]
            x = ad.concat_rows([t_img, ad.reshape(sep, (1, sep.data.shape[0])), t_q])
            x = stack.add_positions(x)
            n = x.data.shape[0]
            for layer in stack.layers:
                x = encoder_layer(x, np.ones((n, n)), layer, stack.cfg)
            outputs.append(StreamOutput(tag, x, t_img.data.shape[0]))
        reference = model.fuse(outputs).all_logits()
        got = model.forward(prep).all_logits()
        assert list(got) == list(reference)
        for tag in got:
            assert got[tag].data.tobytes() == reference[tag].data.tobytes()

    def test_word_vector_file_seeds_embedding_rows(self, girl_dog):
        path = fixture_path("wordvecs.txt")
        model, prep = make_model(girl_dog, word_vector_file=path)
        assert model.d_emb == 3
        row = model.params["embed.table"].data[WORDS.index("dog") + 1]
        np.testing.assert_allclose(row, [0.1, 0.2, 0.3], atol=1e-12)
        bundle = model.forward(prep)
        assert bundle.f_ga.data.shape == (len(ANSWERS),)

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
