"""Granularity levels from scene graphs and question parses."""

import functools
import json
from dataclasses import dataclass
import logging
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import granalign.autodiff as ad
from granalign import ingest, training
from granalign.data import DEFAULT_WORLD, ToyWorldSpec, _seed_sequence, gen_samples
from granalign.encoder import EncoderConfig
from granalign.ingest import (
    LevelData,
    SchemaError,
    SpatialGrid,
    Vocab,
    build_concept_level,
    build_entity_level,
    build_noun_phrase_level,
    build_region_level,
    build_sentence_level,
    build_spatial_level,
    embed_tokens,
    load_word_vectors,
    merge_duplicate_concept_tokens,
    node_reduction,
    from_json,
    question_from_dict,
    scene_from_dict,
    to_json,
)
from granalign.model import Model, ModelConfig
from granalign.training import Adam, TrainConfig
from conftest import fixture_path, level_graph
import reference_ops as refops
from test_contract import SETTINGS


class TestSchemaParsing:
    def test_missing_field_names_the_field(self):
        with pytest.raises(SchemaError, match="missing field 'objects'"):
            scene_from_dict({"spatial": {"grid_size": 1, "features": [[0.0]]}})

    def test_relation_to_unknown_object(self):
        d = {
            "objects": [{"id": "a", "category": "dog", "attributes": [],
                         "region_feature": [0.0]}],
            "relations": [{"subject": "a", "predicate": "left", "object": "zz"}],
            "spatial": {"grid_size": 1, "features": [[0.0]]},
        }
        with pytest.raises(SchemaError, match="unknown object id"):
            scene_from_dict(d)

    def test_duplicate_object_ids(self):
        d = {
            "objects": [
                {"id": "a", "category": "dog", "attributes": [], "region_feature": [0.0]},
                {"id": "a", "category": "cat", "attributes": [], "region_feature": [0.0]},
            ],
            "spatial": {"grid_size": 1, "features": [[0.0]]},
        }
        with pytest.raises(SchemaError, match="duplicate object ids"):
            scene_from_dict(d)

    @pytest.mark.parametrize("value, ok", [(ingest.FEATURE_LIMIT, True), (-1e151, False),
                                           (1.7e308, False)])
    @pytest.mark.parametrize("where", ["region_feature", "spatial"])
    def test_feature_magnitude_limit(self, value, ok, where):
        d = {"objects": [{"id": "a", "category": "dog", "region_feature": [0.5, 0.0]}],
             "spatial": {"grid_size": 1, "features": [[0.5, 0.0]]}}
        (d["objects"][0]["region_feature"] if where == "region_feature"
         else d["spatial"]["features"][0])[1] = value
        if ok:
            scene_from_dict(d)
        else:
            with pytest.raises(SchemaError, match=f"{where}.* holds a value beyond ±1e\\+150"):
                scene_from_dict(d)

    def test_scene_roundtrip(self, girl_dog):
        scene, _ = girl_dog
        again = scene_from_dict(to_json(scene))
        assert [o.category for o in again.objects] == ["girl", "dog"]
        np.testing.assert_array_equal(again.spatial.features, scene.spatial.features)

    def test_scene_without_objects_rejected(self):
        d = {"objects": [], "spatial": {"grid_size": 1, "features": [[0.0]]}}
        with pytest.raises(SchemaError, match="no objects"):
            scene_from_dict(d, source="s.json")

    def test_question_without_tokens_rejected(self):
        with pytest.raises(SchemaError, match="no tokens"):
            question_from_dict({"tokens": [], "entities": [], "noun_phrases": [],
                                "dependency_edges": []})

    def test_dependency_edge_out_of_range(self):
        with pytest.raises(SchemaError, match="dependency_edges"):
            question_from_dict({"tokens": ["a"], "entities": [], "noun_phrases": [],
                                "dependency_edges": [[0, 5]]})


@dataclass
class _Inner:
    n: int


@dataclass
class _Outer:
    inner: _Inner | None
    limit: int | None
    sizes: list[int]
    names: tuple[str, ...]


class TestCodec:
    """``from_json`` reads ``X | None`` as null or an X, and a list of plain
    values item by item in one pass; ``to_json`` writes both back."""

    DOC = {"inner": {"n": 2}, "limit": None, "sizes": [0, 3], "names": ["a"]}

    def read(self, **change):
        return from_json(_Outer, {**self.DOC, **change}, "doc", required=True)

    @pytest.mark.parametrize("inner, limit", [(None, None), ({"n": 2}, 7)],
                             ids=["null", "record"])
    def test_optional_reads_null_or_the_value_and_writes_it_back(self, inner, limit):
        record = self.read(inner=inner, limit=limit)
        assert record == _Outer(None if inner is None else _Inner(2), limit, [0, 3], ("a",))
        assert to_json(record) == {**self.DOC, "inner": inner, "limit": limit}

    @pytest.mark.parametrize("change, message", [
        ({"inner": 5}, "doc: field 'inner' must be an object or null, got int"),
        ({"inner": []}, "doc: field 'inner' must be an object or null, got list"),
        ({"inner": {"n": "2"}}, "doc: inner: field 'n' must be an integer, got str"),
        ({"inner": {"n": 2, "m": 1}}, "doc: inner: unknown fields ['m']"),
        ({"limit": True}, "doc: field 'limit' must be an integer or null, got bool"),
        ({"limit": 1.5}, "doc: field 'limit' must be an integer or null, got float"),
    ], ids=["int for a record", "list for a record", "bad inner field", "unknown inner key",
            "bool for an integer", "float for an integer"])
    def test_optional_of_the_wrong_type_rejected(self, change, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            self.read(**change)

    @pytest.mark.parametrize("change, message", [
        ({"sizes": [1, True]}, "doc: sizes must hold integers, got bool"),
        ({"sizes": [False]}, "doc: sizes must hold integers, got bool"),
        ({"sizes": [1, 2.0]}, "doc: sizes must hold integers, got float"),
        ({"sizes": [None]}, "doc: sizes must hold integers, got NoneType"),
        ({"names": ["a", 1]}, "doc: names must hold strings, got int"),
        ({"sizes": 3}, "doc: field 'sizes' must be a list, got int"),
    ], ids=["bool", "false", "float", "null", "int for a string", "not a list"])
    def test_plain_list_item_of_the_wrong_type_rejected(self, change, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            self.read(**change)

    def test_plain_list_is_a_copy(self):
        sizes = [4, 5]
        record = self.read(sizes=sizes)
        assert record.sizes == sizes and record.sizes is not sizes


class TestConceptLevel:
    def test_two_object_golden_tokens_and_pairs(self, girl_dog):
        """girl-left-dog, dog-right-girl, dog-brown walks out in graph order.

        Relations split into subject->predicate and predicate->object pairs;
        the breadth-first walk from the first object interleaves predicates
        and attributes between the categories they connect.
        """
        scene, _ = girl_dog
        level = build_concept_level(scene)
        assert level.labels == ["girl", "left", "right", "dog", "brown"]
        assert level.pairs == [(0, 1), (1, 3), (3, 2), (2, 0), (3, 4)]
        assert level.kinds == ["object", "relation", "relation", "object", "attribute"]

    def test_pairs_split_through_predicate_nodes(self, girl_dog):
        """No direct object->object pair survives; predicates mediate them."""
        scene, _ = girl_dog
        level = build_concept_level(scene)
        objects = {i for i, k in enumerate(level.kinds) if k == "object"}
        for s, d in level.pairs:
            assert not (s in objects and d in objects)

    def test_region_pairs_project_concept_relations(self, girl_dog):
        """Dropping predicate nodes from concept pairs gives the region pairs."""
        scene, _ = girl_dog
        concept = build_concept_level(scene)
        region = build_region_level(scene)
        by_pred: dict[int, list] = {}
        for s, d in concept.pairs:
            if concept.kinds[d] == "relation":
                by_pred.setdefault(d, [None, None])[0] = s
            elif concept.kinds[s] == "relation":
                by_pred.setdefault(s, [None, None])[1] = d
        obj_index = {}
        for i, k in enumerate(concept.kinds):
            if k == "object":
                obj_index[i] = len(obj_index)
        projected = [(obj_index[s], obj_index[d]) for s, d in by_pred.values()
                     if s is not None and d is not None and concept.kinds[d] == "object"]
        assert sorted(projected) == sorted(region.pairs)

    def test_attribute_only_scene(self):
        scene = scene_from_dict({
            "objects": [{"id": "a", "category": "ball", "attributes": ["red", "blue"],
                         "region_feature": [0.0]}],
            "spatial": {"grid_size": 1, "features": [[0.0]]},
        })
        level = build_concept_level(scene)
        assert level.labels == ["ball", "red", "blue"]
        assert level.pairs == [(0, 1), (0, 2)]


class TestConceptMerge:
    def test_merges_repeated_predicates(self):
        scene = scene_from_dict({
            "objects": [
                {"id": "a", "category": "dog", "attributes": [], "region_feature": [0.0]},
                {"id": "b", "category": "cat", "attributes": [], "region_feature": [0.0]},
                {"id": "c", "category": "ball", "attributes": [], "region_feature": [0.0]},
            ],
            "relations": [
                {"subject": "a", "predicate": "left", "object": "b"},
                {"subject": "a", "predicate": "left", "object": "c"},
            ],
            "spatial": {"grid_size": 1, "features": [[0.0]]},
        })
        merged = merge_duplicate_concept_tokens(build_concept_level(scene))
        assert merged.labels.count("left") == 1
        left = merged.labels.index("left")
        dsts = {d for s, d in merged.pairs if s == left}
        assert {merged.labels[d] for d in dsts} == {"cat", "ball"}

    def test_object_categories_never_merge(self):
        scene = scene_from_dict({
            "objects": [
                {"id": "a", "category": "dog", "attributes": [], "region_feature": [0.0]},
                {"id": "b", "category": "dog", "attributes": [], "region_feature": [0.0]},
            ],
            "spatial": {"grid_size": 1, "features": [[0.0]]},
        })
        merged = merge_duplicate_concept_tokens(build_concept_level(scene))
        assert merged.labels.count("dog") == 2

    def test_idempotent(self, girl_dog):
        scene, _ = girl_dog
        once = merge_duplicate_concept_tokens(build_concept_level(scene))
        twice = merge_duplicate_concept_tokens(once)
        assert once.labels == twice.labels and once.pairs == twice.pairs


class TestFeatureLevels:
    def test_region_features_stack_in_object_order(self, girl_dog):
        scene, _ = girl_dog
        level = build_region_level(scene)
        assert level.features.shape == (2, 4)
        np.testing.assert_array_equal(level.features[0], scene.objects[0].region_feature)
        assert level.pairs == [(0, 1), (1, 0)]

    def test_spatial_grid_fully_connected(self, girl_dog):
        scene, _ = girl_dog
        level = build_spatial_level(scene)
        assert level.features.shape == (4, 4)
        assert level.full and level.pairs == []
        np.testing.assert_array_equal(level_graph(level).matrix, np.ones((4, 4)))


class TestQuestionLevels:
    def test_entity_level(self, girl_dog):
        _, q = girl_dog
        level = build_entity_level(q)
        assert level.labels == ["dog"]
        assert level.full
        np.testing.assert_array_equal(level_graph(level).matrix, [[1.0]])

    def test_noun_phrase_filters_determiners_and_positions(self):
        q = question_from_dict({
            "tokens": ["what", "is", "left", "the", "brown", "dog"],
            "entities": ["dog"],
            "noun_phrases": [["the", "brown", "dog"], ["left"]],
            "dependency_edges": [],
        })
        level = build_noun_phrase_level(q)
        assert level.labels == ["brown", "dog"]
        assert level.full
        np.testing.assert_array_equal(level_graph(level).matrix, np.ones((2, 2)))

    def test_sentence_adjacency_symmetric_with_self_loops(self, girl_dog):
        _, q = girl_dog
        level = build_sentence_level(q)
        adj = level.dep_adjacency
        assert adj.shape == (5, 5)
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(np.diag(adj), np.ones(5))
        assert adj[2, 0] == 1.0 and adj[0, 2] == 1.0
        assert adj[0, 3] == 0.0
        assert level.full
        np.testing.assert_array_equal(level_graph(level).matrix, np.ones((5, 5)))


class TestNodeReduction:
    def test_shared_labels_collapse(self, girl_dog):
        scene, q = girl_dog
        concept = merge_duplicate_concept_tokens(build_concept_level(scene))
        entity = build_entity_level(q)
        merged = node_reduction(concept, entity)
        assert merged.labels.count("dog") == 1
        assert len(merged.labels) == len(concept.labels)  # "dog" was already present

    def test_new_question_labels_appended(self):
        img = LevelData(level="concept", labels=["dog"], kinds=["object"], pairs=[])
        q = LevelData(level="entity", labels=["cat", "dog"], pairs=[(0, 1), (1, 0)])
        merged = node_reduction(img, q)
        assert merged.labels == ["dog", "cat"]
        assert (1, 0) in merged.pairs and (0, 1) in merged.pairs

    def test_full_question_level_expands_to_every_pair(self):
        img = LevelData(level="concept", labels=["dog"], kinds=["object"], pairs=[])
        q = LevelData(level="entity", labels=["cat", "dog"], full=True)
        merged = node_reduction(img, q)
        assert merged.labels == ["dog", "cat"] and not merged.full
        assert merged.pairs == [(1, 1), (1, 0), (0, 1), (0, 0)]

    def test_edges_deduplicated(self):
        img = LevelData(level="concept", labels=["a", "b"], kinds=["object"] * 2,
                        pairs=[(0, 1)])
        q = LevelData(level="entity", labels=["a", "b"], pairs=[(0, 1)])
        merged = node_reduction(img, q)
        assert merged.pairs.count((0, 1)) == 1


# few labels, so that they repeat: across kinds, among objects, between the
# image and the question, and in the question
_LABELS = st.sampled_from(["dog", "cat", "left", "red", "color"])


@st.composite
def labeled_levels(draw, level, kinds):
    """A level of 1-7 drawn labels with kinds drawn from ``kinds`` (none if it
    is None), and either up to 10 pairs, repeats included, or, for a question
    level, possibly ``full``."""
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(_LABELS, min_size=n, max_size=n))
    if kinds is not None:
        kinds = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    full = level != "concept" and draw(st.booleans())
    index = st.integers(0, n - 1)
    pairs = [] if full else draw(st.lists(st.tuples(index, index), max_size=10))
    return LevelData(level=level, labels=labels, kinds=kinds, pairs=pairs, full=full)


_CONCEPT_KINDS = ("object", "relation", "attribute")
# world words that overlap each other and the fixed words of the vocabularies
_WORLD_WORDS = ["dog", "cat", "red", "left", "right", "what", "is", "a", "yes", "no"]


@st.composite
def world_specs(draw):
    words = st.sampled_from(_WORLD_WORDS)
    return ToyWorldSpec(categories=draw(st.lists(words, min_size=2, max_size=5, unique=True)),
                        attributes=draw(st.lists(words, min_size=1, max_size=5, unique=True)),
                        relations=draw(st.lists(words, min_size=2, max_size=2, unique=True)))


class TestFirstOccurrenceCollapse:
    """Concept merging, node reduction and the world's vocabularies give
    exactly what the loops they replaced gave (``reference_ops``)."""

    @SETTINGS
    @given(labeled_levels("concept", _CONCEPT_KINDS))
    def test_concept_merge_matches_the_loop(self, level):
        got = merge_duplicate_concept_tokens(level)
        want = refops.merge_duplicate_concept_tokens(level)
        assert (got.labels, got.kinds, got.pairs) == (want.labels, want.kinds, want.pairs)

    @SETTINGS
    @given(st.one_of(labeled_levels("concept", _CONCEPT_KINDS), labeled_levels("concept", None)),
           labeled_levels("entity", None))
    def test_node_reduction_matches_the_loop(self, image, question):
        got = node_reduction(image, question)
        want = refops.node_reduction(image, question)
        assert (got.labels, got.kinds, got.pairs) == (want.labels, want.kinds, want.pairs)

    @SETTINGS
    @given(world_specs())
    def test_vocabularies_match_the_loops(self, spec):
        assert spec.word_vocab() == refops.word_vocab(spec)
        assert spec.answer_vocab() == refops.answer_vocab(spec)


class TestVocabAndEmbedding:
    def test_unknown_word_warns_once_and_maps_to_zero(self, caplog):
        v = Vocab(["dog", "cat"])
        with caplog.at_level(logging.WARNING):
            ids = v.ids(["dog", "zebra", "zebra"])
        assert ids == [1, 0, 0]
        assert sum("zebra" in r.message for r in caplog.records) == 1

    def test_ids_are_one_based_and_stable(self):
        v = Vocab(["a", "b", "c"])
        assert v.ids(["a", "c"]) == [1, 3]
        assert v.size == 4

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            Vocab(["dog", "dog"])

    def test_embed_tokens_runs_mlp_per_row(self):
        """Each label row equals relu(e W1 + b1) W2 + b2 of its table row."""
        rng = np.random.default_rng(0)
        v = Vocab(["dog", "cat"])
        table = ad.Tensor(rng.normal(size=(3, 4)))
        w1 = ad.Tensor(rng.normal(size=(4, 5)))
        b1 = ad.Tensor(rng.normal(size=5))
        w2 = ad.Tensor(rng.normal(size=(5, 5)))
        b2 = ad.Tensor(rng.normal(size=5))
        out = embed_tokens(["cat", "dog"], v, table, w1, b1, w2, b2).data
        for row, wid in zip(out, [2, 1]):
            e = table.data[wid]
            expect = np.maximum(e @ w1.data + b1.data, 0) @ w2.data + b2.data
            np.testing.assert_allclose(row, expect, atol=1e-12)


class TestWordVectors:
    def test_load_fixture_file(self):
        words, vecs = load_word_vectors(fixture_path("wordvecs.txt"))
        assert words == ["dog", "girl", "brown", "left"]
        np.testing.assert_array_equal(vecs[0], [0.1, 0.2, 0.3])

    def test_inconsistent_dimension_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(SchemaError, match="inconsistent dimension"):
            load_word_vectors(p)

    def test_non_numeric_component_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a 1.0 x\n")
        with pytest.raises(SchemaError):
            load_word_vectors(p)

    @pytest.mark.parametrize("component, message", [
        ("nan", "non-finite vector component"), ("inf", "non-finite vector component"),
        ("-Infinity", "non-finite vector component"),
        ("1e200", "vector component beyond ±1e\\+150"),
        ("-1.0000000000000002e150", "vector component beyond ±1e\\+150")],
        ids=["nan", "inf", "-Infinity", "1e200", "beyond--1e150"])
    def test_non_finite_component_names_file_and_line(self, tmp_path, component, message):
        """Components beyond the sample-feature bound fail as NaN does."""
        p = tmp_path / "bad.txt"
        p.write_text(f"a 1.0 2.0\ndog {component} 0.5\n")
        with pytest.raises(SchemaError, match=f"{p}: line 2: {message}"):
            load_word_vectors(p)

    def test_components_at_the_bound_load_and_forward_finite(self, tmp_path, girl_dog):
        p = tmp_path / "edge.txt"
        p.write_text("dog 1e150 -1e150 1e150\ngirl -1e150 1e150 0.0\n")
        _, vectors = load_word_vectors(p)
        assert np.abs(vectors).max() == ingest.FEATURE_LIMIT
        scene, question = girl_dog
        model = Model(ModelConfig(d_model=8, num_heads=2, d_ff=16), ["girl", "dog", "brown"],
                      ["brown", "yes"], d_region=4, d_spatial=4, word_vector_file=p)
        bundle = model.forward(model.prepare(scene, question, answer_index=0))
        assert all(np.isfinite(logits.data).all() for logits in bundle.all_logits().values())

    def test_repeated_word_names_both_lines(self, tmp_path):
        p = tmp_path / "twice.txt"
        p.write_text("dog 1.0 2.0\n\ngirl 0.0 1.0\ndog 3.0 4.0\n")
        with pytest.raises(SchemaError, match=f"{p}: line 4: word 'dog' repeats line 1"):
            load_word_vectors(p)


class _Reached(Exception):
    """A stub model's forward was called: gradcheck's settings passed."""


class _StubModel:
    def forward(self, prep):
        raise _Reached


def _gradcheck(**kw):
    try:
        training.gradcheck(_StubModel(), None, **kw)
    except _Reached:
        pass


@functools.cache
def _tiny_model() -> Model:
    return Model(ModelConfig(d_model=8, d_emb=8, num_heads=2, num_layers=1, d_ff=8),
                 ["dog"], ["yes", "no"], d_region=4, d_spatial=4, seed=0)


@functools.cache
def _tiny_checkpoint() -> tuple[dict, int]:
    """The header of a tiny checkpoint with optimizer state, and the bytes after it."""
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "tiny.ckpt")
        training.save_checkpoint(path, _tiny_model(), Adam(_tiny_model().params, 1e-3))
        with open(path, "rb") as f:
            blob = f.read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), len(blob) - 16 - hlen


def _header_step(step):
    header, left = _tiny_checkpoint()
    training._model_from_header({**header, "optimizer": {**header["optimizer"], "step": step}},
                                left)


# every bounded setting: (what the message names it, a call that sets it to
# a value, the bound, strict)
BOUNDS = {
    **{f"EncoderConfig.{name}": (name, lambda v, name=name: EncoderConfig(
        **{name: v}, **({"num_heads": 1} if name == "d_model" else {})), 1, False)
       for name in ("num_layers", "num_heads", "d_model", "d_ff", "max_len")},
    "ModelConfig.d_emb": ("d_emb", lambda v: ModelConfig(d_emb=v), 1, False),
    **{f"TrainConfig.{name}": (name, lambda v, name=name: TrainConfig(**{name: v}), low,
                               strict)
       for name, low, strict in (("batch_size", 1, False), ("epochs", 0, False),
                                 ("seed", 0, False), ("lr", 0.0, True),
                                 ("checkpoint_interval", 0, False), ("grad_clip", 0.0, True))},
    "Adam.lr": ("lr", lambda v: Adam(_tiny_model().params, v), 0.0, True),
    "gradcheck.step": ("gradcheck step", lambda v: _gradcheck(step=v), 0.0, True),
    "gradcheck.tol": ("gradcheck tol", lambda v: _gradcheck(tol=v), 0.0, True),
    "gradcheck.coords_per_block": ("gradcheck coords_per_block",
                                   lambda v: _gradcheck(coords_per_block=v), 1, False),
    "checkpoint.step": ("checkpoint header: optimizer: step", _header_step, 0, False),
    # one object fits a 1 x 1 grid
    "ToyWorldSpec.grid_size": ("grid_size", lambda v: ToyWorldSpec(
        grid_size=v, objects_min=1, objects_max=1), 1, False),
    **{f"ToyWorldSpec.{name}": (name, lambda v, name=name: ToyWorldSpec(**{name: v}), low,
                                strict)
       for name, low, strict in (("d_region", 1, False),
                                 ("d_spatial", 1, False), ("feature_noise", 0.0, False),
                                 ("feature_scale", 0.0, True), ("objects_min", 1, False))},
    # objects_max is bounded by objects_min, 2 by default
    "ToyWorldSpec.objects_max": ("objects_max", lambda v: ToyWorldSpec(objects_max=v), 2,
                                 False),
    "gen_samples.n": ("train: sample count", lambda v: gen_samples(
        DEFAULT_WORLD, v, np.random.SeedSequence(0), "train"), 1, False),
    "gen_data.seed": ("seed", lambda v: _seed_sequence(v), 0, False),
    "SpatialGrid.grid_size": ("grid_size", lambda v: SpatialGrid(v, np.zeros((1, 3))), 1,
                              False),
}


def _edges(low, strict):
    """The last value the bound passes and the first it fails (no integer
    bound is strict)."""
    if isinstance(low, float):
        below, above = np.nextafter(low, -np.inf), np.nextafter(low, np.inf)
        return (float(above), low) if strict else (low, float(below))
    return low, low - 1


class TestCheckBound:
    """Every numeric setting is checked by ``ingest.check_bound``, worded
    ``{name} must be [a finite value ]>=|> {low}, got {value}``."""

    def test_every_bound_is_listed(self):
        assert len(BOUNDS) == 27

    @pytest.mark.parametrize("key", list(BOUNDS))
    def test_at_the_bound_passes_one_step_past_fails(self, key):
        name, call, low, strict = BOUNDS[key]
        passing, failing = _edges(low, strict)
        call(passing)
        kind = "a finite value " if isinstance(low, float) else ""
        shown = f"{low:g}" if isinstance(low, float) else low
        want = f"{name} must be {kind}{'>' if strict else '>='} {shown}, got {failing}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(failing)

    @pytest.mark.parametrize("key", [k for k, v in BOUNDS.items() if isinstance(v[2], float)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_float_bound_rejects_nan_and_infinity(self, key, value):
        name, call, low, strict = BOUNDS[key]
        want = f"{name} must be a finite value {'>' if strict else '>='} {low:g}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(value)

    def test_grad_clip_none_passes(self):
        assert TrainConfig(grad_clip=None).grad_clip is None

    def test_integers_beyond_the_float_range_are_finite(self):
        ingest.check_bound("seed", 10**400, 0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            ingest.check_bound("seed", -1, 0)
