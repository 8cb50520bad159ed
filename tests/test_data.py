"""Corpus generator: determinism, solvability, schemas, the solver oracle."""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from granalign import data
from granalign.data import (
    DEFAULT_WORLD,
    Dataset,
    Manifest,
    ToyWorldSpec,
    cell_feature,
    gen_corpus,
    gen_samples,
    hash_vector,
    load_manifest,
    region_feature,
    solve,
)
from granalign.cli import main
from granalign.ingest import (CELL_LIMIT, SIZE_LIMIT, SchemaError, SceneObject,
                              SceneRelation, from_json, to_json)


def read_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


# a small pinned world and a 7x7 grid with one to four objects
WORLDS = {"pinned": {}, "grid7": {"objects_min": 1, "objects_max": 4, "grid_size": 7}}


def feature_arrays(sample):
    return [o.region_feature for o in sample.scene.objects] + [sample.scene.spatial.features]


class TestWorldSpec:
    def test_default_world_shape(self):
        assert len(DEFAULT_WORLD.categories) == 4
        assert len(DEFAULT_WORLD.attributes) == 4
        assert len(DEFAULT_WORLD.relations) == 2

    def test_word_vocab_is_stable_and_unique(self):
        v1 = DEFAULT_WORLD.word_vocab()
        v2 = DEFAULT_WORLD.word_vocab()
        assert v1 == v2
        assert len(set(v1)) == len(v1)
        for w in ("what", "color", "there") + DEFAULT_WORLD.categories:
            assert w in v1

    def test_answer_vocab_covers_all_answer_kinds(self):
        av = DEFAULT_WORLD.answer_vocab()
        for a in DEFAULT_WORLD.attributes + DEFAULT_WORLD.categories + ("yes", "no"):
            assert a in av
        assert len(set(av)) == len(av)

    def test_roundtrip_through_dict(self):
        spec = ToyWorldSpec(grid_size=3, d_region=8, feature_noise=0.1,
                            feature_scale=0.5)
        again = ToyWorldSpec.from_dict(to_json(spec))
        assert again == spec

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="category"):
            ToyWorldSpec(categories=())
        with pytest.raises(ValueError, match="attribute"):
            ToyWorldSpec(attributes=())
        with pytest.raises(ValueError, match="relation"):
            ToyWorldSpec(relations=("left",))
        with pytest.raises(ValueError):
            ToyWorldSpec(objects_min=0)
        with pytest.raises(ValueError):
            ToyWorldSpec(objects_min=3, objects_max=2)
        with pytest.raises(ValueError, match="template"):
            ToyWorldSpec(templates=("attribute", "count"))

    def test_grid_cells_bounded_at_the_edge(self):
        """A 100 x 100 grid is ``CELL_LIMIT`` cells and passes; one more row and
        column fail, though 10,201 one-wide cells hold few features."""
        assert CELL_LIMIT == 100 ** 2
        assert ToyWorldSpec(grid_size=100, d_spatial=1).grid_size == 100
        with pytest.raises(ValueError, match=re.escape(
                "a scene's grid cell count (grid_size²) is 10201, beyond the limit 10000")):
            ToyWorldSpec(grid_size=101, d_spatial=1)


class TestFeatureSynthesis:
    def test_hash_vector_is_deterministic_and_key_sensitive(self):
        a = hash_vector("category:dog", 16)
        b = hash_vector("category:dog", 16)
        c = hash_vector("category:cat", 16)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()
        assert a.shape == (16,)

    def test_hash_vector_is_cached_and_read_only(self):
        a = hash_vector("category:dog", 16)
        assert hash_vector("category:dog", 16) is a
        assert hash_vector("category:dog", 8).shape == (8,)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0

    def test_region_feature_is_compositional(self):
        f = region_feature("dog", "brown", 16)
        expect = hash_vector("category:dog", 16) + hash_vector("attribute:brown", 16)
        np.testing.assert_array_equal(f, expect)

    def test_cell_feature_sums_occupant_directions(self):
        empty = cell_feature(0, 1, [], 8)
        one = cell_feature(0, 1, [("dog", ["brown"])], 8)
        np.testing.assert_allclose(
            one - empty,
            hash_vector("occupant:dog", 8) + hash_vector("at:dog:1", 8)
            + hash_vector("occupant_attr:brown", 8),
            atol=1e-12)


class TestGeneration:
    def test_sample_count_and_ids(self):
        samples = gen_samples(DEFAULT_WORLD, 5, np.random.SeedSequence([3]), "train")
        assert len(samples) == 5
        assert [s.sample_id for s in samples] == [f"train_{i:04d}" for i in range(5)]

    def test_running_out_of_redraws_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(data, "_question_candidates", lambda spec, scene: {})
        with pytest.raises(ValueError, match="could not generate a solvable scene"):
            gen_samples(DEFAULT_WORLD, 1, np.random.SeedSequence([3]), "train")

    def test_generation_is_seed_deterministic(self):
        a = gen_samples(DEFAULT_WORLD, 8, np.random.SeedSequence([9]), "x")
        b = gen_samples(DEFAULT_WORLD, 8, np.random.SeedSequence([9]), "x")
        for s, t in zip(a, b):
            assert s.question.tokens == t.question.tokens
            assert s.answer == t.answer
            np.testing.assert_array_equal(s.scene.spatial.features,
                                          t.scene.spatial.features)

    def test_solver_reproduces_every_label(self):
        for s in gen_samples(DEFAULT_WORLD, 30, np.random.SeedSequence([4]), "t"):
            assert solve(s.scene, s.question.tokens) == s.answer

    def test_scene_invariants(self):
        for s in gen_samples(DEFAULT_WORLD, 20, np.random.SeedSequence([5]), "t"):
            scene = s.scene
            cats = [o.category for o in scene.objects]
            assert len(set(cats)) == len(cats)  # drawn without replacement
            assert 2 <= len(cats) <= 3
            for o in scene.objects:
                assert len(o.attributes) == 1
                assert o.region_feature.shape == (DEFAULT_WORLD.d_region,)
            assert scene.spatial.features.shape == (4, DEFAULT_WORLD.d_spatial)

    def test_relations_follow_column_order(self):
        for s in gen_samples(DEFAULT_WORLD, 12, np.random.SeedSequence([6]), "t"):
            n = len(s.scene.objects)
            pairs = {(r.subject, r.predicate, r.object) for r in s.scene.relations}
            for a, left, b in pairs:
                if left == "left":
                    assert (b, "right", a) in pairs

    def test_question_surface_forms(self):
        seen = set()
        for s in gen_samples(DEFAULT_WORLD, 60, np.random.SeedSequence([7]), "t"):
            seen.add(s.template)
            t = s.question.tokens
            if s.template == "attribute":
                assert t[:4] == ["what", "color", "is", "the"]
                assert s.question.entities == ["color", t[-1]]
                assert ["what", "color"] in s.question.noun_phrases
            elif s.template == "relation":
                assert t[0] == "what" and t[1] == "is"
                assert t[2] in DEFAULT_WORLD.relations
            else:
                assert t[:3] == ["is", "there", "a"]
                assert s.answer in ("yes", "no")
            assert len(s.question.dependency_edges) >= 3
            for h, d in s.question.dependency_edges:
                assert 0 <= h < len(t) and 0 <= d < len(t)
        assert seen == {"attribute", "relation", "exist"}

    def test_relation_questions_have_unique_subject(self):
        for s in gen_samples(DEFAULT_WORLD, 40, np.random.SeedSequence([8]), "t"):
            if s.template == "relation":
                assert s.answer in DEFAULT_WORLD.categories

    def test_perturbing_the_scene_changes_the_answer(self):
        samples = gen_samples(DEFAULT_WORLD, 40, np.random.SeedSequence([10]), "t")
        attr = next(s for s in samples if s.template == "attribute")
        scene = attr.scene
        cat = attr.question.tokens[-1]
        mutated = [
            SceneObject(o.obj_id, o.category,
                        ["green" if o.attributes == ["red"] else "red"],
                        o.region_feature)
            if o.category == cat else o
            for o in scene.objects
        ]
        from granalign.ingest import SceneGraph
        changed = SceneGraph(objects=mutated, relations=scene.relations,
                             spatial=scene.spatial)
        assert solve(changed, attr.question.tokens) != attr.answer


class TestSolver:
    def scene(self):
        objs = [
            SceneObject("o0", "girl", ["red"], np.zeros(4)),
            SceneObject("o1", "dog", ["brown"], np.zeros(4)),
        ]
        rels = [SceneRelation("o0", "left", "o1"),
                SceneRelation("o1", "right", "o0")]
        from granalign.ingest import SceneGraph, SpatialGrid
        return SceneGraph(objects=objs, relations=rels, spatial=SpatialGrid(2, np.zeros((4, 4))))

    def test_attribute_question(self):
        assert solve(self.scene(), ["what", "color", "is", "the", "dog"]) == "brown"

    def test_relation_question(self):
        assert solve(self.scene(), ["what", "is", "left", "the", "dog"]) == "girl"

    def test_exist_questions(self):
        assert solve(self.scene(), ["is", "there", "a", "girl"]) == "yes"
        assert solve(self.scene(), ["is", "there", "a", "ball"]) == "no"

    def test_ambiguous_relation_rejected(self):
        sc = self.scene()
        assert solve(sc, ["what", "is", "right", "the", "girl"]) == "dog"
        with pytest.raises(ValueError, match="candidates"):
            solve(sc, ["what", "is", "left", "the", "girl"])

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            solve(self.scene(), ["how", "many", "dogs"])


class TestOnDiskCorpus:
    def test_regeneration_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_corpus(DEFAULT_WORLD, 6, 3, 17, str(d1))
        gen_corpus(DEFAULT_WORLD, 6, 3, 17, str(d2))
        t1, t2 = read_tree(d1), read_tree(d2)
        assert t1.keys() == t2.keys()
        assert all(t1[k] == t2[k] for k in t1)

    @pytest.mark.parametrize("world, digest", [
        ({}, "d53fd066acd4c82aaa3279f5f9fe2ead65c821d07150b6d81d3ae6d8f6aeefff"),
        ({"objects_min": 1, "objects_max": 4, "grid_size": 7},
         "1c498ab991f2d8138afc02508a755e8a273bd680dfd1083f8f4e6f5b92705062"),
    ], ids=["default", "grid7"])
    def test_corpus_bytes_match_committed_digest(self, tmp_path, world, digest):
        """Generated files are pinned byte for byte, from a cold and a warm
        feature cache alike."""
        hash_vector.cache_clear()
        for d in (tmp_path / "cold", tmp_path / "warm"):
            gen_corpus(ToyWorldSpec(**world), 12, 4, 7, str(d))
            h = hashlib.sha256()
            for rel, blob in sorted(read_tree(d).items()):
                h.update(rel.encode() + b"\0" + blob)
            assert h.hexdigest() == digest

    @pytest.mark.parametrize("world", WORLDS.values(), ids=WORLDS.keys())
    def test_dataset_takes_vocabularies_and_widths_from_the_world(self, tmp_path, world):
        spec = ToyWorldSpec(**world)
        for path in gen_corpus(spec, 3, 2, 9, str(tmp_path)):
            ds = load_manifest(path)
            assert (ds.word_vocab, ds.answer_vocab) == (spec.word_vocab(), spec.answer_vocab())
            assert (ds.d_region, ds.d_spatial, ds.grid_size) == (
                spec.d_region, spec.d_spatial, spec.grid_size)

    @pytest.mark.parametrize("world", WORLDS.values(), ids=WORLDS.keys())
    def test_corpus_bound_checked_before_the_first_draw(self, tmp_path, monkeypatch, world):
        """A corpus of ``SIZE_LIMIT // scene_feature_count`` samples reaches
        the draw; one more sample fails with nothing drawn or written."""
        spec = ToyWorldSpec(**world)
        most = SIZE_LIMIT // spec.scene_feature_count
        drawn = []

        def gen_samples_stub(spec, n, seq, split):
            drawn.append(n)
            raise InterruptedError("stop before drawing")

        monkeypatch.setattr(data, "gen_samples", gen_samples_stub)
        with pytest.raises(InterruptedError):
            gen_corpus(spec, most - 1, 1, 0, str(tmp_path / "at"))
        assert drawn == [most - 1]
        with pytest.raises(ValueError, match=re.escape(
                f"a corpus's feature count ((n_train + n_eval) × (grid_size² × d_spatial "
                f"+ objects_max × d_region)) is {(most + 1) * spec.scene_feature_count}, "
                f"beyond the limit")):
            gen_corpus(spec, most, 1, 0, str(tmp_path / "over"))
        assert drawn == [most - 1] and not (tmp_path / "over").exists()

    def test_train_and_eval_share_vocabularies(self, tmp_path):
        train_m, eval_m = gen_corpus(DEFAULT_WORLD, 5, 4, 21, str(tmp_path))
        train = load_manifest(train_m)
        ev = load_manifest(eval_m)
        assert train.word_vocab == ev.word_vocab
        assert train.answer_vocab == ev.answer_vocab
        assert len(train) == 5 and len(ev) == 4

    @pytest.mark.parametrize("world", WORLDS.values(), ids=WORLDS.keys())
    def test_load_roundtrip_preserves_samples(self, tmp_path, world):
        """Each loaded sample is the one drawn: every field equal, every
        feature array bit for bit."""
        spec = ToyWorldSpec(**world)
        train_m, eval_m = gen_corpus(spec, 6, 3, 13, str(tmp_path))
        for path, n, seed, split in ((train_m, 6, 13, "train"), (eval_m, 3, 14, "eval")):
            drawn = gen_samples(spec, n, np.random.SeedSequence([seed]), split)
            loaded = load_manifest(path).samples
            assert len(loaded) == n
            for got, want in zip(loaded, drawn):
                assert to_json(got) == to_json(want)
                for a, b in zip(feature_arrays(got), feature_arrays(want)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_every_file_and_line_written_is_the_compact_stdlib_rendering(self, tmp_path,
                                                                           capsys):
        """Every corpus file is ``json.dumps(doc, sort_keys=True)`` and a
        newline, and so is each ``train --log`` line and the ``eval`` report."""
        texts = []
        for name, world in WORLDS.items():
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps(world))
            assert main(["gen-data", "--spec", str(spec), "--n", "4", "--eval-n", "2",
                         "--seed", "3", "--out", str(tmp_path / name)]) == 0
            texts += [blob.decode("utf-8") for blob in read_tree(tmp_path / name).values()]
        corpus, log, ckpt = str(tmp_path / "pinned"), tmp_path / "m.jsonl", tmp_path / "m.ckpt"
        config = tmp_path / "small.cfg"
        config.write_text("d_model = 8\nd_emb = 8\nnum_heads = 2\nnum_layers = 1\n"
                          "d_ff = 16\nepochs = 2\nbatch_size = 4\n")
        assert main(["train", "--data", corpus, "--config", str(config), "--log", str(log),
                     "--out", str(ckpt)]) == 0
        texts += log.read_text().splitlines(keepends=True)
        capsys.readouterr()
        assert main(["eval", "--data", corpus, "--ckpt", str(ckpt)]) == 0
        texts.append(capsys.readouterr().out)
        assert len(texts) == 2 * (4 + 2 + 2) + 2 + 1
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_answer_index_lookup(self, tmp_path):
        manifest = gen_corpus(DEFAULT_WORLD, 3, 1, 2, str(tmp_path))[0]
        ds = load_manifest(manifest)
        for s in ds.samples:
            assert ds.answer_vocab[ds.answer_index(s.answer)] == s.answer
        with pytest.raises(ValueError, match="vocabulary"):
            ds.answer_index("purple")


class TestManifestValidation:
    def write_corpus(self, tmp_path):
        return gen_corpus(DEFAULT_WORLD, 2, 1, 5, str(tmp_path))[0]

    def mutate_manifest(self, path, fn):
        doc = json.load(open(path))
        fn(doc)
        with open(path, "w") as f:
            json.dump(doc, f)

    def test_missing_field_names_field_and_file(self, tmp_path):
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d["world"].pop("attributes"))
        with pytest.raises(SchemaError, match=re.escape(f"{m}: world: missing field "
                                                        f"'attributes'")):
            load_manifest(m)

    @pytest.mark.parametrize("change, shown", [(lambda d: d.pop("version"), "None"),
                                               (lambda d: d.update(version="1"), "'1'")],
                             ids=["missing", "string"])
    def test_version_checked_first(self, tmp_path, change, shown):
        """The version is read before any other field, so a manifest without one
        fails naming the version even when its other fields are wrong too."""
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: (change(d), d.pop("samples")))
        with pytest.raises(SchemaError, match=re.escape(
                f"{m}: unsupported manifest version {shown}")):
            load_manifest(m)

    def test_version_one_manifest_rejected(self, tmp_path):
        """A manifest in the version-1 format, indented and with the fields
        its world gives, is refused; regenerating the corpus replaces it."""
        m = self.write_corpus(tmp_path)
        doc = json.load(open(m))
        doc.update(version=1, word_vocab=DEFAULT_WORLD.word_vocab(),
                   answer_vocab=DEFAULT_WORLD.answer_vocab(), d_region=32, d_spatial=32,
                   grid_size=2)
        with open(m, "w") as f:
            f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{m}: unsupported manifest version 1")):
            load_manifest(m)

    @pytest.mark.parametrize("key, value", [
        ("word_vocab", ["zebra", "what"]), ("answer_vocab", ["brown", "purple"]),
        ("d_region", 32), ("d_spatial", 32), ("grid_size", 9),
    ], ids=["word_vocab", "answer_vocab", "d_region", "d_spatial", "grid_size"])
    def test_manifest_cannot_restate_its_world(self, tmp_path, key, value):
        """Each field a version-1 manifest held beside its world is an unknown
        field, so a manifest cannot contradict the world it was drawn from."""
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d.update({key: value}))
        with pytest.raises(SchemaError, match=re.escape(f"{m}: unknown fields ['{key}']")):
            load_manifest(m)

    @pytest.mark.parametrize("key", ["categories", "attributes", "relations"])
    def test_repeated_vocabulary_entry_rejected(self, tmp_path, key):
        """A world that repeats a word is refused by the manifest that holds it."""
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d["world"][key].append(d["world"][key][0]))
        with pytest.raises(SchemaError, match=re.escape(
                f"{m}: world: {key} holds a duplicate entry")):
            load_manifest(m)

    def test_bad_version_rejected(self, tmp_path):
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d.update(version=99))
        with pytest.raises(SchemaError, match="version"):
            load_manifest(m)

    def test_missing_sample_file_reported(self, tmp_path):
        m = self.write_corpus(tmp_path)
        os.remove(tmp_path / "samples" / "train_0001.json")
        with pytest.raises(SchemaError, match="train_0001"):
            load_manifest(m)

    @pytest.mark.parametrize("rel", ["", ".", "samples"])
    def test_sample_entry_naming_a_directory_reported(self, tmp_path, rel):
        """An entry that names a directory is no sample file: a SchemaError
        naming the manifest, not an IsADirectoryError."""
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d["samples"].__setitem__(0, rel))
        with pytest.raises(SchemaError, match=re.escape(
                f"{m}: sample file {rel!r} does not exist")):
            load_manifest(m)

    def test_invalid_sample_json_reported(self, tmp_path):
        m = self.write_corpus(tmp_path)
        (tmp_path / "samples" / "train_0000.json").write_text("{nope")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_manifest(m)

    def test_answer_outside_vocab_reported(self, tmp_path):
        m = self.write_corpus(tmp_path)
        spath = tmp_path / "samples" / "train_0000.json"
        doc = json.loads(spath.read_text())
        doc["answer"] = "purple"
        spath.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="purple"):
            load_manifest(m)

    def test_sample_schema_error_names_source_file(self, tmp_path):
        m = self.write_corpus(tmp_path)
        spath = tmp_path / "samples" / "train_0000.json"
        doc = json.loads(spath.read_text())
        del doc["scene"]["objects"]
        spath.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="train_0000"):
            load_manifest(m)

    def test_region_dim_mismatch_reported(self, tmp_path):
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, lambda d: d["world"].update(d_region=99))
        with pytest.raises(SchemaError, match="object o0: region feature dim 32 != 99"):
            load_manifest(m)

    @pytest.mark.parametrize("where, key, misspelt", [
        ((), "template", "templates"),
        (("scene",), "relations", "relation"),
        (("scene", "objects", 0), "attributes", "attribute"),
        (("scene", "relations", 0), "predicate", "predicates"),
        (("scene", "spatial"), "features", "feature"),
        (("question",), "entities", "entity"),
    ], ids=["sample", "scene", "object", "relation", "spatial", "question"])
    def test_misspelt_sample_key_rejected(self, tmp_path, where, key, misspelt):
        """A misspelt key is an error naming its path; an optional field
        (template, relations, attributes) is not silently left empty."""
        m = self.write_corpus(tmp_path)
        spath = tmp_path / "samples" / "train_0000.json"
        doc = json.loads(spath.read_text())
        node = doc
        for step in where:
            node = node[step]
        node[misspelt] = node.pop(key)
        spath.write_text(json.dumps(doc))
        at = "".join(f"[{s}]" if isinstance(s, int) else f": {s}" for s in where)
        with pytest.raises(SchemaError, match=re.escape(f"{spath}{at}: unknown fields "
                                                        f"['{misspelt}']")):
            load_manifest(m)

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(sampels=d["samples"]), "unknown fields ['sampels']"),
        (lambda d: d.update(world="not a world"), "field 'world' must be an object, got str"),
        (lambda d: d.update(split=7), "field 'split' must be a string, got int"),
        (lambda d: d.update(version=2.0), "field 'version' must be an integer, got float"),
        (lambda d: d.pop("world"), "missing field 'world'"),
        (lambda d: d["world"].update(grid_size=0), "world: grid_size must be >= 1, got 0"),
        (lambda d: d["world"].update(colour="red"), "world: unknown fields ['colour']"),
    ], ids=["unknown key", "world not an object", "split not a string", "float version",
            "no world",
            "bad world", "unknown world key"])
    def test_manifest_is_a_record(self, tmp_path, change, message):
        m = self.write_corpus(tmp_path)
        self.mutate_manifest(m, change)
        with pytest.raises(SchemaError, match=re.escape(f"{m}: {message}")):
            load_manifest(m)

    def test_manifest_reads_back_as_written(self, tmp_path):
        m = self.write_corpus(tmp_path)
        doc = json.load(open(m))
        manifest = from_json(Manifest, doc, m, required=True)
        assert manifest.world == DEFAULT_WORLD and manifest.split == "train"
        assert to_json(manifest) == doc

    def test_grid_size_mismatch_names_the_sample_file(self, tmp_path):
        """A sample edited to a 3x3 grid in a corpus of 2x2 scenes is refused."""
        m = self.write_corpus(tmp_path)
        spath = tmp_path / "samples" / "train_0001.json"
        doc = json.loads(spath.read_text())
        spatial = doc["scene"]["spatial"]
        spatial["features"] = (spatial["features"] * 3)[:9]
        spatial["grid_size"] = 3
        spath.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(
                f"{spath}: spatial grid_size 3 != the world's grid_size 2")):
            load_manifest(m)

    def test_spatial_width_mismatch_reported(self, tmp_path):
        m = self.write_corpus(tmp_path)
        spath = tmp_path / "samples" / "train_0001.json"
        doc = json.loads(spath.read_text())
        doc["scene"]["spatial"]["features"] = [r[:3] for r in doc["scene"]["spatial"]["features"]]
        spath.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(
                f"{m}: sample train_0001: spatial feature width 3 != d_spatial 32")):
            load_manifest(m)
