"""The input contract, property-based: any JSON mutation of a sample file, a
manifest, a world spec or a checkpoint header either loads and runs, or
fails with a typed error (``SchemaError`` or ``ValueError``), never with any
other exception.

Each test is parametrized by a field of the document (every object key, and
the first entry of every list), and Hypothesis draws what happens there:
the field is replaced by arbitrary JSON, deleted, or gains an extra key.
Schema-valid scenes and parses, drawn whole, round-trip through the one
writer and reader of sample files.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import granalign.autodiff as ad
from granalign import encoder
from granalign.cli import main
from granalign.data import DEFAULT_WORLD, ToyWorldSpec, _json_text, load_manifest
from granalign.ingest import (FEATURE_LIMIT, DependencyEdge, QuestionParse, SceneGraph,
                              SceneObject, SceneRelation, SpatialGrid, question_from_dict,
                              scene_from_dict, to_json)
from granalign.model import STREAMS, Model, ModelConfig
from granalign.training import Adam, load_checkpoint, save_checkpoint
from conftest import load_fixture

TINY = dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16, max_len=64)
SETTINGS = settings(derandomize=True, max_examples=15, deadline=None)

_SCALARS = [st.none(), st.booleans(), st.text(max_size=6),
            st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])]


def json_values(ints):
    """Arbitrary JSON values whose integers come from ``ints``."""
    return st.recursive(
        st.one_of(ints, *_SCALARS),
        lambda children: st.one_of(st.lists(children, max_size=4),
                                   st.dictionaries(st.text(max_size=6), children, max_size=4)),
        max_leaves=10)


# Sizes drawn into a checkpoint header, a manifest or a world spec build
# arrays of that size, so their integers stay small; a sample's may be huge.
SMALL_JSON = json_values(st.integers(-64, 64))
ANY_JSON = json_values(st.one_of(st.integers(-64, 64), st.integers(-10**400, 10**400)))


def field_paths(doc, path=()):
    """The path of every field of ``doc``: each object key, and the first entry
    of each list."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from field_paths(doc[0], path + (0,))


def mutations(doc, path, values):
    """``doc`` with the field at ``path`` replaced by one of ``values``,
    deleted (in an object) or, if it is an object, given an extra key."""

    def apply(action, value, key):
        out = copy.deepcopy(doc)
        parent = out
        for step in path[:-1]:
            parent = parent[step]
        node = parent[path[-1]] if path else out
        if action == "add" and isinstance(node, dict):
            node[key] = value
        elif action == "delete" and path and isinstance(parent, dict):
            del parent[path[-1]]
        elif not path:
            return value
        else:
            parent[path[-1]] = value
        return out

    return st.builds(apply, st.sampled_from(["replace", "delete", "add"]), values,
                     st.text(max_size=6))


def ids(paths):
    return ["/".join(map(str, p)) or "root" for p in paths]


GIRL_DOG = load_fixture("girl_dog.json")
SAMPLE = {"id": "s0", "template": "attribute", "answer": "brown", **GIRL_DOG}
WORLD = json.loads(json.dumps(to_json(DEFAULT_WORLD)))  # as a spec file holds it
MANIFEST = {"version": 1, "split": "train", "world": WORLD, "samples": ["s0.json"],
            "word_vocab": ["what", "color", "is", "the", "girl", "dog", "brown", "left", "right"],
            "answer_vocab": ["brown", "red", "yes", "no"],
            "d_region": 4, "d_spatial": 4, "grid_size": 2}


def girl_dog():
    return scene_from_dict(GIRL_DOG["scene"]), question_from_dict(GIRL_DOG["question"])


def runs_or_rejects(model, scene, question):
    """``prepare`` raises a ValueError or gives finite logits."""
    try:
        prep = model.prepare(scene, question, 0)
    except ValueError as e:
        assert str(e)
        return
    assert np.isfinite(model.forward(prep).f_ga.data).all()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestCorpusFiles:
    def check(self, workdir, sample, manifest):
        (workdir / "s0.json").write_text(json.dumps(sample))
        (workdir / "train.json").write_text(json.dumps(manifest))
        try:
            ds = load_manifest(str(workdir / "train.json"))
        except ValueError as e:  # SchemaError is a ValueError
            assert str(e)
            return
        model = Model(ModelConfig(**TINY), ds.word_vocab, ds.answer_vocab or ["x"],
                      ds.d_region, ds.d_spatial)
        for s in ds.samples:
            runs_or_rejects(model, s.scene, s.question)

    @pytest.mark.parametrize("path", list(field_paths(SAMPLE)), ids=ids(field_paths(SAMPLE)))
    @SETTINGS
    @given(data=st.data())
    def test_sample_loads_and_runs_or_is_rejected(self, workdir, path, data):
        self.check(workdir, data.draw(mutations(SAMPLE, path, ANY_JSON)), MANIFEST)

    @pytest.mark.parametrize("path", list(field_paths(MANIFEST)),
                             ids=ids(field_paths(MANIFEST)))
    @SETTINGS
    @given(data=st.data())
    def test_manifest_loads_and_runs_or_is_rejected(self, workdir, path, data):
        self.check(workdir, SAMPLE, data.draw(mutations(MANIFEST, path, SMALL_JSON)))

    def test_the_unmutated_corpus_loads(self, workdir):
        (workdir / "s0.json").write_text(json.dumps(SAMPLE))
        (workdir / "train.json").write_text(json.dumps(MANIFEST))
        assert len(load_manifest(str(workdir / "train.json"))) == 1


class TestWorldSpec:
    @pytest.mark.parametrize("path", list(field_paths(WORLD)), ids=ids(field_paths(WORLD)))
    @SETTINGS
    @given(data=st.data())
    def test_loads_and_round_trips_or_is_rejected(self, path, data):
        try:
            spec = ToyWorldSpec.from_dict(data.draw(mutations(WORLD, path, SMALL_JSON)))
        except ValueError as e:
            assert str(e)
            return
        assert ToyWorldSpec.from_dict(json.loads(json.dumps(to_json(spec)))) == spec
        assert spec.word_vocab() and spec.answer_vocab()


def saved_checkpoint():
    """A tiny model's checkpoint, with Adam's record: its JSON header, the
    bytes before and after it, and the whole file."""
    model = Model(ModelConfig(**TINY), MANIFEST["word_vocab"], MANIFEST["answer_vocab"], 4, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "good.ckpt")
        save_checkpoint(path, model, Adam(model.params, 1e-4))
        with open(path, "rb") as f:
            blob = f.read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), blob[:8], blob[16 + hlen:], blob


HEADER, HEAD, BODY, CHECKPOINT = saved_checkpoint()


class TestCheckpointHeader:
    @pytest.mark.parametrize("path", list(field_paths(HEADER)), ids=ids(field_paths(HEADER)))
    @SETTINGS
    @given(data=st.data())
    def test_loads_and_runs_or_raises_a_value_error_naming_the_file(self, workdir, path, data):
        raw = json.dumps(data.draw(mutations(HEADER, path, SMALL_JSON))).encode("utf-8")
        file = workdir / "mutated.ckpt"
        file.write_bytes(HEAD + struct.pack("<Q", len(raw)) + raw + BODY)
        try:
            model, _ = load_checkpoint(str(file))
        except ValueError as e:
            assert str(e).startswith(f"{file}: ")
            return
        runs_or_rejects(model, *girl_dog())


class TestCheckpointLength:
    @SETTINGS
    @given(offset=st.integers(0, len(CHECKPOINT)), extra=st.binary(min_size=1, max_size=64))
    def test_cut_or_extended_raises_a_value_error_naming_the_file(self, workdir, offset, extra):
        """The file cut at ``offset``, or with bytes inserted there (appended at
        its end), is rejected; the whole file loads with Adam's record."""
        file = workdir / "resized.ckpt"
        file.write_bytes(CHECKPOINT)
        assert load_checkpoint(str(file))[1] is not None
        for blob in (CHECKPOINT[:offset], CHECKPOINT[:offset] + extra + CHECKPOINT[offset:]):
            if blob == CHECKPOINT:
                continue  # a cut at the very end
            file.write_bytes(blob)
            with pytest.raises(ValueError) as e:
                load_checkpoint(str(file))
            assert str(e.value).startswith(f"{file}: ")


@st.composite
def model_configs(draw):
    """A tiny ``ModelConfig``: 1-2 layers, a head count dividing ``d_model``,
    either pooling, each flag and a nonempty subset of the streams."""
    d_model = draw(st.sampled_from([4, 6, 8]))
    return ModelConfig(
        d_model=d_model, d_emb=draw(st.integers(2, 6)), d_ff=draw(st.sampled_from([4, 8])),
        num_heads=draw(st.sampled_from([h for h in (1, 2, 3, 4) if d_model % h == 0])),
        num_layers=draw(st.integers(1, 2)), max_len=64,
        pooling=draw(st.sampled_from(["mean", "sep"])), use_lead_graphs=draw(st.booleans()),
        node_reduction=draw(st.booleans()), sep_connect_all=draw(st.booleans()),
        streams=tuple(draw(st.lists(st.sampled_from(tuple(STREAMS)), min_size=1, unique=True))))


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("adam", [False, True], ids=["no_optimizer", "adam_one_step"])
    @SETTINGS
    @given(config=model_configs(), seed=st.integers(0, 2**32 - 1))
    def test_save_load_save_gives_the_same_bytes_and_logits(self, workdir, adam, config, seed):
        """A checkpoint loaded and saved again is byte-identical, with and
        without Adam's state after one step, and the loaded model's logits are
        bitwise the saved model's."""
        model = Model(config, MANIFEST["word_vocab"], MANIFEST["answer_vocab"], 4, 4, seed=seed)
        prep = model.prepare(*girl_dog(), 0)
        optimizer = Adam(model.params, 1e-3) if adam else None
        if adam:
            with ad.Tape() as tape:
                loss = model.loss(model.forward(prep), 0)
            optimizer.step(np.concatenate(tape.gradients(loss, model.params.tensors()),
                                          axis=None))
        first, second = workdir / "first.ckpt", workdir / "second.ckpt"
        save_checkpoint(str(first), model, optimizer)
        loaded, loaded_optimizer = load_checkpoint(str(first))
        assert (loaded_optimizer is None) == (optimizer is None)
        save_checkpoint(str(second), loaded, loaded_optimizer)
        assert second.read_bytes() == first.read_bytes()
        logits = [{head: t.data.tobytes() for head, t in m.forward(m.prepare(*girl_dog(), 0))
                   .all_logits().items()} for m in (model, loaded)]
        assert logits[0] == logits[1]


@pytest.fixture(scope="module")
def cli_corpus(workdir):
    """A one-sample corpus whose sample file each test rewrites and, per
    stream, the config file of a one-layer model of that stream alone trained
    for one epoch and its checkpoint, trained on the unmutated sample."""
    corpus = workdir / "cli_corpus"
    corpus.mkdir()
    (corpus / "s0.json").write_text(json.dumps(SAMPLE))
    (corpus / "train.json").write_text(json.dumps(MANIFEST))
    runs = {}
    for stream in ("ce", "rn", "ss"):
        config, ckpt = workdir / f"cli-{stream}.cfg", workdir / f"cli-{stream}.ckpt"
        config.write_text("".join(f"{k} = {v}\n" for k, v in {
            **TINY, "num_layers": 1, "epochs": 1, "streams": stream}.items()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--data", str(corpus), "--config", str(config),
                         "--out", str(ckpt)]) == 0
        runs[stream] = str(config), str(ckpt)
    return corpus, runs


class TestCommandLine:
    @pytest.mark.parametrize("path", list(field_paths(SAMPLE)), ids=ids(field_paths(SAMPLE)))
    @SETTINGS
    @given(data=st.data())
    def test_commands_exit_zero_or_with_an_error_line(self, cli_corpus, path, data):
        """Each command that reads a sample file, on one whose field at ``path``
        is mutated: ``dump-leadgraph`` of the drawn stream, and ``train``,
        ``eval`` and ``gradcheck`` of a one-layer model of that stream alone (a
        model of all three streams would make gradcheck cost 5x)."""
        corpus, runs = cli_corpus
        sample = corpus / "s0.json"
        sample.write_text(json.dumps(data.draw(mutations(SAMPLE, path, ANY_JSON))))
        stream = data.draw(st.sampled_from(["ce", "rn", "ss"]))
        config, ckpt = runs[stream]
        for argv in (["dump-leadgraph", "--sample", str(sample), "--stream", stream,
                      "--layer", "1"],
                     ["train", "--data", str(corpus), "--config", config, "--log", os.devnull],
                     ["eval", "--data", str(corpus), "--split", "train", "--ckpt", ckpt],
                     ["gradcheck", "--data", str(corpus), "--config", config]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == 0 or rc == 1 and err.getvalue().startswith("error:"), argv[0]
            assert "Traceback" not in err.getvalue()


# Schema-valid records. Words come from the manifest's vocabulary and one
# unknown word; features are any float64 the schema admits.
WORDS = st.sampled_from(MANIFEST["word_vocab"] + ["zebra"])
FINITE = st.floats(-FEATURE_LIMIT, FEATURE_LIMIT)


@st.composite
def scenes(draw, widths=None):
    d_region, d_spatial = widths or (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    ids = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    objects = [SceneObject(i, draw(WORDS), draw(st.lists(WORDS, max_size=2)),
                           draw(arrays(np.float64, d_region, elements=FINITE)))
               for i in ids]
    relations = draw(st.lists(st.builds(SceneRelation, st.sampled_from(ids), WORDS,
                                        st.sampled_from(ids)), max_size=4))
    g = draw(st.integers(1, 7))
    spatial = SpatialGrid(g, draw(arrays(np.float64, (g * g, d_spatial), elements=FINITE)))
    return SceneGraph(objects, relations, spatial)


@st.composite
def parses(draw):
    tokens = draw(st.lists(WORDS, min_size=1, max_size=8))
    index = st.integers(0, len(tokens) - 1)
    return QuestionParse(tokens, draw(st.lists(WORDS, max_size=3)),
                         draw(st.lists(st.lists(WORDS, min_size=1, max_size=3), max_size=2)),
                         draw(st.lists(st.builds(DependencyEdge, index, index), max_size=6)))


def same_record(a, b):
    """Equal records, with arrays bitwise equal."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            same_record(x, y)
    elif hasattr(a, "__dataclass_fields__"):
        for name in a.__dataclass_fields__:
            same_record(getattr(a, name), getattr(b, name))
    else:
        assert a == b


@functools.cache
def tiny_model(d_region, d_spatial, **switches):
    return Model(ModelConfig(**TINY, **switches), MANIFEST["word_vocab"],
                 MANIFEST["answer_vocab"], d_region, d_spatial)


@st.composite
def redrawn_features(draw, scene):
    """``scene`` with every region and spatial feature value drawn anew, in the
    same shapes."""
    def redraw(a):
        return draw(arrays(np.float64, a.shape, elements=FINITE))
    objects = [dataclasses.replace(o, region_feature=redraw(o.region_feature))
               for o in scene.objects]
    spatial = dataclasses.replace(scene.spatial, features=redraw(scene.spatial.features))
    return dataclasses.replace(scene, objects=objects, spatial=spatial)


class TestRecords:
    @pytest.mark.parametrize("strategy, read", [(scenes(), scene_from_dict),
                                                (parses(), question_from_dict)],
                             ids=["scene", "question"])
    @SETTINGS
    @given(data=st.data())
    def test_round_trip_through_the_file_text(self, strategy, read, data):
        record = data.draw(strategy)
        text = _json_text(to_json(record))
        again = read(json.loads(text))
        same_record(again, record)
        assert _json_text(to_json(again)) == text

    @SETTINGS
    @given(scene=scenes(), question=parses())
    def test_prepare_rejects_or_forward_is_finite(self, scene, question):
        model = tiny_model(scene.objects[0].region_feature.size, scene.spatial.features.shape[1])
        runs_or_rejects(model, scene, question)


class TestBatchmates:
    @pytest.mark.parametrize("switches", [{}, {"pooling": "sep"}, {"use_lead_graphs": False},
                                          {"node_reduction": True}],
                             ids=["default", "sep_pooling", "no_lead_graph", "node_reduction"])
    @SETTINGS
    @given(data=st.data())
    def test_batchmate_values_cannot_reach_a_samples_logits(self, switches, data):
        """Sample a's row of every head is bitwise the same beside b and beside
        b with other feature values. Batch size and membership are held fixed:
        they may move the last bits."""
        widths = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        model = tiny_model(*widths, **switches)
        a, b = data.draw(scenes(widths)), data.draw(scenes(widths))
        b_other = data.draw(redrawn_features(b))
        qa, qb = data.draw(parses()), data.draw(parses())
        try:
            pa, pb, pb_other = (model.prepare(s, q, 0) for s, q in
                                ((a, qa), (b, qb), (b_other, qb)))
        except ValueError:
            return
        rows = [{tag: t.data[0].tobytes() for tag, t in
                 model.forward_batch([pa, p]).all_logits().items()} for p in (pb, pb_other)]
        assert rows[0] == rows[1]


class TestBatchComposition:
    @pytest.mark.parametrize("switches", [{}, {"pooling": "sep"}, {"use_lead_graphs": False},
                                          {"node_reduction": True}],
                             ids=["default", "sep_pooling", "no_lead_graph", "node_reduction"])
    @SETTINGS
    @given(data=st.data())
    def test_a_samples_batch_row_is_its_forward(self, switches, data):
        """Each sample's row of every head in a batch of 2-5 drawn samples
        agrees with its own ``forward`` within 1e-13 of its largest logit:
        the batch's size and membership move only the last bits."""
        widths = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        model = tiny_model(*widths, **switches)
        n = data.draw(st.integers(2, 5))
        drawn = [(data.draw(scenes(widths)), data.draw(parses())) for _ in range(n)]
        try:
            preps = [model.prepare(s, q, 0) for s, q in drawn]
        except ValueError:
            return
        batch = model.forward_batch(preps).all_logits()
        for b, prep in enumerate(preps):
            alone = model.forward(prep).all_logits()
            top = max(float(np.abs(t.data).max()) for t in alone.values())
            for head, t in alone.items():
                assert np.abs(batch[head].data[b] - t.data).max() <= 1e-13 * top, head


@st.composite
def block_masks(draw):
    """A bool [B, 1, n, w] mask of one scored block: fully open, or each row
    dead, open in one cell, open throughout or drawn cell by cell."""
    bsz, n, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return np.ones((bsz, 1, n, w), dtype=bool)
    rows = []
    for _ in range(bsz * n):
        kind = draw(st.sampled_from(("dead", "single", "open", "drawn")))
        if kind == "drawn":
            rows.append(draw(st.lists(st.booleans(), min_size=w, max_size=w)))
        elif kind == "single":
            rows.append(np.arange(w) == draw(st.integers(0, w - 1)))
        else:
            rows.append([kind == "open"] * w)
    return np.array(rows, dtype=bool).reshape(bsz, 1, n, w)


class TestAttentionCore:
    @SETTINGS
    @given(g=block_masks(), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    def test_closed_columns_cannot_reach_the_output(self, g, seed, scale):
        """Redrawing the k and v rows of every column a block closes in all its
        rows leaves the core's output bitwise unchanged on each path: the row
        max by reduction, by columns and, on a fully open block, without the
        mask; and every path gives the same bits."""
        rng = np.random.default_rng(seed)
        bsz, _, n, w = g.shape
        q = rng.normal(size=(bsz, 2, n, 4))
        k, v = (rng.normal(size=(bsz, 2, w, 4)) for _ in range(2))
        closed = ~g[:, 0].any(axis=1)  # [B, w]
        k2, v2 = k.copy(), v.copy()
        for a in (k2, v2):
            a.transpose(0, 2, 1, 3)[closed] = scale * rng.normal(size=(closed.sum(), 2, 4))
        outs = set()
        with pytest.MonkeyPatch.context() as mp:
            for rule in (0, 10**9):  # columns always, the reduction always
                mp.setattr(encoder, "COLUMN_MAX_ROWS", rule)
                for mask in ([g, None] if g.all() else [g]):
                    base = encoder._ga_forward(q, k, v, mask)[0].tobytes()
                    assert encoder._ga_forward(q, k2, v2, mask)[0].tobytes() == base
                    outs.add(base)
        assert len(outs) == 1
