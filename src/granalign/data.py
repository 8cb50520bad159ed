"""Synthetic grid-world VQA corpus with an exact symbolic solver.

Scenes place a few attributed objects on a small grid; left/right
relations follow from column order. Questions come from three fixed
templates (attribute, relation, existence) with hand-built parses.
Region and spatial features are seeded hash-to-vector maps plus noise,
so labels never depend on the noise. ``solve`` re-derives every answer
from the scene graph alone and serves as the ground-truth oracle. A corpus
directory holds one ``{split}.json`` manifest per split, which ``load_split``
reads by the split's name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .ingest import (
    FEATURE_LIMIT,
    QuestionParse,
    SceneGraph,
    SceneObject,
    SceneRelation,
    SchemaError,
    SpatialGrid,
    check_bound,
    from_json,
    read_json,
    require,
    to_json,
)

MANIFEST_VERSION = 1

TEMPLATES = ("attribute", "relation", "exist")

# fixed (head, dependent) edge lists per template, over token indices
_DEP_EDGES = {
    # what color is the <cat>
    "attribute": [(2, 0), (2, 1), (4, 3), (2, 4)],
    # what is <rel> the <cat>
    "relation": [(1, 0), (1, 2), (4, 3), (2, 4)],
    # is there a <cat>
    "exist": [(0, 1), (3, 2), (0, 3)],
}


@dataclass(frozen=True)
class ToyWorldSpec:
    """Generator configuration: the closed world the corpus is drawn from."""

    categories: tuple[str, ...] = ("girl", "dog", "cat", "ball")
    attributes: tuple[str, ...] = ("brown", "red", "blue", "green")
    relations: tuple[str, ...] = ("left", "right")  # exactly two
    objects_min: int = 2
    objects_max: int = 2
    grid_size: int = 2
    d_region: int = 32
    d_spatial: int = 32
    feature_noise: float = 0.05
    # overall multiplier on region and grid feature magnitudes
    feature_scale: float = 1.0
    templates: tuple[str, ...] = TEMPLATES

    def __post_init__(self):
        for name in ("categories", "attributes", "relations", "templates"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("grid_size", "d_region", "d_spatial"):
            check_bound(name, getattr(self, name), 1)
        check_bound("feature_noise", self.feature_noise, 0.0)
        check_bound("feature_scale", self.feature_scale, 0.0, strict=True)
        if not self.categories:
            raise ValueError("empty category set")
        if not self.attributes:
            raise ValueError("empty attribute set")
        for name in ("categories", "attributes", "relations"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} holds a duplicate entry")
        if len(self.relations) != 2:
            raise ValueError("exactly two relations (column order and its reverse)")
        check_bound("objects_min", self.objects_min, 1)
        check_bound("objects_max", self.objects_max, self.objects_min)
        if self.objects_max > len(self.categories):
            raise ValueError("objects_max exceeds the category set (sampling is without replacement)")
        if self.objects_max > self.grid_size ** 2:
            raise ValueError("objects_max exceeds the number of grid cells")
        if not self.templates or any(t not in TEMPLATES for t in self.templates):
            raise ValueError(f"templates must be a nonempty subset of {TEMPLATES}")
        if set(self.templates) == {"relation"} and self.objects_max < 2:
            raise ValueError("a relation question needs two objects: relation-only "
                             "templates need objects_max >= 2")

    def word_vocab(self) -> list[str]:
        return list(dict.fromkeys(("what", "color", "is", "the", "there", "a",
                                   *self.categories, *self.attributes, *self.relations)))

    def answer_vocab(self) -> list[str]:
        return list(dict.fromkeys((*self.attributes, *self.categories, "yes", "no")))

    @classmethod
    def from_dict(cls, d: dict) -> "ToyWorldSpec":
        """A spec from a JSON object; each field has the JSON type of its default."""
        return from_json(cls, d, "world spec", required=False)


DEFAULT_WORLD = ToyWorldSpec()


@dataclass
class Sample:
    sample_id: str = field(metadata={"json": "id"})
    template: str = field(metadata={"missing": ""})
    scene: SceneGraph
    question: QuestionParse
    answer: str


@dataclass
class Manifest:
    """A split's manifest file: the world spec it was drawn from, its
    vocabularies and feature widths, and its sample files (paths relative to
    the manifest)."""

    version: int
    split: str
    world: ToyWorldSpec
    word_vocab: list[str]
    answer_vocab: list[str]
    d_region: int
    d_spatial: int
    grid_size: int
    samples: list[str]

    def __post_init__(self):
        for key in ("answer_vocab", "word_vocab"):
            vocab = getattr(self, key)
            if len(set(vocab)) != len(vocab):
                repeated = next(w for i, w in enumerate(vocab) if w in vocab[:i])
                raise ValueError(f"{key} repeats {repeated!r}")


@dataclass
class Dataset:
    samples: list[Sample]
    word_vocab: list[str]
    answer_vocab: list[str]
    d_region: int
    d_spatial: int
    grid_size: int
    _answer_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._answer_index = {a: i for i, a in enumerate(self.answer_vocab)}

    def __len__(self) -> int:
        return len(self.samples)

    def answer_index(self, label: str) -> int:
        if label not in self._answer_index:
            raise ValueError(f"answer {label!r} not in the answer vocabulary")
        return self._answer_index[label]


# ---------------------------------------------------------------------------
# feature synthesis
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def hash_vector(key: str, dim: int) -> np.ndarray:
    """Deterministic unit-scale vector for a string key, independent of any rng.

    Cached: the same few keys recur in every scene. The array is shared by
    every caller, so it is read-only.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    vec = np.random.default_rng(seed).standard_normal(dim)
    vec.flags.writeable = False
    return vec


def region_feature(category: str, attribute: str, dim: int) -> np.ndarray:
    # compositional: category and attribute each contribute a fixed direction,
    # so either label stays linearly recoverable across unseen combinations
    return hash_vector(f"category:{category}", dim) + hash_vector(f"attribute:{attribute}", dim)


def cell_feature(row: int, col: int, occupants: list[tuple[str, list[str]]],
                 dim: int) -> np.ndarray:
    """Grid cell vector: a cell-identity direction plus, per occupant, a
    category direction, one direction per attribute, and a category-column
    conjunction direction (the relations are column order, so that makes
    relative position linearly recoverable)."""
    vec = hash_vector(f"cell:{row}:{col}", dim)
    for cat, attrs in occupants:
        vec = vec + hash_vector(f"occupant:{cat}", dim)
        vec = vec + hash_vector(f"at:{cat}:{col}", dim)
        for attr in attrs:
            vec = vec + hash_vector(f"occupant_attr:{attr}", dim)
    return vec


# ---------------------------------------------------------------------------
# scene and question generation
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # the feature bound below rejects a scene that overflows
def _gen_scene(spec: ToyWorldSpec, rng: np.random.Generator) -> SceneGraph:
    n = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    cats = [spec.categories[i] for i in rng.choice(len(spec.categories), n, replace=False)]
    attrs = [spec.attributes[int(i)] for i in rng.integers(0, len(spec.attributes), n)]
    g = spec.grid_size
    cells = [int(c) for c in rng.choice(g * g, n, replace=False)]
    positions = [divmod(c, g) for c in cells]  # (row, col)

    objects = []
    for i in range(n):
        feat = region_feature(cats[i], attrs[i], spec.d_region)
        feat = feat + spec.feature_noise * rng.standard_normal(spec.d_region)
        objects.append(SceneObject(obj_id=f"o{i}", category=cats[i],
                                   attributes=[attrs[i]],
                                   region_feature=spec.feature_scale * feat))

    rel_left, rel_right = spec.relations
    relations = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if positions[i][1] < positions[j][1]:
                relations.append(SceneRelation(f"o{i}", rel_left, f"o{j}"))
            elif positions[i][1] > positions[j][1]:
                relations.append(SceneRelation(f"o{i}", rel_right, f"o{j}"))

    occupants_by_cell: dict[tuple[int, int], list[tuple[str, list[str]]]] = {}
    for i, pos in enumerate(positions):
        occupants_by_cell.setdefault(pos, []).append((cats[i], [attrs[i]]))
    grid = [divmod(cell, g) for cell in range(g * g)]  # (row, col), row-major
    base = np.stack([cell_feature(row, col, occupants_by_cell.get((row, col), []),
                                  spec.d_spatial) for row, col in grid])
    # the generator fills the array row by row, so this is the stream that
    # one draw per cell gives
    noise = rng.standard_normal((g * g, spec.d_spatial))
    feats = spec.feature_scale * (base + spec.feature_noise * noise)
    # the bound sample files are read with; one check over the scene's values
    values = np.concatenate([feats.ravel(), *(o.region_feature for o in objects)])
    if not np.abs(values).max() <= FEATURE_LIMIT:  # also NaN and infinity
        raise ValueError(f"feature_scale {spec.feature_scale:g} and feature_noise "
                         f"{spec.feature_noise:g} give a feature value beyond "
                         f"±{FEATURE_LIMIT:g}")

    return SceneGraph(objects=objects, relations=relations, spatial=SpatialGrid(g, feats))


def _question_candidates(spec: ToyWorldSpec, scene: SceneGraph) -> dict[str, list]:
    """Per template, the instantiations whose answer is unique and derivable."""
    cats_present = [o.category for o in scene.objects]
    out: dict[str, list] = {}
    if "attribute" in spec.templates:
        out["attribute"] = list(cats_present)
    if "relation" in spec.templates:
        items = []
        for rel in spec.relations:
            for target in cats_present:
                subjects = _relation_subjects(scene, rel, target)
                if len(subjects) == 1:
                    items.append((rel, target))
        if items:
            out["relation"] = items
    if "exist" in spec.templates:
        absent = [c for c in spec.categories if c not in cats_present]
        items = [("yes", c) for c in cats_present] + [("no", c) for c in absent]
        out["exist"] = items
    return out


def _make_question(template: str, choice) -> QuestionParse:
    if template == "attribute":
        cat = choice
        tokens = ["what", "color", "is", "the", cat]
        # "color" is itself a noun entity and "what color" a noun phrase
        entities = ["color", cat]
        phrases = [["what", "color"], ["the", cat]]
    elif template == "relation":
        rel, cat = choice
        tokens = ["what", "is", rel, "the", cat]
        entities = [cat]
        phrases = [["the", cat]]
    else:
        _, cat = choice
        tokens = ["is", "there", "a", cat]
        entities = [cat]
        phrases = [["a", cat]]
    return QuestionParse(tokens=tokens, entities=entities, noun_phrases=phrases,
                         dependency_edges=list(_DEP_EDGES[template]))


def gen_samples(spec: ToyWorldSpec, n: int, seed_seq: np.random.SeedSequence,
                prefix: str) -> list[Sample]:
    """Generate n solvable samples; scenes with no valid question are redrawn.
    ``prefix`` starts every sample id (the split's name) and the error message."""
    check_bound(f"{prefix}: sample count", n, 1)
    rng = np.random.default_rng(seed_seq)
    samples = []
    for i in range(n):
        for _ in range(1000):
            scene = _gen_scene(spec, rng)
            candidates = _question_candidates(spec, scene)
            if candidates:
                break
        else:
            raise ValueError("could not generate a solvable scene in 1000 draws; "
                             "check the world spec")
        template = sorted(candidates)[int(rng.integers(len(candidates)))]
        items = candidates[template]
        choice = items[int(rng.integers(len(items)))]
        question = _make_question(template, choice)
        answer = solve(scene, question.tokens)
        samples.append(Sample(sample_id=f"{prefix}_{i:04d}", template=template,
                              scene=scene, question=question, answer=answer))
    return samples


# ---------------------------------------------------------------------------
# symbolic solver (ground-truth oracle)
# ---------------------------------------------------------------------------


def _relation_subjects(scene: SceneGraph, rel: str, target_category: str) -> list[str]:
    targets = {o.obj_id for o in scene.objects if o.category == target_category}
    by_id = {o.obj_id: o for o in scene.objects}
    return [by_id[r.subject].category for r in scene.relations
            if r.predicate == rel and r.object in targets]


def solve(scene: SceneGraph, tokens: list[str]) -> str:
    """Answer a templated question from the scene graph alone."""
    if tokens[:2] == ["what", "color"]:
        cat = tokens[-1]
        matches = [o for o in scene.objects if o.category == cat]
        if len(matches) != 1 or not matches[0].attributes:
            raise ValueError(f"attribute question is not uniquely answerable for {cat!r}")
        return matches[0].attributes[0]
    if tokens[:2] == ["what", "is"]:
        rel, cat = tokens[2], tokens[-1]
        subjects = _relation_subjects(scene, rel, cat)
        if len(subjects) != 1:
            raise ValueError(f"relation question has {len(subjects)} candidates")
        return subjects[0]
    if tokens[:2] == ["is", "there"]:
        cat = tokens[-1]
        return "yes" if any(o.category == cat for o in scene.objects) else "no"
    raise ValueError(f"unrecognized question shape: {tokens!r}")


# ---------------------------------------------------------------------------
# on-disk corpus
# ---------------------------------------------------------------------------


def _json_text(obj, indent: str = "") -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)`` for a document
    whose object keys are strings, at the cost of formatting its floats.

    The stdlib's ``indent`` encoder is pure Python: one generator frame and
    one ``floatstr`` call per float. Here a list of finite floats is one
    C-level ``repr``, which renders each float as ``json`` does; its ``", "``
    separators become the indented ones. Every scalar goes through
    ``json.dumps``, so strings, ints, bools, ``None``, ``NaN`` and
    ``Infinity`` follow the stdlib's rules.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("corpus JSON object keys must be strings")
        body = sep.join(f"{json.dumps(k)}: {_json_text(v, inner)}"
                        for k, v in sorted(obj.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    floats = type(obj) is list and set(map(type, obj)) == {float}
    text = repr(obj) if floats else ""
    if floats and "n" not in text:  # finite: only nan and inf have an "n"
        body = text[1:-1].replace(", ", sep)
    else:
        body = sep.join(_json_text(v, inner) for v in obj)
    return "[\n" + inner + body + "\n" + indent + "]"


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(obj) + "\n")


def gen_data(spec: ToyWorldSpec, n: int, seed: int, out_dir: str,
             split: str = "train") -> str:
    """Write one split (manifest + per-sample files); returns the manifest path.

    The vocabularies derive from the world spec, not the drawn samples, so
    splits generated from the same spec share stable indices.
    """
    return _write_split(spec, gen_samples(spec, n, _seed_sequence(seed), split), out_dir, split)


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    check_bound("seed", seed, 0)
    return np.random.SeedSequence([seed])


def _write_split(spec: ToyWorldSpec, samples: list[Sample], out_dir: str, split: str) -> str:
    sample_dir = os.path.join(out_dir, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    rel_paths = []
    for s in samples:
        rel = os.path.join("samples", f"{s.sample_id}.json")
        _dump_json(os.path.join(out_dir, rel), to_json(s))
        rel_paths.append(rel)
    manifest = Manifest(version=MANIFEST_VERSION, split=split, world=spec,
                        word_vocab=spec.word_vocab(), answer_vocab=spec.answer_vocab(),
                        d_region=spec.d_region, d_spatial=spec.d_spatial,
                        grid_size=spec.grid_size, samples=rel_paths)
    path = os.path.join(out_dir, f"{split}.json")
    _dump_json(path, to_json(manifest))
    return path


def gen_corpus(spec: ToyWorldSpec, n_train: int, n_eval: int, seed: int,
               out_dir: str) -> tuple[str, str]:
    """Train and eval splits with disjoint sample streams from one seed. Both
    are drawn before any file is written, so an error leaves ``out_dir`` as
    it was."""
    train = gen_samples(spec, n_train, _seed_sequence(seed), "train")
    ev = gen_samples(spec, n_eval, _seed_sequence(seed + 1), "eval")
    return _write_split(spec, train, out_dir, "train"), _write_split(spec, ev, out_dir, "eval")


def load_manifest(path: str) -> Dataset:
    """Read and fully validate a manifest and every sample file it lists."""
    doc = read_json(path)
    # the version first: another version may hold other fields
    if require(doc, "version", path, int) != MANIFEST_VERSION:
        raise SchemaError(f"{path}: unsupported manifest version {doc['version']!r}")
    m = from_json(Manifest, doc, path, required=True)
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    for rel in m.samples:
        spath = os.path.join(base, rel)
        try:
            s = from_json(Sample, read_json(spath), spath, required=True)
        except FileNotFoundError:
            raise SchemaError(f"{path}: sample file {rel!r} does not exist") from None
        if s.answer not in m.answer_vocab:
            raise SchemaError(f"{spath}: answer {s.answer!r} not in the answer vocabulary")
        o = s.scene.objects[0]  # a scene's region features share one width
        if o.region_feature.shape[0] != m.d_region:
            raise SchemaError(f"{path}: sample {s.sample_id}: object {o.obj_id}: region "
                              f"feature dim {o.region_feature.shape[0]} != {m.d_region}")
        width = s.scene.spatial.features.shape[1]
        if width != m.d_spatial:
            raise SchemaError(f"{path}: sample {s.sample_id}: spatial feature "
                              f"width {width} != d_spatial {m.d_spatial}")
        samples.append(s)
    return Dataset(samples=samples, word_vocab=m.word_vocab, answer_vocab=m.answer_vocab,
                   d_region=m.d_region, d_spatial=m.d_spatial, grid_size=m.grid_size)


def load_split(data_dir: str, split: str) -> Dataset:
    """``load_manifest`` of the ``split`` that ``gen_data`` wrote into ``data_dir``."""
    return load_manifest(os.path.join(data_dir, f"{split}.json"))
