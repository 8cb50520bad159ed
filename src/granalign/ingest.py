"""Structured scene graphs and question parses into per-level tokens and pairs.

Images and questions each contribute three granularity levels:

  image:    concept (categories, relation predicates, attributes as nodes),
            region (per-object feature vectors), spatial (grid cells)
  question: entity, noun phrase, sentence (words plus dependency adjacency)

Each level yields an ordered token set plus directed (src, dst) index pairs,
or a ``full`` flag, that become the level's binary lead graph. Repeated
concept nodes, and in node reduction the question tokens that repeat a
label, collapse by one first-occurrence rule (``_collapse``). Feature
extraction and parsing happen upstream; this module only consumes their
structured output: the records ``SceneGraph`` and ``QuestionParse``, whose
annotations and ``__post_init__`` rules are the sample-file schema. The one
typed-JSON reader ``from_json`` reads them and every other input document,
checkpoint headers included, and ``to_json`` writes them and those headers.
``check_bound`` is the one lower-bound check, and error wording, of every numeric setting,
and ``check_size`` the one upper bound on the values a size setting makes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import typing
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad

logger = logging.getLogger(__name__)

Pair = tuple[int, int]

# Dropped from noun phrases: determiners and words expressing positional
# relations. Fixed sets so filtering is deterministic.
DETERMINERS = frozenset({"a", "an", "the", "this", "that", "these", "those"})
POSITIONAL_WORDS = frozenset(
    {"left", "right", "top", "bottom", "above", "below", "front", "behind", "near"}
)

LEVEL_TAGS = ("concept", "region", "spatial", "entity", "noun_phrase", "sentence")

# Largest feature magnitude a sample file may hold: squares of features (layer
# norm, Adam's second moment) stay finite. Near the float64 maximum (about
# 5e307) the input projection's sums overflow and the forward is NaN.
FEATURE_LIMIT = 1e150


class SchemaError(ValueError):
    """An input document does not match the expected schema."""


def check_bound(name: str, value, low, strict: bool = False) -> None:
    """ValueError unless ``value`` is finite and ``>= low`` (``> low`` if ``strict``)."""
    if not ((isinstance(value, int) or math.isfinite(value))
            and (value > low if strict else value >= low)):
        kind, low = ("a finite value ", f"{low:g}") if isinstance(low, float) else ("", low)
        raise ValueError(f"{name} must be {kind}{'>' if strict else '>='} {low}, got {value}")


# Most values one size setting may make: an encoder stack's parameters or a
# generated scene's features, 80 MB of float64. Checked before the first draw,
# so a huge setting fails at once rather than filling memory draw by draw.
SIZE_LIMIT = 10**7
# Most parameter blocks one encoder stack may declare (12 per layer, so up to
# 8,333 layers): a block costs Python objects whatever its width, so one-wide
# layers pass SIZE_LIMIT by the million and would fill memory block by block.
BLOCK_LIMIT = 10**5
# Most grid cells one generated scene may hold (a 100 x 100 grid): the
# generator builds each cell in Python (~17 us on a 2-core x86-64), so a grid
# of one-wide cells passes SIZE_LIMIT with millions of cells and minutes per
# scene. The spatial level has one token per cell, and a stream attends over
# all of them: 10**4 cells already make a 10**8-cell attention grid per head.
CELL_LIMIT = 10**4


def check_size(what: str, count: int, limit: int = SIZE_LIMIT) -> None:
    """ValueError if ``count``, the values (or blocks, or cells) that ``what``
    counts, exceeds ``limit``."""
    if count > limit:
        raise ValueError(f"{what} is {count}, beyond the limit {limit:g}")


# ---------------------------------------------------------------------------
# input structures
# ---------------------------------------------------------------------------


@dataclass
class SceneObject:
    obj_id: str = field(metadata={"json": "id"})
    category: str
    attributes: list[str] = field(metadata={"missing": []})
    region_feature: np.ndarray = field(metadata={"ndim": 1})


@dataclass
class SceneRelation:
    subject: str
    predicate: str
    object: str


@dataclass
class SpatialGrid:
    grid_size: int
    features: np.ndarray = field(metadata={"ndim": 2})  # [grid_size**2, d_spatial]

    def __post_init__(self):
        check_bound("grid_size", self.grid_size, 1)
        if self.features.shape[0] != self.grid_size ** 2:
            raise ValueError(f"features must be a {self.grid_size ** 2} x d matrix")


@dataclass
class SceneGraph:
    objects: list[SceneObject]
    relations: list[SceneRelation] = field(metadata={"missing": []})
    spatial: SpatialGrid

    def __post_init__(self):
        if not self.objects:
            raise ValueError("scene has no objects")
        width = self.objects[0].region_feature.shape[0]
        for i, o in enumerate(self.objects):
            if o.region_feature.shape[0] != width:
                raise ValueError(f"objects[{i}]: region_feature has "
                                 f"{o.region_feature.shape[0]} values, objects[0] has {width}")
        ids = {o.obj_id for o in self.objects}
        if len(ids) != len(self.objects):
            raise ValueError("duplicate object ids")
        for i, rel in enumerate(self.relations):
            for ref in (rel.subject, rel.object):
                if ref not in ids:
                    raise ValueError(f"relations[{i}]: unknown object id {ref!r}")


# the token indices of a dependency's head and of its dependent
DependencyEdge = NamedTuple("DependencyEdge", [("head", int), ("dependent", int)])


@dataclass
class QuestionParse:
    tokens: list[str]
    entities: list[str]
    noun_phrases: list[list[str]]
    dependency_edges: list[DependencyEdge]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("question has no tokens")
        n = len(self.tokens)
        for i, (h, dep) in enumerate(self.dependency_edges):
            if not (0 <= h < n and 0 <= dep < n):
                raise ValueError(f"dependency_edges[{i}] index out of range")


@dataclass
class LevelData:
    """Tokens and connection pairs (or ``full``: every pair) for one level.

    Labeled levels carry ``labels`` (and, for the concept level, ``kinds``
    distinguishing object/relation/attribute nodes); feature levels carry
    ``features``. The sentence level additionally carries the symmetrized
    dependency adjacency.
    """

    level: str
    labels: list[str] | None = None
    features: np.ndarray | None = None
    pairs: list[Pair] = field(default_factory=list)
    dep_adjacency: np.ndarray | None = None
    kinds: list[str] | None = None
    full: bool = False

    def __post_init__(self):
        if self.level not in LEVEL_TAGS:
            raise ValueError(f"unknown level tag {self.level!r}")
        n = self.n_tokens
        for src, dst in self.pairs:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"{self.level} level: pair ({src}, {dst}) exceeds {n} tokens")

    @property
    def n_tokens(self) -> int:
        if self.labels is not None:
            return len(self.labels)
        if self.features is not None:
            return self.features.shape[0]
        return 0


# ---------------------------------------------------------------------------
# typed JSON: the one reader of sample files, manifests, world specs and
# checkpoint headers; ``where`` names the document in every error
# ---------------------------------------------------------------------------

# the Python types of each JSON type; a tuple passes for a list, as ``json`` writes one
_JSON_TYPES = {dict: ((dict,), "an object"), list: ((list, tuple), "a list"),
               str: ((str,), "a string"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), bool: ((bool,), "a boolean")}
_JSON_TYPES.update({kind | None: (types + (type(None),), f"{name} or null")
                    for kind, (types, name) in _JSON_TYPES.items()})


def read_json(path):
    """The JSON document in the file ``path``; a file that is not UTF-8 JSON
    raises a SchemaError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as e:  # also UnicodeDecodeError, deep nesting
        raise SchemaError(f"{path}: invalid JSON: {e}") from None


def read_lines(path) -> list[str]:
    """The lines of the text file ``path``; a file that is not UTF-8 raises a
    SchemaError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: {e}") from None


def expect(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind`` (a bool only if ``kind`` admits bool)."""
    types, name = _JSON_TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        raise SchemaError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def from_json(cls, obj, where: str, required: bool):
    """The dataclass ``cls`` from the JSON object ``obj``, each field read by its
    annotation (``_codec``). Field metadata give the JSON key (``json``), an
    absent key's value (``missing``) and an array's axes (``ndim``). Unknown
    keys are errors, and so are absent ones without ``missing`` if ``required``.
    Errors name the path from ``where``, as does a ValueError of ``cls``."""
    keys, fields = _schema(cls)
    if type(obj) is not dict or not keys.issuperset(obj):
        if unknown := sorted(set(expect(obj, dict, where)) - keys):
            raise SchemaError(f"{where}: unknown fields {unknown}")
    kwargs = {}
    for name, key, kind, read, _, missing in fields:
        value = obj.get(key, missing)
        if value is dataclasses.MISSING:
            if required:
                raise SchemaError(f"{where}: missing field {key!r}")
            continue
        if type(value) not in _JSON_TYPES[kind][0]:
            expect(value, kind, f"{where}: field {key!r}")
        try:
            kwargs[name] = value if read is None else read(value, where, key)
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(f"{where}: field {key!r} is out of the float range") from None
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def to_json(record) -> dict:
    """The JSON object of the dataclass ``record``, which ``from_json`` reads back."""
    return {key: getattr(record, name) if write is None else write(getattr(record, name))
            for name, key, _, _, write, _ in _schema(type(record))[1]}


@functools.cache
def _schema(cls) -> tuple[frozenset, tuple]:
    """The JSON keys of the dataclass ``cls``; per field its name, JSON key,
    JSON type, reader, writer and the value of an absent key."""
    hints = typing.get_type_hints(cls)
    fields = tuple((f.name, f.metadata.get("json", f.name),
                    *_codec(hints[f.name], f.metadata.get("ndim")),
                    f.metadata.get("missing", dataclasses.MISSING))
                   for f in dataclasses.fields(cls))
    return frozenset(f[1] for f in fields), fields


def _codec(tp, ndim):
    """The JSON type of a value annotated ``tp``, its reader ``(value, where,
    key)`` and its writer ``(value)``, each None for the value as it is. A
    dataclass is an object, ``X | None`` null or an X, a list or ``tuple[X,
    ...]`` a list read item by item (plain values in one pass), a named pair
    such as ``DependencyEdge`` two integers, and an array numbers or rows."""
    if type(None) in typing.get_args(tp):  # X | None
        kind, read, write = _codec(typing.get_args(tp)[0], ndim)
        return (kind | None, read and (lambda v, w, k: v if v is None else read(v, w, k)),
                write and (lambda v: v if v is None else write(v)))
    if dataclasses.is_dataclass(tp):
        return dict, lambda v, where, key: from_json(tp, v, f"{where}: {key}", True), to_json
    if tp is np.ndarray:
        return list, lambda v, where, key: _numbers(v, ndim, f"{where}: {key}"), np.ndarray.tolist
    if tp is float:
        return float, lambda v, where, key: float(v), None
    if hasattr(tp, "_fields"):
        def pair(v, where, key):
            if len(v) != 2 or type(v[0]) is not int or type(v[1]) is not int:
                raise SchemaError(f"{where}: {key} must be a ({', '.join(tp._fields)}) "
                                  f"pair of integers")
            return tp(*v)
        return list, pair, list
    wrap = typing.get_origin(tp)
    if wrap not in (list, tuple):
        return tp, None, None
    kind, read, write = _codec(typing.get_args(tp)[0], ndim)
    types, name = _JSON_TYPES[kind]

    def items(v, where, key):
        if read is None:  # plain values in one pass; a bool is not an integer
            if bad := [x for x in v if type(x) not in types]:
                raise SchemaError(f"{where}: {key} must hold {name.split()[-1]}s, "
                                  f"got {type(bad[0]).__name__}")
            return wrap(v)
        return wrap(read(x if type(x) in types else expect(x, kind, f"{where}: {key}[{i}]"),
                         where, f"{key}[{i}]") for i, x in enumerate(v))
    return list, items, list if write is None else lambda v: [write(x) for x in v]


def _numbers(values: list, ndim: int, what: str) -> np.ndarray:
    """The finite JSON numbers ``values`` as a float64 array of ``ndim`` axes."""
    try:
        a = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != ndim:
        raise SchemaError(f"{what} must be a {ndim}-D array of numbers")
    # numpy also converts numeric strings and booleans; JSON numbers are ints and floats
    bad = set(map(type, chain.from_iterable(values) if ndim == 2 else values)) - {int, float}
    if bad:
        raise SchemaError(f"{what} must hold numbers, got {min(t.__name__ for t in bad)}")
    if not np.abs(a).max(initial=0.0) <= FEATURE_LIMIT:  # also NaN
        bad = ("a non-finite value (NaN or infinity)" if not np.isfinite(a).all()
               else f"a value beyond ±{FEATURE_LIMIT:g}")
        raise SchemaError(f"{what} holds {bad}")
    return a


def scene_from_dict(d: dict, source: str = "scene") -> SceneGraph:
    return from_json(SceneGraph, d, source, required=True)


def question_from_dict(d: dict, source: str = "question") -> QuestionParse:
    return from_json(QuestionParse, d, source, required=True)


# ---------------------------------------------------------------------------
# image levels
# ---------------------------------------------------------------------------


def build_concept_level(sg: SceneGraph) -> LevelData:
    """Semantic graph over categories, relation predicates, and attributes.

    Relations become extra nodes, so each subject-predicate-object triple
    contributes the pairs subject->predicate and predicate->object; each
    attribute assignment contributes owner->attribute. Token order follows
    a breadth-first walk of this graph (successors before predecessors,
    both in construction order) starting from the objects in scene order,
    which interleaves relation and attribute nodes between the categories
    they connect.
    """
    index_of_obj = {o.obj_id: i for i, o in enumerate(sg.objects)}
    labels = [o.category for o in sg.objects]
    kinds = ["object"] * len(sg.objects)
    edges: list[Pair] = []

    for rel in sg.relations:
        node = len(labels)
        labels.append(rel.predicate)
        kinds.append("relation")
        edges.append((index_of_obj[rel.subject], node))
        edges.append((node, index_of_obj[rel.object]))
    for i, obj in enumerate(sg.objects):
        for attr in obj.attributes:
            node = len(labels)
            labels.append(attr)
            kinds.append("attribute")
            edges.append((i, node))

    succ: list[list[int]] = [[] for _ in labels]
    pred: list[list[int]] = [[] for _ in labels]
    for src, dst in edges:
        succ[src].append(dst)
        pred[dst].append(src)

    order: list[int] = []
    seen = [False] * len(labels)
    for root in range(len(sg.objects)):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in succ[u] + pred[u]:
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
                    queue.append(v)

    new_index = {old: new for new, old in enumerate(order)}
    return LevelData(
        level="concept",
        labels=[labels[old] for old in order],
        kinds=[kinds[old] for old in order],
        pairs=[(new_index[s], new_index[d]) for s, d in edges],
    )


def merge_duplicate_concept_tokens(level: LevelData) -> LevelData:
    """Collapse same-label relation nodes and same-label attribute nodes.

    Object category tokens are never merged. The surviving node is the
    first occurrence; pairs are re-pointed at it and deduplicated.
    """
    if level.level != "concept":
        raise ValueError("merge_duplicate_concept_tokens expects the concept level")
    assert level.labels is not None and level.kinds is not None
    return _collapse(level.labels, level.kinds, zip(level.kinds, level.labels),
                     [kind != "object" for kind in level.kinds], level.pairs)


def _collapse(labels: list[str], kinds: list[str], keys, merges, pairs) -> LevelData:
    """The concept level of the tokens ``labels`` of ``kinds``, each token that
    ``merges`` collapsed onto the first kept token with its key in ``keys``,
    if there is one. Every other token is kept, in order; ``pairs`` are
    re-pointed at the kept tokens and deduplicated in order."""
    first: dict = {}
    keep: list[int] = []
    target: list[int] = []
    for i, (key, merge) in enumerate(zip(keys, merges)):
        if merge and key in first:
            target.append(first[key])
        else:
            first.setdefault(key, len(keep))
            target.append(len(keep))
            keep.append(i)
    return LevelData(level="concept", labels=[labels[i] for i in keep],
                     kinds=[kinds[i] for i in keep],
                     pairs=list(dict.fromkeys((target[s], target[d]) for s, d in pairs)))


def build_region_level(sg: SceneGraph) -> LevelData:
    """Per-object visual features; one pair per semantic relation, deduplicated."""
    index_of_obj = {o.obj_id: i for i, o in enumerate(sg.objects)}
    feats = np.stack([o.region_feature for o in sg.objects])
    pairs = list(dict.fromkeys((index_of_obj[rel.subject], index_of_obj[rel.object])
                               for rel in sg.relations))
    return LevelData(level="region", features=feats, pairs=pairs)


def build_spatial_level(sg: SceneGraph) -> LevelData:
    """Grid-cell features in row-major order, fully connected."""
    return LevelData(level="spatial", features=sg.spatial.features, full=True)


# ---------------------------------------------------------------------------
# question levels
# ---------------------------------------------------------------------------


def build_entity_level(qp: QuestionParse) -> LevelData:
    """Entity mentions without attributes, fully connected."""
    labels = list(qp.entities)
    return LevelData(level="entity", labels=labels, full=True)


def build_noun_phrase_level(qp: QuestionParse) -> LevelData:
    """Noun-phrase words minus determiners and positional words, one token each."""
    words = [w for phrase in qp.noun_phrases for w in phrase
             if w not in DETERMINERS and w not in POSITIONAL_WORDS]
    return LevelData(level="noun_phrase", labels=words, full=True)


def build_sentence_level(qp: QuestionParse) -> LevelData:
    """All question words, with the symmetrized self-looped dependency adjacency
    as a bool [n, n] array: the sentence stack's attention mask."""
    n = len(qp.tokens)
    adj = np.eye(n, dtype=bool)
    for h, d in qp.dependency_edges:
        adj[h, d] = True
        adj[d, h] = True
    return LevelData(level="sentence", labels=list(qp.tokens), full=True,
                     dep_adjacency=adj)


# ---------------------------------------------------------------------------
# node reduction (ablation)
# ---------------------------------------------------------------------------


def node_reduction(image_level: LevelData, question_level: LevelData) -> LevelData:
    """Merge identically labeled tokens of two labeled levels into shared nodes.

    Each question token whose label an image token or an earlier question
    token has collapses onto the first such node; the others are appended.
    Edge sets (every pair for a ``full`` level) are unioned, re-indexed,
    and deduplicated. Used by the node-reduction ablation only.
    """
    if image_level.labels is None or question_level.labels is None:
        raise ValueError("node_reduction needs two labeled levels")
    n_img, n_q = image_level.n_tokens, question_level.n_tokens
    labels = image_level.labels + question_level.labels
    q_pairs = ([(s, d) for s in range(n_q) for d in range(n_q)] if question_level.full
               else question_level.pairs)
    return _collapse(labels, (image_level.kinds or ["object"] * n_img) + ["entity"] * n_q,
                     labels, [False] * n_img + [True] * n_q,
                     chain(image_level.pairs, ((s + n_img, d + n_img) for s, d in q_pairs)))


# ---------------------------------------------------------------------------
# vocabulary and token embedding
# ---------------------------------------------------------------------------


class Vocab:
    """Word-to-id map with a reserved unknown id at 0."""

    UNK_ID = 0

    def __init__(self, words: Sequence[str]):
        self.words = list(words)
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary contains duplicates")
        self._index = {w: i + 1 for i, w in enumerate(self.words)}
        self._warned: set[str] = set()

    @property
    def size(self) -> int:
        return len(self.words) + 1

    def ids(self, labels: Sequence[str]) -> list[int]:
        out = []
        for label in labels:
            i = self._index.get(label)
            if i is None:
                if label not in self._warned:
                    self._warned.add(label)
                    logger.warning("unknown word %r mapped to the unknown id", label)
                i = self.UNK_ID
            out.append(i)
        return out


def embed_tokens(labels: Sequence[str], vocab: Vocab, table: ad.Tensor,
                 w1: ad.Tensor, b1: ad.Tensor, w2: ad.Tensor, b2: ad.Tensor) -> ad.Tensor:
    """Label tokens through the embedding table and a two-layer ReLU MLP; one tape node."""
    idx = np.asarray(vocab.ids(labels), dtype=np.intp)
    rows = table.data[idx]
    pre = rows @ w1.data + b1.data
    hidden = np.maximum(pre, 0.0)
    out = ad.Tensor(hidden @ w2.data + b2.data)

    def backward(g):
        g_pre = (g @ w2.data.T) * (pre > 0.0)
        return (ad._scatter_rows(table.data.shape[0], idx, g_pre @ w1.data.T),
                rows.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0))

    return ad.record(out, (table, w1, b1, w2, b2), backward)


def project_features(features: np.ndarray, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Raw feature vectors through a level-specific linear projection; one tape node."""
    x = np.asarray(features, dtype=np.float64)
    out = ad.Tensor(x @ w.data + b.data)

    def backward(g):
        return x.T @ g, g.sum(axis=0)

    return ad.record(out, (w, b), backward)


def load_word_vectors(path) -> tuple[list[str], np.ndarray]:
    """Read a plain text word-vector file: one ``word v1 ... vd`` line per word.
    A word given twice is an error naming both lines; a component that is not
    finite or lies beyond ±``FEATURE_LIMIT``, as for sample features, is an
    error naming its line."""
    words: dict[str, int] = {}  # each word's line, in file order
    rows: list[list[float]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            vec = [float(v) for v in parts[1:]]
        except ValueError as e:
            raise SchemaError(f"{path}: line {lineno}: {e}") from None
        if not vec:
            raise SchemaError(f"{path}: line {lineno}: no vector components")
        if not all(abs(v) <= FEATURE_LIMIT for v in vec):  # also NaN
            bad = ("non-finite vector component (NaN or infinity)"
                   if not all(map(math.isfinite, vec)) else
                   f"vector component beyond ±{FEATURE_LIMIT:g}")
            raise SchemaError(f"{path}: line {lineno}: {bad}")
        if rows and len(vec) != len(rows[0]):
            raise SchemaError(f"{path}: line {lineno}: inconsistent dimension")
        if words.setdefault(parts[0], lineno) != lineno:
            raise SchemaError(f"{path}: line {lineno}: word {parts[0]!r} repeats line "
                              f"{words[parts[0]]}")
        rows.append(vec)
    if not words:
        raise SchemaError(f"{path}: empty word-vector file")
    return list(words), np.array(rows)
