"""Span tracer for the traced benchmark run, and its roll-up into per-layer metrics.

``Tracer.install`` wraps the public functions and public methods of every
layer module of ``granalign`` from the outside: no file of the package
changes. Each call of a wrapped function records one span (name, start,
end, parent) in flat in-memory arrays. ``Tape.add_node`` is wrapped too, so
each backward closure the tape records is timed when the sweep runs it and
its time is charged to the span that was open when the closure was recorded.

``rollup`` turns the spans into self times per span name and per layer, and
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("autodiff", "ingest", "leadgraph", "encoder", "model", "training", "data")

# Tape plumbing called once per op or per op input; tracing them would double
# the span count without adding a layer boundary. Tensor is constructed by
# every op for the same reason.
_SKIP = {"autodiff.record", "autodiff.active_tape", "autodiff.Tensor",
         "autodiff.Tape.tracks", "autodiff.Tape.add_node"}

# Private functions wrapped anyway, because a metric needs them as spans.
_EXTRA = {"training": ("_accuracy_update",)}

# Span-name categories used by the roll-up; one bit each.
FWD, PREP, EPOCH, LAYER, NORM, ATTN, FFN, PRE, EMBED, HEAD, LEVELS, LEAD = (
    1 << i for i in range(12))
STREAM = {"ce": 1 << 12, "rn": 1 << 13, "ss": 1 << 14}

_CATEGORY = {
    "model.Model.forward": FWD,
    "model.Model.prepare": PREP,
    "training.Trainer.run_epoch": EPOCH,
    "encoder.encoder_layer": LAYER,
    "autodiff.layer_norm_rows": NORM,
    "encoder.multi_head_ga": ATTN,
    "encoder.ga_attention": ATTN,
    "encoder.feed_forward": FFN,
    "encoder.sentence_pretransform": PRE,
    "ingest.embed_tokens": EMBED,
    "ingest.project_features": EMBED,
    "model.Model.fuse": HEAD,
    "model.Model.loss": HEAD,
    **{f"ingest.{n}": LEVELS for n in (
        "build_concept_level", "build_region_level", "build_spatial_level",
        "build_entity_level", "build_noun_phrase_level", "build_sentence_level",
        "merge_duplicate_concept_tokens", "node_reduction")},
    **{f"model.Model.run_stream.{tag}": bit for tag, bit in STREAM.items()},
}


def _category(name: str) -> int:
    bits = _CATEGORY.get(name, 0)
    if name.startswith("leadgraph."):
        bits |= LEAD
    return bits


class Tracer:
    """In-memory span recorder; ``install`` patches the package in place."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.node_span = array("i")  # per executed backward closure
        self.node_dt = array("d")
        self.nodes_recorded = 0
        self.attn_flops = 0
        self.op_names: set[str] = set()
        self.t_install = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, span_name=None, before=None):
        """A traced version of ``fn``.

        ``span_name(args)`` may refine the span name per call; ``before(args)``
        runs ahead of the call to update counters.
        """
        fixed = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if span_name is None else self.name_id(span_name(args))
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of the layer modules of ``package``."""
        ad = package.autodiff
        self.op_names = {f"autodiff.{n}" for n in ad.__all__
                         if inspect.isfunction(getattr(ad, n))} - _SKIP
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in _SKIP:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in _EXTRA.get(layer, ())):
                    before = self.count_attention if name == "encoder.multi_head_ga" else None
                    replaced[id(obj)] = self.wrap(name, obj, before=before)
                elif inspect.isclass(obj):
                    self._wrap_class(name, obj)
        # rebind every module-level reference, including `from x import f` copies
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package.__name__ or mod_name.startswith(package.__name__ + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])
        self._wrap_tape(ad.Tape)
        self.t_install = time.perf_counter()

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if name in _SKIP:
                continue
            if attr == "__post_init__" and prefix == "leadgraph.LeadGraph":
                setattr(cls, attr, self.wrap(name, obj))  # one span per graph built
            elif attr.startswith("_"):
                continue
            elif name == "model.Model.run_stream":
                # one span name per stream tag (the call's first argument)
                setattr(cls, attr, self.wrap(name, obj,
                                             span_name=lambda a, base=name: f"{base}.{a[1]}"))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__)))

    def _wrap_tape(self, tape_cls) -> None:
        original = tape_cls.add_node
        stack, node_span, node_dt = self.stack, self.node_span, self.node_dt
        clock = time.perf_counter
        tracer = self

        def add_node(tape, out, inputs, backward):
            span = stack[-1]
            tracer.nodes_recorded += 1

            def timed(grad):
                t0 = clock()
                result = backward(grad)
                node_dt.append(clock() - t0)
                node_span.append(span)
                return result

            original(tape, out, inputs, timed)

        tape_cls.add_node = add_node

    def count_attention(self, args) -> None:
        """Forward FLOPs of one multi-head attention call from its input shape:
        four d x d projections (8 n d^2) plus scores and mixing (4 n^2 d)."""
        n, d = args[0].data.shape
        self.attn_flops += 8 * n * d * d + 4 * n * n * d


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------


def rollup(tracer: Tracer, wall_s: float, corpus_samples: int) -> dict:
    """Self times and per-layer metrics from the recorded spans.

    ``wall_s`` is the traced wall time that layer self times should cover;
    ``corpus_samples`` is the number of samples generated, and loaded, over
    all set-ups. Returns ``{"metrics": {...}, "by_name":
    [...], "layer_self_s": {...}, "coverage": float, "spans": int,
    "wall_s": float}``; times are wall clock.
    """
    n = len(tracer.span_start)
    name_ids = np.asarray(tracer.span_name, dtype=np.int32)
    parent = np.asarray(tracer.span_parent, dtype=np.int32)
    dur = np.asarray(tracer.span_end) - np.asarray(tracer.span_start)
    child = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
    self_t = dur - child

    names = tracer.names
    own_by_id = [_category(nm) for nm in names]
    parent_list = parent.tolist()
    own = [own_by_id[i] for i in name_ids.tolist()]
    flags = [0] * (n + 1)  # flags[-1] stays 0 for spans without a parent
    for i in range(n):
        flags[i] = own[i] | flags[parent_list[i]]
    flags_arr = np.array(flags, dtype=np.int64)
    own_arr = np.array(own, dtype=np.int64)
    parent_flags = flags_arr[parent]
    span_flags = flags_arr[:n]

    k = len(names)
    count_by = np.bincount(name_ids, minlength=k)
    incl_by = np.bincount(name_ids, weights=dur, minlength=k)
    self_by = np.bincount(name_ids, weights=self_t, minlength=k)

    def nid(name):
        return tracer._ids.get(name, -1)

    def count(name):
        i = nid(name)
        return int(count_by[i]) if i >= 0 else 0

    def incl(name):
        i = nid(name)
        return float(incl_by[i]) if i >= 0 else 0.0

    def self_time(name):
        i = nid(name)
        return float(self_by[i]) if i >= 0 else 0.0

    def per_call(name):
        return incl(name) / max(count(name), 1)

    def count_within(name, bits):
        """Calls of ``name`` made (directly or not) inside spans carrying ``bits``."""
        return int(((name_ids == nid(name)) & ((span_flags & bits) == bits)).sum())

    def outermost(bit, within=0):
        """Inclusive time of the outermost spans carrying ``bit`` under ``within``."""
        sel = ((own_arr & bit) != 0) & ((parent_flags & bit) == 0)
        if within:
            sel &= (span_flags & within) == within
        return float(dur[sel].sum())

    node_dt = np.asarray(tracer.node_dt)
    node_flags = flags_arr[np.asarray(tracer.node_span, dtype=np.int32)]

    def charged(bits):
        return float(node_dt[(node_flags & bits) == bits].sum())

    n_fwd = max(count("model.Model.forward"), 1)
    n_taped = max(count("autodiff.Tape.backward"), 1)
    n_prep = max(count("model.Model.prepare"), 1)
    backward_s = incl("autodiff.Tape.backward")
    ms = 1e3
    metrics = {
        "autodiff.tape_nodes_per_sample": tracer.nodes_recorded / n_taped,
        "autodiff.op_calls_per_sample": sum(count(o) for o in tracer.op_names) / n_fwd,
        "autodiff.backward_ms_per_sample": ms * backward_s / n_taped,
        "autodiff.sweep_overhead_ms_per_sample":
            ms * (backward_s - float(node_dt.sum())) / n_taped,
        "ingest.levels_ms_per_sample": ms * outermost(LEVELS) / n_prep,
        "leadgraph.prepare_ms_per_sample": ms * outermost(LEAD, PREP) / n_prep,
        "data.gen_ms_per_sample": ms * incl("data.gen_corpus") / max(corpus_samples, 1),
        "data.load_ms_per_sample": ms * incl("data.load_manifest") / max(corpus_samples, 1),
        "leadgraph.forward_ms_per_sample": ms * outermost(LEAD, FWD) / n_fwd,
        "leadgraph.graphs_built_per_forward":
            count_within("leadgraph.LeadGraph.__post_init__", FWD) / n_fwd,
        "ingest.embed_fwd_ms": ms * outermost(EMBED) / n_fwd,
        "ingest.embed_bwd_ms": ms * charged(EMBED) / n_taped,
        "encoder.attn_fwd_ms": ms * outermost(ATTN) / n_fwd,
        "encoder.attn_bwd_ms": ms * charged(ATTN) / n_taped,
        "encoder.ffn_fwd_ms": ms * outermost(FFN) / n_fwd,
        "encoder.ffn_bwd_ms": ms * charged(FFN) / n_taped,
        "encoder.norm_fwd_ms": ms * outermost(NORM, LAYER) / n_fwd,
        "encoder.norm_bwd_ms": ms * charged(NORM | LAYER) / n_taped,
        "encoder.pretransform_fwd_ms": ms * outermost(PRE) / n_fwd,
        "encoder.pretransform_bwd_ms": ms * charged(PRE) / n_taped,
        "encoder.layer_calls_per_sample": count("encoder.encoder_layer") / n_fwd,
        "encoder.attn_flops_per_sample": tracer.attn_flops / n_fwd,
        **{f"model.stream_fwd_ms.{tag}": ms * outermost(bit) / n_fwd
           for tag, bit in STREAM.items()},
        **{f"model.stream_bwd_ms.{tag}": ms * charged(bit) / n_taped
           for tag, bit in STREAM.items()},
        "model.head_fwd_ms": ms * outermost(HEAD) / n_fwd,
        "model.head_bwd_ms": ms * charged(HEAD) / n_taped,
        "training.accum_ms_per_sample": ms * self_time("training.Trainer.run_epoch")
        / max(count_within("autodiff.Tape.backward", EPOCH), 1),
        "training.adam_ms_per_step": ms * per_call("training.Adam.step"),
        "training.metrics_ms_per_sample": ms * per_call("training._accuracy_update"),
        "training.ckpt_save_ms": ms * per_call("training.save_checkpoint"),
        "training.ckpt_load_ms": ms * per_call("training.load_checkpoint"),
    }

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, nm in enumerate(names):
        layer = nm.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += float(self_by[i])
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_s"] = s
    by_name = sorted(((names[i], int(count_by[i]), float(incl_by[i]), float(self_by[i]))
                      for i in range(k)), key=lambda r: -r[3])
    return {"metrics": metrics, "by_name": by_name, "layer_self_s": layer_self,
            "coverage": sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0,
            "spans": n, "wall_s": wall_s}
