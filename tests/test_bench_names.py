"""The names the benchmark reaches into ``granalign`` by, which must resolve.

``perfbench/tracing.py`` keys its spans on functions and methods by name
(``_CATEGORY``, ``_EXTRA``), and ``perfbench/workloads.py`` replaces
``Adam.step``, reads Adam's moments and step count, captures
``Model.predict`` and copies ``Dataset.grid_size``. A rename in the package
would silently zero a metric or break a workload, so each name is looked up
here. The benchmark's files are only read.
"""

import dataclasses
import importlib.util
import os

import numpy as np

import granalign
import granalign.autodiff as ad
from granalign.data import Dataset
from granalign.model import Model
from granalign.training import Adam

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# Keys that name nothing in the package; the tracer's next revision drops them
# (ROADMAP item 2, step A).
DEAD = {"encoder.multi_head_ga", "encoder.feed_forward", "autodiff.layer_norm_rows"}


def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name: str) -> bool:
    """Whether ``layer.attr[.attr]`` names a module attribute of the package; a
    per-stream span key ``model.Model.run_stream.<tag>`` names ``run_stream``."""
    layer, *path = name.split(".")
    if path[:2] == ["Model", "run_stream"]:
        path = path[:2]
    obj = getattr(granalign, layer, None)
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_every_span_key_resolves_but_the_known_dead_ones():
    t = tracing()
    keys = set(t._CATEGORY) | {f"{layer}.{name}" for layer, names in t._EXTRA.items()
                               for name in names}
    assert all(key.split(".")[0] in t.LAYERS for key in keys)
    assert {key for key in keys if not resolves(key)} == DEAD
    assert {f"model.Model.run_stream.{tag}" for tag in ("ce", "rn", "ss")} <= keys


def test_workload_names_resolve():
    params = ad.Parameters([("w", (2, 3), "linear"), ("b", (3,), "zeros")],
                           np.random.default_rng(0))
    opt = Adam(params, 1e-3)
    assert callable(Adam.step) and opt.step_count == 0
    assert list(opt.m) == list(opt.v) == params.names()
    assert callable(Model.predict)
    assert "grid_size" in {f.name for f in dataclasses.fields(Dataset)}
