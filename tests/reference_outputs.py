"""Reference outputs of the model, pinned by digest.

Each case is a model config on a 16-sample training corpus of the pinned or
the 7x7-grid world at seed 7. Its outputs are the logits of one 16-sample
``forward_batch`` and of one ``forward``, the per-sample losses, the flat
batch-mean gradient, the logits of the same batch with small inputs (see
``case_outputs``), and the metric log and checkpoint bytes of a 2-epoch
tiny-config ``Trainer.fit``. ``tests/fixtures/reference_outputs.json`` holds
the sha256 of each output's bytes, float summaries beside them, and the
numpy and BLAS versions they were made with; ``test_reference_outputs.py``
checks a fresh run against it.

A change that moves numbers on purpose rewrites the file with

    python tests/reference_outputs.py --write

(``granalign`` installed, or ``PYTHONPATH=src``), which prints the largest
absolute and relative change of each case's summaries. Without ``--write``
it prints the same and exits 1 when a digest moved, or a case is missing,
on the platform the file was written on: a bitwise claim is one command.

The cases run in a child process at ``BLAS_THREADS`` BLAS threads, whatever
the caller's environment says: OpenBLAS splits the large products of the
7x7-grid world by thread count, which moves the last bits of the gradient,
and it reads the count once, when numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

import granalign
import granalign.autodiff as ad
from granalign.data import DEFAULT_WORLD, ToyWorldSpec, gen_corpus, load_manifest
from granalign.model import Model, ModelConfig
from granalign.training import Trainer, TrainConfig

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                    "reference_outputs.json")
SEED = 7
N_SAMPLES = 16
WORLDS = {"pinned": DEFAULT_WORLD,
          "grid": ToyWorldSpec(objects_min=1, objects_max=4, grid_size=7)}
CONFIGS = {"default": {}, "no-lead-graphs": {"use_lead_graphs": False},
           "sep-pooling": {"pooling": "sep"}, "node-reduction": {"node_reduction": True},
           "sep-self-only": {"sep_connect_all": False}, "two-streams": {"streams": ("ce", "ss")}}
CASES = [f"{world}/{config}" for world in WORLDS for config in CONFIGS]
TINY = dict(d_model=8, d_emb=8, num_heads=2, num_layers=2, d_ff=16)
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model(path: str = "/proc/cpuinfo") -> str:
    """The ``model name`` that ``path`` gives for the first CPU, or
    ``"unknown"`` where it gives none (or there is no such file)."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                key, sep, value = line.partition(":")
                if sep and key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def platform_key() -> dict[str, str]:
    """What the digests depend on besides the code: numpy, its BLAS and the
    thread count it runs at, the CPU family and model (BLAS picks its
    kernels by CPU model, and their rounding differs)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "blas_threads": str(BLAS_THREADS), "machine": platform.machine(),
            "cpu_model": cpu_model()}


def corpora(root: str) -> dict:
    """The training split of each world: 16 samples at seed 7."""
    return {name: load_manifest(gen_corpus(spec, N_SAMPLES, 1, SEED,
                                           os.path.join(root, name))[0])
            for name, spec in WORLDS.items()}


def _heads(bundle) -> bytes:
    return b"".join(t.data.tobytes() for t in bundle.all_logits().values())


def _top(bundle) -> float:
    return max(float(t.data.max()) for t in bundle.all_logits().values())


def case_outputs(ds, config: dict, root: str) -> tuple[dict[str, bytes], dict]:
    """The outputs of one case as bytes, and their float summaries."""
    model = Model(ModelConfig(**config), ds.word_vocab, ds.answer_vocab, ds.d_region,
                  ds.d_spatial, seed=SEED)
    preps = [model.prepare(s.scene, s.question, ds.answer_index(s.answer)) for s in ds.samples]
    answers = [p.answer_index for p in preps]
    with ad.Tape() as tape:
        bundle = model.forward_batch(preps)
        losses = model.loss(bundle, answers)
    grads = tape.gradients(losses, model.params.tensors(),
                           np.full(len(preps), 1.0 / len(preps)))
    one = model.forward(preps[0])
    # the same batch with every stack's input rows 1e-3 times as large (word
    # vectors, feature projections, SEP and positions): each stack's first layer
    # norm then sees variances far below EPS_NORM, so its exact value shows
    for name, t in model.params.items():
        if name == "embed.table" or name.endswith(("_proj.w", ".sep", ".pos")):
            t.data *= 1e-3
    quiet = model.forward_batch(preps)

    tiny = Model(ModelConfig(**TINY, **config), ds.word_vocab, ds.answer_vocab, ds.d_region,
                 ds.d_spatial, seed=SEED)
    trainer = Trainer(tiny, ds, TrainConfig(batch_size=8, epochs=2, seed=SEED, lr=1e-3))
    log, ckpt = io.StringIO(), os.path.join(root, "model.ckpt")
    history = trainer.fit(metrics_out=log, checkpoint_path=ckpt)
    with open(ckpt, "rb") as f:
        checkpoint = f.read()

    outputs = {"batch_logits": _heads(bundle), "forward_logits": _heads(one),
               "quiet_logits": _heads(quiet),
               "losses": losses.data.tobytes(),
               "gradient": np.concatenate(grads, axis=None).tobytes(),
               "metric_log": log.getvalue().encode("utf-8"), "checkpoint": checkpoint}
    summary = {"max_logit": _top(bundle), "forward_max_logit": _top(one),
               "quiet_max_logit": _top(quiet),
               "mean_loss": float(losses.data.mean()),
               "train_loss": history[-1]["loss"],
               "grad_norm": {name: float(np.sqrt(np.sum(g * g)))
                             for name, g in zip(model.params.names(), grads)}}
    return outputs, summary


def compute() -> dict:
    """Every case's digests and summaries, keyed ``<world>/<config>``, from
    ``compute_here`` in a child process at ``BLAS_THREADS`` BLAS threads."""
    paths = [os.path.dirname(os.path.abspath(__file__)),
             os.path.dirname(os.path.dirname(granalign.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)),
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = "import json, sys, reference_outputs as r; json.dump(r.compute_here(), sys.stdout)"
    run = subprocess.run([sys.executable, "-c", child], env=env, stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(run.stdout)


def compute_here() -> dict:
    """``compute`` in this process, at the BLAS thread count numpy loaded with."""
    out = {}
    with tempfile.TemporaryDirectory() as root:
        data = corpora(root)
        for case in CASES:
            world, config = case.split("/")
            outputs, summary = case_outputs(data[world], CONFIGS[config], root)
            out[case] = {"sha256": {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()},
                         "summary": summary}
    return out


def flat_summary(summary: dict) -> dict[str, float]:
    """The summary's numbers under one key each (``grad_norm/<block>``)."""
    out = {}
    for key, value in summary.items():
        if isinstance(value, dict):
            out.update({f"{key}/{k}": v for k, v in value.items()})
        else:
            out[key] = value
    return out


def largest_change(old: dict, new: dict) -> tuple[float, float]:
    """Largest absolute and relative change over the numbers both summaries
    hold; NaN if either holds a NaN (or an infinity) among them."""
    old, new = flat_summary(old), flat_summary(new)
    keys = sorted(old.keys() & new.keys())
    a, b = (np.array([s[k] for k in keys], dtype=np.float64) for s in (old, new))
    with np.errstate(invalid="ignore"):  # inf - inf
        d = np.abs(b - a)
        rel = d / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(d.max(initial=0.0)), float(rel.max(initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {os.path.relpath(PATH)} from a fresh run")
    args = parser.parse_args(argv)
    old = {"platform": None, "cases": {}}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as f:
            old = json.load(f)
    new = compute()
    failed = False
    for case, entry in new.items():
        if case not in old["cases"]:
            print(f"{case}: new")
            failed = True
            continue
        was = old["cases"][case]
        moved = [k for k, v in entry["sha256"].items() if was["sha256"].get(k) != v]
        failed |= bool(moved)
        abs_d, rel_d = largest_change(was["summary"], entry["summary"])
        print(f"{case}: largest change {abs_d:.3e} abs, {rel_d:.3e} rel; "
              f"digests moved: {', '.join(moved) or 'none'}")
    if args.write:
        with open(PATH, "w", encoding="utf-8") as f:
            json.dump({"platform": platform_key(), "cases": new}, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {PATH}")
        return 0
    if old["platform"] != platform_key():
        print(f"digests were written on {old['platform']}, this is {platform_key()}: "
              "not checked")
        return 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
