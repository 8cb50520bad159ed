"""Command-line entry points: gen-data, train, eval, gradcheck, dump-leadgraph, ablate.

The train/gradcheck/ablate commands read an optional flat key=value config
file whose keys mirror the model and training dataclasses; see
``parse_config_file`` for the accepted keys. All commands exit 0 on
success and nonzero with a message on error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import data as toydata
from . import training
from .data import DEFAULT_WORLD, Sample, ToyWorldSpec, load_split
from .ingest import (SchemaError, _schema, only_fields, question_from_dict, read_json,
                     read_lines, require, scene_from_dict)
from .leadgraph import format_grid
from .model import STREAMS, ModelConfig, build_streams
from .training import Trainer, TrainConfig, build_model, evaluate, gradcheck, load_checkpoint

# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _streams(s: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in s.split(",") if part.strip())


def _opt_float(s: str):
    return None if s.lower() == "none" else float(s)


# each key parses by the type of its field's default; grad_clip's is None
_PARSERS = {bool: _bool, tuple: _streams, type(None): _opt_float}
MODEL_KEYS, TRAIN_KEYS = ({f.name: _PARSERS.get(type(f.default), type(f.default))
                           for f in dataclasses.fields(cls)} for cls in (ModelConfig, TrainConfig))
EXTRA_KEYS = {"word_vectors": str}


def parse_config_file(path: str | None) -> tuple[dict, dict, dict]:
    """Flat ``key = value`` lines; '#' starts a comment. Unknown and repeated
    keys are errors, and so is a file that is not UTF-8."""
    model_kw: dict = {}
    train_kw: dict = {}
    extra: dict = {}
    if path is None:
        return model_kw, train_kw, extra
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if seen.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}: line {lineno}: key {key!r} repeats line {seen[key]}")
        try:
            if key in MODEL_KEYS:
                model_kw[key] = MODEL_KEYS[key](value)
            elif key in TRAIN_KEYS:
                train_kw[key] = TRAIN_KEYS[key](value)
            elif key in EXTRA_KEYS:
                extra[key] = EXTRA_KEYS[key](value)
            else:
                raise ValueError(f"unknown config key {key!r}")
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return model_kw, train_kw, extra


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.spec:
        spec = ToyWorldSpec.from_dict(read_json(args.spec))
    else:
        spec = DEFAULT_WORLD
    n_eval = args.eval_n if args.eval_n is not None else max(1, args.n // 5)
    train_path, eval_path = toydata.gen_corpus(spec, args.n, n_eval, args.seed, args.out)
    print(train_path)
    print(eval_path)
    return 0


def cmd_train(args) -> int:
    model_kw, train_kw, extra = parse_config_file(args.config)
    dataset = load_split(args.data, "train")
    cfg = TrainConfig(**train_kw)
    model = build_model(dataset, model_kw, cfg.seed, extra.get("word_vectors"))
    trainer = Trainer(model, dataset, cfg)
    out = open(args.log, "w", encoding="utf-8") if args.log else sys.stdout
    try:
        trainer.fit(metrics_out=out, checkpoint_path=args.out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    dataset = load_split(args.data, args.split)
    report = evaluate(model, dataset)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    model_kw, train_kw, extra = parse_config_file(args.config)
    dataset = load_split(args.data, "train")
    seed = TrainConfig(**train_kw).seed
    model = build_model(dataset, model_kw, seed, extra.get("word_vectors"))
    if not 0 <= args.sample < len(dataset.samples):
        raise ValueError(f"sample index {args.sample} out of range")
    s = dataset.samples[args.sample]
    prep = model.prepare(s.scene, s.question, dataset.answer_index(s.answer))
    if not args.at_init:
        training.generic_parameter_point(model, seed=seed + 123)
    reports = gradcheck(model, prep, step=args.step, tol=args.tol)
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} max_rel_err={r.max_rel_err:.3e} coords={r.checked}")
        failed += not r.passed
    print(f"{len(reports) - failed}/{len(reports)} parameter blocks passed")
    return 1 if failed else 0


def cmd_dump_leadgraph(args) -> int:
    doc = only_fields(read_json(args.sample), args.sample, _schema(Sample)[0])
    scene = scene_from_dict(require(doc, "scene", args.sample, dict), args.sample)
    question = question_from_dict(require(doc, "question", args.sample, dict), args.sample)
    levels, plans = build_streams(scene, question, ModelConfig(streams=(args.stream,)))
    stream = STREAMS[args.stream]
    print(f"# stream {args.stream} layer {args.layer}")
    print(f"# image_tokens {levels[stream.image].n_tokens} sep 1 "
          f"question_tokens {levels[stream.question].n_tokens}")
    print(format_grid(plans[args.stream][args.layer - 1]))
    return 0


def cmd_ablate(args) -> int:
    model_kw, train_kw, extra = parse_config_file(args.config)
    train_kw["epochs"] = args.epochs
    rows = training.ablation_table(args.data, model_kw, train_kw, extra,
                                   relation_data=args.relation_data)
    print(training.format_ablation_table(rows))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granalign",
        description="Granularity-aligned VQA model: data, training, inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--spec", help="world spec JSON file (default: built-in world)")
    p.add_argument("--n", type=int, required=True, help="train sample count")
    p.add_argument("--eval-n", type=int, help="eval sample count (default n/5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    p.add_argument("--data", required=True, help="corpus directory (train.json inside)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--log", help="metrics log path (default: stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="eval", help="manifest name inside --data")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, default=0, help="sample index")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--at-init", action="store_true",
                   help="check at the training init instead of the rescaled "
                        "generic point (tiny early-layer gradients may sit "
                        "below finite-difference noise there)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-leadgraph", help="print a combined per-layer mask")
    p.add_argument("--sample", required=True, help="sample JSON file")
    p.add_argument("--stream", required=True, choices=tuple(STREAMS))
    p.add_argument("--layer", required=True, type=int, choices=(1, 2, 3))
    p.set_defaults(func=cmd_dump_leadgraph)

    p = sub.add_parser("ablate", help="train ablation variants and print a table")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--relation-data",
                   help="relation-template-only corpus directory for the extra row")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SchemaError, FloatingPointError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
