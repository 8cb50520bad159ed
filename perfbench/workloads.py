"""The benchmark's workloads: set-up, the measured phase and the output checks.

Every workload drives the public API of granalign (``data``, ``Model``,
``Trainer``, ``evaluate``, checkpoints) on a corpus generated from the run's
seed. The work in a run depends only on the workload, ``--seconds`` and
``--smoke``, never on measured speed, so two commits do identical work and
the loss repeats exactly while the arithmetic is unchanged.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from granalign import data, training
from granalign import model as gmodel
from speed import REFERENCE_S, Speed

BATCH_SIZE = 16
LR = 1e-4
SETUPS = 7  # set-ups per run; setup_s is their median
SMOKE_SIZES = (32, 16)  # train / eval samples of the smoke size of every workload
CHUNK = 32  # samples per evaluate call between kernel runs (infer)
ANSWER_BLOCK = 8  # one-by-one answers between kernel runs (infer)
CKPT_SAMPLES = 8  # eval samples whose logits the checkpoint check compares
PROBE_RETRY_STEP = 1e-6  # gradient-probe step for blocks that miss at gradcheck's 1e-5


UNIT_S = 4.0  # nominal seconds of one epoch or round on a 2-core x86-64 machine


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": Trainer.run_epoch; "infer": evaluate plus one-by-one answers
    world: dict  # ToyWorldSpec fields that differ from the default world
    n_train: int
    n_eval: int


# Why each workload is here: README.md and BENCHMARK.json. train-wide-grid has
# fewer samples so that its run length stays close to train-pinned's.
WORKLOADS = {w.name: w for w in (
    Workload("train-pinned", "train", {}, 500, 100),
    Workload("infer-pinned", "infer", {}, 500, 100),
    Workload("train-wide-grid", "train",
             {"objects_min": 1, "objects_max": 4, "grid_size": 7}, 400, 80),
)}


def units_for(seconds: float, smoke: bool) -> int:
    """Epochs (train) or rounds (infer) of the measured phase."""
    return 1 if smoke else max(1, round(seconds / UNIT_S))


@dataclass
class State:
    train_ds: data.Dataset
    eval_ds: data.Dataset
    net: gmodel.Model
    trainer: training.Trainer | None
    train_prep: list
    eval_prep: list


@dataclass
class Outcome:
    metrics: dict  # end-to-end metric name -> value
    report: list = field(default_factory=list)  # (name, value, unit, note) for people
    checks: list = field(default_factory=list)  # (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    corpus_samples: int = 0  # samples generated and loaded over all set-ups

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def prepare_all(net, ds) -> list:
    return [net.prepare(s.scene, s.question, ds.answer_index(s.answer)) for s in ds.samples]


def set_up(w: Workload, seed: int, directory: str, n_train: int, n_eval: int,
           speed: Speed) -> tuple[State, float, float]:
    """Corpus generation, manifest load, model build and prepare of every sample.

    Returns the state, the wall time and the time at reference speed; each
    stage is timed with Speed.timed."""
    wall = scaled = 0.0

    def stage(fn, *args, **kwargs):
        nonlocal wall, scaled
        result, dt, dt_scaled = speed.timed(fn, *args, **kwargs)
        wall += dt
        scaled += dt_scaled
        return result

    spec = data.ToyWorldSpec(**w.world)
    train_path, eval_path = stage(data.gen_corpus, spec, n_train, n_eval, seed, directory)
    train_ds = stage(data.load_manifest, train_path)
    eval_ds = stage(data.load_manifest, eval_path)
    net = stage(gmodel.Model, gmodel.ModelConfig(), train_ds.word_vocab, train_ds.answer_vocab,
                train_ds.d_region, train_ds.d_spatial, seed=seed)
    trainer = None
    if w.kind == "train":
        trainer = stage(training.Trainer, net, train_ds, training.TrainConfig(
            batch_size=BATCH_SIZE, seed=seed, lr=LR))
        train_prep = trainer.prepared
    else:
        train_prep = stage(prepare_all, net, train_ds)
    eval_prep = stage(prepare_all, net, eval_ds)
    return State(train_ds, eval_ds, net, trainer, train_prep, eval_prep), wall, scaled


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _failure(what: str) -> None:
    print(f"error: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------


def measure_train(st: State, units: int, out: Outcome, speed: Speed) -> None:
    """``units`` epochs of Trainer.run_epoch. Each optimizer step is timed from
    the end of the previous one (or the epoch start) to the end of its
    Adam.step, and the reference kernel runs after it."""
    opt = st.trainer.optimizer
    steps: list[tuple[float, float]] = []  # (wall, scaled) of each step this epoch
    mark = [0.0]
    inner = opt.step

    def step(grads):
        inner(grads)
        wall = time.perf_counter() - mark[0]
        steps.append((wall, wall * speed.factor()))
        mark[0] = time.perf_counter()

    opt.step = step  # instance attribute over the method; removed below
    n = len(st.train_prep)
    steps_per_epoch = math.ceil(n / BATCH_SIZE)
    full = n // BATCH_SIZE  # run_epoch slices batches in order: full ones come first
    wall_total = scaled_total = 0.0
    full_steps, records = [], []
    out.attempted += units * steps_per_epoch
    try:
        for done in range(units):
            steps.clear()
            speed.measure()
            mark[0] = time.perf_counter()
            try:
                rec = st.trainer.run_epoch()
            except Exception:
                _failure(f"training epoch {done + 1}")
                out.failed += (units - done) * steps_per_epoch
                break
            wall_total += sum(w for w, _ in steps)
            scaled_total += sum(s for _, s in steps)
            full_steps += [s for _, s in steps[:full]]
            if not math.isfinite(rec["loss"]):
                out.failed += steps_per_epoch
            records.append(rec)
    finally:
        del opt.step
    if not records:
        return
    last = records[-1]
    trained = n * len(records)
    out.metrics.update({
        "samples_per_s": trained / scaled_total,
        "latency_ms_p50": 1e3 * statistics.median(full_steps),
        "latency_ms_p90": 1e3 * percentile(full_steps, 90),
        "mean_loss": last["loss"],
    })
    out.report += [
        ("train_samples_per_s", out.metrics["samples_per_s"], "1/s",
         f"{len(records)} epochs of {n} samples"),
        ("train_step_ms_p50", out.metrics["latency_ms_p50"], "ms",
         f"{len(full_steps)} steps of {BATCH_SIZE} samples"),
        ("train_step_ms_p90", out.metrics["latency_ms_p90"], "ms",
         f"{len(full_steps)} steps of {BATCH_SIZE} samples"),
        ("train_loss_final", last["loss"], "nats", f"mean loss of epoch {last['epoch']}"),
        ("wall_train_samples_per_s", trained / wall_total, "1/s", "unscaled wall clock"),
    ]
    out.checks.append(("losses-finite", all(math.isfinite(r["loss"]) for r in records),
                       f"{len(records)} epoch losses"))


def measure_infer(st: State, units: int, out: Outcome, speed: Speed) -> list[int]:
    """``units`` rounds of bulk evaluate over both splits, then every question
    answered one by one through prepare, forward and predict. The reference
    kernel runs after each evaluate call of CHUNK samples and after each
    ANSWER_BLOCK answers. Returns the eval-split predictions of the
    single-question path."""
    net = st.net
    questions = [(s.scene, s.question, ds.answer_index(s.answer))
                 for ds in (st.train_ds, st.eval_ds) for s in ds.samples]
    chunks = [(ds, prep[i:i + CHUNK]) for ds, prep in ((st.train_ds, st.train_prep),
                                                       (st.eval_ds, st.eval_prep))
              for i in range(0, len(prep), CHUNK)]
    n_all = len(questions)
    rates, wall_rates, latencies, results, answers = [], [], [], [], []
    out.attempted += units * 2 * n_all
    for done in range(units):
        speed.measure()
        wall = scaled = 0.0
        res = []
        try:
            for ds, prep in chunks:
                t0 = time.perf_counter()
                res.append(training.evaluate(net, ds, prepared=prep))
                dt = time.perf_counter() - t0
                wall += dt
                scaled += dt * speed.factor()
        except Exception:
            _failure(f"evaluate in round {done + 1}")
            out.failed += (units - done) * 2 * n_all
            break
        rates.append(n_all / scaled)
        wall_rates.append(n_all / wall)
        if not all(math.isfinite(r["loss"]) for r in res):
            out.failed += n_all
        preds = []
        try:
            for start in range(0, n_all, ANSWER_BLOCK):
                block = []
                for scene, question, answer in questions[start:start + ANSWER_BLOCK]:
                    a = time.perf_counter()
                    preds.append(net.predict(net.forward(net.prepare(scene, question, answer))))
                    block.append(time.perf_counter() - a)
                f = speed.factor()
                latencies += [dt * f for dt in block]
        except Exception:
            _failure(f"single-question answers in round {done + 1}")
            out.failed += n_all + (units - done - 1) * 2 * n_all
            break
        results.append(res)
        answers.append(preds)
    if not answers:
        return []
    n_tr = len(st.train_prep)
    out.metrics.update({
        "samples_per_s": statistics.median(rates),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_p90": 1e3 * percentile(latencies, 90),
        "mean_loss": sum(r["loss"] * r["n"] for r in results[0]) / n_all,
    })
    out.report += [
        ("eval_samples_per_s", out.metrics["samples_per_s"], "1/s",
         f"median of {len(rates)} rounds of {n_all} samples"),
        ("answer_ms_p50", out.metrics["latency_ms_p50"], "ms", f"{len(latencies)} questions"),
        ("answer_ms_p90", out.metrics["latency_ms_p90"], "ms", f"{len(latencies)} questions"),
        ("answer_ms_p99", 1e3 * percentile(latencies, 99), "ms", f"{len(latencies)} questions"),
        ("eval_loss_untrained", out.metrics["mean_loss"], "nats", "both splits"),
        ("wall_eval_samples_per_s", statistics.median(wall_rates), "1/s", "unscaled wall clock"),
    ]
    out.checks.append(("rounds-repeat", all(r == results[0] for r in results)
                       and all(a == answers[0] for a in answers),
                       f"{len(results)} rounds, evaluate records and answers identical"))
    out.checks.append(("losses-finite", all(math.isfinite(r["loss"])
                                            for res in results for r in res),
                       f"{sum(map(len, results))} evaluate losses"))
    return answers[0][n_tr:]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _logit_bytes(net, prep) -> bytes:
    return b"".join(t.data.tobytes() for t in net.forward(prep).all_logits().values())


def _same_state(a, b) -> bool:
    """Bitwise-equal parameters and, if present, Adam moments and step count."""
    (net_a, opt_a), (net_b, opt_b) = a, b
    if [t.data.tobytes() for t in net_a.params.tensors()] != \
            [t.data.tobytes() for t in net_b.params.tensors()]:
        return False
    if (opt_a is None) != (opt_b is None):
        return False
    if opt_a is None:
        return True
    return opt_a.step_count == opt_b.step_count and all(
        sa[k].tobytes() == sb[k].tobytes()
        for sa, sb in ((opt_a.m, opt_b.m), (opt_a.v, opt_b.v)) for k in sa)


def check_solver(st: State) -> tuple[bool, str]:
    samples = st.train_ds.samples + st.eval_ds.samples
    wrong = [s.sample_id for s in samples if data.solve(s.scene, s.question.tokens) != s.answer]
    return not wrong, f"{len(samples)} answers re-derived, {len(wrong)} wrong"


def check_bulk_vs_single(st: State, single: list[int] | None) -> tuple[bool, str, dict]:
    """evaluate on the eval split, capturing each prediction, against the
    single-question path (``single``, or computed here when None)."""
    net = st.net
    captured = []

    def capture(bundle, _predict=net.predict):
        pred = _predict(bundle)
        captured.append(pred)
        return pred

    net.predict = capture  # instance attribute over the method; removed below
    try:
        res = training.evaluate(net, st.eval_ds, prepared=st.eval_prep)
    finally:
        del net.predict
    if single is None:
        single = [net.predict(net.forward(net.prepare(s.scene, s.question,
                                                      st.eval_ds.answer_index(s.answer))))
                  for s in st.eval_ds.samples]
    answers = [p.answer_index for p in st.eval_prep]
    acc = sum(p == a for p, a in zip(single, answers)) / len(answers)
    ok = captured == single and acc == res["acc_avg"] and math.isfinite(res["loss"])
    differ = sum(a != b for a, b in zip(captured, single))
    return ok, f"{len(single)} eval predictions, {differ} differ", res


def check_checkpoint(st: State, opt, path: str):
    """Save/load round trip: bitwise-equal parameters, optimizer state and logits."""
    training.save_checkpoint(path, st.net, opt)
    net2, opt2 = training.load_checkpoint(path)
    preps = st.eval_prep[:CKPT_SAMPLES]
    ok = _same_state((st.net, opt), (net2, opt2)) and all(
        _logit_bytes(st.net, p) == _logit_bytes(net2, p) for p in preps)
    return ok, f"{len(net2.params)} blocks, logits of {len(preps)} samples", net2, opt2


def check_resumed_step(st: State, net2, opt2, seed: int, path: str):
    """One training batch on the reloaded copy (resuming its optimizer, if
    any), then a round trip that must keep the new Adam state bitwise."""
    batch = data.Dataset(samples=st.train_ds.samples[:BATCH_SIZE],
                         word_vocab=st.train_ds.word_vocab,
                         answer_vocab=st.train_ds.answer_vocab,
                         d_region=st.train_ds.d_region, d_spatial=st.train_ds.d_spatial,
                         grid_size=st.train_ds.grid_size)
    trainer = training.Trainer(net2, batch, training.TrainConfig(
        batch_size=BATCH_SIZE, seed=seed, lr=LR))
    if opt2 is not None:
        trainer.optimizer = opt2
    rec = trainer.run_epoch()
    training.save_checkpoint(path, net2, trainer.optimizer)
    net3, opt3 = training.load_checkpoint(path)
    ok = math.isfinite(rec["loss"]) and _same_state((net2, trainer.optimizer), (net3, opt3))
    return ok, f"loss {rec['loss']:.6f}, Adam step {opt3.step_count}", net3


def check_probe(st: State, net) -> tuple[bool, str]:
    """training.gradcheck on the largest-gradient coordinate of every block,
    at the acceptance suite's generic parameter point, step and tolerance.

    A ReLU kink closer than the step (1e-5) to the point makes that
    difference invalid while the tape gradient is right, so the blocks that
    miss are checked again at a ten times smaller step and must pass there.
    A wrong tape gradient misses at both steps.
    """
    training.generic_parameter_point(net)
    prep = st.eval_prep[0]
    reports = training.gradcheck(net, prep, coords_per_block=1)
    missed = {r.name for r in reports if not r.passed}
    final = [r for r in reports if r.passed]
    if missed:
        final += [r for r in training.gradcheck(net, prep, step=PROBE_RETRY_STEP,
                                                coords_per_block=1) if r.name in missed]
    return (all(r.passed for r in final),
            f"{len(reports)} blocks, max rel err {max(r.max_rel_err for r in final):.2e}, "
            f"{len(missed)} at step {PROBE_RETRY_STEP:g}")


def output_checks(st: State, out: Outcome, seed: int, workdir: str,
                  single: list[int] | None) -> dict | None:
    """Every check of the run; returns the eval-split evaluate record."""
    path = os.path.join(workdir, "model.ckpt")
    opt = st.trainer.optimizer if st.trainer is not None else None

    def run(name, fn, *args):
        """Record the check's verdict; returns its extra results, or None if it raised."""
        try:
            passed, detail, *extra = fn(*args)
        except Exception:
            _failure(f"check {name}")
            out.checks.append((name, False, "raised"))
            return None
        out.checks.append((name, passed, detail))
        return extra

    run("solver", check_solver, st)
    bulk = run("bulk-vs-single", check_bulk_vs_single, st, single)
    # the later checks work on reloaded copies, leaving the measured model alone
    reloaded = run("checkpoint-roundtrip", check_checkpoint, st, opt, path)
    resumed = reloaded and run("resumed-step", check_resumed_step, st, *reloaded, seed, path)
    if resumed:
        run("gradient-probe", check_probe, st, resumed[0])
    else:
        out.checks.append(("gradient-probe", False, "no reloaded model to probe"))
    return bulk[0] if bulk else None


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, smoke: bool, workdir: str,
        speed: Speed) -> Outcome:
    n_train, n_eval = SMOKE_SIZES if smoke else (w.n_train, w.n_eval)
    setups = 1 if smoke else SETUPS
    units = units_for(seconds, smoke)
    out = Outcome(metrics={})
    walls, times = [], []
    st = None
    for i in range(setups):
        # every set-up starts from the same heap: no earlier state, no pending garbage
        st = None
        gc.collect()
        directory = os.path.join(workdir, f"corpus{i}")
        st, wall, scaled = set_up(w, seed, directory, n_train, n_eval, speed)
        shutil.rmtree(directory)  # everything is in memory once loaded
        walls.append(wall)
        times.append(scaled)
    out.corpus_samples = setups * (n_train + n_eval)

    single = None
    if w.kind == "train":
        measure_train(st, units, out, speed)
    else:
        single = measure_infer(st, units, out, speed) or None
    res = output_checks(st, out, seed, workdir, single)
    out.attempted += len(out.checks)
    out.failed += sum(not ok for _, ok, _ in out.checks)

    out.metrics["setup_s"] = statistics.median(times)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.report += [("setup_s", out.metrics["setup_s"], "s", f"median of {setups} set-ups"),
                   ("wall_setup_s", statistics.median(walls), "s", "unscaled wall clock"),
                   ("peak_rss_mb", out.metrics["peak_rss_mb"], "MB", ""),
                   ("kernel_ms_p50", 1e3 * statistics.median(speed.kernel_s), "ms",
                    f"reference kernel, {len(speed.kernel_s)} runs; "
                    f"{1e3 * REFERENCE_S:g} ms at reference speed")]
    if res is not None:
        out.report.append(("eval_acc", res["acc_avg"], "frac",
                           "eval split, " + ("after training" if w.kind == "train"
                                             else "untrained model")))
    out.report.append(("failed_frac", out.failed / max(out.attempted, 1), "frac",
                       f"{out.failed} of {out.attempted} operations"))
    return out
