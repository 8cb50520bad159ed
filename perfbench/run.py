"""Run one workload of the granalign benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload train-pinned --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's own ``src/``. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` repeats the same work with
every public function of the layer modules wrapped in spans and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a report for people. The exit code is 1 when an output check
fails and 2 when the program's sources are missing.
"""

import os

# one BLAS thread, whatever the caller's environment says; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the measured phase (epochs or rounds of ~4 s each)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus, one set-up and one epoch or round")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def machine_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    if not (SRC / "granalign" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: {ROOT} holds no granalign sources (src/granalign) "
              "or no BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import granalign
    import workloads
    from speed import Speed

    args = parse_args(argv, workloads.WORKLOADS)
    w = workloads.WORKLOADS[args.workload]
    units = workloads.units_for(args.seconds, args.smoke)
    print(f"# granalign benchmark: workload {w.name} ({w.kind}), seed {args.seed}, "
          f"{units} {'epochs' if w.kind == 'train' else 'rounds'}, trace {args.trace}"
          f"{', smoke size' if args.smoke else ''}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print("run " + json.dumps({"workload": w.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "smoke": args.smoke, "units": units}, sort_keys=True))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(granalign)
    speed = Speed()
    if tracer is not None:
        # kernel runs become spans of their own, so their time leaves the self
        # time of the span they run in (run_epoch, around each optimizer step)
        speed.measure = tracer.wrap("perfbench.kernel", speed.measure)
        # a kernel run from a signal handler could land inside the tracer's own
        # bookkeeping; the traced run reports no setup_s, so it needs none
        speed.sample_s = 0.0
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    t_start = time.perf_counter()
    try:
        out = workloads.run(w, args.seed, args.seconds, args.smoke, str(workdir), speed)
    finally:
        t_end = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, value, unit, note in out.report:
        print(f"metric {name:<24} {value:>14.6f} {unit:<5} {note}")
    for name, passed, detail in out.checks:
        print(f"check  {name:<24} {'ok' if passed else 'FAILED'}  {detail}")

    declared = declared_metrics(args.trace)
    metrics = dict(out.metrics)
    if tracer is not None:
        # the kernel runs are the benchmark's own and belong to no layer
        roll = tracing.rollup(tracer, t_end - tracer.t_install - speed.total_s,
                              out.corpus_samples)
        factor = speed.median_factor()
        metrics = {name: value * factor if declared.get(name) in ("ms", "s") else value
                   for name, value in roll["metrics"].items()}
        metrics["trace.samples_per_s"] = out.metrics.get("samples_per_s", 0.0)
        metrics["trace.coverage"] = roll["coverage"]
        print(f"trace  {roll['spans']} spans over {roll['wall_s']:.3f} s outside kernel runs; "
              f"layer self times cover {100 * roll['coverage']:.1f}% of it; per-layer times "
              f"below are wall clock, those in the result are scaled by {factor:.4f}")
        for layer, s in sorted(roll["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"layer  {layer:<10} self {s:9.4f} s")
        print(f"{'span':<48} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
        for name, calls, incl, self_s in roll["by_name"][:30]:
            print(f"{name:<48} {calls:>9} {incl:>9.4f} {self_s:>9.4f}")
    else:
        print(f"wall   {t_end - t_start:.3f} s for set-up, measured phase and checks")

    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    result = {
        "correct": out.correct and not missing,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
