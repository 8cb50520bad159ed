"""Run every workload of the granalign benchmark, untraced and traced.

From the root of a checkout:

    python3 perfbench/suite.py --seed 1

For each workload it runs ``perfbench/run.py`` twice with the same seed and
the ``run_seconds`` of BENCHMARK.json, with ``--trace 0`` and ``--trace 1``,
one run at a time. It prints the untraced
run's report (every end-to-end figure by name and unit, and the output
checks), then the end-to-end and per-layer metrics, the tracing overhead
(traced minus untraced ``samples_per_s``) and the share of traced wall time
that layer self times cover. It exits 1 if any run exited non-zero or
reported ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return proc.returncode, lines, result, proc.stderr


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    ok = True
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            code, lines, result, stderr = run_once(workload, args.seed, seconds, trace)
            runs[trace] = result
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"== {workload} trace {trace}: FAILED (exit {code})")
                print(stderr.rstrip())
            if trace == 0:
                print(f"== {workload} (seed {args.seed})")
                for line in lines:
                    if line.startswith(("machine", "metric", "check")):
                        print("  " + line)
        untraced, traced = runs[0], runs[1]
        if untraced is None or traced is None:
            continue
        print(f"  end-to-end ({untraced['attempted']} operations, {untraced['failed']} failed):")
        for name, m in untraced["metrics"].items():
            print(f"    {name:<40} {m['value']:>16.6f} {m['unit']}")
        print("  per-layer (traced run):")
        for name, m in traced["metrics"].items():
            print(f"    {name:<40} {m['value']:>16.6f} {m['unit']}")
        base = untraced["metrics"]["samples_per_s"]["value"]
        overhead = traced["metrics"]["trace.samples_per_s"]["value"] - base
        coverage = traced["metrics"]["trace.coverage"]["value"]
        print(f"  tracing overhead: traced - untraced samples_per_s = {overhead:+.3f} 1/s "
              f"({100 * overhead / base:+.1f}%)")
        print(f"  traced self-time coverage: {100 * coverage:.1f}%")
        summary[workload] = {"untraced": untraced, "traced": traced}
    print(json.dumps({"seed": args.seed, "seconds": seconds, "correct": ok,
                      "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
