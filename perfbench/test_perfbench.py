"""Tests of the benchmark itself, at the smoke size of every workload.

    python3 -m pytest perfbench/test_perfbench.py

Every workload, untraced and traced, must pass its output checks and emit
exactly the metrics BENCHMARK.json names, with their units.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    if not trace:
        # the report also prints each figure under its phase-specific name
        names = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("metric ")}
        expected = {"setup_s", "peak_rss_mb", "eval_acc", "failed_frac"} | (
            {"train_samples_per_s", "train_step_ms_p50", "train_step_ms_p90", "train_loss_final"}
            if workload.startswith("train") else
            {"eval_samples_per_s", "answer_ms_p50", "answer_ms_p99"})
        assert expected <= names
    if trace and workload == "train-pinned":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_seed_fixes_outputs():
    a, b, c = (last_json(run_smoke("train-pinned", 0, seed=s)) for s in (5, 5, 6))
    assert a["metrics"]["mean_loss"] == b["metrics"]["mean_loss"]
    assert a["metrics"]["mean_loss"] != c["metrics"]["mean_loss"]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_smoke("train-pinned", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_failed_output_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    monkeypatch.setattr(workloads, "check_solver", lambda st: (False, "forced failure"))
    code = run.main(["--workload", "infer-pinned", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
