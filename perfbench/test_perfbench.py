"""Tests of the benchmark itself, run at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = _result(_run("--workload", workload, "--seed", "1", "--seconds",
                       "0", "--trace", "0", "--size", "tiny"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_with_repeating_counts(
        workload):
    res = _result(_run("--workload", workload, "--seed", "2", "--seconds",
                       "0", "--trace", "1", "--size", "tiny"))
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} \
        == _units("per_layer")
    assert res["metrics"]["trace_overhead"]["value"] > 0
    summary = json.loads((ROOT / ".perfbench-out"
                          / f"run-{workload}-s2-t1.json").read_text())
    assert summary["count_mismatches"] == {}
    assert summary["absent_layers"] == []


def test_planted_wrong_answer_counts_as_failure(tmp_path):
    state = workloads.QueryMix().build(5, str(tmp_path), workloads.TINY)
    ops = workloads.QueryMix().run_pass(state, 0)
    assert sum(op.failed for op in ops) == 0
    planted = workloads.with_expectation(
        state, "minimal:reference", staircase=[(0, 3), (1, 1), (2, 1)])
    ops = workloads.QueryMix().run_pass(planted, 0)
    assert sum(op.failed for op in ops) == 1
    assert any("minimal:reference" in e for op in ops for e in op.errors)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
