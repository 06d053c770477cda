"""Tests for the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(workload: str, trace: int, seed: int = run.DEFAULT_SEED):
    completed = _bench("--workload", workload, "--seed", str(seed),
                       "--seconds", "0.2", "--trace", str(trace),
                       "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(completed.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.E2E_JSON)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = _result(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in run.E2E_JSON}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert metric["value"] > 0, name
    table = stdout.splitlines()[:-1]
    for name, unit, _better, applies in run.E2E_ALL:
        rows = [line for line in table if line.split()[:1] == [name]]
        if workload in applies:
            assert len(rows) == 1 and unit in rows[0].split(), name
        else:
            assert not rows, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_wall(workload):
    _stdout, result = _result(workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {name for name, *_ in run.PER_LAYER}
    for name, metric in metrics.items():
        assert metric["unit"] == run.UNITS[name]
    selfs = sum(metric["value"] for name, metric in metrics.items()
                if name.endswith(".self_s"))
    assert selfs == pytest.approx(metrics["trace.wall_s"]["value"],
                                  rel=1e-9)
    assert metrics["trace.overhead"]["value"] > 0
    assert metrics["py_calls_per_access"]["value"] == pytest.approx(
        sum(metric["value"] for name, metric in metrics.items()
            if name.startswith("py_calls_per_access.")))


def test_work_counts_repeat_exactly_across_runs():
    for workload in ("tpca", "serve", "replay"):
        first = _result(workload, trace=1)[1]["metrics"]
        second = _result(workload, trace=1)[1]["metrics"]
        exact = [name for name in first
                 if name.endswith(".calls") or name.startswith("py_calls")
                 or not name.endswith(("_s", ".overhead"))]
        assert {name: first[name] for name in exact} == \
            {name: second[name] for name in exact}, workload


def test_model_outputs_repeat_exactly_across_runs(tmp_path):
    workloads = run._import_workloads()
    for name in WORKLOADS:
        size = workloads.SIZES["tiny"][name]
        outputs = []
        for _ in range(2):
            workload = workloads.make_workload(name, str(tmp_path))
            checks = run.Checks(name, run.DEFAULT_SEED, "tiny")
            values, _notes = run.measure_untraced(
                workload, run.DEFAULT_SEED, size, 0.0, checks)
            assert checks.correct, checks.problems
            outputs.append({key: values[key] for key in values
                            if key.startswith("sim_")
                            or key in ("write_amp", "slo_violation_frac",
                                       "failed_frac")})
        assert outputs[0] == outputs[1], name


def test_stored_reference_matches_and_catches_a_changed_output(tmp_path):
    workloads = run._import_workloads()
    workload = workloads.make_workload("tpca", str(tmp_path))
    size = workloads.SIZES["tiny"]["tpca"]
    state, _setup = run.set_up(workload, run.DEFAULT_SEED, size)
    rep = run.measure(workload, state, size)
    checks = run.Checks("tpca", run.DEFAULT_SEED, "tiny")
    checks.add(rep)
    assert checks.correct, checks.problems
    rep.digest = "0" * 64
    tampered = run.Checks("tpca", run.DEFAULT_SEED, "tiny")
    tampered.add(rep)
    assert not tampered.correct
    assert "stored reference" in tampered.problems[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    completed = _bench("--workload", "tpca", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
