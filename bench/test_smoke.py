"""Smoke test of the benchmark harness on a tiny workload (n=3, T=40, 2 epochs).

Runs the whole harness path, untraced and traced, in a few seconds:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def _run_bench(root: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", "smoke",
               "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results() -> dict:
    out = {}
    for trace in (0, 1):
        proc = _run_bench(REPO_ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(results, declared, trace, section):
    result = results[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > run.WORKLOADS["smoke"].incidents  # one pass plus repeats
    units = {metric["name"]: metric["unit"] for metric in declared[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_layer_spans_and_io_account_for_the_traced_wall_time(results):
    metrics = {name: m["value"] for name, m in results[1]["metrics"].items()}
    covered = metrics["pipeline.io_s"] + sum(metrics[f"{n}_s"] for n in run.TOP_LEVEL_SPANS)
    assert covered == pytest.approx(metrics["trace.incident_s"], rel=1e-6)
    stages = sum(metrics[f"{name}_s"] for name in run.STAGE_SPANS)
    assert stages <= metrics["trace.incident_s"]


def test_declared_workloads_exist_and_smoke_is_not_declared(declared):
    names = [w["name"] for w in declared["workloads"]]
    assert all(name in run.WORKLOADS for name in names)
    assert "smoke" not in names


def test_ranking_check_flags_missing_duplicate_and_non_finite_entries():
    truth = {"entity_names": ["svc-0", "svc-1"]}

    def ranking(*entries):
        return {"ranking": [{"entity": e, "score": s} for e, s in entries]}

    assert run.check_ranking(ranking(("svc-1", 0.6), ("svc-0", 0.4)), truth) == []
    assert run.check_ranking(ranking(("svc-1", 0.6), ("svc-1", 0.4)), truth)
    assert run.check_ranking(ranking(("svc-1", 0.6)), truth)
    assert run.check_ranking(ranking(("svc-1", float("nan")), ("svc-0", 0.4)), truth)


def test_fails_without_a_result_when_the_program_sources_are_absent(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(str(tmp_path), 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
