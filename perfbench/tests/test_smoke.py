"""Each workload end to end at toy size, untraced and traced.

The traced runs also check that the workloads separate the layers the way
the benchmark's predictions say they do.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from harness import END_TO_END, PER_LAYER

WORKLOADS = ("flights_adhoc", "synthetic_sparse", "flights_live", "dashboard_service")


def run(workload, trace, cwd=ROOT, seconds=1.5):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.fixture(scope="module")
def traced():
    return {w: {k: v["value"] for k, v in result_of(run(w, 1)).items()} for w in WORKLOADS}


def test_traced_run_reports_every_layer_metric(traced):
    for metrics in traced.values():
        assert set(metrics) == set(PER_LAYER)


def test_index_rebuilt_per_op_only_without_a_store(traced):
    assert traced["flights_adhoc"]["needletail.index_builds"] == 1
    assert traced["dashboard_service"]["needletail.index_builds"] == 0
    assert traced["dashboard_service"]["storage.mapped_loads"] >= 1
    assert traced["synthetic_sparse"]["needletail.index_builds"] == 0


def test_rows_read_regimes(traced):
    assert traced["flights_adhoc"]["core.sampled_fraction"] >= 0.7
    assert traced["synthetic_sparse"]["core.sampled_fraction"] < 0.01


def test_reference_loop_only_on_live(traced):
    for workload, metrics in traced.items():
        assert (metrics["core.reference_ms"] > 0) == (workload == "flights_live"), workload
    assert traced["flights_live"]["streaming.window_ms"] > 0


def test_spans_cover_the_ops(traced):
    for workload, metrics in traced.items():
        assert 0.85 <= metrics["trace.coverage_fraction"] <= 1.01, workload


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("flights_adhoc", 0, cwd=tmp_path, seconds=1)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
