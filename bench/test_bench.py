"""Smoke tests of the benchmark itself, at toy sizes.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import harness
import run as bench_run
import workloads
from spans import Tracer, total

nd = bench_run.import_ndspec(harness.ROOT)
DEFS = harness.definitions()


@pytest.fixture(autouse=True)
def one_setup_child(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_CHILDREN", 1)


def _toy(workload, trace):
    return harness.run_benchmark(nd, workload, seed=3, seconds=0.2, trace=trace, toy=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_workload_runs_at_toy_size_with_every_metric(workload, trace):
    record = _toy(workload, trace)
    assert record["failures"] == []
    result = harness.result_line(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = DEFS["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    json.dumps(record)
    assert "\n".join(bench_run.report(record))


def test_end_to_end_times_are_never_zero():
    metrics = harness.result_line(_toy("cube", False))["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_spectrum_counts_as_failure(monkeypatch):
    honest = nd.sequential_spectrum

    def corrupted(signal, grid):
        s = honest(signal, grid)
        return nd.SpectrumEstimate(s.grid, s.power[::-1].copy())

    monkeypatch.setattr(nd, "sequential_spectrum", corrupted)
    # set-up children import their own, honest ndspec
    monkeypatch.setattr(harness, "SETUP_CHILDREN", 0)
    record = _toy("wide", False)
    result = harness.result_line(record)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("separable-product" in f for f in record["failures"])
    assert any("estimate CSV differs" in f for f in record["failures"])
    assert set(result["metrics"]) == {m["name"] for m in DEFS["end_to_end"]}


def test_traced_counts_match_the_input_sizes():
    metrics = _toy("cube", True)["metrics"]
    points = 10 * 10
    assert metrics["linalg.invert_pd_calls"]["value"] == 1 + 10 + points
    assert metrics["linalg.sandwich_calls"]["value"] == 10 + points + points * 10
    assert metrics["estimator.stage3_congruences"]["value"] == points * 10
    assert metrics["baselines.match_lags"]["value"] == 5 ** 3


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(25)]
    assert harness.tail(samples) == (14.0, 60.0)
    # at or below the median: the upper quartile instead
    assert harness.tail(samples[:20]) == (14.75, 75.0)
    assert harness.tail([3.0, 1.0, 2.0, 4.0]) == (3.75, 75.0)
    assert harness.tail([2.0]) == (2.0, 100.0)


def test_missing_name_counts_zero_and_nested_calls_are_children():
    module = types.SimpleNamespace(__name__="fake", inner=lambda: None)
    module.outer = lambda: module.inner()
    tracer = Tracer()
    tracer.install(module, "inner", "inner")
    tracer.install(module, "outer", "outer")
    tracer.install(module, "gone", "gone")
    with tracer.span("root"):
        module.outer()
    tracer.uninstall()
    totals = tracer.take()
    assert tracer.missing == ["fake.gone"]
    assert total(totals, "root", "inner", "outer")[0] == 1
    assert total(totals, "root", "gone") == (0, 0.0, 0.0)
    assert module.inner.__name__ == "<lambda>"


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cube", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stuck_setup_child_counts_as_failure(monkeypatch):
    def stuck(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(harness.subprocess, "run", stuck)
    times, attempted, failures = harness.child_setups("cube", 3, toy=True)
    assert times == [] and attempted == 1
    assert failures == ["set-up child did not finish within 60 s"]
