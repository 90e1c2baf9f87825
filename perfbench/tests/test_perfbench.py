"""Tests of the benchmark's own code, on a tiny size of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bootstrap  # noqa: E402

if str(bootstrap.SRC) not in sys.path:
    sys.path.insert(0, str(bootstrap.SRC))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mlplr import FitConfig  # noqa: E402

TINY_FIT = FitConfig(n_starts=2, max_iters=20, grad_tol=1e-5)
TINY = {
    "desk_replicates": lambda: workloads.DeskReplicates(replicates=1, n_grid=(60, 120), k_grid=(1, 2), fit=TINY_FIT),
    "desk_limit": lambda: workloads.DeskLimit(draws=20, k1_draws=4000),
    "wide_d2": lambda: workloads.WideD2(gram_draws=20_000, draws=4, n=100, fit=TINY_FIT),
}
# taken before any test installs a wrapper
ORIGINALS = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.BOUNDARIES]
EXACT_COUNTS = ("estimation.iters", "estimation.objective_evals", "limit_law.cone_evals", "limit_law.partitions")


def _declared(kind):
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_runs(request):
    """One timed and two traced runs of a tiny workload at seed 5."""
    timed = bench.run(TINY[request.param](), 5, 0.01, trace=False, setup_repeats=1, reference={})
    traced = [bench.run(TINY[request.param](), 5, 0.01, trace=True, traced_rounds=1, reference={}) for _ in range(2)]
    return request.param, timed, traced


def test_workload_names_match_benchmark_json():
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert declared <= set(workloads.WORKLOADS) == set(TINY)


def test_printed_metrics_match_benchmark_json(tiny_runs):
    name, timed, traced = tiny_runs
    for result, kind in [(timed, "end_to_end"), (traced[0], "per_layer")]:
        summary = result.summary()
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1, result.report
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == _declared(kind)
        assert all(np.isfinite(v["value"]) for v in summary["metrics"].values())
        json.dumps(summary)  # the last line must serialise
    assert all(v > 0 for v in timed.metrics.values())


def test_exact_counts_repeat_across_traced_runs(tiny_runs):
    name, _, (first, second) = tiny_runs
    for key in EXACT_COUNTS:
        assert first.metrics[key] == second.metrics[key], key
    layer_ran = {"desk_replicates": "estimation.iters", "desk_limit": "limit_law.cone_evals", "wide_d2": "estimation.iters"}
    assert first.metrics[layer_ran[name]] > 0


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.5, 4.0, 4.25, 6.0, 10.0])
    tracer = spans.Tracer(hot=frozenset({"leaf"}), clock=lambda: next(ticks))
    root = tracer.open("root")  # 0 .. 10
    mid = tracer.open("mid")  # 1 .. 4
    tracer.close(tracer.open("leaf"))  # 2 .. 3.5
    tracer.close(mid)
    tracer.close(tracer.open("leaf"))  # 4.25 .. 6
    tracer.close(root)
    by_name = {s.name: s for s in tracer.spans}
    root, mid = by_name["root"], by_name["mid"]
    assert mid.parent == root.id and root.parent is None
    assert mid.self_s == pytest.approx(3.0 - 1.5)
    assert root.self_s == pytest.approx(10.0 - 3.0 - 1.75)
    assert tracer.calls("leaf") == 2
    assert tracer.total_s("leaf") == pytest.approx(3.25) == tracer.self_s("leaf")
    assert tracer.layer_self_s("root") == 0.0


def test_wrappers_restore_module_attributes_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            assert all(owner.__dict__[attr] is not orig for owner, attr, orig in ORIGINALS)
            raise RuntimeError("leave the block early")
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in ORIGINALS)


def test_wrappers_leave_module_attributes_unchanged_after_traced_runs(tiny_runs):
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in ORIGINALS)


def test_reference_comparison_is_one_sided():
    w = TINY["desk_limit"]()
    vals = np.array([1.0, 2.0, 3.0])
    rounds = [workloads.Round(0, limit={"k2": vals})]
    ref = {"seed": 5, "workloads": {w.name: {"sizes": w.sizes(), "cells": [], "limit": {"0": {"k2": [1.0, 2.0, 2.5]}}}}}
    ok = bench.compare_reference(w, 5, rounds, ref)
    assert ok.passed and "1 above" in ok.detail
    ref["workloads"][w.name]["limit"]["0"]["k2"] = [1.0, 2.1, 3.0]
    assert not bench.compare_reference(w, 5, rounds, ref).passed
    assert isinstance(bench.compare_reference(w, 6, rounds, ref), str)


def test_chi2_quantile_constant():
    from scipy.stats import chi2

    assert workloads.CHI2_4_Q95 == pytest.approx(chi2.ppf(0.95, 4), rel=1e-12)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_limit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
