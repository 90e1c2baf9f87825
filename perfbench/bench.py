"""Timed and traced runs of one workload, and the metrics they yield.

The timed run (trace off) repeats rounds until ``seconds`` is spent and
reports the end-to-end metrics. The traced run does a fixed number of
rounds three ways - on the pool when the workload uses one, serially
untraced, serially traced - and reports the per-layer metrics, so its
exact counts repeat from run to run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import mlplr
from spans import Tracer, traced
from workloads import WORKLOADS, Check, Round, Workload, attempted, profile_drops, profile_groups, quality

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TRACED_ROUNDS = {"desk_replicates": 2, "desk_limit": 2, "wide_d2": 1}
REFERENCE_ROUNDS = {"desk_replicates": 6, "desk_limit": 2, "wide_d2": 4}
REFERENCE_DRAWS = 500  # leading draws per width kept in the reference
REFERENCE_TOL = 1e-6  # a value may fall below its reference by REFERENCE_TOL * (1 + |ref|)
MIN_ROUNDS = 2  # a single slow round of desk_replicates would hold only 2 of its tasks
PROBE_REPS = 1200
PROBE_REF_S = 0.2  # CpuProbe seconds on the reference CPU

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# "_share" metrics are seconds over the traced wall time. Times are given as
# shares so that a layer a workload never enters reads 0 as a share, not
# as a duration.
PER_LAYER = {
    "model.project_calls": "count",
    "model.project_share": "share",
    "model.project_noop_share": "share",
    "model.forward_batch_share": "share",
    "model.self_share": "share",
    "estimation.fit_calls": "count",
    "estimation.fit_self_share": "share",
    "estimation.objective_evals": "count",
    "estimation.objective_share": "share",
    "estimation.iters": "count",
    "estimation.evals_per_iter": "ratio",
    "estimation.maxiter_share": "share",
    "estimation.start_useful_share": "share",
    "estimation.converged_share": "share",
    "estimation.profile_drop_share": "share",
    "estimation.self_share": "share",
    "likelihood.loglik_calls": "count",
    "likelihood.loglik_share": "share",
    "likelihood.lr_calls": "count",
    "selection.penalty_calls": "count",
    "harness.tasks": "count",
    "harness.task_share": "share",
    "harness.task_p90_over_p50": "ratio",
    "harness.pool_efficiency": "ratio",
    "harness.lr_mean": "1",
    "harness.self_share": "share",
    "limit_law.gram_share": "share",
    "limit_law.gram_draws": "count",
    "limit_law.basis_eval_share": "share",
    "limit_law.h4_share": "share",
    "limit_law.simulate_share.k1": "share",
    "limit_law.simulate_share.k2": "share",
    "limit_law.simulate_share.k3": "share",
    "limit_law.simulate_share.k2ext": "share",
    "limit_law.partitions": "count",
    "limit_law.cone_evals": "count",
    "limit_law.cone_solves": "count",
    "limit_law.cone_eval_share": "share",
    "limit_law.simulate_self_share": "share",
    "limit_law.limit_mean": "1",
    "limit_law.self_share": "share",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.estimation_model_share": "share",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    report: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        }


def workers_available() -> int:
    return len(os.sched_getaffinity(0))


def environment(workload: Workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy without the dict form of show_config
        blas_build = "unknown"
    return {
        "nproc": workers_available(),
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mlplr": str(Path(mlplr.__file__).parent),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes(),
    }


def setup_seconds(workload: Workload, seed: int, repeats: int) -> float:
    """Median wall time of fresh processes that import mlplr and build the
    workload's inputs, timed from process start to exit."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """This process's peak RSS (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class CpuProbe:
    """A fixed piece of CPU work that mixes interpreter overhead with small
    NumPy and LAPACK calls, as the program's hot loops do. It runs no mlplr
    code, so no change to the program can move it.

    A virtual machine on a shared host drifts in speed by tens of percent
    within minutes (measured on a 2-vCPU KVM guest). Timing the probe
    between rounds measures that drift; see scaled_seconds.
    """

    def __init__(self, reps: int = PROBE_REPS):
        rng = np.random.default_rng(0)
        self.reps = reps
        self.X = rng.standard_normal((500, 3))
        self.W = rng.standard_normal((3, 3))
        self.a = rng.standard_normal(3)
        self.y = rng.standard_normal(500)
        M = rng.standard_normal((256, 5, 5))
        self.A = M @ np.swapaxes(M, 1, 2) + 5.0 * np.eye(5)
        self.B = rng.standard_normal((256, 5, 1))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.reps):
            r = self.y - (1.0 / (1.0 + np.exp(-(self.X @ self.W)))) @ self.a
            acc += float(r @ r) + float(np.linalg.solve(self.A, self.B)[0, 0, 0])
        if not np.isfinite(acc):
            raise RuntimeError("CPU probe produced a non-finite sum")
        return time.perf_counter() - t0


def timed_rounds(workload: Workload, inputs: dict, seconds: float,
                 probe: CpuProbe) -> tuple[list[Round], list[float]]:
    """Serial rounds until the next one would be expected to end more than
    half a round past ``seconds``, but at least MIN_ROUNDS; and the probe's
    times before the first round and after every round.

    Serial because on a shared 2-vCPU host the speed of a 2-worker pool
    drifts in ways the single-process probe does not see; the traced run
    measures the pool instead (harness.pool_efficiency).
    """
    rounds: list[Round] = []
    probes = [probe()]
    t0 = time.perf_counter()
    while True:
        rounds.append(workload.run_round(inputs, len(rounds), 1))
        probes.append(probe())
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds, probes


def scaled_seconds(rounds: list[Round], probes: list[float]) -> float:
    """Round wall time scaled to a CPU on which the probe takes PROBE_REF_S:
    each round's time times PROBE_REF_S over the mean of the probes on
    either side of it."""
    return sum(r.wall_s * PROBE_REF_S * 2.0 / (before + after)
               for r, before, after in zip(rounds, probes, probes[1:]))


# ---------------------------------------------------------------------------
# Reference values recorded at DEFAULT_SEED
# ---------------------------------------------------------------------------


def reference_view(rounds: list[Round]) -> dict:
    return {
        "cells": [[r.index, c.replicate, c.n, c.k, c.sup_loglik] for r in rounds for c in r.cells if c.error is None],
        "limit": {str(r.index): {lab: v[:REFERENCE_DRAWS].tolist() for lab, v in r.limit.items()} for r in rounds},
    }


def compare_reference(workload: Workload, seed: int, rounds: list[Round], reference: dict) -> Check | str:
    """A Check against the stored reference, or the reason it was skipped.

    One-sided: a sup loglik or limit draw fails when it falls below its
    reference by more than REFERENCE_TOL * (1 + |ref|). Higher values mean
    an optimizer found more of the supremum, so they pass and are counted.
    """
    entry = reference.get("workloads", {}).get(workload.name)
    if seed != reference.get("seed"):
        return f"reference comparison skipped: it was recorded at seed {reference.get('seed')}, not {seed}"
    if entry is None or entry["sizes"] != json.loads(json.dumps(workload.sizes())):
        return "reference comparison skipped: no reference recorded for these sizes"
    pairs = []
    ref_cells = {tuple(c[:4]): c[4] for c in entry["cells"]}
    for r in rounds:
        for c in r.cells:
            key = (r.index, c.replicate, c.n, c.k)
            if key in ref_cells:
                pairs.append((c.sup_loglik, ref_cells[key]))
        for label, ref_vals in entry["limit"].get(str(r.index), {}).items():
            vals = r.limit.get(label, np.empty(0))
            m = min(len(ref_vals), vals.size)
            pairs.extend(zip(vals[:m].tolist(), ref_vals[:m]))
    if not pairs:
        return "reference comparison skipped: no completed round has reference values"
    got, ref = np.array(pairs, dtype=float).T
    tol = REFERENCE_TOL * (1.0 + np.abs(ref))
    below = int(np.count_nonzero(~(got >= ref - tol)))
    above = int(np.count_nonzero(got > ref + tol))
    return Check("matches_reference", below == 0, below,
                 f"{len(pairs)} values vs reference at seed {seed}: {below} below, {above} above "
                 f"(tolerance {REFERENCE_TOL:g} * (1 + |ref|))")


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a trace
# ---------------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall: float, traced_rounds: list[Round], serial_wall: float,
                  pool_wall: float, pool_workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    serial_wall is the same rounds' untraced serial wall time (the base of
    the tracing overhead). pool_wall is the untraced wall time of the
    harness calls those rounds made on pool_workers workers; the sum of
    traced task times over pool_workers * pool_wall is the pool efficiency.
    """
    c, calls, self_s, total_s = tracer.counts, tracer.calls, tracer.self_s, tracer.total_s
    tasks = tracer.durations("harness.task")
    simulate = [n for n in {s.name for s in tracer.spans} if n.startswith("limit_law.simulate.")]
    q = quality(traced_rounds)
    cells = [(r.index, cell) for r in traced_rounds for cell in r.cells]
    m = {
        "model.project_calls": calls("model.project"),
        "model.project_share": self_s("model.project") / wall,
        "model.project_noop_share": _ratio(c["model.project_noop"], calls("model.project")),
        "model.forward_batch_share": self_s("model.forward_batch") / wall,
        "model.self_share": tracer.layer_self_s("model") / wall,
        "estimation.fit_calls": calls("estimation.fit"),
        "estimation.fit_self_share": self_s("estimation.fit") / wall,
        "estimation.objective_evals": calls("estimation.objective"),
        "estimation.objective_share": self_s("estimation.objective") / wall,
        "estimation.iters": c["estimation.iters"],
        "estimation.evals_per_iter": _ratio(calls("estimation.objective"), c["estimation.iters"]),
        "estimation.maxiter_share": _ratio(c["estimation.maxiter_starts"], c["estimation.starts"]),
        "estimation.start_useful_share": _ratio(c["estimation.useful_starts"], c["estimation.starts"]),
        "estimation.converged_share": _ratio(c["estimation.converged_fits"], calls("estimation.fit")),
        "estimation.profile_drop_share": _ratio(profile_drops(cells), len(profile_groups(cells))),
        "estimation.self_share": tracer.layer_self_s("estimation") / wall,
        "likelihood.loglik_calls": calls("likelihood.loglik"),
        "likelihood.loglik_share": self_s("likelihood.loglik") / wall,
        "likelihood.lr_calls": calls("likelihood.lr"),
        "selection.penalty_calls": calls("selection.penalty"),
        "harness.tasks": len(tasks),
        "harness.task_share": sum(tasks) / wall,
        "harness.task_p90_over_p50": _ratio(*np.quantile(tasks, [0.9, 0.5])) if tasks else 0.0,
        "harness.pool_efficiency": _ratio(sum(tasks), pool_workers * pool_wall),
        "harness.lr_mean": q.get("lr_mean", 0.0),
        "harness.self_share": tracer.layer_self_s("harness") / wall,
        "limit_law.gram_share": total_s("limit_law.gram") / wall,
        "limit_law.gram_draws": c["limit_law.gram_draws"],
        "limit_law.basis_eval_share": self_s("limit_law.basis_eval") / wall,
        "limit_law.h4_share": total_s("limit_law.h4") / wall,
        "limit_law.partitions": c["limit_law.partitions"],
        "limit_law.cone_evals": calls("limit_law.cone_eval"),
        "limit_law.cone_solves": c["limit_law.cone_solves"],
        "limit_law.cone_eval_share": self_s("limit_law.cone_eval") / wall,
        "limit_law.simulate_self_share": sum(self_s(n) for n in simulate) / wall,
        "limit_law.limit_mean": q.get("limit_mean", 0.0),
        "limit_law.self_share": tracer.layer_self_s("limit_law") / wall,
        "trace.wall_s": wall,
        "trace.overhead": wall / serial_wall - 1.0,
        "trace.estimation_model_share": (tracer.layer_self_s("estimation") + tracer.layer_self_s("model")) / wall,
    }
    for label in ("k1", "k2", "k3", "k2ext"):
        m[f"limit_law.simulate_share.{label}"] = total_s(f"limit_law.simulate.{label}") / wall
    return {name: m[name] for name in PER_LAYER}


def span_table(tracer: Tracer) -> list[str]:
    names = sorted({s.name for s in tracer.spans} | set(tracer.agg))
    lines = [f"span {'name':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for n in names:
        lines.append(f"span {n:<34} {tracer.calls(n):>9} {tracer.total_s(n):>10.4f} {tracer.self_s(n):>10.4f}")
    return lines


def _same_outputs(a: list[Round], b: list[Round]) -> bool:
    cells_a = [(c.k, c.sup_loglik, c.lr) for r in a for c in r.cells]
    cells_b = [(c.k, c.sup_loglik, c.lr) for r in b for c in r.cells]
    if cells_a != cells_b:
        return False
    return all(
        ra.limit.keys() == rb.limit.keys() and all(np.array_equal(ra.limit[k], rb.limit[k]) for k in ra.limit)
        for ra, rb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, traced_rounds: int | None = None,
        reference: dict | None = None) -> Result:
    inputs = workload.inputs(seed)
    report = ["env " + json.dumps(environment(workload, seed))]
    extra_checks: list[Check] = []

    if not trace:
        rounds, probes = timed_rounds(workload, inputs, seconds, CpuProbe())
        wall = sum(r.wall_s for r in rounds)
        work = sum(workload.work_units(r) for r in rounds)
        metrics = {
            "work_per_s": work / scaled_seconds(rounds, probes),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        fits, fit_s = sum(r.fits for r in rounds), sum(r.fit_s for r in rounds)
        draws, limit_s = sum(r.draws for r in rounds), sum(r.limit_s for r in rounds)
        report.append(f"rounds {len(rounds)} wall_s {wall:.3f} workers 1 "
                      f"round_s {[round(r.wall_s, 3) for r in rounds]} probe_s {[round(p, 4) for p in probes]}")
        report.append(f"info unscaled work_per_s {work / wall:.6g} 1/s")
        if fits:
            report.append(f"info fits_per_s {fits / fit_s:.6g} 1/s ({fits} fit widths in {fit_s:.3f} s)")
        if draws:
            report.append(f"info limit_draws_per_s {draws / limit_s:.6g} 1/s ({draws} draws in {limit_s:.3f} s)")
    else:
        n = traced_rounds or TRACED_ROUNDS[workload.name]
        workers = workers_available() if workload.uses_pool else 1
        pool = [workload.run_round(inputs, i, workers) for i in range(n)] if workers > 1 else None
        serial = [workload.run_round(inputs, i, 1) for i in range(n)]
        tracer = Tracer()
        with traced(tracer):
            t0 = time.perf_counter()
            rounds = [workload.run_round(inputs, i, 1) for i in range(n)]
            wall = time.perf_counter() - t0
        base = pool if pool is not None else serial
        metrics = layer_metrics(
            tracer, wall, rounds,
            serial_wall=sum(r.wall_s for r in serial),
            pool_wall=sum(r.fit_s for r in base),
            pool_workers=workers,
        )
        units = PER_LAYER
        same = _same_outputs(serial, rounds) and (pool is None or _same_outputs(pool, rounds))
        extra_checks.append(Check("traced_outputs_match_untraced", same, 0 if same else attempted(rounds),
                                  "identical" if same else "tracing or the pool changed the outputs"))
        report.append(f"rounds {n} traced_wall_s {wall:.3f} untraced_serial_wall_s "
                      f"{sum(r.wall_s for r in serial):.3f} workers {workers}")
        tasks = tracer.durations("harness.task")
        if tasks:
            p50, p90 = np.quantile(tasks, [0.5, 0.9])
            report.append(f"info harness.task_p50_s {p50:.4f} s, task_p90_s {p90:.4f} s over {len(tasks)} tasks")
        report.extend(span_table(tracer))

    checks = workload.checks(rounds) + extra_checks
    ref = compare_reference(workload, seed, rounds, load_reference() if reference is None else reference)
    if isinstance(ref, Check):
        checks.append(ref)
    else:
        report.append(ref)
    for k, v in quality(rounds).items():
        report.append(f"info {k} {v:.6g}")
    for ch in checks:
        verdict = "PASS" if ch.passed else ("FAIL" if ch.enforced else "WARN")
        report.append(f"check {ch.name} {verdict} ({ch.detail})")
    if not trace:
        metrics = {"setup_s": setup_seconds(workload, seed, setup_repeats), **metrics}
    n_attempted = attempted(rounds)
    n_failed = min(n_attempted, sum(ch.failed for ch in checks if ch.enforced))
    report.append(f"info failed_share {n_failed / n_attempted:.6g} ({n_failed} of {n_attempted})")
    for k, v in metrics.items():
        report.append(f"metric {k} {v:.6g} {units[k]}")
    return Result(all(ch.passed for ch in checks if ch.enforced), n_attempted, n_failed,
                  {k: metrics[k] for k in units}, dict(units), report)


def workload_named(name: str) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]()
