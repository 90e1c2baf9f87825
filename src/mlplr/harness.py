"""Replicated experiments: empirical LR samples across (n, k) grids,
width selection frequencies, and comparison against the simulated limit."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .estimation import FitConfig, profile_lr_curve
from .likelihood import (
    base_reparameterization,
    conditional_loglik,
    density_ratio,
    fd_check_derivatives,
    lr_statistic,
    taylor_terms,
)
from .limit_law import (
    GramMatrix,
    LimitSample,
    Partition,
    ScoreBasis,
    enumerate_partitions,
    gram_matrix,
    gram_matrix_gh,
    simulate_limit,
)
from .model import ConstraintBox, RegressionSpec, draw_inputs, from_config, generate_dataset, mlp_forward_batch, stable_hash
from .selection import PenaltySchedule, penalty_value, select_width

# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    pts = np.concatenate([a, b])
    fa = np.searchsorted(a, pts, side="right") / len(a)
    fb = np.searchsorted(b, pts, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


@dataclass
class SummaryStats:
    """Quantiles (type-7), moments and an optional KS distance."""

    q05: float
    q25: float
    q50: float
    q75: float
    q95: float
    mean: float
    variance: float
    count: int
    ks: float | None = None

    def to_dict(self) -> dict:
        return {
            "quantiles": {"0.05": self.q05, "0.25": self.q25, "0.5": self.q50, "0.75": self.q75, "0.95": self.q95},
            "mean": self.mean,
            "variance": self.variance,
            "count": self.count,
            "ks_distance": self.ks,
        }


def summarize(sample, reference=None) -> SummaryStats:
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q = np.quantile(sample, [0.05, 0.25, 0.5, 0.75, 0.95])  # linear = type 7
    var = float(np.var(sample, ddof=1)) if sample.size > 1 else 0.0
    ks = ks_distance(sample, reference) if reference is not None else None
    return SummaryStats(*map(float, q), float(np.mean(sample)), var, int(sample.size), ks)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


def _ints(values) -> list[int]:
    return [int(v) for v in values]


@dataclass
class ExperimentConfig:
    spec: RegressionSpec
    box: ConstraintBox
    fit: FitConfig
    schedule: PenaltySchedule
    n_grid: list[int]
    k_grid: list[int]
    replicates: int
    base_seed: int
    limit_draws: int = 0
    noise_sigma2: float | None = None  # overrides the drawn noise only

    def __post_init__(self):
        if not self.n_grid or not self.k_grid:
            raise ValueError("n_grid and k_grid must be non-empty")
        if min(self.k_grid) < 1 or min(self.n_grid) < 2:
            raise ValueError("widths must be at least 1 and sample sizes at least 2")
        if self.replicates < 1 or self.limit_draws < 0:
            raise ValueError("replicates must be at least 1 and limit_draws non-negative")
        if self.noise_sigma2 is not None and not 0 <= self.noise_sigma2 < math.inf:
            raise ValueError("noise_sigma2 must be non-negative and finite")
        if self.schedule.input_dim not in (None, self.spec.input_dim):
            raise ValueError(f"schedule input_dim {self.schedule.input_dim} differs from the spec's d = {self.spec.input_dim}")

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "box": self.box.to_dict(),
            "fit": self.fit.to_dict(),
            "schedule": self.schedule.to_dict(),
            "n_grid": list(self.n_grid),
            "k_grid": list(self.k_grid),
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "limit_draws": self.limit_draws,
            "noise_sigma2": self.noise_sigma2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return from_config(
            cls, d, spec=RegressionSpec.from_dict, box=ConstraintBox.from_dict, fit=FitConfig.from_dict,
            schedule=PenaltySchedule.from_dict, n_grid=_ints, k_grid=_ints, replicates=int, base_seed=int,
            limit_draws=int, noise_sigma2=lambda v: None if v is None else float(v),
        )

    def hash(self) -> str:
        return stable_hash(self.to_dict())


# ---------------------------------------------------------------------------
# Replicate matrix
# ---------------------------------------------------------------------------


@dataclass
class ReplicateCell:
    replicate: int
    n: int
    k: int
    lr: float
    sup_loglik: float
    penalty: float
    t_n: float
    converged: bool
    k_hat: int
    error: str | None = None


@dataclass
class ReplicateMatrix:
    cells: list[ReplicateCell]
    config_hash: str
    base_seed: int
    k_max: int

    def lr_values(self, n: int, k: int) -> np.ndarray:
        return np.array([c.lr for c in self.cells if c.n == n and c.k == k and c.error is None])

    def k_hat_values(self, n: int) -> np.ndarray:
        seen = {}
        for c in self.cells:
            if c.n == n and c.error is None:
                seen[c.replicate] = c.k_hat
        return np.array([seen[r] for r in sorted(seen)])

    def failures(self) -> list[ReplicateCell]:
        return [c for c in self.cells if c.error is not None]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# config_hash={self.config_hash} base_seed={self.base_seed}\n")
            fh.write("replicate,n,k,lr,sup_loglik,penalty,t_n,converged,k_hat,error\n")
            for c in self.cells:
                fh.write(
                    f"{c.replicate},{c.n},{c.k},{repr(c.lr)},{repr(c.sup_loglik)},"
                    f"{repr(c.penalty)},{repr(c.t_n)},{int(c.converged)},{c.k_hat},"
                    f"{c.error or ''}\n"
                )

    def selection_csv(self, path) -> None:
        """Wide per-replicate format: replicate,n,k_hat,T_1..T_K."""
        t_cols = {}
        for c in self.cells:
            t_cols.setdefault((c.replicate, c.n), {})[c.k] = (c.t_n, c.k_hat)
        with open(path, "w") as fh:
            fh.write(f"# config_hash={self.config_hash} base_seed={self.base_seed}\n")
            fh.write("replicate,n,k_hat," + ",".join(f"T_{k}" for k in range(1, self.k_max + 1)) + "\n")
            for (r, n), row in sorted(t_cols.items()):
                k_hat = next(iter(row.values()))[1]
                ts = ",".join(repr(row[k][0]) if k in row else "" for k in range(1, self.k_max + 1))
                fh.write(f"{r},{n},{k_hat},{ts}\n")


def _cell_seed(base_seed: int, replicate: int, n_index: int) -> int:
    ss = np.random.SeedSequence((base_seed, replicate, n_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_one(config: ExperimentConfig, replicate: int, n_index: int) -> list[ReplicateCell]:
    """All cells of one (replicate, n) pair; exceptions become error cells."""
    n = config.n_grid[n_index]
    k_max = max(config.k_grid)
    try:
        data_seed = _cell_seed(config.base_seed, replicate, n_index)
        data = generate_dataset(config.spec, n, data_seed, noise_sigma2=config.noise_sigma2)
        fit_cfg = replace(config.fit, seed=_cell_seed(config.base_seed, replicate, n_index + 10_000))
        profile = profile_lr_curve(data, k_max, config.box, fit_cfg)
        true_ll = conditional_loglik(config.spec.theta0, data)
        penalties = [penalty_value(config.schedule, n, k) for k in range(1, k_max + 1)]
        k_hat, t_vals = select_width([fit.loglik for fit in profile], penalties)
        cells = []
        for k in config.k_grid:
            fit = profile[k - 1]
            lr = lr_statistic(fit.loglik, config.spec, data, true_loglik=true_ll)
            cells.append(
                ReplicateCell(
                    replicate, n, k, lr, fit.loglik, penalties[k - 1], t_vals[k - 1], fit.converged, k_hat,
                )
            )
        return cells
    except Exception as exc:  # recorded, never aborts the matrix
        return [
            ReplicateCell(replicate, n, k, float("nan"), float("nan"), float("nan"),
                          float("nan"), False, -1, error=f"{type(exc).__name__}: {exc}")
            for k in config.k_grid
        ]


def _run_one_packed(args) -> list[ReplicateCell]:
    config_dict, replicate, n_index = args
    return _run_one(ExperimentConfig.from_dict(config_dict), replicate, n_index)


def run_replicates(config: ExperimentConfig, threads: int = 1) -> ReplicateMatrix:
    """Replicate x n x k matrix of LR statistics and selected widths.

    Deterministic in config.base_seed: every cell's RNG streams derive
    from (base_seed, replicate, n index), so the result is independent of
    scheduling and thread count.
    """
    tasks = [(r, ni) for r in range(config.replicates) for ni in range(len(config.n_grid))]
    if threads > 1:
        import concurrent.futures

        cfg = config.to_dict()
        # largest n first, so the longest tasks do not start last and leave
        # the other workers idle at the end; cells keep the serial order
        order = sorted(range(len(tasks)), key=lambda i: -config.n_grid[tasks[i][1]])
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {i: pool.submit(_run_one_packed, (cfg, *tasks[i])) for i in order}
            results = [futures[i].result() for i in range(len(tasks))]
    else:
        results = [_run_one(config, r, ni) for r, ni in tasks]
    cells = [c for group in results for c in group]
    return ReplicateMatrix(cells, config.hash(), config.base_seed, max(config.k_grid))


# ---------------------------------------------------------------------------
# Derivative-catalog and expansion checks at harness level
# ---------------------------------------------------------------------------


def _random_fractions(part: Partition, rng: np.random.Generator) -> np.ndarray:
    """Positive within-group fractions q_j of a partition's fitted units,
    each group's summing to one."""
    psi = np.zeros(part.total_units)
    for gi in range(1, part.k0 + 1):
        grp = [j - 1 for j in part.group(gi)]
        raw = rng.uniform(0.2, 1.0, size=len(grp))
        psi[grp] = raw / raw.sum()
    return psi


def gradcheck(
    spec: RegressionSpec,
    k: int,
    n_draws: int = 100,
    seed: int = 0,
    step_first: float = 1e-5,
    step_second: float = 1e-4,
) -> dict:
    """Max relative errors of the derivative catalog over random draws.

    Each draw picks a partition of k units, positive within-group
    fractions, and an observation from the true law, then compares every
    analytic first and second derivative with central differences.
    n_draws must be at least 1: with no draw there is nothing to compare.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    parts = enumerate_partitions(k, spec.k0)
    firsts = []
    seconds = []
    for i in range(n_draws):
        rng = np.random.default_rng([seed, i])
        part = parts[rng.integers(len(parts))]
        rep = base_reparameterization(part, spec, _random_fractions(part, rng))
        x = draw_inputs(spec, 1, rng)[0]
        y = float(mlp_forward_batch(spec.theta0, x[None, :])[0] + np.sqrt(spec.sigma2) * rng.standard_normal())
        report = fd_check_derivatives(rep, spec, x, y, step_first, step_second)
        firsts.append(report.max_first)
        seconds.append(report.max_second)
    return {
        "draws": n_draws,
        "k": k,
        "max_rel_error_first": max([0.0, *firsts]),
        "max_rel_error_second": max([0.0, *seconds]),
        "per_draw_first": firsts,
        "per_draw_second": seconds,
    }


def expansion_decay(
    spec: RegressionSpec,
    k: int,
    scales: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
    n_draws: int = 200,
    seed: int = 0,
) -> list[float]:
    """Mean |ratio - 1 - first - second/2| per displacement scale.

    The z draws and the displacement direction are shared across scales,
    so consecutive entries shrink roughly eightfold under cubic decay.
    """
    parts = [p for p in enumerate_partitions(k, spec.k0) if p.total_units == k]
    part = parts[-1]
    rng = np.random.default_rng(seed)
    base = base_reparameterization(part, spec, _random_fractions(part, rng))
    direction = rng.standard_normal(len(base.phi))
    direction /= np.linalg.norm(direction)
    X = draw_inputs(spec, n_draws, rng)
    y = mlp_forward_batch(spec.theta0, X) + np.sqrt(spec.sigma2) * rng.standard_normal(n_draws)
    out = []
    for scale in scales:
        rep = base.displaced(scale * direction)
        terms = taylor_terms(rep, spec, X, y)
        rem = density_ratio(rep, spec, X, y) - 1.0 - terms.first_order - 0.5 * terms.second_order
        out.append(float(np.mean(np.abs(rem))))
    return out


# ---------------------------------------------------------------------------
# Full experiment driver
# ---------------------------------------------------------------------------


class LimitError(RuntimeError):
    """The limit law failed: its Gram, certificate or simulation."""


GRAM_DRAWS = 200_000  # Monte Carlo Gram inputs at d >= 3
GRAM_SEED = 12345


def default_gram(spec: RegressionSpec, basis: ScoreBasis | None = None) -> GramMatrix:
    """The spec's one Gram, which every command certifies and simulates
    on: the input law's quadrature Gram at d <= 2, which no seed touches;
    at d >= 3 the Monte Carlo Gram of GRAM_DRAWS inputs from GRAM_SEED."""
    if spec.input_dim <= 2:
        return gram_matrix_gh(spec, basis=basis)
    return gram_matrix(spec, GRAM_DRAWS, GRAM_SEED, basis=basis)


def run_experiment(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Replicate matrix, per-cell summaries and limit-law comparisons.

    Writes matrix.csv, selection.csv, summary.json and one limit_k*.csv
    per requested width (when limit_draws > 0). Returns a manifest with
    the output paths and failure counts. The limit stage (Gram,
    certificate, draws) runs before the replicate fits, so a failure of
    the Gram or of a limit simulation is raised as LimitError without
    spending a fit or writing a file.
    """
    limit_samples: dict[int, LimitSample] = {}
    if config.limit_draws > 0:
        try:
            gram = default_gram(config.spec)
            for k in sorted(set(config.k_grid)):
                if k < config.spec.k0:
                    continue
                limit_samples[k] = simulate_limit(config.spec, k, gram, config.limit_draws, config.base_seed)
        except Exception as exc:
            raise LimitError(str(exc)) from exc

    os.makedirs(out_dir, exist_ok=True)
    matrix = run_replicates(config, threads=threads)
    tag = f"config_hash={matrix.config_hash} base_seed={config.base_seed}"
    matrix.to_csv(os.path.join(out_dir, "matrix.csv"))
    matrix.selection_csv(os.path.join(out_dir, "selection.csv"))
    for k, sample in limit_samples.items():
        sample.to_csv(os.path.join(out_dir, f"limit_k{k}.csv"), header_comment=tag)

    summary: dict = {
        "config_hash": matrix.config_hash,
        "base_seed": config.base_seed,
        "failed_cells": len(matrix.failures()),
        "cells": {},
        "limit": {},
        "selection": {},
    }
    for n in config.n_grid:
        for k in config.k_grid:
            vals = matrix.lr_values(n, k)
            if vals.size == 0:
                continue
            ref = limit_samples[k].values if k in limit_samples else None
            summary["cells"][f"n={n},k={k}"] = summarize(vals, ref).to_dict()
        k_hats = matrix.k_hat_values(n)
        if k_hats.size:
            freq = float(np.mean(k_hats == config.spec.k0))
            summary["selection"][f"n={n}"] = {"freq_k0": freq, "count": int(k_hats.size)}
    for k, sample in limit_samples.items():
        summary["limit"][f"k={k}"] = summarize(sample.values).to_dict()

    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary
