"""The benchmark's workloads: inputs made from a seed, fixed rounds of
work through the public ``mlplr`` API, and the checks on their outputs.

A round is a fixed unit of work whose inputs depend only on (workload,
seed, round index), so a run that completes more rounds repeats the
earlier ones exactly. Public functions are looked up on the ``mlplr``
package at call time, so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import mlplr
from mlplr import (
    ConstraintBox,
    ExperimentConfig,
    FitConfig,
    HiddenUnit,
    MlpParams,
    PenaltySchedule,
    RegressionSpec,
    ScoreBasis,
)
from mlplr.limit_law import extended_grid

BOX = ConstraintBox(eta=0.1, M=50.0, positive_amplitudes=True)

SUP_TOL = 1e-6  # sup loglik may fall by this much from width k to k + 1
ORDER_TOL = 1e-9  # relative slack of the per-draw order k1 <= k2 <= k3
CHI2_TOL = 0.05  # relative slack of the k = 1 mean and 0.95-quantile
CHI2_4_Q95 = 9.487729036781154  # 0.95-quantile of chi-square with 4 degrees of freedom


def _fit() -> FitConfig:
    return FitConfig(n_starts=10, max_iters=300, grad_tol=1e-5)


def desk_spec() -> RegressionSpec:
    """d=1, k0=1, theta0=(0.5, 1, (0.5, 1)), sigma2=1, standard normal inputs."""
    return RegressionSpec(MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))]), 1.0, 1)


def wide_spec() -> RegressionSpec:
    """d=2, k0=2, beta=0.5, sigma2=1, Laplace inputs."""
    units = [
        HiddenUnit(1.0, np.array([0.5, 1.0, -0.5])),
        HiddenUnit(1.5, np.array([-0.3, 0.2, 1.2])),
    ]
    return RegressionSpec(MlpParams(0.5, units), 1.0, 2, input_law="laplace")


def round_seed(salt: int, seed: int, index: int) -> int:
    return int(np.random.SeedSequence([salt, seed, index]).generate_state(1)[0])


@dataclass
class Round:
    """Outputs and timings of one round."""

    index: int
    wall_s: float = 0.0
    fits: int = 0  # fit_mle widths completed
    fit_s: float = 0.0
    draws: int = 0  # limit draws attempted, summed over widths
    limit_s: float = 0.0
    cells: list = field(default_factory=list)  # harness ReplicateCell rows
    limit: dict[str, np.ndarray] = field(default_factory=dict)  # width label -> draws
    h4_passed: bool = True


@dataclass
class Check:
    name: str
    passed: bool
    failed: int  # outputs this check marks as failed
    detail: str
    enforced: bool = True  # False: printed as WARN, never fails the run


def profile_groups(cells) -> list[list]:
    """Cells of one (round, replicate, n) profile, ordered by width."""
    groups: dict[tuple, list] = {}
    for ri, c in cells:
        if c.error is None:
            groups.setdefault((ri, c.replicate, c.n), []).append(c)
    return [sorted(g, key=lambda c: c.k) for g in groups.values()]


def profile_drops(cells) -> int:
    """Profiles whose sup loglik falls from one width to the next.

    Not enforced: under the bound ||theta|| <= M a width-k network cannot
    always reproduce the best (k-1)-unit fit. When that fit lies on the
    norm bound, duplicating one of its units leaves the box, so the
    supremum over widths need not be non-decreasing.
    """
    return sum(
        any(b.sup_loglik < a.sup_loglik - SUP_TOL for a, b in zip(g, g[1:]))
        for g in profile_groups(cells)
    )


class Workload:
    name = ""
    salt = 0
    uses_pool = False

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def run_round(self, inputs: dict, index: int, workers: int) -> Round:
        raise NotImplementedError

    def work_units(self, r: Round) -> float:
        """The headline unit that ``work_per_s`` counts."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def extra_checks(self, rounds: list[Round]) -> list[Check]:
        return []

    def _replicate_round(self, inputs, index, n_grid, k_grid, replicates, workers) -> tuple[list, float]:
        config = ExperimentConfig(
            spec=inputs["spec"], box=BOX, fit=inputs["fit"], schedule=inputs["schedule"],
            n_grid=list(n_grid), k_grid=list(k_grid), replicates=replicates,
            base_seed=round_seed(self.salt, inputs["seed"], index),
        )
        t0 = time.perf_counter()
        matrix = mlplr.run_replicates(config, threads=workers)
        return matrix.cells, time.perf_counter() - t0

    def checks(self, rounds: list[Round]) -> list[Check]:
        cells = [(r.index, c) for r in rounds for c in r.cells]
        out = []
        if cells:
            errors = [c for _, c in cells if c.error is not None]
            out.append(Check("no_error_cells", not errors, len(errors),
                             f"{len(errors)} of {len(cells)} cells failed"
                             + (f", first: {errors[0].error}" if errors else "")))
            drops = profile_drops(cells)
            out.append(Check("sup_loglik_nondecreasing_in_k", drops == 0, 0,
                             f"{drops} (replicate, n) profiles whose sup falls with k by more than {SUP_TOL:g}",
                             enforced=False))
        draws = [v for r in rounds for v in r.limit.values()]
        if draws:
            nonfinite = int(sum(np.count_nonzero(~np.isfinite(v)) for v in draws))
            total = sum(v.size for v in draws)
            out.append(Check("limit_draws_finite", nonfinite == 0, nonfinite,
                             f"{nonfinite} of {total} draws non-finite"))
        return out + self.extra_checks(rounds)


class DeskReplicates(Workload):
    """The desk configuration's replicate matrix; the traced run also runs
    it on the harness process pool."""

    name = "desk_replicates"
    salt = 11
    uses_pool = True

    def __init__(self, replicates: int = 1, n_grid=(500, 2000), k_grid=(1, 2, 3), fit: FitConfig | None = None):
        self.replicates = replicates
        self.n_grid = tuple(n_grid)
        self.k_grid = tuple(k_grid)
        self.fit = fit or _fit()

    def sizes(self) -> dict:
        return {"replicates_per_round": self.replicates, "n_grid": list(self.n_grid),
                "k_grid": list(self.k_grid), "fit": self.fit.to_dict()}

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "spec": desk_spec(), "fit": self.fit,
                "schedule": PenaltySchedule("bic_like", input_dim=1)}

    def run_round(self, inputs, index, workers) -> Round:
        cells, wall = self._replicate_round(inputs, index, self.n_grid, self.k_grid, self.replicates, workers)
        fits = self.replicates * len(self.n_grid) * max(self.k_grid)
        return Round(index, wall_s=wall, fits=fits, fit_s=wall, cells=cells)

    def work_units(self, r: Round) -> float:
        return r.fits


class DeskLimit(Workload):
    """Simulated limit law of the desk configuration at k = 1, 2, 3 and at
    k = 2 over the extended index set."""

    name = "desk_limit"
    salt = 12

    def __init__(self, draws: int = 1000, k1_draws: int = 4000):
        # k = 1 is nearly free and carries the chi-square check, so it
        # gets enough draws for that check to be sharp
        self.draws = draws
        self.k1_draws = k1_draws

    def sizes(self) -> dict:
        return {"draws_per_width": self.draws, "k1_draws": self.k1_draws,
                "extended_grid": {"n_angles": 8, "radii": [2.0, 10.0, 45.0]}}

    def inputs(self, seed: int) -> dict:
        grid = extended_grid(BOX, 1, n_angles=8, radii=(2.0, 10.0, 45.0))
        return {"seed": seed, "spec": desk_spec(), "ext_basis": ScoreBasis(1, 1, grid)}

    def run_round(self, inputs, index, workers) -> Round:
        spec = inputs["spec"]
        seed = round_seed(self.salt, inputs["seed"], index)
        t0 = time.perf_counter()
        gram = mlplr.gram_matrix_gh(spec)
        gram_ext = mlplr.gram_matrix_gh(spec, basis=inputs["ext_basis"])
        limit = {
            "k1": mlplr.simulate_limit(spec, 1, gram, self.k1_draws, seed).values,
            "k2": mlplr.simulate_limit(spec, 2, gram, self.draws, seed).values,
            "k3": mlplr.simulate_limit(spec, 3, gram, self.draws, seed).values,
            "k2ext": mlplr.simulate_limit(spec, 2, gram_ext, self.draws, seed, extended=True).values,
        }
        wall = time.perf_counter() - t0
        draws = sum(v.size for v in limit.values())
        return Round(index, wall_s=wall, draws=draws, limit_s=wall, limit=limit)

    def work_units(self, r: Round) -> float:
        return r.draws

    def extra_checks(self, rounds) -> list[Check]:
        k1 = np.concatenate([r.limit["k1"] for r in rounds])
        mean, q95 = float(np.mean(k1)), float(np.quantile(k1, 0.95))
        ok = abs(mean - 4.0) <= CHI2_TOL * 4.0 and abs(q95 - CHI2_4_Q95) <= CHI2_TOL * CHI2_4_Q95
        checks = [Check("k1_matches_chi2_4", ok, 0 if ok else k1.size,
                        f"mean {mean:.4f} (4), q95 {q95:.4f} ({CHI2_4_Q95:.4f}) over {k1.size} draws")]
        bad = 0
        for r in rounds:
            m = r.limit["k2"].size
            v1, v2, v3 = r.limit["k1"][:m], r.limit["k2"], r.limit["k3"]
            tol = ORDER_TOL * (1.0 + np.abs(v3))
            bad += int(np.count_nonzero((v1 > v2 + tol) | (v2 > v3 + tol)))
        checks.append(Check("draws_nondecreasing_in_k", bad == 0, bad,
                            f"{bad} draws break k1 <= k2 <= k3"))
        return checks


class WideD2(Workload):
    """d = 2 study with Laplace inputs: Monte Carlo Gram, certificate,
    limit law at k = 3, then a serial replicate profile."""

    name = "wide_d2"
    salt = 13

    def __init__(self, gram_draws: int = 1_000_000, draws: int = 200, n: int = 1000,
                 k_grid=(2, 3), fit: FitConfig | None = None):
        self.gram_draws = gram_draws
        self.draws = draws
        self.n = n
        self.k_grid = tuple(k_grid)
        self.fit = fit or _fit()

    def sizes(self) -> dict:
        return {"gram_draws": self.gram_draws, "draws_k3": self.draws, "n": self.n,
                "k_grid": list(self.k_grid), "replicates_per_round": 1, "fit": self.fit.to_dict()}

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "spec": wide_spec(), "fit": self.fit,
                "schedule": PenaltySchedule("bic_like", input_dim=2)}

    def run_round(self, inputs, index, workers) -> Round:
        spec = inputs["spec"]
        seed = round_seed(self.salt, inputs["seed"], index)
        t0 = time.perf_counter()
        gram = mlplr.gram_matrix(spec, self.gram_draws, seed)
        h4 = mlplr.check_h4(gram)
        limit = {}
        if h4.passed:
            limit["k3"] = mlplr.simulate_limit(spec, 3, gram, self.draws, seed).values
        limit_s = time.perf_counter() - t0
        # serial on purpose: this is the harness path that desk_replicates skips
        cells, fit_s = self._replicate_round(inputs, index, (self.n,), self.k_grid, 1, 1)
        return Round(index, wall_s=limit_s + fit_s, fits=max(self.k_grid), fit_s=fit_s,
                     draws=self.draws, limit_s=limit_s, cells=cells,
                     limit=limit, h4_passed=h4.passed)

    def work_units(self, r: Round) -> float:
        return 1.0  # one study round: both phases together

    def extra_checks(self, rounds) -> list[Check]:
        bad = [r.index for r in rounds if not r.h4_passed]
        return [Check("h4_certificate_passes", not bad, len(bad) * self.draws,
                      f"certificate failed in rounds {bad}" if bad else "passed in every round")]


WORKLOADS = {w.name: w for w in (DeskReplicates, DeskLimit, WideD2)}


def attempted(rounds: list[Round]) -> int:
    """Outputs the checks cover: replicate cells plus limit draws."""
    return sum(len(r.cells) + r.draws for r in rounds)


def quality(rounds: list[Round]) -> dict:
    """Statistics of the outputs that are printed but not gated: across
    seeds they spread as sample statistics of random data do."""
    cells = [c for r in rounds for c in r.cells if c.error is None]
    draws = [v for r in rounds for v in r.limit.values()]
    out = {}
    if cells:
        out["lr_mean"] = float(np.mean([c.lr for c in cells]))
        out["converged_share"] = sum(c.converged for c in cells) / len(cells)
    if draws:
        out["limit_mean"] = float(np.mean(np.concatenate(draws)))
    return out

