"""Constrained maximum-likelihood estimation over the compact parameter set.

With Gaussian noise the MLE is a constrained least-squares fit; the
supremum is approximated by multi-start projected L-BFGS with an Armijo
backtracking line search along the projected arc. A trial point on the arc
that is not a descent step (slope g.(cand - vec) >= 0) is rejected without
evaluating the objective there. Gradients are analytic (one-layer
backpropagation) and validated against finite differences in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .likelihood import conditional_loglik
from .model import (
    ConstraintBox,
    Dataset,
    HiddenUnit,
    MlpParams,
    _norm,
    _sigmoid,
    augment,
    project_vector,
)

# ---------------------------------------------------------------------------
# Configuration and result types
# ---------------------------------------------------------------------------


@dataclass
class FitConfig:
    """Multi-start optimizer settings."""

    n_starts: int = 20
    max_iters: int = 300
    grad_tol: float = 1e-6  # sup-norm of the projected gradient
    step_tol: float = 1e-12
    seed: int = 0
    init_scale: float = 1.0  # dispersion of the random start directions
    warm_starts: list[MlpParams] | None = None

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")

    def to_dict(self) -> dict:
        d = {
            "n_starts": self.n_starts,
            "max_iters": self.max_iters,
            "grad_tol": self.grad_tol,
            "step_tol": self.step_tol,
            "seed": self.seed,
            "init_scale": self.init_scale,
        }
        if self.warm_starts:
            d["warm_starts"] = [t.to_dict() for t in self.warm_starts]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FitConfig":
        warm = d.get("warm_starts")
        return cls(
            n_starts=int(d.get("n_starts", 20)),
            max_iters=int(d.get("max_iters", 300)),
            grad_tol=float(d.get("grad_tol", 1e-6)),
            step_tol=float(d.get("step_tol", 1e-12)),
            seed=int(d.get("seed", 0)),
            init_scale=float(d.get("init_scale", 1.0)),
            warm_starts=[MlpParams.from_dict(t) for t in warm] if warm else None,
        )


@dataclass
class FitResult:
    """Best feasible local maximizer found across starts."""

    theta_hat: MlpParams
    loglik: float
    converged: bool
    n_starts_used: int
    per_start_logliks: list[float]
    per_start_converged: list[bool] = field(default_factory=list)
    per_start_iters: list[int] = field(default_factory=list)
    trace: list[float] | None = None  # loglik trace of the winning start

    def to_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat.to_dict(),
            "loglik": self.loglik,
            "converged": self.converged,
            "n_starts_used": self.n_starts_used,
            "per_start_logliks": self.per_start_logliks,
            "per_start_converged": self.per_start_converged,
            "per_start_iters": self.per_start_iters,
        }


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------


def negloss_and_grad(vec: np.ndarray, Xa: np.ndarray, y: np.ndarray, sigma2: float, k: int, d: int):
    """Residual half-sum-of-squares over sigma2 and its gradient.

    vec is the flattened (beta, a, w) parameter; Xa the augmented inputs.
    Minimizing this is equivalent to maximizing the conditional
    log-likelihood (they differ by a theta-free constant).
    """
    beta = vec[0]
    a = vec[1 : 1 + k]
    W = vec[1 + k :].reshape(k, d + 1)
    T = Xa @ W.T
    P = _sigmoid(T)
    r = y - (beta + P @ a)
    f = 0.5 * float(r @ r) / sigma2
    grad = np.empty_like(vec)
    grad[0] = -r.sum() / sigma2
    grad[1 : 1 + k] = -(P.T @ r) / sigma2
    DP = P * (1.0 - P)
    grad[1 + k :] = (-(a[:, None] * ((DP * r[:, None]).T @ Xa)) / sigma2).ravel()
    return f, grad


def loglik_constant(n: int, sigma2: float) -> float:
    return float(-0.5 * n * np.log(2.0 * np.pi * sigma2))


# ---------------------------------------------------------------------------
# Projected L-BFGS
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4
_MEMORY = 10


def _optimize_single(
    vec0: np.ndarray,
    Xa: np.ndarray,
    y: np.ndarray,
    sigma2: float,
    k: int,
    d: int,
    box: ConstraintBox,
    config: FitConfig,
):
    """One projected quasi-Newton run; returns (vec, f, converged, iters, f_trace).

    The Armijo search halves the step along the projected arc. The slope
    of a trial point is known before the objective is, and a point with
    slope >= 0 (or NaN) fails the test whatever the objective there, so
    such points are rejected without evaluating it.
    """
    vec = project_vector(np.asarray(vec0, dtype=float), k, d, box)
    f, g = negloss_and_grad(vec, Xa, y, sigma2, k, d)
    trace = [f]
    S: list[np.ndarray] = []
    Y: list[np.ndarray] = []
    rho: list[float] = []
    for it in range(config.max_iters):
        pg = vec - project_vector(vec - g, k, d, box)
        if np.abs(pg).max() <= config.grad_tol:
            return vec, f, True, it, trace

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s_, y_, r_ in zip(reversed(S), reversed(Y), reversed(rho)):
            a_ = r_ * (s_ @ q)
            alphas.append(a_)
            q -= a_ * y_
        if Y:
            q *= (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
        for (s_, y_, r_), a_ in zip(zip(S, Y, rho), reversed(alphas)):
            q += (a_ - r_ * (y_ @ q)) * s_
        direction = -q

        accepted = False
        step = 1.0
        for _ in range(40):
            cand = project_vector(vec + step * direction, k, d, box)
            slope = g @ (cand - vec)
            if slope < 0:
                fc, gc = negloss_and_grad(cand, Xa, y, sigma2, k, d)
                if fc <= f + _ARMIJO * slope:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            # quasi-Newton direction unusable here: projected steepest descent
            step = 1.0
            direction = -g
            for _ in range(60):
                cand = project_vector(vec + step * direction, k, d, box)
                fc, gc = negloss_and_grad(cand, Xa, y, sigma2, k, d)
                if fc < f:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                return vec, f, False, it, trace

        s_vec = cand - vec
        y_vec = gc - g
        sy = float(s_vec @ y_vec)
        s_norm = _norm(s_vec)
        if sy > 1e-10 * s_norm * _norm(y_vec):
            S.append(s_vec)
            Y.append(y_vec)
            rho.append(1.0 / sy)
            if len(S) > _MEMORY:
                S.pop(0)
                Y.pop(0)
                rho.pop(0)
        small_step = s_norm <= config.step_tol
        vec, f, g = cand, fc, gc
        trace.append(f)
        if small_step:
            pg = vec - project_vector(vec - g, k, d, box)
            return vec, f, bool(np.abs(pg).max() <= config.grad_tol), it + 1, trace
    pg = vec - project_vector(vec - g, k, d, box)
    return vec, f, bool(np.abs(pg).max() <= config.grad_tol), config.max_iters, trace


def fit_mle(
    data: Dataset,
    k: int,
    box: ConstraintBox,
    config: FitConfig,
    keep_trace: bool = False,
) -> FitResult:
    """Constrained MLE at width k via multi-start projected L-BFGS.

    Deterministic given config.seed: start s draws from the stream
    (seed, s), warm starts run first, and ties between equally good
    starts resolve to the lowest start index.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.sigma2 <= 0:
        raise ValueError("fitting needs sigma2 > 0")
    d = data.d
    Xa = augment(data.x)
    y = data.y

    starts: list[np.ndarray] = []
    for theta in config.warm_starts or []:
        if theta.k == k and theta.input_dim == d:
            starts.append(theta.flatten())
    for s in range(config.n_starts):
        rng = np.random.default_rng([config.seed, s])
        beta = float(np.mean(y))
        amps = rng.uniform(box.eta, 1.0, size=k)
        dirs = rng.standard_normal((k, d + 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        starts.append(np.concatenate([[beta], amps, (config.init_scale * dirs).ravel()]))

    best = None
    per_logliks: list[float] = []
    per_conv: list[bool] = []
    per_iters: list[int] = []
    const = loglik_constant(data.n, data.sigma2)
    for idx, vec0 in enumerate(starts):
        vec, f, conv, iters, trace = _optimize_single(vec0, Xa, y, data.sigma2, k, d, box, config)
        per_logliks.append(const - f)
        per_conv.append(conv)
        per_iters.append(iters)
        if best is None or f < best[1]:
            best = (vec, f, conv, trace)
    theta_hat = MlpParams.unflatten(best[0], k, d)
    return FitResult(
        theta_hat=theta_hat,
        loglik=conditional_loglik(theta_hat, data),
        converged=best[2],
        n_starts_used=len(starts),
        per_start_logliks=per_logliks,
        per_start_converged=per_conv,
        per_start_iters=per_iters,
        trace=[const - f for f in best[3]] if keep_trace else None,
    )


# ---------------------------------------------------------------------------
# Profile over widths
# ---------------------------------------------------------------------------


@dataclass
class ProfileEntry:
    k: int
    sup_loglik: float
    fit: FitResult


def _embedded_starts(prev: MlpParams, box: ConstraintBox, seed: int, k: int, init_scale: float) -> list[MlpParams]:
    """Warm starts for width k from the best (k-1)-unit fit.

    One start appends a unit of amplitude eta in a random direction; when
    some amplitude allows it, a second start splits that unit's amplitude
    (a -> a - eta plus a duplicate at eta), which reproduces the previous
    regression function exactly and makes the per-k suprema nested.
    """
    d = prev.input_dim
    rng = np.random.default_rng([seed, 104729, k])
    direction = rng.standard_normal(d + 1)
    direction *= max(init_scale, box.eta) / np.linalg.norm(direction)
    out = [MlpParams(prev.beta, [*prev.units, HiddenUnit(box.eta, direction)])]
    amps = [u.a for u in prev.units]
    j = int(np.argmax(amps))
    if amps[j] >= 2 * box.eta:
        units = [HiddenUnit(u.a, u.w.copy()) for u in prev.units]
        units[j] = HiddenUnit(amps[j] - box.eta, prev.units[j].w.copy())
        units.append(HiddenUnit(box.eta, prev.units[j].w.copy()))
        out.append(MlpParams(prev.beta, units))
    return out


def profile_lr_curve(
    data: Dataset,
    k_max: int,
    box: ConstraintBox,
    config: FitConfig,
) -> list[ProfileEntry]:
    """Per-width suprema of the log-likelihood for k = 1 .. k_max.

    Each width k > 1 receives warm starts embedding the best (k-1)-unit
    fit, so the returned suprema are non-decreasing up to optimizer slack.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    entries: list[ProfileEntry] = []
    prev_fit: FitResult | None = None
    for k in range(1, k_max + 1):
        warm = [t for t in (config.warm_starts or []) if t.k == k and t.input_dim == data.d]
        if prev_fit is not None:
            warm = _embedded_starts(prev_fit.theta_hat, box, config.seed, k, config.init_scale) + warm
        cfg_k = replace(config, warm_starts=warm or None)
        fit = fit_mle(data, k, box, cfg_k)
        entries.append(ProfileEntry(k, fit.loglik, fit))
        prev_fit = fit
    return entries
