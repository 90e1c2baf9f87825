"""Constrained maximum-likelihood estimation over the compact parameter set.

With Gaussian noise the MLE is a constrained least-squares fit; the
supremum is approximated by multi-start projected L-BFGS with an Armijo
backtracking line search along the projected arc. A trial point on the arc
that is not a descent step (slope g.(cand - vec) >= 0) is rejected without
evaluating the objective there. The objective is split in two: negloss
gives the loss with the unit outputs and residuals it computed, and
negloss_grad builds the gradient from them, so the line search evaluates
the loss at its trial points and the gradient only at the accepted one.
The trial points of one search are projected in one stacked call of
project_vector. Gradients are analytic (one-layer backpropagation) and
validated against finite differences in the test suite.
"""

from __future__ import annotations

import math
from collections import deque
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
    from_config,
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
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        # written so that NaN fails: every comparison with NaN is false
        if not (0 < self.grad_tol < math.inf and 0 < self.step_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not math.isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")
        if not all(np.isfinite(t.flatten()).all() for t in self.warm_starts or []):
            raise ValueError("warm starts must be finite")

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
        return from_config(
            cls, d, n_starts=int, max_iters=int, grad_tol=float, step_tol=float, seed=int, init_scale=float,
            warm_starts=lambda ws: [MlpParams.from_dict(t) for t in ws] if ws else None,
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


def negloss(vec: np.ndarray, Xa: np.ndarray, y: np.ndarray, sigma2: float, k: int, d: int):
    """Residual half-sum-of-squares over sigma2, with the unit outputs P
    (n, k) and the residuals r (n,) it computed; negloss_grad builds the
    gradient from them.

    vec is the flattened (beta, a, w) parameter; Xa the augmented inputs.
    Minimizing this is equivalent to maximizing the conditional
    log-likelihood (they differ by a theta-free constant).
    """
    beta = vec[0]
    a = vec[1 : 1 + k]
    W = vec[1 + k :].reshape(k, d + 1)
    P = _sigmoid(Xa @ W.T)
    r = y - (beta + P @ a)
    return 0.5 * float(r.dot(r)) / sigma2, P, r


def negloss_grad(vec: np.ndarray, Xa: np.ndarray, P: np.ndarray, r: np.ndarray, sigma2: float, k: int):
    """Gradient of negloss at vec (one-layer backpropagation), from the P
    and r that negloss computed there."""
    a = vec[1 : 1 + k]
    grad = np.empty_like(vec)
    grad[0] = -r.sum() / sigma2
    grad[1 : 1 + k] = -(P.T @ r) / sigma2
    DP = P * (1.0 - P)
    grad[1 + k :] = (-(a[:, None] * ((DP * r[:, None]).T @ Xa)) / sigma2).ravel()
    return grad


def negloss_and_grad(vec: np.ndarray, Xa: np.ndarray, y: np.ndarray, sigma2: float, k: int, d: int):
    """The objective and its gradient at vec: negloss followed by
    negloss_grad. The fit calls the two apart, and the gradient only at
    the points its line search accepts."""
    f, P, r = negloss(vec, Xa, y, sigma2, k, d)
    return f, negloss_grad(vec, Xa, P, r, sigma2, k)


def loglik_constant(n: int, sigma2: float) -> float:
    return float(-0.5 * n * np.log(2.0 * np.pi * sigma2))


# ---------------------------------------------------------------------------
# Projected L-BFGS
# ---------------------------------------------------------------------------


class ProjectionError(ValueError):
    """Raised by the fit when the projection cannot reach a feasible point:
    eta and M leave no room for k units, or the point is not finite."""


def _projection_error(k: int, d: int, box: ConstraintBox) -> ProjectionError:
    # project_vector maps every finite row unless M^2 <= 2k eta^2 leaves
    # its fallback no room
    if box.M**2 <= 2 * k * box.eta**2:
        return ProjectionError(
            f"projection failed: eta={box.eta} and M={box.M} are mutually "
            f"inconsistent for k={k}, d={d}"
        )
    return ProjectionError(f"projection failed: the point to project is not finite (k={k}, d={d})")


_ARMIJO = 1e-4
_MEMORY = 10
# trial steps after the first of the quasi-Newton search, and those of the
# steepest-descent fallback: powers of 1/2 are exact, so each equals the
# step that repeated halving reaches
_QN_STEPS = 0.5 ** np.arange(1, 40)[:, None]
_SD_STEPS = 0.5 ** np.arange(60)[:, None]


def _first_accepted(rows, vec, f, g, Xa, y, sigma2, k, d, box, armijo):
    """The first row of the projected trial stack rows that passes the
    search's test, as (cand, f, P, r), or None when no row does.

    With armijo the test is the Armijo condition on the slope
    g.(cand - vec), and a row with slope >= 0 (or NaN) fails it whatever
    the objective there, so the loss is evaluated only at descent rows.
    Otherwise the test is a plain decrease. The rows are taken in order,
    and a row the projection could not map (NaN) raises ProjectionError
    once the search reaches it.
    """
    if armijo:
        # the stacked product calls the BLAS dot per row that g.dot(row)
        # calls, so each slope has the bits of a one-row search
        slopes = np.matmul((rows - vec)[:, None, :], g[:, None])[:, 0, 0].tolist()
    for i, beta in enumerate(rows[:, 0].tolist()):
        if beta != beta:
            raise _projection_error(k, d, box)
        if armijo and not slopes[i] < 0:
            continue
        fc, P, r = negloss(rows[i], Xa, y, sigma2, k, d)
        if (fc <= f + _ARMIJO * slopes[i]) if armijo else (fc < f):
            return rows[i], fc, P, r
    return None


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
    """One projected quasi-Newton run; returns (vec, f, converged, iters,
    f_trace), f_trace the objective at the start and at every accepted
    step.

    Each pass tests stationarity first; after max_iters steps, or a step
    shorter than step_tol, one more pass makes only that test. The Armijo
    search halves the step along the projected arc, up to 40 steps, then
    falls back to up to 60 halved steps of projected steepest descent.
    Each pass projects the stationarity test's row and the first trial
    step in one call; when the first step fails, the other 39 go in one
    call, and the fallback's 60 in another. The loss is evaluated at
    trial points, and the gradient only at the accepted one, from the
    loss's intermediate arrays.
    """
    vec = project_vector(np.asarray(vec0, dtype=float)[None], k, d, box)[0]
    if vec[0] != vec[0]:
        raise _projection_error(k, d, box)
    f, P, r = negloss(vec, Xa, y, sigma2, k, d)
    g = negloss_grad(vec, Xa, P, r, sigma2, k)
    trace = [f]
    pairs = deque(maxlen=_MEMORY)  # L-BFGS (s, y, 1/s.y), oldest first
    small_step = False
    for it in range(config.max_iters + 1):
        # two-loop recursion; .dot calls the BLAS dot that @ calls on these
        # short vectors, with less dispatch
        q = g.copy()
        alphas = []
        for s_, y_, r_ in reversed(pairs):
            a_ = r_ * s_.dot(q)
            alphas.append(a_)
            q -= a_ * y_
        if pairs:
            s_, y_, _ = pairs[-1]
            q *= s_.dot(y_) / y_.dot(y_)
        for (s_, y_, r_), a_ in zip(pairs, reversed(alphas)):
            q += (a_ - r_ * y_.dot(q)) * s_
        direction = -q

        head = project_vector(np.array((vec - g, vec + direction)), k, d, box)
        if head[0, 0] != head[0, 0]:
            raise _projection_error(k, d, box)
        pg = vec - head[0]
        if np.abs(pg).max() <= config.grad_tol:
            return vec, f, True, it, trace
        if small_step or it == config.max_iters:
            return vec, f, False, it, trace

        found = _first_accepted(head[1:], vec, f, g, Xa, y, sigma2, k, d, box, True)
        if found is None:
            rows = project_vector(vec + _QN_STEPS * direction, k, d, box)
            found = _first_accepted(rows, vec, f, g, Xa, y, sigma2, k, d, box, True)
        if found is None:
            # quasi-Newton direction unusable here: projected steepest descent
            rows = project_vector(vec + _SD_STEPS * -g, k, d, box)
            found = _first_accepted(rows, vec, f, g, Xa, y, sigma2, k, d, box, False)
            if found is None:
                return vec, f, False, it, trace
        cand, fc, P, r = found
        gc = negloss_grad(cand, Xa, P, r, sigma2, k)

        s_vec = cand - vec
        y_vec = gc - g
        sy = float(s_vec.dot(y_vec))
        s_norm = _norm(s_vec)
        if sy > 1e-10 * s_norm * _norm(y_vec):
            pairs.append((s_vec, y_vec, 1.0 / sy))
        vec, f, g = cand, fc, gc
        trace.append(f)
        small_step = s_norm <= config.step_tol


def fit_mle(
    data: Dataset,
    k: int,
    box: ConstraintBox,
    config: FitConfig,
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
        vec, f, conv, iters, _ = _optimize_single(vec0, Xa, y, data.sigma2, k, d, box, config)
        per_logliks.append(const - f)
        per_conv.append(conv)
        per_iters.append(iters)
        if best is None or f < best[1]:
            best = (vec, f, conv)
    theta_hat = MlpParams.unflatten(best[0], k, d)
    return FitResult(
        theta_hat=theta_hat,
        loglik=conditional_loglik(theta_hat, data),
        converged=best[2],
        n_starts_used=len(starts),
        per_start_logliks=per_logliks,
        per_start_converged=per_conv,
        per_start_iters=per_iters,
    )


# ---------------------------------------------------------------------------
# Profile over widths
# ---------------------------------------------------------------------------


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
) -> list[FitResult]:
    """Per-width fits for k = 1 .. k_max; entry k - 1 holds width k's
    supremum of the log-likelihood as its loglik.

    Each width k > 1 receives warm starts embedding the best (k-1)-unit
    fit, so the returned suprema are non-decreasing up to optimizer slack.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    fits: list[FitResult] = []
    for k in range(1, k_max + 1):
        warm = config.warm_starts or []
        if fits:
            warm = _embedded_starts(fits[-1].theta_hat, box, config.seed, k, config.init_scale) + warm
        fits.append(fit_mle(data, k, box, replace(config, warm_starts=warm or None)))
    return fits
