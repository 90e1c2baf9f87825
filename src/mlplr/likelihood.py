"""Conditional Gaussian log-likelihood, LR statistic and the second-order
expansion of the density ratio in the identifiable reparameterization.

The reparameterization splits the parameters of an over-sized network
into an identifiable block (beta, the grouped weight vectors, and the
per-group amplitude surpluses s_i) and a nuisance block of within-group
amplitude fractions q_j. All expansion formulas are evaluated at the
base point, where every grouped weight sits on its true unit. The
derivative catalog there is read off the limit score basis
(eval_score_basis_batch), the same columns the Gram and simulate_limit
use; only the density ratio itself runs a forward pass. Every function
takes a batch of observations, X of shape (n, d) and y of shape (n,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limit_law import Partition, ScoreBasis, eval_score_basis_batch
from .model import Dataset, MlpParams, RegressionSpec, _sigmoid, augment, mlp_forward_batch

# ---------------------------------------------------------------------------
# Log-likelihood and LR statistic
# ---------------------------------------------------------------------------


def conditional_loglik(theta: MlpParams, data: Dataset) -> float:
    """Gaussian conditional log-likelihood of the regression model.

    The additive sum of log input densities is theta-independent and
    omitted throughout; it cancels in every statistic computed here.
    """
    if data.sigma2 <= 0:
        raise ValueError("conditional likelihood needs sigma2 > 0")
    r = data.y - mlp_forward_batch(theta, data.x)
    n = data.n
    return float(-0.5 * n * np.log(2.0 * np.pi * data.sigma2) - 0.5 * np.sum(r * r) / data.sigma2)


def lr_statistic(
    sup_loglik: float,
    spec: RegressionSpec,
    data: Dataset,
    true_loglik: float | None = None,
) -> float:
    """Doubled LR statistic 2 * (sup over the feasible set - loglik at truth).

    A value below -1e-6 means the supremum reported by the caller is worse
    than the true parameter point, i.e. the optimizer failed upstream.
    """
    if true_loglik is None:
        true_loglik = conditional_loglik(spec.theta0, data)
    stat = 2.0 * (sup_loglik - true_loglik)
    if stat < -1e-6:
        raise ValueError(
            f"supremum {sup_loglik:.6f} is below the true-parameter likelihood "
            f"{true_loglik:.6f} by more than 1e-6; optimizer failure upstream"
        )
    return float(stat)


# ---------------------------------------------------------------------------
# Identifiable reparameterization
# ---------------------------------------------------------------------------


@dataclass
class Reparameterization:
    """Point (Phi_t, psi_t) for a fixed partition t.

    phi is the flat identifiable block [beta, w_1 .. w_T, s_1 .. s_k0]
    with T = t_k0 grouped weight vectors of length d+1 each; psi holds the
    within-group fractions q_1 .. q_T (summing to one per group wherever
    the group's amplitude sum is nonzero). phi may also stack R points as
    an (R, P) array, which density_ratio evaluates in one pass.
    """

    partition: Partition
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        T = self.partition.total_units
        if len(self.psi) != T:
            raise ValueError(f"psi must hold {T} fractions, got {len(self.psi)}")

    def displaced(self, delta: np.ndarray) -> "Reparameterization":
        """The point phi + delta; an (R, P) delta gives R stacked points."""
        return Reparameterization(self.partition, self.phi + np.asarray(delta, dtype=float), self.psi)


def base_reparameterization(
    partition: Partition,
    spec: RegressionSpec,
    psi: np.ndarray | None = None,
) -> Reparameterization:
    """Base point Phi^0: grouped weights replicate the true units, s = 0.

    psi defaults to equal within-group fractions and must sum to one per
    group (the expansion is taken at this point for fixed psi).
    """
    if partition.k0 != spec.k0:
        raise ValueError(f"partition has k0={partition.k0}, spec has k0={spec.k0}")
    T = partition.total_units
    d1 = spec.input_dim + 1
    if psi is None:
        psi = np.empty(T)
        for i in range(1, partition.k0 + 1):
            grp = partition.group(i)
            psi[[j - 1 for j in grp]] = 1.0 / len(grp)
    else:
        psi = np.asarray(psi, dtype=float)
        for i in range(1, partition.k0 + 1):
            ssum = sum(psi[j - 1] for j in partition.group(i))
            if abs(ssum - 1.0) > 1e-10:
                raise ValueError(f"group {i} fractions sum to {ssum}, expected 1")
    phi = np.empty(1 + T * d1 + partition.k0)
    phi[0] = spec.theta0.beta
    for i in range(1, partition.k0 + 1):
        for j in partition.group(i):
            phi[1 + (j - 1) * d1 : 1 + j * d1] = spec.theta0.units[i - 1].w
    phi[1 + T * d1 :] = 0.0
    return Reparameterization(partition, phi, psi)


# ---------------------------------------------------------------------------
# Density ratio and its expansion at the base point
# ---------------------------------------------------------------------------


def density_ratio(rep: Reparameterization, spec: RegressionSpec, X, y) -> np.ndarray:
    """f_theta / f at every observation (X (n, d), y (n,)) for each point of
    rep: shape (n,) for one phi, (R, n) for R stacked rows."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    part = rep.partition
    phi = np.atleast_2d(rep.phi)
    T, d1 = part.total_units, spec.input_dim + 1
    W = phi[:, 1 : 1 + T * d1].reshape(len(phi), T, d1)
    amp = phi[:, 1 + T * d1 :] + [u.a for u in spec.theta0.units]
    # sum_j q_j phi(w_j^T xt) over each group's fitted units: (R, k0, n)
    mix = np.add.reduceat(rep.psi[:, None] * _sigmoid(W @ augment(X).T), part.t[:-1], axis=1)
    f_val = phi[:, :1] + np.einsum("ri,rin->rn", amp, mix)
    f0 = mlp_forward_batch(spec.theta0, X)
    s2 = spec.sigma2
    ratio = np.exp(-((y - f_val) ** 2) / (2 * s2) + (y - f0) ** 2 / (2 * s2))
    return ratio.reshape(rep.phi.shape[:-1] + y.shape)


def _base_gradients(rep: Reparameterization, spec: RegressionSpec, X: np.ndarray):
    """x-parts of the first and second derivatives of F at the base point,
    placed from the rows of eval_score_basis_batch(spec, X).

    Returns gradF (n, P) and hessF (n, P, P) in the flat phi layout. The
    beta entry is the basis constant and s_i's is phi(w_i^T xt); grouped
    unit j of true unit i takes a_i q_j times the phi' columns in its w
    block, a_i q_j times the phi'' columns, pair (min(l, m), max(l, m)),
    in its w-w block, and q_j times the phi' columns in the s_i-w_j cross
    block. The density-ratio derivatives follow as e * gradF and
    (e^2 - 1/sigma2) gradF gradF^T + e * hessF.
    """
    part = rep.partition
    basis = ScoreBasis(spec.k0, spec.input_dim)
    B = eval_score_basis_batch(spec, X, basis)
    n, d1, T = len(B), spec.input_dim + 1, part.total_units
    P = 1 + T * d1 + part.k0
    grad = np.zeros((n, P))
    hess = np.zeros((n, P, P))
    grad[:, 0] = B[:, 0]
    for i, unit in enumerate(spec.theta0.units):
        s_pos = 1 + T * d1 + i
        grad[:, s_pos] = B[:, basis.phi_index(i)]
        dphi = B[:, [basis.dphi_index(i, l) for l in range(d1)]]
        ddphi = B[:, [[basis.ddphi_index(i, min(l, m), max(l, m)) for m in range(d1)] for l in range(d1)]]
        for j in part.group(i + 1):
            qj = rep.psi[j - 1]
            w_sl = slice(1 + (j - 1) * d1, 1 + j * d1)
            grad[:, w_sl] = unit.a * qj * dphi
            hess[:, w_sl, w_sl] = unit.a * qj * ddphi
            hess[:, s_pos, w_sl] = hess[:, w_sl, s_pos] = qj * dphi
    return grad, hess


@dataclass
class TaylorTerms:
    """First- and second-order terms of f_theta/f - 1 around the base
    point, one entry per observation."""

    first_order: np.ndarray  # (n,)
    second_order: np.ndarray  # (n,)


def taylor_terms(
    rep: Reparameterization,
    spec: RegressionSpec,
    X,
    y,
) -> TaylorTerms:
    """Evaluate the two expansion terms of the density ratio at every
    observation z = (x, y) of X (n, d) and y (n,).

    With e(z) = (y - F(x)) / sigma2 the standardized residual under the
    truth, first_order is e(z) times the displacement contracted against the
    regression gradient; second_order assembles the squared-score block
    with coefficient e^2 - 1/sigma2 (the catalog's e^2 - 1 at unit
    variance) plus the phi'' quadratic block and the s-w cross block.
    """
    base = base_reparameterization(rep.partition, spec, rep.psi)
    delta = rep.phi - base.phi
    e = (np.asarray(y, dtype=float) - mlp_forward_batch(spec.theta0, X)) / spec.sigma2
    grad, hess = _base_gradients(rep, spec, X)
    lin = grad @ delta
    first = e * lin
    second = (e * e - 1.0 / spec.sigma2) * lin * lin + e * (delta @ hess @ delta)
    return TaylorTerms(first, second)


# ---------------------------------------------------------------------------
# Finite-difference validation of the derivative catalog
# ---------------------------------------------------------------------------


@dataclass
class FdCheckReport:
    """Per-coordinate relative errors of the analytic derivative formulas."""

    first_errors: np.ndarray  # (P,)
    second_errors: np.ndarray  # (P, P)

    @property
    def max_first(self) -> float:
        return float(self.first_errors.max())

    @property
    def max_second(self) -> float:
        return float(self.second_errors.max())


def fd_check_derivatives(
    rep: Reparameterization,
    spec: RegressionSpec,
    x,
    y: float,
    step_first: float = 1e-5,
    step_second: float = 1e-4,
) -> FdCheckReport:
    """Compare the analytic derivative catalog with central differences.

    Differences are taken in the flat phi coordinates at the base point of
    rep's partition (with rep's psi held fixed). Relative error uses the
    customary max(1, |analytic|) denominator so that near-zero entries are
    judged on absolute error.
    """
    base = base_reparameterization(rep.partition, spec, rep.psi)
    X = np.asarray(x, dtype=float)[None, :]
    Y = np.array([float(y)])
    e = (Y[0] - mlp_forward_batch(spec.theta0, X)[0]) / spec.sigma2
    grad, hessF = (a[0] for a in _base_gradients(base, spec, X))
    an_grad = e * grad
    an_hess = (e * e - 1.0 / spec.sigma2) * np.outer(grad, grad) + e * hessF

    # every displaced point in one call: the 2P rows +-h e_a, then the 4P^2
    # rows h2 (s_a e_a + s_b e_b) over the signs (s_a, s_b) and pairs (a, b)
    P = len(base.phi)
    h, h2 = step_first, step_second
    one = np.array([1.0, -1.0])[:, None, None] * np.eye(P)
    two = one[:, None, :, None, :] + one[None, :, None, :, :]
    rows = np.concatenate([h * one.reshape(-1, P), h2 * two.reshape(-1, P)])
    ratio = density_ratio(base.displaced(rows), spec, X, Y)[:, 0]
    g = ratio[: 2 * P].reshape(2, P)
    fd_grad = (g[0] - g[1]) / (2 * h)
    q = ratio[2 * P :].reshape(2, 2, P, P)
    fd_hess = (q[0, 0] - q[0, 1] - q[1, 0] + q[1, 1]) / (4 * h2 * h2)

    first_err = np.abs(fd_grad - an_grad) / np.maximum(1.0, np.abs(an_grad))
    second_err = np.abs(fd_hess - an_hess) / np.maximum(1.0, np.abs(an_hess))
    return FdCheckReport(first_err, second_err)
