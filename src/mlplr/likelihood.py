"""Conditional Gaussian log-likelihood, LR statistic and the second-order
expansion of the density ratio in the identifiable reparameterization.

The reparameterization splits the parameters of an over-sized network
into an identifiable block (beta, the grouped weight vectors, and the
per-group amplitude surpluses s_i) and a nuisance block of within-group
amplitude fractions q_j. All expansion formulas are evaluated at the
base point, where every grouped weight sits on its true unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limit_law import Partition
from .model import Dataset, MlpParams, RegressionSpec, augment, mlp_forward_batch, transfer_eval

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


def residual_score(spec: RegressionSpec, x, y: float) -> float:
    """Standardized residual e(z) = (y - F(x)) / sigma2 under the truth."""
    x = np.asarray(x, dtype=float)
    pred = mlp_forward_batch(spec.theta0, x[None, :])[0]
    return float((y - pred) / spec.sigma2)


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
    the group's amplitude sum is nonzero).
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

    # -- layout ------------------------------------------------------------
    @property
    def k0(self) -> int:
        return self.partition.k0

    def input_dim(self) -> int:
        T = self.partition.total_units
        return (len(self.phi) - 1 - self.k0) // T - 1

    def beta(self) -> float:
        return float(self.phi[0])

    def w(self, j: int) -> np.ndarray:
        """Grouped weight vector of fitted unit j (1-based)."""
        d1 = self.input_dim() + 1
        start = 1 + (j - 1) * d1
        return self.phi[start : start + d1]

    def s(self, i: int) -> float:
        """Amplitude surplus of true unit i (1-based)."""
        return float(self.phi[1 + self.partition.total_units * (self.input_dim() + 1) + i - 1])

    def q(self, j: int) -> float:
        return float(self.psi[j - 1])

    def displaced(self, delta: np.ndarray) -> "Reparameterization":
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


def _regression_value(rep: Reparameterization, spec: RegressionSpec, Xa: np.ndarray) -> np.ndarray:
    """F(x) under the reparameterized point, for augmented inputs Xa."""
    part = rep.partition
    out = np.full(Xa.shape[0], rep.beta())
    for i in range(1, part.k0 + 1):
        amp = rep.s(i) + spec.theta0.units[i - 1].a
        mix = np.zeros(Xa.shape[0])
        for j in part.group(i):
            mix += rep.q(j) * transfer_eval(Xa @ rep.w(j), 0)
        out += amp * mix
    return out


def density_ratio(rep: Reparameterization, spec: RegressionSpec, x, y: float) -> float:
    """f_theta / f at one observation, for the reparameterized point."""
    Xa = augment(np.asarray(x, dtype=float))[None, :]
    f_val = _regression_value(rep, spec, Xa)[0]
    f0 = mlp_forward_batch(spec.theta0, np.asarray(x, dtype=float)[None, :])[0]
    s2 = spec.sigma2
    return float(np.exp(-((y - f_val) ** 2) / (2 * s2) + (y - f0) ** 2 / (2 * s2)))


def _base_gradients(rep: Reparameterization, spec: RegressionSpec, xa: np.ndarray):
    """x-parts of the first and second derivatives of F at the base point.

    Returns (gradF, hessF) in the flat phi layout; the density-ratio
    derivatives follow as e * gradF and
    (e^2 - 1/sigma2) gradF gradF^T + e * hessF.
    """
    part = rep.partition
    d1 = len(xa)
    T = part.total_units
    P = 1 + T * d1 + part.k0
    grad = np.zeros(P)
    hess = np.zeros((P, P))
    grad[0] = 1.0
    for i in range(1, part.k0 + 1):
        unit = spec.theta0.units[i - 1]
        t0 = float(unit.w @ xa)
        p0, p1, p2 = transfer_eval(t0, 0), transfer_eval(t0, 1), transfer_eval(t0, 2)
        s_pos = 1 + T * d1 + i - 1
        grad[s_pos] = p0
        for j in part.group(i):
            qj = rep.q(j)
            w_sl = slice(1 + (j - 1) * d1, 1 + j * d1)
            grad[w_sl] = unit.a * qj * p1 * xa
            hess[w_sl, w_sl.start : w_sl.stop] = unit.a * qj * p2 * np.outer(xa, xa)
            hess[s_pos, w_sl] = qj * p1 * xa
            hess[w_sl, s_pos] = qj * p1 * xa
    return grad, hess


@dataclass
class TaylorTerms:
    """First- and second-order terms of f_theta/f - 1 around the base point."""

    first_order: float
    second_order: float


def taylor_terms(
    rep: Reparameterization,
    spec: RegressionSpec,
    x,
    y: float,
) -> TaylorTerms:
    """Evaluate the two expansion terms of the density ratio at z = (x, y).

    first_order is e(z) times the displacement contracted against the
    regression gradient; second_order assembles the squared-score block
    with coefficient e^2 - 1/sigma2 (the catalog's e^2 - 1 at unit
    variance) plus the phi'' quadratic block and the s-w cross block.
    """
    base = base_reparameterization(rep.partition, spec, rep.psi)
    delta = rep.phi - base.phi
    xa = augment(np.asarray(x, dtype=float))
    e = residual_score(spec, x, y)
    grad, hess = _base_gradients(rep, spec, xa)
    lin = float(grad @ delta)
    first = e * lin
    second = (e * e - 1.0 / spec.sigma2) * lin * lin + e * float(delta @ hess @ delta)
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
    xa = augment(np.asarray(x, dtype=float))
    e = residual_score(spec, x, y)
    grad, hessF = _base_gradients(base, spec, xa)
    an_grad = e * grad
    an_hess = (e * e - 1.0 / spec.sigma2) * np.outer(grad, grad) + e * hessF

    P = len(base.phi)

    def ratio_at(phi_vec: np.ndarray) -> float:
        return density_ratio(Reparameterization(rep.partition, phi_vec, rep.psi), spec, x, y)

    h = step_first
    fd_grad = np.empty(P)
    for a in range(P):
        up, dn = base.phi.copy(), base.phi.copy()
        up[a] += h
        dn[a] -= h
        fd_grad[a] = (ratio_at(up) - ratio_at(dn)) / (2 * h)

    h2 = step_second
    fd_hess = np.empty((P, P))
    for a in range(P):
        for b in range(a, P):
            pp, pm, mp, mm = (base.phi.copy() for _ in range(4))
            pp[a] += h2
            pp[b] += h2
            pm[a] += h2
            pm[b] -= h2
            mp[a] -= h2
            mp[b] += h2
            mm[a] -= h2
            mm[b] -= h2
            val = (ratio_at(pp) - ratio_at(pm) - ratio_at(mp) + ratio_at(mm)) / (4 * h2 * h2)
            fd_hess[a, b] = fd_hess[b, a] = val

    first_err = np.abs(fd_grad - an_grad) / np.maximum(1.0, np.abs(an_grad))
    second_err = np.abs(fd_hess - an_hess) / np.maximum(1.0, np.abs(an_hess))
    return FdCheckReport(first_err, second_err)
