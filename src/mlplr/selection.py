"""Penalized-likelihood selection of the hidden-layer width.

The criterion subtracts a penalty p_n(k) from the per-width supremum of
the log-likelihood; any schedule that is increasing in k, with diverging
gaps and p_n(k)/n -> 0, selects the true width consistently. The default
is the BIC-like rule p_n(k) = dim_k / 2 * log n with dim_k = k(d+2)+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import FitConfig, profile_lr_curve
from .model import ConstraintBox, Dataset, from_config

SCHEDULE_KINDS = ("bic_like", "zero")


@dataclass
class PenaltySchedule:
    """Penalty rule p_n(k).

    bic_like is dim_k / 2 * log n and needs the input dimension to size
    dim_k. zero, which has no penalty at all, shows why one is needed: it
    selects the largest width up to optimizer slack.
    """

    kind: str = "bic_like"
    input_dim: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; choose from {SCHEDULE_KINDS}")
        if self.kind == "bic_like" and self.input_dim is None:
            raise ValueError("bic_like schedule needs input_dim")
        if self.input_dim is not None and not (isinstance(self.input_dim, int) and self.input_dim >= 1):
            raise ValueError(f"input_dim must be an int >= 1, got {self.input_dim!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.input_dim is not None:
            d["input_dim"] = self.input_dim
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PenaltySchedule":
        return from_config(cls, d, kind=str)


def penalty_value(schedule: PenaltySchedule, n: int, k: int) -> float:
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    if schedule.kind == "bic_like":
        dim_k = k * (schedule.input_dim + 2) + 1
        return 0.5 * dim_k * float(np.log(n))
    return 0.0


def select_width(sup_logliks, penalties) -> tuple[int, list[float]]:
    """The selection rule, over widths k = 1, 2, ... in order.

    T_n(k) = sup loglik(k) - p_n(k); returns the k maximizing it and the
    T_n values. Ties resolve to the smallest k (parsimony; exact ties
    occur on noiseless data where the suprema coincide).
    """
    t_vals = [sup - pen for sup, pen in zip(sup_logliks, penalties)]
    return 1 + int(np.argmax(t_vals)), t_vals


@dataclass
class SelectionReport:
    """Per-width criterion values and the selected width."""

    per_k: list[tuple[int, float, float, float]]  # (k, sup_loglik, penalty, T_n)
    k_hat: int
    n: int
    fit_converged: list[bool] | None = None

    def to_dict(self) -> dict:
        return {
            "per_k": [list(row) for row in self.per_k],
            "k_hat": self.k_hat,
            "n": self.n,
            "fit_converged": self.fit_converged,
        }


def select_architecture(
    data: Dataset,
    k_max: int,
    box: ConstraintBox,
    fit_config: FitConfig,
    schedule: PenaltySchedule,
) -> SelectionReport:
    """Maximize T_n(k) = sup loglik - p_n(k) over k = 1 .. k_max
    (select_width)."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    profile = profile_lr_curve(data, k_max, box, fit_config)
    penalties = [penalty_value(schedule, data.n, k) for k in range(1, k_max + 1)]
    k_hat, t_vals = select_width([fit.loglik for fit in profile], penalties)
    per_k = [(k, fit.loglik, pen, t_n) for k, (fit, pen, t_n) in enumerate(zip(profile, penalties, t_vals), 1)]
    return SelectionReport(per_k, k_hat, data.n, [fit.converged for fit in profile])
