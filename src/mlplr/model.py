"""One-hidden-layer MLP regression model: the sigmoid transfer function,
parameters, constraint set and synthetic data generation.

The regression function is F(x) = beta + sum_i a_i * phi(w_i^T x~), where
x~ = (1, x_1, ..., x_d) is the augmented input and w_i[0] is the unit bias;
mlp_forward_batch evaluates it. The feasible set is defined by
||w_i|| >= eta, an amplitude lower bound and ||theta|| <= M (Euclidean
norms on the flattened parameter vector). Membership is decided, and
points are mapped into the set, on that flattened vector, the form the
optimizer works with (project_vector).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np


def stable_hash(payload: dict) -> str:
    """Short reproducibility hash of a JSON-serializable configuration."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]

# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) is exp(-t) for t >= 0 and exp(t) below, so this is the
    # sign-split form 1/(1+exp(-t)), exp(t)/(1+exp(t)) operation for
    # operation (-0.0 takes the first branch in both) without the masked
    # gathers and scatters; exp never sees a positive argument
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def transfer_eval(t, order: int = 0):
    """Evaluate the sigmoid transfer function or one of its derivatives.

    Parameters
    ----------
    t : float or ndarray
        Evaluation point(s).
    order : int
        0 for phi, 1..3 for the first three derivatives.

    All four orders are bounded on the real line.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    scalar = np.isscalar(t)
    s = _sigmoid(np.atleast_1d(t))
    if order == 0:
        out = s
    elif order == 1:
        out = s * (1.0 - s)
    elif order == 2:
        out = s * (1.0 - s) * (1.0 - 2.0 * s)
    else:
        d1 = s * (1.0 - s)
        d2 = d1 * (1.0 - 2.0 * s)
        out = d2 * (1.0 - 2.0 * s) - 2.0 * d1 * d1
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class HiddenUnit:
    """One hidden unit: amplitude a and weight vector w with w[0] the bias."""

    a: float
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError("unit weight vector must be one-dimensional")


@dataclass
class MlpParams:
    """Full parameter vector (beta, a_1..a_k, w_1..w_k) of a k-unit MLP."""

    beta: float
    units: list[HiddenUnit]

    def __post_init__(self):
        if len(self.units) < 1:
            raise ValueError("an MLP needs at least one hidden unit")
        lengths = {len(u.w) for u in self.units}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent weight vector lengths: {sorted(lengths)}")

    @property
    def k(self) -> int:
        return len(self.units)

    @property
    def input_dim(self) -> int:
        return len(self.units[0].w) - 1

    def flatten(self) -> np.ndarray:
        """(beta, a_1..a_k, w_10..w_1d, ..., w_k0..w_kd); length k(d+2)+1."""
        parts = [np.array([self.beta])]
        parts.append(np.array([u.a for u in self.units], dtype=float))
        parts.extend(u.w for u in self.units)
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, vec: np.ndarray, k: int, d: int) -> "MlpParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (k * (d + 2) + 1,):
            raise ValueError(f"expected length {k * (d + 2) + 1}, got {vec.shape}")
        beta = float(vec[0])
        amps = vec[1 : 1 + k]
        ws = vec[1 + k :].reshape(k, d + 1)
        return cls(beta, [HiddenUnit(float(a), w.copy()) for a, w in zip(amps, ws)])

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "units": [{"a": u.a, "w": u.w.tolist()} for u in self.units],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpParams":
        return cls(
            float(d["beta"]),
            [HiddenUnit(float(u["a"]), np.asarray(u["w"], dtype=float)) for u in d["units"]],
        )


def augment(x: np.ndarray) -> np.ndarray:
    """Prepend the constant coordinate: x -> (1, x_1, ..., x_d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.concatenate([[1.0], x])
    return np.hstack([np.ones((x.shape[0], 1)), x])


def mlp_forward_batch(theta: MlpParams, X: np.ndarray) -> np.ndarray:
    """Vectorized forward pass over the rows of X (shape (n, d))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != theta.input_dim:
        raise ValueError(f"inputs have shape {X.shape}, expected (n, {theta.input_dim})")
    Xa = augment(X)
    W = np.stack([u.w for u in theta.units])
    a = np.array([u.a for u in theta.units])
    return theta.beta + _sigmoid(Xa @ W.T) @ a


# ---------------------------------------------------------------------------
# Constraint set
# ---------------------------------------------------------------------------


@dataclass
class ConstraintBox:
    """Compact feasible set: ||w_i|| >= eta, amplitude bound, ||theta|| <= M.

    With positive_amplitudes on (the default, needed for sigmoid
    identifiability) the amplitude constraint is a_i >= eta; otherwise
    |a_i| >= eta.
    """

    eta: float
    M: float
    positive_amplitudes: bool = True

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError("eta must be positive")
        if not (self.eta < self.M):
            raise ValueError("eta must be smaller than M")

    def to_dict(self) -> dict:
        return {"eta": self.eta, "M": self.M, "positive_amplitudes": self.positive_amplitudes}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintBox":
        return cls(float(d["eta"]), float(d["M"]), bool(d["positive_amplitudes"]))


class ProjectionError(ValueError):
    """Raised when the two-stage projection cannot reach a feasible point."""


# nudge keeps pushed-out norms >= eta despite floating point rounding
_PUSH = 1.0 + 4e-15


def _norm(vec: np.ndarray) -> float:
    # np.linalg.norm's arithmetic for a vector (dot, then a correctly
    # rounded square root) without its dispatch
    return math.sqrt(vec.dot(vec))


def _row_norms(V: np.ndarray) -> np.ndarray:
    # _norm of every row: the stacked product calls the BLAS dot per row
    # that vec.dot(vec) calls (a matrix-vector product would round
    # differently)
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


def _unit_norms(V: np.ndarray, k: int, d: int) -> np.ndarray:
    # np.linalg.norm(W, axis=1)'s arithmetic on every row's (k, d+1)
    # weight block, without its dispatch
    W = V[:, 1 + k :].reshape(len(V), k, d + 1)
    return np.sqrt(np.add.reduce(W * W, axis=-1))


def _lower_ok(V: np.ndarray, k: int, norms: np.ndarray, box: ConstraintBox) -> np.ndarray:
    """Per row: every amplitude (its absolute value when signs are free)
    and every unit norm is at least eta. A NaN fails."""
    amps = V[:, 1 : 1 + k]
    if not box.positive_amplitudes:
        amps = np.abs(amps)
    return np.minimum.reduce(np.minimum(amps, norms), axis=1) >= box.eta


def _push_out(V: np.ndarray, k: int, d: int, box: ConstraintBox, norms: np.ndarray) -> np.ndarray:
    """Lower-bound pass on the rows of V, in place: push amplitudes, and
    the units whose norm (given in norms) is below eta, out to eta. A row
    that meets the bounds is left as it was. Returns the unit norms after
    the pass."""
    amps = V[:, 1 : 1 + k]
    if box.positive_amplitudes:
        np.maximum(amps, box.eta, out=amps)
    else:
        # zero amplitudes push to +eta (deterministic tie-break)
        amps[...] = np.where(np.abs(amps) < box.eta, np.where(amps >= 0, box.eta, -box.eta), amps)
    short = norms < box.eta
    if not np.logical_or.reduce(short, axis=None):
        return norms
    zero = norms == 0.0
    W = V[:, 1 + k :].reshape(len(V), k, d + 1)  # a view: V is C-contiguous
    W *= np.where(short, box.eta / np.where(zero, 1.0, norms) * _PUSH, 1.0)[..., None]
    W[zero] = 0.0
    W[zero, 0] = box.eta  # degenerate direction: first coordinate axis
    return _unit_norms(V, k, d)


def _bounds(V: np.ndarray, k: int, d: int, box: ConstraintBox, norms: np.ndarray | None = None):
    """The one description of the feasible set, per row of V: whether the
    row is feasible and whether its lower bounds hold, with the vector
    norms and unit norms (computed here unless given) the decision used."""
    if norms is None:
        norms = _unit_norms(V, k, d)
    lower = _lower_ok(V, k, norms, box)
    nrm = _row_norms(V)
    return lower & (nrm <= box.M), lower, nrm, norms


def _settle(V: np.ndarray, k: int, d: int, box: ConstraintBox) -> np.ndarray:
    """Lower-bound pass on the rows of V, in place, where a bound fails;
    returns which rows are then feasible."""
    feasible, lower, _, norms = _bounds(V, k, d, box)
    if np.logical_and.reduce(lower):
        return feasible
    return _bounds(V, k, d, box, _push_out(V, k, d, box, norms))[0]


def _rescale(base: np.ndarray, factors: np.ndarray, take: np.ndarray, done: np.ndarray,
             k: int, d: int, box: ConstraintBox) -> None:
    """Scale the rows of base marked in take by their factors and re-apply
    the lower bounds; those that are then feasible replace theirs in base
    and are marked done, both in place. Scaling every row and keeping the
    marked ones costs less than gathering them from a small stack."""
    out = base * factors[:, None]
    take &= _settle(out, k, d, box)
    np.copyto(base, out, where=take[:, None])
    done |= take


def _projection_error(k: int, d: int, box: ConstraintBox) -> ProjectionError:
    return ProjectionError(
        f"projection failed: eta={box.eta} and M={box.M} are mutually "
        f"inconsistent for k={k}, d={d}"
    )


def project_vector(vec: np.ndarray, k: int, d: int, box: ConstraintBox) -> np.ndarray:
    """Map a flattened parameter vector, or each row of an (R, p) stack of
    them, into the feasible set (the optimizer's hot path).

    The projection has two stages. Stage one clamps the amplitudes and
    pushes each w_i radially out to norm eta (a zero w_i goes to eta times
    the first coordinate axis). Stage two, if the result lies outside the
    ball, rescales the whole vector to norm M and re-applies the lower
    bounds once. When that pushes the norm past M again, the vector is
    rescaled instead to norm sqrt(M^2 - 2k eta^2) before the lower bounds
    are re-applied; this fallback lands strictly inside the ball, not on
    its sphere. This is a heuristic map onto the feasible set, not the
    Euclidean projection.

    A stack is mapped row by row with the bits a 1-D call gives each row;
    the branches are masks over the rows. The result is a new (R, p)
    array, in which a row that cannot be mapped is NaN, so a row the
    caller never reads cannot fail the call. A 1-D vector is one row: a
    feasible one is returned as the same object, any other result is a
    new array, and ProjectionError means eta and M leave no room for k
    units. The input is never written.
    """
    V = vec.reshape(-1, vec.shape[-1])
    done, lower, nrm, norms = _bounds(V, k, d, box)
    if vec.ndim == 1 and done[0]:
        return vec
    base = V.copy()
    if np.logical_and.reduce(done):
        return base
    if not np.logical_and.reduce(lower):
        # the lower-bound pass leaves the rows that meet the bounds as they were
        done, _, nrm, _ = _bounds(base, k, d, box, _push_out(base, k, d, box, norms))
    # each row not done is its input after one lower-bound pass, and nrm
    # its norm; both stages below scale it to a norm target and re-apply
    # the lower bounds
    take = ~done & (nrm > box.M)
    if np.logical_or.reduce(take):
        _rescale(base, box.M / nrm, take, done, k, d, box)
    # the re-applied lower bounds overshot M; each push-out adds at most
    # eta^2 to the squared norm, so a norm target of sqrt(M^2 - 2k eta^2)
    # leaves room for all of them
    slack2 = box.M**2 - 2 * k * box.eta**2
    if slack2 > 0 and not np.logical_and.reduce(done):
        _rescale(base, math.sqrt(slack2) / nrm, ~done, done, k, d, box)
    if vec.ndim == 1:
        if not done[0]:
            raise _projection_error(k, d, box)
        return base[0]
    if not np.logical_and.reduce(done):
        base[~done] = np.nan
    return base


# ---------------------------------------------------------------------------
# True model and data
# ---------------------------------------------------------------------------

INPUT_LAWS = ("standard_normal", "laplace")


@dataclass
class RegressionSpec:
    """True model: parameters theta0, known noise variance and input law."""

    theta0: MlpParams
    sigma2: float
    input_dim: int
    input_law: str = "standard_normal"

    def __post_init__(self):
        if self.theta0.input_dim != self.input_dim:
            raise ValueError(
                f"theta0 expects input_dim={self.theta0.input_dim}, spec says {self.input_dim}"
            )
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
        if self.input_law not in INPUT_LAWS:
            raise ValueError(f"unknown input law {self.input_law!r}; choose from {INPUT_LAWS}")

    @property
    def k0(self) -> int:
        return self.theta0.k

    def to_dict(self) -> dict:
        return {
            "theta0": self.theta0.to_dict(),
            "sigma2": self.sigma2,
            "input_dim": self.input_dim,
            "input_law": self.input_law,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionSpec":
        return cls(
            MlpParams.from_dict(d["theta0"]),
            float(d["sigma2"]),
            int(d["input_dim"]),
            str(d.get("input_law", "standard_normal")),
        )


def draw_inputs(spec: RegressionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.input_law == "standard_normal":
        return rng.standard_normal((n, spec.input_dim))
    # unit-variance Laplace: positive density on all of R^d, finite sixth moment
    return rng.laplace(scale=1.0 / np.sqrt(2.0), size=(n, spec.input_dim))


@dataclass
class Dataset:
    """Observed pairs (x_i, y_i) with the known noise variance attached."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)
    sigma2: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"inconsistent shapes: x {self.x.shape}, y {self.y.shape}")
        if self.n < 1:
            raise ValueError("a dataset needs at least one row")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.d)] + ["y"])
            for xi, yi in zip(self.x, self.y):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])

    @classmethod
    def from_csv(cls, path, sigma2: float) -> "Dataset":
        with open(path) as fh:
            text = "".join(line for line in fh if not line.startswith("#"))
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        if header[-1] != "y" or header[0] != "x1":
            raise ValueError(f"unexpected dataset header: {header}")
        data = np.array([[float(v) for v in row] for row in body])
        return cls(data[:, :-1], data[:, -1], sigma2)


def generate_dataset(
    spec: RegressionSpec,
    n: int,
    seed: int,
    noise_sigma2: float | None = None,
) -> Dataset:
    """Draw n i.i.d. pairs from the true model, deterministically in seed.

    noise_sigma2 overrides the variance of the drawn noise only (the
    dataset still carries spec.sigma2 for likelihood evaluation); the
    default is spec.sigma2 itself.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    X = draw_inputs(spec, n, rng)
    s2 = spec.sigma2 if noise_sigma2 is None else noise_sigma2
    y = mlp_forward_batch(spec.theta0, X) + np.sqrt(s2) * rng.standard_normal(n)
    return Dataset(X, y, spec.sigma2)
