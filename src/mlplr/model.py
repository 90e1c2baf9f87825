"""One-hidden-layer MLP regression model: the sigmoid transfer function,
parameters, constraint set and synthetic data generation.

The regression function is F(x) = beta + sum_i a_i * phi(w_i^T x~), where
x~ = (1, x_1, ..., x_d) is the augmented input and w_i[0] is the unit bias;
mlp_forward_batch evaluates it. The feasible set is defined by
||w_i|| >= eta, a_i >= eta and ||theta|| <= M (Euclidean norms on the
flattened parameter vector). Membership is decided, and points are mapped
into the set, on that flattened vector, the form the optimizer works with.
project_vector's map is a heuristic, not the Euclidean projection: one
lower-bound pass, then for a point outside the ball the first feasible
of two rescaled candidates, with norm targets M and sqrt(M^2 - 2k eta^2).

Amplitudes are positive, the parametrization the limit law is built for.
The logistic sigmoid gives a phi(t) = a + |a| phi(-t), so a unit with
a < 0 is the unit (|a|, -w) with a moved into beta; RegressionSpec takes
only that form and names it when given a negative amplitude.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np


def stable_hash(payload: dict) -> str:
    """Short reproducibility hash of a JSON-serializable configuration."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def from_config(cls, d: dict, **converters):
    """Build the dataclass cls from d, its to_dict form read from JSON: a
    key that names no field is a ValueError, an absent key takes the
    field's default, and converters[name] maps the value of field name."""
    if unknown := set(d) - {f.name for f in fields(cls)}:
        raise ValueError(f"unknown {cls.__name__} keys {sorted(unknown)}")
    return cls(**{key: converters[key](value) if key in converters else value for key, value in d.items()})

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
        return from_config(cls, d, beta=float, units=lambda us: [from_config(HiddenUnit, u, a=float) for u in us])


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
    """Compact feasible set: ||w_i|| >= eta, a_i >= eta, ||theta|| <= M.

    Amplitudes are positive, the one mode the limit law describes (see the
    module docstring). positive_amplitudes must be True; the field stays
    so that configs naming it, and the config hashes that include it, keep
    their form.
    """

    eta: float
    M: float
    positive_amplitudes: bool = True

    def __post_init__(self):
        if self.positive_amplitudes is not True:
            raise ValueError(
                f"positive_amplitudes must be true, got {self.positive_amplitudes!r}: amplitudes are "
                "positive, and a negative one has a positive form (see RegressionSpec)"
            )
        if not (self.eta > 0):
            raise ValueError("eta must be positive")
        if not (self.eta < self.M):
            raise ValueError("eta must be smaller than M")

    def to_dict(self) -> dict:
        return {"eta": self.eta, "M": self.M, "positive_amplitudes": self.positive_amplitudes}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintBox":
        return from_config(cls, d, eta=float, M=float)


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


def _push_out(V: np.ndarray, k: int, d: int, box: ConstraintBox, norms: np.ndarray) -> np.ndarray:
    """Lower-bound pass on the rows of V, in place: push amplitudes, and
    the units whose norm (given in norms) is below eta, out to eta. A row
    that meets the bounds is left as it was. Returns the unit norms after
    the pass."""
    amps = V[:, 1 : 1 + k]
    np.maximum(amps, box.eta, out=amps)
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
    row is feasible and whether its lower bounds hold (every amplitude and
    unit norm at least eta; a NaN fails), with the vector norms and unit
    norms (computed here unless given) the decision used."""
    if norms is None:
        norms = _unit_norms(V, k, d)
    lower = np.minimum.reduce(np.minimum(V[:, 1 : 1 + k], norms), axis=1) >= box.eta
    nrm = _row_norms(V)
    return lower & (nrm <= box.M), lower, nrm, norms


def project_vector(vec: np.ndarray, k: int, d: int, box: ConstraintBox) -> np.ndarray:
    """Map each row of an (R, p) stack of flattened parameter vectors into
    the feasible set (the optimizer's hot path).

    A feasible row is kept. Any other row gets the lower-bound pass: its
    amplitudes are clamped to eta and each w_i shorter than eta is pushed
    radially out to norm eta (a zero w_i goes to eta times the first
    coordinate axis). A row still outside the ball is scaled to two norm
    targets, M and the fallback sqrt(M^2 - 2k eta^2), and both candidates
    get the lower-bound pass again, all rows' in one stack. The row takes
    the first feasible of itself, its M candidate and its fallback
    candidate. This is a heuristic map onto the feasible set, not the
    Euclidean projection.

    Each row is mapped on its own; the branches are masks over the rows.
    The result is a new (R, p) array, in which a row that cannot be
    mapped is NaN, so a row the caller never reads cannot fail the call.
    When eta and M leave no room for k units, every row is NaN. The input
    is never written.
    """
    feasible, lower, nrm, norms = _bounds(vec, k, d, box)
    base = vec.copy()
    if np.logical_and.reduce(feasible):
        return base
    if not np.logical_and.reduce(lower):
        # the lower-bound pass leaves the rows that meet the bounds as they were
        feasible, _, nrm, _ = _bounds(base, k, d, box, _push_out(base, k, d, box, norms))
        if np.logical_and.reduce(feasible):
            return base
    # each push-out adds at most eta^2 to the squared norm, so the fallback
    # leaves room for all of them; with no room at all it is NaN
    slack2 = box.M**2 - 2 * k * box.eta**2
    targets = np.array([[box.M], [math.sqrt(slack2) if slack2 > 0 else math.nan]])
    # every row is scaled: in the fits most rows of a call that gets here need it
    cands = base * (targets / nrm)[..., None]
    flat = cands.reshape(-1, base.shape[1])
    ok = _bounds(flat, k, d, box, _push_out(flat, k, d, box, _unit_norms(flat, k, d)))[0].reshape(2, -1)
    out = cands[1]  # filled from the last choice to the first
    out[~ok[1]] = np.nan
    np.copyto(out, cands[0], where=((nrm > box.M) & ok[0])[:, None])
    np.copyto(out, base, where=feasible[:, None])
    return out


# ---------------------------------------------------------------------------
# True model and data
# ---------------------------------------------------------------------------

INPUT_LAWS = ("standard_normal", "laplace")


@dataclass
class RegressionSpec:
    """True model: parameters theta0, known noise variance and input law.

    Every true amplitude must be positive; a negative one is rejected with
    the spec's positive form, which has the same regression function."""

    theta0: MlpParams
    sigma2: float
    input_dim: int
    input_law: str = "standard_normal"

    def __post_init__(self):
        if self.theta0.input_dim != self.input_dim:
            raise ValueError(
                f"theta0 expects input_dim={self.theta0.input_dim}, spec says {self.input_dim}"
            )
        if not 0 <= self.sigma2 < math.inf:  # NaN fails every comparison
            raise ValueError("sigma2 must be non-negative and finite")
        if self.input_law not in INPUT_LAWS:
            raise ValueError(f"unknown input law {self.input_law!r}; choose from {INPUT_LAWS}")
        amps = [u.a for u in self.theta0.units]
        if not all(a > 0 for a in amps):  # NaN fails too
            msg = f"true amplitudes must be positive, got {amps}"
            if all(a < 0 or a > 0 for a in amps):  # no zero, no NaN: the form below exists
                canonical = MlpParams(
                    self.theta0.beta + sum(min(a, 0.0) for a in amps),
                    [HiddenUnit(abs(u.a), -u.w if u.a < 0 else u.w) for u in self.theta0.units],
                )
                msg += f"; the same regression function in positive form is {json.dumps(canonical.to_dict())}"
            raise ValueError(msg)

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
        return from_config(cls, d, theta0=MlpParams.from_dict, sigma2=float, input_dim=int, input_law=str)


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
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("x and y must be finite")
        if not 0 <= self.sigma2 < math.inf:  # NaN fails every comparison
            raise ValueError("sigma2 must be non-negative and finite")

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
    if noise_sigma2 is not None and not 0 <= noise_sigma2 < math.inf:
        raise ValueError("noise_sigma2 must be non-negative and finite")
    rng = np.random.default_rng(seed)
    X = draw_inputs(spec, n, rng)
    s2 = spec.sigma2 if noise_sigma2 is None else noise_sigma2
    y = mlp_forward_batch(spec.theta0, X) + np.sqrt(s2) * rng.standard_normal(n)
    return Dataset(X, y, spec.sigma2)
