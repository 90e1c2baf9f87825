"""Asymptotic law of the LR statistic under over-parameterization.

Builds the finite basis of limit score functions, estimates its Gram
matrix under the true law, certifies the linear-independence assumption
numerically, and simulates the limiting distribution

    sup over the index set of (max(W, 0))^2,

a supremum of a truncated Gaussian process over a union of cones indexed
by partitions of the fitted units onto the true ones.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConstraintBox,
    RegressionSpec,
    _sigmoid,
    augment,
    draw_inputs,
    stable_hash,
)

# ---------------------------------------------------------------------------
# Partitions of fitted units onto true units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Grouping vector t = (t_0, ..., t_k0) with 0 = t_0 < ... < t_k0 <= k.

    Group i (1-based) collects the fitted units t_{i-1}+1 .. t_i; units
    beyond t_k0 are free (unassigned).
    """

    t: tuple[int, ...]

    def __post_init__(self):
        t = tuple(int(v) for v in self.t)
        object.__setattr__(self, "t", t)
        if len(t) < 2 or t[0] != 0:
            raise ValueError(f"partition must start at t_0 = 0, got {t}")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"partition must be strictly increasing, got {t}")

    @property
    def k0(self) -> int:
        return len(self.t) - 1

    @property
    def total_units(self) -> int:
        """t_k0, the number of fitted units assigned to some true unit."""
        return self.t[-1]

    def group(self, i: int) -> range:
        """1-based fitted-unit indices of group i (i in 1..k0)."""
        return range(self.t[i - 1] + 1, self.t[i] + 1)

    def group_sizes(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.t, self.t[1:]))

    def quad_units(self, d: int) -> list[int]:
        """The cone's quadratic directions at input dimension d: the
        0-based true unit once per admissible rank-one direction. Group i
        of m fitted units admits A_i PSD of rank at most min(m - 1, d + 1)
        in its phi'' components, so a singleton group admits none."""
        return [i for i, m in enumerate(self.group_sizes()) for _ in range(min(m - 1, d + 1))]


def enumerate_partitions(k: int, k0: int) -> list[Partition]:
    """All admissible t vectors, in lexicographic order."""
    if not (k >= k0 >= 1):
        raise ValueError(f"need k >= k0 >= 1, got k={k}, k0={k0}")
    return [Partition((0, *combo)) for combo in itertools.combinations(range(1, k + 1), k0)]


# ---------------------------------------------------------------------------
# Limit score basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreBasis:
    """Ordered x-part basis B(x) of the limit scores V(z) = e(z) B(x).

    Layout (augmented input xt = (1, x), true weights w_i, i = 0..k0-1):
      [0]                      constant 1
      [1 .. k0]                phi(w_i^T xt)
      [next k0*(d+1)]          xt_l * phi'(w_i^T xt),      0 <= l <= d
      [next k0*(d+1)(d+2)/2]   xt_l xt_m * phi''(w_i^T xt), 0 <= l <= m <= d
      [optional tail]          phi(w^T xt) on a fixed grid of extra weights
    """

    k0: int
    d: int
    extra_w: tuple[tuple[float, ...], ...] = ()

    @property
    def n_pairs(self) -> int:
        return (self.d + 1) * (self.d + 2) // 2

    @property
    def n_linear(self) -> int:
        """Constant + phi + phi' components (the always-linear block)."""
        return 1 + self.k0 + self.k0 * (self.d + 1)

    @property
    def core_dim(self) -> int:
        return self.n_linear + self.k0 * self.n_pairs

    @property
    def dim(self) -> int:
        return self.core_dim + len(self.extra_w)

    def phi_index(self, i: int) -> int:
        self._check_unit(i)
        return 1 + i

    def dphi_index(self, i: int, l: int) -> int:
        self._check_unit(i)
        if not 0 <= l <= self.d:
            raise ValueError(f"coordinate l={l} out of range 0..{self.d}")
        return 1 + self.k0 + i * (self.d + 1) + l

    def ddphi_index(self, i: int, l: int, m: int) -> int:
        self._check_unit(i)
        if not 0 <= l <= m <= self.d:
            raise ValueError(f"need 0 <= l <= m <= d, got ({l}, {m})")
        # pairs (l, m) in lexicographic order
        offset = l * (self.d + 1) - l * (l - 1) // 2 + (m - l)
        return self.n_linear + i * self.n_pairs + offset

    def _check_unit(self, i: int) -> None:
        if not 0 <= i < self.k0:
            raise ValueError(f"unit index {i} out of range 0..{self.k0 - 1}")


def eval_score_basis_batch(spec: RegressionSpec, X: np.ndarray, basis: ScoreBasis | None = None) -> np.ndarray:
    """B(x) for every row of X; shape (n, basis.dim)."""
    if basis is None:
        basis = ScoreBasis(spec.k0, spec.input_dim)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have shape {X.shape}, expected (n, {spec.input_dim})")
    n = X.shape[0]
    Xa = augment(X)
    out = np.empty((n, basis.dim))
    out[:, 0] = 1.0
    for i, unit in enumerate(spec.theta0.units):
        # phi' = phi (1 - phi) and phi'' = phi' (1 - 2 phi) from one sigmoid
        s = _sigmoid(Xa @ unit.w)
        out[:, basis.phi_index(i)] = s
        d1 = s * (1.0 - s)
        d2 = d1 * (1.0 - 2.0 * s)
        for l in range(spec.input_dim + 1):
            out[:, basis.dphi_index(i, l)] = Xa[:, l] * d1
        for l in range(spec.input_dim + 1):
            for m in range(l, spec.input_dim + 1):
                out[:, basis.ddphi_index(i, l, m)] = Xa[:, l] * Xa[:, m] * d2
    if basis.extra_w:
        # one sigmoid over every extra column's own Xa @ w, kept contiguous
        args = np.empty((len(basis.extra_w), n))
        for j, w in enumerate(basis.extra_w):
            args[j] = Xa @ np.asarray(w)
        out[:, basis.core_dim:] = _sigmoid(args).T
    return out


def extended_grid(box: ConstraintBox, d: int, n_angles: int = 8, radii: tuple[float, ...] = (2.0, 10.0, 45.0)) -> tuple[tuple[float, ...], ...]:
    """Fixed grid of extra weight vectors inside the box, by default 8 x
    (2, 10, 45), for the appendix-variant index set with free-unit phi terms."""
    dirs: list[np.ndarray] = []
    if d == 1:
        # half circle only (phi(t) + phi(-t) = 1 makes antipodal directions
        # linearly dependent with the constant component), offset so no
        # grid point is a pure-bias, constant-in-x unit
        for ang in np.linspace(0.0, np.pi, n_angles, endpoint=False) + np.pi / (2 * n_angles):
            dirs.append(np.array([np.cos(ang), np.sin(ang)]))
    else:
        rng = np.random.default_rng(20240601)
        for _ in range(n_angles):
            v = rng.standard_normal(d + 1)
            dirs.append(v / np.linalg.norm(v))
    grid = []
    for r in radii:
        if not box.eta <= r <= box.M:
            raise ValueError(f"grid radius {r} outside [eta, M]")
        for u in dirs:
            grid.append(tuple(float(v) for v in r * u))
    return tuple(grid)


# ---------------------------------------------------------------------------
# Gram matrix and the linear-independence certificate
# ---------------------------------------------------------------------------


@dataclass
class GramMatrix:
    """L2 Gram of the limit scores: sigma = P(V V^T) = x_gram / sigma2.

    simulate_limit keeps what its calls on one Gram share in ``_memo``,
    which lives and dies with the object (see simulate_limit). It reads
    sigma and basis once, so they must not change afterwards;
    dataclasses.replace(gram) gives a copy whose memo starts empty.
    """

    sigma: np.ndarray
    x_gram: np.ndarray
    mc_draws: int
    seed: int
    basis: ScoreBasis
    method: str = "mc"
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _finalize_gram(x_gram: np.ndarray, spec: RegressionSpec, draws: int, seed: int, basis: ScoreBasis, method: str) -> GramMatrix:
    x_gram = 0.5 * (x_gram + x_gram.T)
    return GramMatrix(x_gram / spec.sigma2, x_gram, draws, seed, basis, method)


_GRAM_CHUNK = 50_000


def gram_matrix(
    spec: RegressionSpec,
    mc_draws: int,
    seed: int,
    basis: ScoreBasis | None = None,
) -> GramMatrix:
    """Monte-Carlo estimate of E[B(X) B(X)^T] under the input law.

    The residual factor is exact: E[e^2] = 1/sigma2 with e independent of
    X, so sigma = x_gram / sigma2. Accumulation runs over chunks of
    _GRAM_CHUNK inputs in a fixed order, so the result is reproducible
    bit for bit.
    """
    if mc_draws < 1:
        raise ValueError("mc_draws must be at least 1")
    if basis is None:
        basis = ScoreBasis(spec.k0, spec.input_dim)
    rng = np.random.default_rng(seed)
    acc = np.zeros((basis.dim, basis.dim))
    left = mc_draws
    while left > 0:
        m = min(_GRAM_CHUNK, left)
        B = eval_score_basis_batch(spec, draw_inputs(spec, m, rng), basis)
        acc += B.T @ B
        left -= m
    return _finalize_gram(acc / mc_draws, spec, mc_draws, seed, basis, "mc")


@functools.lru_cache(maxsize=2)
def _axis_rule(law: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only one-axis rule of the input law: 129 Gauss-Hermite nodes,
    or for Laplace inputs 64 Gauss-Laguerre nodes mirrored onto both
    half-lines. hermgauss(129) is about half the cost of a desk Gram."""
    if law == "standard_normal":
        pts, wts = np.polynomial.hermite.hermgauss(129)
        rule = (np.sqrt(2.0) * pts, wts / np.sqrt(np.pi))
    else:
        pts, wts = np.polynomial.laguerre.laggauss(64)
        rule = (np.r_[-pts[::-1], pts] / np.sqrt(2.0), np.r_[wts[::-1], wts] / 2.0)
    for a in rule:
        a.flags.writeable = False
    return rule


def gram_matrix_gh(spec: RegressionSpec, basis: ScoreBasis | None = None) -> GramMatrix:
    """Seed-free quadrature Gram for d <= 2, on the tensor product of the
    input law's axis rule."""
    d = spec.input_dim
    if d > 2:
        raise ValueError(f"the quadrature Gram needs d <= 2, got d = {d}; use the Monte Carlo Gram")
    if basis is None:
        basis = ScoreBasis(spec.k0, d)
    pts, wts = _axis_rule(spec.input_law)
    X = np.stack([g.ravel() for g in np.meshgrid(*[pts] * d, indexing="ij")], axis=1)
    w = functools.reduce(np.multiply.outer, [wts] * d).ravel()
    B = eval_score_basis_batch(spec, X, basis)
    method = "gauss_hermite" if spec.input_law == "standard_normal" else "gauss_laguerre"
    return _finalize_gram((B * w[:, None]).T @ B, spec, w.size, 0, basis, method)


H4_TOL = 1e-8  # least scaled eigenvalue that certifies a Gram


@dataclass
class H4Report:
    """Numerical certificate for the linear-independence assumption."""

    min_eigenvalue: float  # of the unit-diagonal-scaled x_gram
    passed: bool
    tol: float  # H4_TOL, reported beside the verdict


def check_h4(gram: GramMatrix) -> H4Report:
    """Smallest eigenvalue of the diagonally normalized x_gram, which
    passes at H4_TOL or above.

    Linear independence of the basis functions is scale invariant, so the
    certificate normalizes each function to unit L2 norm first (otherwise
    the verdict would depend on the arbitrary scaling of the phi''
    components). A zero-norm column counts as an exact dependence.
    """
    G = np.asarray(gram.x_gram, dtype=float)
    diag = np.diag(G).copy()
    if np.any(diag <= 0):
        return H4Report(0.0, False, H4_TOL)
    s = 1.0 / np.sqrt(diag)
    C = G * np.outer(s, s)
    mn = float(np.linalg.eigvalsh(0.5 * (C + C.T)).min())
    return H4Report(mn, bool(mn >= H4_TOL), H4_TOL)


def save_gram(gram: GramMatrix, prefix: str, spec: RegressionSpec) -> None:
    """Textual row-major matrix plus JSON metadata."""
    with open(f"{prefix}.mat", "w") as fh:
        for row in gram.x_gram:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "seed": gram.seed,
        "mc_draws": gram.mc_draws,
        "method": gram.method,
        "spec_hash": stable_hash(spec.to_dict()),
        "sigma2": spec.sigma2,
        "k0": gram.basis.k0,
        "d": gram.basis.d,
        "extra_w": [list(w) for w in gram.basis.extra_w],
    }
    with open(f"{prefix}.json", "w") as fh:
        json.dump(meta, fh, indent=2)


# ---------------------------------------------------------------------------
# Second-order feasibility (the delta(i) gate)
# ---------------------------------------------------------------------------


def delta_feasible(nus: list[np.ndarray]) -> bool:
    """True iff strictly positive c_j exist with sum_j c_j nu_j = 0.

    Rescaling q_j = c_j^2 / sum c^2 then yields a probability vector with
    sum_j sqrt(q_j) nu_j = 0. Decided by a linear feasibility program with
    c_j >= 1e-9 after normalizing the inputs; an all-zero list is feasible.
    """
    if len(nus) == 0:
        raise ValueError("need at least one vector")
    # imported here, its only use: scipy.optimize costs about 50 MB and
    # half a second at import, which every other caller of mlplr would pay
    from scipy.optimize import linprog

    V = np.stack([np.asarray(v, dtype=float) for v in nus])
    scale = np.max(np.linalg.norm(V, axis=1))
    if scale == 0.0:
        return True
    V = V / scale
    m = V.shape[0]
    A_eq = np.vstack([V.T, np.ones((1, m))])
    b_eq = np.concatenate([np.zeros(V.shape[1]), [1.0]])
    res = linprog(
        c=np.zeros(m),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(1e-9, None)] * m,
        method="highs",
    )
    return bool(res.status == 0)


# ---------------------------------------------------------------------------
# Score normalization
# ---------------------------------------------------------------------------


def normalize_score(c: np.ndarray, gram: GramMatrix) -> np.ndarray:
    """Rescale a coefficient vector to unit L2 norm in the Gram metric."""
    c = np.asarray(c, dtype=float)
    nrm2 = float(c @ gram.sigma @ c)
    if nrm2 <= 0.0:
        raise ValueError("cannot normalize a score with non-positive squared norm")
    return c / np.sqrt(nrm2)


# ---------------------------------------------------------------------------
# Simulation of the limiting distribution
# ---------------------------------------------------------------------------


# Settings of the one fallback cone search (_optimize_partition_general).
# They drive only the partitions without a closed form: every partition
# with a quadratic term at d > 1, and at d = 1 those whose quadratic
# directions fall on several true units. Every d = 1 cone of one true unit
# is solved exactly, with or without extra phi columns.
_SEARCH_RESTARTS = 8  # direction restarts
_SEARCH_SWEEPS = 3  # coordinate-ascent sweeps over quadratic directions
_SEARCH_GOLDEN_STEPS = 24  # golden-section steps per coordinate plane


@dataclass
class LimitSample:
    """Draws of the simulated limit of the doubled LR statistic: values[i]
    from the normals of default_rng([seed, i]) (see simulate_limit)."""

    values: np.ndarray
    k: int
    best_partition: list[tuple[int, ...]]  # per draw, the winning partition's t
    # per draw, the solver of the winning partition: "linear" (no quadratic
    # direction; extra phi columns, if any, chosen greedily), "exact_rank1"
    # or "exact_psd" (d = 1 closed forms for one true unit, extra phi
    # columns included), "search" (the sphere search: d > 1, or quadratic
    # directions on several true units)
    path: np.ndarray
    extended: bool = False

    def to_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("value,best_partition,path\n")
            for v, t, r in zip(self.values, self.best_partition, self.path):
                fh.write(f"{repr(float(v))},{'-'.join(map(str, t))},{r}\n")


def _direction_columns(basis: ScoreBasis, unit: int, u: np.ndarray) -> np.ndarray:
    """Basis column of (u^T x~)^2 * phi''_unit for unit direction(s) u.

    u has shape (..., d+1); returns shape (..., basis.dim).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (basis.dim,))
    for l in range(basis.d + 1):
        for m in range(l, basis.d + 1):
            fac = 1.0 if l == m else 2.0
            out[..., basis.ddphi_index(unit, l, m)] = fac * u[..., l] * u[..., m]
    return out


class _ConeMaximizer:
    """The process left over once the linear block is removed, and the
    supremum of (max(c^T g, 0))^2 / (c^T sigma c) over the linear block
    plus a few given columns.

    The linear block L (constant, phi, phi') enters unconstrained. With
    K = S_LL^-1 sigma_L. and the residual Gram T = sigma - sigma_.L K,
    both computed once here, a draw g = F z (F the lower Cholesky factor
    of sigma, jittered if sigma is singular to rounding, z standard normal)
    leaves the residual h = g - g_L K = z H, H = F^T - F^T_.L K, and every
    cone's value is v_lin = g_L^T S_LL^-1 g_L = z_L^T z_L (F nests in the
    basis prefix) plus the gain of its other columns in the metric T. All
    cone solvers read T and h from here: values_with_columns, the d = 1
    closed forms (_exact_partition_d1) and the greedy choice of extra phi
    columns.

    Each given quadratic direction must keep a non-negative coefficient;
    extra phi columns are sign-free. With a handful of such columns the
    exact projection onto the cone they span is found by enumerating
    active subsets. The ridge on the column block shrinks a column's gain
    by the relative amount ridge / r, r its residual variance: at desk
    scale 3.7e-13 against r as small as 3.1e-9.
    """

    def __init__(self, gram: GramMatrix, ridge: float = 1e-12):
        self.basis = gram.basis
        n_lin = gram.basis.n_linear
        self.S_ll = gram.sigma[:n_lin, :n_lin]
        self.K = np.linalg.solve(self.S_ll, gram.sigma[:n_lin])
        T = gram.sigma - gram.sigma[:, :n_lin] @ self.K
        self.T = 0.5 * (T + T.T)
        self.ridge = ridge * float(np.trace(self.S_ll)) / n_lin
        # a factor nested in the basis prefix keeps draws on a common seed
        # comparable draw by draw across widths and index sets
        p = gram.basis.dim
        try:
            F = np.linalg.cholesky(gram.sigma)
        except np.linalg.LinAlgError:
            F = np.linalg.cholesky(gram.sigma + 1e-12 * float(np.trace(gram.sigma)) / p * np.eye(p))
        self.H = F.T - F.T[:, :n_lin] @ self.K

    def residual_of(self, z: np.ndarray) -> np.ndarray:
        """The residual h = z H of the draws of standard normals z (N, p)."""
        return z @ self.H

    def values_with_columns(
        self, g: np.ndarray, cols: np.ndarray, v_lin: np.ndarray, extras: np.ndarray | None = None
    ) -> np.ndarray:
        """Best value per draw given per-draw sign-constrained columns.

        g is the residual h (N, p) of ``residual``, cols (N, R, p), and
        extras (N, m), if given, the basis indices of sign-free unit
        columns that enter every active subset (_greedy_extra_columns).
        The value is v_lin plus the largest h_S^T (T_SS + ridge I)^-1 h_S
        over the active subsets S (the extras plus any of the 2^R subsets
        of cols) whose coefficients on cols are all non-negative (R is at
        most a few at desk scale). This is the Schur complement of the
        block system with the linear block, so the values are those of the
        full (n_lin + |S|)-dimensional solve. Extras alone are gathered
        from h and T; beside cols they enter as unit columns, because the
        bits of the product cols @ T depend on its number of columns.
        """
        m = 0 if extras is None else extras.shape[1]
        R = cols.shape[1]
        if m and R:
            cols = np.concatenate([np.eye(g.shape[1])[extras], cols], axis=1)
        y = np.einsum("nrp,np->nr", cols, g) if R else np.take_along_axis(g, extras, 1)
        C = np.einsum("nrp,nsp->nrs", cols @ self.T, cols) if R else self.T[extras[:, :, None], extras[:, None]]
        best = v_lin.copy()
        for mask in range(0 if m else 1, 2**R):
            sel = list(range(m)) + [m + r for r in range(R) if mask >> r & 1]
            A = C[:, sel][:, :, sel] + self.ridge * np.eye(len(sel))
            b = np.linalg.solve(A, y[:, sel, None])[..., 0]
            val = v_lin + np.einsum("nj,nj->n", b, y[:, sel])
            feasible = np.all(b[:, m:] >= -1e-12, axis=1)
            np.maximum(best, np.where(feasible, val, -np.inf), out=best)
        return best


# Quadratic-block coordinates (A00, 2 A01, A11) of u u^T, u = (cos w, sin w),
# as a linear map of v = (1, cos 2w, sin 2w).
_RANK1_D1 = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, -0.5, 0.0]])

# (1, cos, sin, cos 2, sin 2) at the eight multiples of pi / 4
_EIGHTHS = np.arange(8) * (np.pi / 4)
_RANK1_AT = np.stack([np.ones(8), np.cos(_EIGHTHS), np.sin(_EIGHTHS), np.cos(2 * _EIGHTHS), np.sin(2 * _EIGHTHS)])


def _rank1_angles(a: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """Angles (N, 4) of the zeros of each draw's p(phi) = c0 + c1 cos phi +
    s1 sin phi + c2 cos 2phi + s2 sin 2phi, whose coefficients (c0, c1,
    s1, c2, s2) are a @ trig, for a (N, 3) and trig (3, 5) or (N, 3, 5).
    A complex pair of roots gives the angle of its real part.

    Each row is solved in theta = phi - psi, psi the multiple of pi/4
    whose antipode psi + pi has the largest |p| of the eight. The quartic
    (1 + t^2)^2 p in t = tan(theta / 2) then has p(psi + pi) as its
    leading coefficient, so its roots stay bounded and the shift by b/4
    below does not swamp the small ones. Ferrari's method, vectorized
    over the rows: the depressed quartic y^4 + P y^2 + Q y + R
    (t = y - b/4) is (y^2 + P/2 + m)^2 - 2m (y - Q/(4m))^2 at the largest
    real root m >= 0 of the resolvent cubic m^3 + P m^2 + (P^2/4 - R) m -
    Q^2/8, taken in trigonometric form when the cubic has three real roots
    and by Cardano otherwise, then refined by one Newton step; the quartic
    splits into two quadratics. p = 0 (a = 0) leaves no finite angle, and
    a non-finite angle becomes pi.
    """
    with np.errstate(all="ignore"):
        coef = a @ trig if trig.ndim == 2 else np.einsum("ni,nij->nj", a, trig)
        j = np.argmax(np.abs(coef @ _RANK1_AT), axis=1)
        c0, c1, s1, c2, s2 = np.ascontiguousarray(coef.T)
        # the coefficients of p(theta + psi), psi = (j - 4) pi / 4
        cos1, sin1, cos2, sin2 = -_RANK1_AT[1, j], -_RANK1_AT[2, j], _RANK1_AT[3, j], _RANK1_AT[4, j]
        c1, s1 = c1 * cos1 + s1 * sin1, s1 * cos1 - c1 * sin1
        c2, s2 = c2 * cos2 + s2 * sin2, s2 * cos2 - c2 * sin2
        lead = c0 - c1 + c2
        b, c, d, e = np.stack([2.0 * s1 - 4.0 * s2, 2.0 * c0 - 6.0 * c2, 2.0 * s1 + 4.0 * s2, c0 + c1 + c2]) / lead
        b4 = 0.25 * b
        bb = b4 * b4
        P = c - 6.0 * bb
        Q = d - 2.0 * b4 * (c - 4.0 * bb)
        R = e - b4 * d + bb * (c - 3.0 * bb)
        # the resolvent in z = m + P/3: z^3 + F z + G
        PP = P * P
        s = 0.25 * PP - R
        F = PP / -12.0 - R
        G = P * (R / 3.0 - PP / 108.0) - 0.125 * Q * Q
        D = 0.25 * G * G + F * F * F / 27.0
        rho = np.sqrt(np.maximum(F / -3.0, 0.0))
        three = 2.0 * rho * np.cos(np.arccos(np.clip(-0.5 * G / (rho * rho * rho), -1.0, 1.0)) / 3.0)
        A = -np.copysign(np.cbrt(0.5 * np.abs(G) + np.sqrt(np.maximum(D, 0.0))), G)
        one = np.where(A != 0.0, A - F / (3.0 * A), 0.0)
        m = np.where(D < 0.0, three, one) - P / 3.0
        df = (3.0 * m + 2.0 * P) * m + s
        f = ((m + P) * m + s) * m - 0.125 * Q * Q
        m = np.maximum(np.where(df != 0.0, m - f / df, m), 0.0)
        # (y^2 + P/2 + m)^2 - (sqrt(2m) y - Q / (2 sqrt(2m)))^2; at m = 0,
        # Q = 0 and the square is that of sqrt(P^2/4 - R)
        root = np.sqrt(2.0 * m)
        half = np.where(root > 0.0, 0.5 * Q / root, np.sqrt(np.maximum(s, 0.0)))
        B = np.stack([-root, root])
        C = np.stack([half, -half]) + (0.5 * P + m)
        disc = B * B - 4.0 * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        phi = 2.0 * np.arctan(np.concatenate([sq - B, -sq - B]) / 2.0 - b4) + (j - 4) * (np.pi / 4)
        return np.where(np.isfinite(phi), phi, np.pi).T


def _rank1_gain_d1(h: np.ndarray, T: np.ndarray) -> np.ndarray:
    """max(0, max over w of (c^T h)_+^2 / (c^T T c)) per draw, c = P v,
    for residuals h (N, 3) and the metric T, one (3, 3) shared by all draws
    or one per draw (N, 3, 3).

    With a = P^T h and B = P^T T P the ratio is f = (a^T v)^2 /
    (v^T B v) in the angle phi = 2w. Its stationary points are the zeros of
    p = (a^T v')(v^T B v) - (a^T v)(v^T B v'), a trigonometric polynomial of
    degree 2 (the degree-3 terms cancel), linear in a and in B: its Fourier
    coefficients are a fixed linear map of B's six entries. Its zeros come
    in closed form, from Ferrari's method on the quartic (1 + t^2)^2 p in
    t = tan(theta / 2), theta the angle from a per-draw rotation that
    keeps every root finite (_rank1_angles). Their angles and phi = pi are
    the candidates, and the largest f over them is the maximum; a complex
    pair of roots adds the angle of its real part, a candidate that cannot
    beat the maximum.
    """
    a = h @ _RANK1_D1
    B = _RANK1_D1.T @ T @ _RANK1_D1
    # B's six entries, each off-diagonal one averaged over both halves
    S = 0.5 * (B + np.swapaxes(B, -1, -2))
    b00, b01, b02, b11, b12, b22 = (S[..., i, j, None] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    # p's coefficients (c0, c1, s1, c2, s2) for a = e_0, e_1, e_2
    trig = np.stack([
        np.concatenate([np.zeros_like(b00), -b02, b01, -b12, 0.5 * (b11 - b22)], axis=-1),
        np.concatenate([-1.5 * b02, -b12, -(b00 + b22), 0.5 * b02, -0.5 * b01], axis=-1),
        np.concatenate([1.5 * b01, b00 + b11, b12, 0.5 * b01, 0.5 * b02], axis=-1),
    ], axis=-2)
    ang = np.concatenate([_rank1_angles(a, trig), np.full((h.shape[0], 1), np.pi)], axis=1)
    cs, sn = np.cos(ang), np.sin(ang)
    num = np.maximum(a[:, :1] + a[:, 1:2] * cs + a[:, 2:] * sn, 0.0)
    den = b00 + cs * (2.0 * b01 + b11 * cs + 2.0 * b12 * sn) + sn * (2.0 * b02 + b22 * sn)
    return np.maximum((num * num / den).max(axis=1), 0.0)


def _exact_partition_d1(
    mx: _ConeMaximizer,
    h: np.ndarray,
    v_lin: np.ndarray,
    unit: int,
    budget: int,
    extras: np.ndarray | None = None,
    gains: dict | None = None,
) -> np.ndarray:
    """Exact supremum over one true unit's quadratic cone at d = 1, plus
    the span of per-draw extra phi columns (their basis indices (N, m))
    if given. Without extras, the rank-one gain is read from or stored in
    ``gains`` (keyed by unit) if given, so the rank-one and PSD cones of
    one unit compute it once.

    With Q the unit's three phi'' components, T_QQ and h_Q are the
    residual Gram and the residual draws of the shared linear-block
    residualization (_ConeMaximizer). Extra columns are sign-free, so they
    join the linear part: with y_E = E h, T_EQ = E T_.Q and the metric
    C = E T E^T + ridge I of _greedy_extra_columns, they add
    y_E^T C^-1 y_E to v_lin and leave the per-draw residual
    h_Q - y_E^T C^-1 T_EQ with metric T_QQ - T_QE C^-1 T_EQ. The value is
    then v_lin plus the gain of the quadratic block in that metric.
    Budget 1 is the rank-one boundary (_rank1_gain_d1). Budget 2 is the
    whole 2x2 PSD cone, which is convex: when T^-1 h is PSD the
    unconstrained optimum h^T T^-1 h is feasible, otherwise the cone
    projection lies on the rank-one boundary. No ridge on Q:
    simulate_limit's certificate makes T_QQ positive definite, and with
    the ridge on C so is the metric left after the extras.
    """
    b = mx.basis
    q_idx = [b.ddphi_index(unit, 0, 0), b.ddphi_index(unit, 0, 1), b.ddphi_index(unit, 1, 1)]
    T = mx.T[np.ix_(q_idx, q_idx)]
    h_q = h[:, q_idx]
    if extras is not None:
        C = mx.T[extras[:, :, None], extras[:, None]] + mx.ridge * np.eye(extras.shape[1])
        y = np.take_along_axis(h, extras, 1)
        T_eq = mx.T[extras[:, :, None], q_idx]
        sol = np.linalg.solve(C, np.concatenate([y[..., None], T_eq], axis=2))  # C^-1 [y_E, T_EQ]
        v_lin = v_lin + np.einsum("nr,nr->n", y, sol[:, :, 0])
        h_q = h_q - np.einsum("nr,nrj->nj", y, sol[:, :, 1:])
        T = T - np.einsum("nri,nrj->nij", T_eq, sol[:, :, 1:])
    if extras is None and gains is not None:
        if unit not in gains:
            gains[unit] = _rank1_gain_d1(h_q, T)
        gain = gains[unit]
    else:
        gain = _rank1_gain_d1(h_q, T)
    if budget == 2:
        # (A00, 2 A01, A11) of the unconstrained optimum
        q = np.linalg.solve(T, h_q.T).T if T.ndim == 2 else np.linalg.solve(T, h_q[..., None])[..., 0]
        psd = (q[:, 0] >= 0) & (q[:, 2] >= 0) & (q[:, 0] * q[:, 2] >= 0.25 * q[:, 1] ** 2)
        gain = np.where(psd, np.maximum(gain, np.einsum("nj,nj->n", h_q, q)), gain)
    return v_lin + gain


def _optimize_partition_general(
    mx: _ConeMaximizer,
    h: np.ndarray,
    v_lin: np.ndarray,
    quad_units: list[int],
    seed_key: tuple,
    fixed_cols: np.ndarray | None = None,
) -> np.ndarray:
    """Sphere search over one direction per quadratic unit, for any d:
    deterministic restarts refined by golden rotations in coordinate
    planes (batched across draws). Extra phi columns (fixed_cols) enter
    every evaluation sign-free."""
    N = h.shape[0]
    p1 = mx.basis.d + 1
    R = len(quad_units)
    rng = np.random.default_rng([abs(hash(seed_key)) % 2**32])
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    best = v_lin.copy()
    for _ in range(_SEARCH_RESTARTS):
        U = rng.standard_normal((R, p1))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        dirs = np.tile(U[None, :, :], (N, 1, 1))

        def cols_from(dirs_arr: np.ndarray) -> np.ndarray:
            cols = [_direction_columns(mx.basis, unit, dirs_arr[:, r, :]) for r, unit in enumerate(quad_units)]
            return np.stack(cols, axis=1)

        for _ in range(_SEARCH_SWEEPS):
            for r in range(R):
                for axis in range(p1):
                    e = np.zeros(p1)
                    e[axis] = 1.0
                    u = dirs[:, r, :]
                    # orthonormal partner in the (u, e_axis) plane
                    v = e[None, :] - (u @ e)[:, None] * u
                    nv = np.linalg.norm(v, axis=1)
                    ok = nv > 1e-12
                    v[ok] /= nv[ok][:, None]
                    lo = np.full(N, -np.pi / 2)
                    hi = np.full(N, np.pi / 2)
                    for _ in range(_SEARCH_GOLDEN_STEPS):
                        m1 = hi - gr * (hi - lo)
                        m2 = lo + gr * (hi - lo)
                        d1 = dirs.copy()
                        d1[:, r, :] = np.cos(m1)[:, None] * u + np.sin(m1)[:, None] * v
                        v1 = mx.values_with_columns(h, cols_from(d1), v_lin, fixed_cols)
                        d2 = dirs.copy()
                        d2[:, r, :] = np.cos(m2)[:, None] * u + np.sin(m2)[:, None] * v
                        v2 = mx.values_with_columns(h, cols_from(d2), v_lin, fixed_cols)
                        take1 = v1 >= v2
                        hi = np.where(take1, m2, hi)
                        lo = np.where(take1, lo, m1)
                    ang = 0.5 * (lo + hi)
                    nd = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v
                    nd[~ok] = u[~ok]
                    dirs[:, r, :] = nd
        np.maximum(best, mx.values_with_columns(h, cols_from(dirs), v_lin, fixed_cols), out=best)
    return best


def _greedy_extra_columns(mx: _ConeMaximizer, h: np.ndarray, n_free: int) -> np.ndarray:
    """Per-draw greedy choice of up to n_free extra phi columns.

    Extra columns are sign-free, so each chosen column joins the draw's
    linear system: a pivoted Gram-Schmidt over the extra columns'
    residuals. With C = T_EE + ridge I (the metric values_with_columns
    scores in) and y = h_E, a candidate's gain is y_j^2 / C_jj in the
    process left over once the columns chosen so far are removed. Each
    step takes the largest gain per draw; the chosen column's row of the
    pivoted Cholesky factor then updates y and the diagonal of C, so every
    array is (N, J). Returns the chosen columns' basis indices (N, chosen),
    for the solvers to take sign-free and gather from h and T.
    """
    core = mx.basis.core_dim
    extra = core + np.arange(len(mx.basis.extra_w))
    C = mx.T[core:, core:] + mx.ridge * np.eye(len(extra))
    y = h[:, core:]
    diag = np.broadcast_to(np.diag(C), y.shape)
    free = np.ones(y.shape, dtype=bool)
    draws = np.arange(len(h))
    rows, picks = [], []
    n_pick = min(n_free, len(extra))
    for step in range(n_pick):
        gain = np.divide(y * y, diag, out=np.full(y.shape, -np.inf), where=free & (diag > 0))
        j = np.argmax(gain, axis=1)
        picks.append(j)
        if step == n_pick - 1:  # nothing reads the last pick's update
            break
        piv = np.sqrt(diag[draws, j])
        row = (C[j] - sum(r * r[draws, j, None] for r in rows)) / piv[:, None]
        y = y - row * (y[draws, j] / piv)[:, None]
        diag = diag - row * row
        free[draws, j] = False
        rows.append(row)
    return extra[np.stack(picks, axis=1)]


# SeedSequence's constants (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hashmix/mix multipliers and the xor shift
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


def _stream_words(seed: int, n: int) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for every
    i < n, as an (n, 4) uint64 array.

    SeedSequence's entropy is seed's little-endian uint32 words followed
    by i's single word; its hash constants evolve the same way for every
    entropy, so the pool mixing and the state expansion run once over
    (n,) uint32 columns in wrapping uint32 arithmetic.
    """
    seed = int(seed)
    entropy = [np.full(n, (seed >> s) & 0xFFFFFFFF, np.uint32) for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(n, dtype=np.uint32))
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _SS_INIT_B
    state = np.empty((n, 8), np.uint32)
    for j in range(8):
        value = pool[j % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state[:, j] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with this
# multiplier, stepped before each output, and the XSL-RR output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)
_U64 = np.uint64
_M_HI, _M_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_M_LO0, _M_LO1 = _U64(_PCG_MULT & 0xFFFFFFFF), _U64(_PCG_MULT >> 32 & 0xFFFFFFFF)
_LOW32, _LOW52 = _U64(0xFFFFFFFF), _U64(2**52 - 1)
# raw outputs beyond p in the buffer of a row that takes a slow variate
_ZIG_EXTRA = 4
# wedge comparisons closer than this (relative) are left to numpy: the
# recovered fi and np.exp may each be a few ulps off numpy's own
_ZIG_GUARD = 1e-12
# rows generated at once, which bounds the (rows, p) uint64 temporaries
_DRAW_BLOCK = 4096


def _pcg_outputs(state, inc, out):
    """Writes the next outputs of every row's PCG64 to the columns of out
    and returns the state after them; state itself is left alone.

    Per column, the state (hi, lo) steps to state * _PCG_MULT + inc mod
    2**128 and the XSL-RR output is read off it. The high word of
    lo * _M_LO comes from 32-bit halves: with lo = lo1 2**32 + lo0, mid =
    lo1 _M_LO0 + (lo0 _M_LO0 >> 32) and mid2 = lo0 _M_LO1 + (mid & _LOW32),
    it is lo1 _M_LO1 + (mid >> 32) + (mid2 >> 32). The (hi, lo) words of
    state and inc step as one (2, n) array, in place; the arithmetic wraps,
    so the order of the sums does not matter, and numpy's shift by 64 (the
    rotation's left shift at r = 0) gives 0."""
    state, inc = np.array(state), np.asarray(inc)
    hi, lo = state
    a, b, c, d = (np.empty_like(lo) for _ in range(4))
    carry = np.empty(lo.shape, bool)
    for j in range(out.shape[1]):
        np.right_shift(lo, _U64(32), out=a)  # lo1
        np.bitwise_and(lo, _LOW32, out=b)  # lo0
        np.multiply(b, _M_LO0, out=c)
        c >>= _U64(32)
        np.multiply(a, _M_LO0, out=d)
        c += d  # mid
        b *= _M_LO1
        np.bitwise_and(c, _LOW32, out=d)
        b += d  # mid2
        a *= _M_LO1
        c >>= _U64(32)
        a += c
        b >>= _U64(32)
        a += b  # the high word of lo * _M_LO
        np.multiply(lo, _M_HI, out=d)
        state *= _M_LO
        state += inc
        hi += a
        hi += d
        np.less(lo, inc[1], out=carry)
        hi += carry
        np.bitwise_xor(hi, lo, out=a)  # the output: a rotated right by b
        np.right_shift(hi, _U64(58), out=b)
        np.subtract(_U64(64), b, out=c)
        np.left_shift(a, c, out=c)
        a >>= b
        np.bitwise_or(a, c, out=out[:, j])
    return state


def _draw_from_outputs(gen, first: int, second: int = 0) -> tuple[float, int]:
    """gen.standard_normal() when its PCG64's next raw outputs are first,
    second, ...; and how many outputs it used (3 meaning three or more).

    An XSL-RR output whose state has a high word below 2**58 is that
    state's words xor-ed, so each of the two states is chosen with its
    output and the increment odd, and the start state is stepped back."""
    s1 = first
    high = (1 ^ first ^ second) & 1
    s2 = high << 64 | (second ^ high)
    inc = (s2 - s1 * _PCG_MULT) % 2**128
    _set_pcg(gen, (s1 - inc) * _PCG_MULT_INV % 2**128, inc)
    value = gen.standard_normal()
    state = gen.bit_generator.state["state"]["state"]
    return value, 1 if state == s1 else 2 if state == s2 else 3


def _set_pcg(gen, state: int, inc: int) -> None:
    """Puts gen's PCG64 at the 128-bit state and increment, as seeded."""
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ziggurat tables (ki, wi, fi) for random_standard_normal,
    recovered once from its generator; numpy ships them only compiled.

    From a raw output r, layer idx = r & 0xff and rabs = r >> 9 (52 bits)
    give x = rabs * wi[idx], returned at once iff rabs < ki[idx]. So wi is
    the value drawn at rabs = 1, and ki the least rabs that uses a second
    output, found near 2**52 wi[idx-1] / wi[idx] (the layers' width
    ratio) or else by bisection. fi is the density at the layers' edges.
    """
    from numpy.random import PCG64, Generator

    gen = Generator(PCG64(0))

    def slow(idx, rabs):
        return _draw_from_outputs(gen, rabs << 9 | idx)[1] > 1

    def first_slow(idx, lo, hi):  # lo fast (or -1), hi slow (or 2**52)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if slow(idx, mid) else (mid, hi)
        return hi

    wi = np.array([_draw_from_outputs(gen, 1 << 9 | idx)[0] for idx in range(256)])
    ki = np.empty(256, np.uint64)
    for idx in range(256):
        c = int(2**52 * wi[idx - 1] / wi[idx]) if idx >= 2 else 0
        if slow(idx, c):
            ok = c == 0 or not slow(idx, c - 1)
        else:
            c += 1
            ok = c < 2**52 and slow(idx, c)
        ki[idx] = c if ok else first_slow(idx, -1, 2**52)
    fi = np.exp(-0.5 * (2.0**52 * wi) ** 2)
    fi[0] = 1.0
    for table in (ki, wi, fi):
        table.flags.writeable = False  # shared by every caller
    return ki, wi, fi


def _ziggurat_decode(r, ki, wi):
    """Per raw output: the candidate x, whether it is taken at once, and its
    layer. ki and wi are indexed by idx | sign << 8, wi signed."""
    idx = (r & _U64(0x1FF)).astype(np.uint16)
    rabs = r >> _U64(9) & _LOW52
    return rabs.astype(np.float64) * np.take(wi, idx), rabs < np.take(ki, idx), idx & np.uint16(0xFF)


def _ziggurat_walk(buf, p, ki, wi, fi):
    """numpy's random_standard_normal over each row's raw outputs: the
    first p normals (m, p), and the rows it cannot be sure of.

    A slow candidate in layer idx >= 1 reads u from the next output and is
    taken iff (fi[idx-1] - fi[idx]) u + fi[idx] < exp(-x^2/2); taken or
    not, the next candidate starts two outputs on. A row is unsure if a
    candidate it needs is in the tail layer (idx 0) or has its comparison
    within _ZIG_GUARD, or if its buffer ends before p are taken (a slow
    candidate in the last column is never taken); its row is a placeholder.
    """
    m, width = buf.shape
    x, fast, idx = _ziggurat_decode(buf, ki, wi)
    slow, taken = ~fast, fast
    unsure = slow & (idx == 0)
    f = np.flatnonzero(slow & ~unsure & (np.arange(width) < width - 1))  # the wedge tests
    layer = idx.ravel()[f]
    u = (buf.ravel()[f + 1] >> _U64(11)).astype(np.float64) * 2.0**-53
    lhs = (fi[layer - 1] - fi[layer]) * u + fi[layer]
    xf = x.ravel()[f]
    rhs = np.exp(-0.5 * xf * xf)
    unsure.ravel()[f] = np.abs(lhs - rhs) <= _ZIG_GUARD * rhs
    taken.ravel()[f] = lhs < rhs
    starts = np.empty((m, width), bool)
    starts[:, 0] = True
    for c in range(1, width):
        np.logical_not(starts[:, c - 1] & slow[:, c - 1], out=starts[:, c])
    taken &= starts
    count = np.cumsum(taken, axis=1)
    early = count - taken < p
    bad = (starts & early & unsure).any(axis=1) | (count[:, -1] < p)
    keep = taken & early
    keep[bad] = np.arange(width) < p  # placeholders: numpy draws these rows
    return x[keep].reshape(m, p), bad


def _standard_normals(seed: int, n: int, p: int) -> np.ndarray:
    """(n, p) array whose row i is default_rng([seed, i]).standard_normal(p).

    Every row's PCG64 runs at once over uint64 words, seeded from the
    SeedSequence words of _stream_words as numpy seeds it: inc =
    (initseq << 1) | 1, then state = ((inc + initstate) * mult + inc).
    Rows whose first p outputs all take the ziggurat's fast path are
    decoded directly; the others get _ZIG_EXTRA more outputs and the
    whole walk (_ziggurat_walk). A row the walk cannot be sure of is
    drawn by numpy itself, from that row's seeded PCG64 state set on one
    Generator, made at the first such row; that skips a second
    SeedSequence per row.
    """
    ki, wi, fi = _ziggurat_tables()
    ki, wi = np.concatenate([ki, ki]), np.concatenate([wi, -wi])
    words = _stream_words(seed, n)
    z = np.empty((n, p))
    gen = None
    for start in range(0, n, _DRAW_BLOCK):
        w = words[start:start + _DRAW_BLOCK]
        inc = np.stack([w[:, 2] << _U64(1) | w[:, 3] >> _U64(63), w[:, 3] << _U64(1) | _U64(1)])
        lo = inc[1] + w[:, 1]
        seeded = _pcg_outputs((inc[0] + w[:, 0] + (lo < inc[1]), lo), inc, np.empty((len(w), 1), np.uint64))
        buf = np.empty((len(w), p), np.uint64)
        state = _pcg_outputs(seeded, inc, buf)
        block = z[start:start + len(w)]
        x, fast, _ = _ziggurat_decode(buf, ki, wi)
        block[:] = x
        rows = np.flatnonzero(~fast.all(axis=1))
        if rows.size:
            tail = np.empty((rows.size, _ZIG_EXTRA), np.uint64)
            _pcg_outputs(state[:, rows], inc[:, rows], tail)
            block[rows], bad = _ziggurat_walk(np.concatenate([buf[rows], tail], axis=1), p, ki, wi, fi)
            for i in rows[bad]:
                if gen is None:
                    gen = np.random.Generator(np.random.PCG64(0))
                _set_pcg(gen, int(seeded[0][i]) << 64 | int(seeded[1][i]), int(inc[0][i]) << 64 | int(inc[1][i]))
                block[i] = gen.standard_normal(p)
    return z


def _gaussian_draws(sigma: np.ndarray, n_draws: int, seed: int) -> np.ndarray:
    """(n_draws, p) standard normals for draws from N(0, sigma): row i is
    default_rng([seed, i]).standard_normal(p), p the order of sigma.

    The normals of all rows come from one vectorized pass of numpy's
    PCG64 and ziggurat (_standard_normals); row 0 is checked against
    numpy's own generator, which also rejects a negative seed.
    """
    if n_draws >= 2**32:
        raise ValueError(f"n_draws must be below 2**32 (one uint32 entropy word), got {n_draws}")
    p = sigma.shape[0]
    reference = np.random.default_rng([seed, 0]).standard_normal(p)
    z = _standard_normals(seed, n_draws, p)
    if n_draws and z[0].tobytes() != reference.tobytes():
        raise RuntimeError("vectorized normals differ from numpy's default_rng([seed, 0])")
    return z


class _SharedDraws:
    """What simulate_limit's calls on one Gram share for one (seed,
    n_draws): the linear-block value v_lin = z_L^T z_L and the residual
    h = z H of the standard normals z (_ConeMaximizer), each partition's
    per-draw value row and solver keyed (t, n_free), and the rank-one
    gains without extra columns keyed by unit. v_lin, h and the rows are
    read-only. h is computed on first use: a call whose partitions are
    all linear (k = k0) reads only v_lin."""

    def __init__(self, key: tuple, mx: _ConeMaximizer, z: np.ndarray):
        self.key = key
        self._mx, self._z = mx, z
        z_lin = z[:, : mx.basis.n_linear]
        self.v_lin = np.einsum("ij,ij->i", z_lin, z_lin)
        self.v_lin.flags.writeable = False
        self.rows: dict[tuple, tuple[np.ndarray, str]] = {}
        self.gains: dict[int, np.ndarray] = {}

    @functools.cached_property
    def h(self) -> np.ndarray:
        h = self._mx.residual_of(self._z)
        h.flags.writeable = False
        return h


def _partition_row(
    mx: _ConeMaximizer, shared: _SharedDraws, part: Partition, n_free: int, seed: int
) -> tuple[np.ndarray, str]:
    """Per-draw value of one partition's cone, plus up to n_free greedy
    extra phi columns, and the solver that gave it."""
    v_lin, quad_units = shared.v_lin, part.quad_units(mx.basis.d)
    if not quad_units and n_free == 0:
        return v_lin, "linear"
    h = shared.h
    fixed = _greedy_extra_columns(mx, h, n_free) if n_free > 0 else None
    if not quad_units:
        return mx.values_with_columns(h, np.empty((len(h), 0, h.shape[1])), v_lin, fixed), "linear"
    if mx.basis.d == 1 and len(set(quad_units)) == 1:
        row = _exact_partition_d1(mx, h, v_lin, quad_units[0], len(quad_units), fixed, shared.gains)
        return row, "exact_rank1" if len(quad_units) == 1 else "exact_psd"
    return _optimize_partition_general(mx, h, v_lin, quad_units, (seed, part.t), fixed), "search"


def simulate_limit(
    spec: RegressionSpec,
    k: int,
    gram: GramMatrix,
    n_draws: int,
    seed: int,
    extended: bool = False,
) -> LimitSample:
    """Monte-Carlo sample of the limiting LR distribution at width k.

    Per draw, a Gaussian vector g ~ N(0, sigma) is sampled and the
    supremum of (max(c^T g, 0))^2 / (c^T sigma c) is maximized over every
    partition's cone of realizable coefficient vectors (the linear block
    plus the directions of Partition.quad_units); the normalization sits
    in the Rayleigh denominator so the scale of c is immaterial. The
    linear block is residualized once (_ConeMaximizer). On the extended
    index set, each partition's free units add up to that many extra phi
    columns, chosen greedily per draw in closed form
    (_greedy_extra_columns); they are sign-free. Each partition goes to
    one solver in the residual process, recorded per draw in ``path`` for
    the winning partition: the linear block (plus any extra columns)
    alone; at d = 1, the closed forms for one true unit's rank-one or full
    PSD cone, extra columns included; otherwise (d > 1, or quadratic
    directions on several true units) the sphere search. The core basis must pass check_h4.

    Deterministic given the seed: with z exactly
    default_rng([seed, i]).standard_normal(p) and F the lower Cholesky
    factor of sigma (jittered if sigma is singular to rounding), draw i is
    g = F z, simulated in whitened coordinates: its linear-block value is
    z_L^T z_L, and its residual process z H comes from one matrix product
    over all draws (_ConeMaximizer). All n_draws streams run at once,
    numpy's PCG64 and ziggurat over uint64 arrays, and numpy itself draws
    the few rows that path cannot be sure of (_gaussian_draws); seed must
    be a non-negative integer and n_draws below 2**32.

    Calls on one Gram share work through its memo, and return exactly
    what each would return on a fresh copy. A partition's cone depends on
    its group sizes, not on k, and a draw's row on neither k nor n_draws,
    so widths drawn from one seed share draws and cones. The memo holds,
    for as long as the Gram lives: the core certificate and the
    _ConeMaximizer, which depend on the Gram alone; the normals z of the
    latest seed, at the largest n_draws asked for, which serve a smaller
    n_draws as a prefix; and, for the latest (seed, n_draws) only, the
    _SharedDraws. The law does not read the true amplitudes (all
    positive), so specs that differ only in them share all of it. A new
    seed frees the old seed's arrays. Values computed from the normals are
    not shared across n_draws, because the bits of a batched BLAS product
    such as z H depend on the batch. The
    returned arrays are fresh.
    """
    k0, d = spec.k0, spec.input_dim
    if k < k0:
        raise ValueError(f"need k >= k0, got k={k} < k0={k0}")
    if gram.basis.k0 != k0 or gram.basis.d != d:
        raise ValueError("gram matrix was built for a different spec")
    if extended and not gram.basis.extra_w:
        raise ValueError("extended mode needs a gram with extra phi columns")
    memo = gram._memo
    if "h4" not in memo:
        # the certificate concerns the theorem's basis; extra grid columns
        # are auxiliary and may be arbitrarily correlated with each other
        core = gram.basis.core_dim
        memo["h4"] = check_h4(GramMatrix(
            gram.sigma[:core, :core], gram.x_gram[:core, :core],
            gram.mc_draws, gram.seed, ScoreBasis(k0, d), gram.method,
        ))
    rep = memo["h4"]
    if not rep.passed:
        raise ValueError(
            f"gram fails the linear-independence certificate "
            f"(min scaled eigenvalue {rep.min_eigenvalue:.3e} < {rep.tol:.1e})"
        )
    drawn = memo.get("draws")
    if drawn is None or drawn[0] != seed or len(drawn[1]) < n_draws:
        memo.pop("draws", None)
        memo.pop("shared", None)
        drawn = memo["draws"] = (seed, _gaussian_draws(gram.sigma, n_draws, seed))
    # allocated before the cone solvers' temporaries, so a caller that
    # keeps many samples does not strand each one above their freed heap
    values = np.empty(n_draws)

    if "mx" not in memo:
        memo["mx"] = _ConeMaximizer(gram)
    mx = memo["mx"]
    key = (seed, n_draws)
    shared = memo.get("shared")
    if shared is None or shared.key != key:
        memo.pop("shared", None)
        shared = memo["shared"] = _SharedDraws(key, mx, drawn[1][:n_draws])

    partitions = enumerate_partitions(k, k0)
    per_part = np.empty((len(partitions), n_draws))
    paths = []
    for pi, part in enumerate(partitions):
        n_free = k - part.total_units if extended else 0
        if (part.t, n_free) not in shared.rows:
            row, path = _partition_row(mx, shared, part, n_free, seed)
            row.flags.writeable = False
            shared.rows[part.t, n_free] = row, path
        per_part[pi], path = shared.rows[part.t, n_free]
        paths.append(path)
    np.max(per_part, axis=0, out=values)
    best_idx = np.argmax(per_part, axis=0)
    ts = np.fromiter((part.t for part in partitions), object, len(partitions))
    return LimitSample(
        values=values,
        k=k,
        best_partition=[ts[0]] * n_draws if len(ts) == 1 else ts[best_idx].tolist(),
        path=np.array(paths)[best_idx],
        extended=extended,
    )
