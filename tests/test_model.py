import json
import math

import mpmath
import numpy as np
import pytest

from mlplr import (
    ConstraintBox,
    Dataset,
    FitConfig,
    HiddenUnit,
    MlpParams,
    PenaltySchedule,
    ProjectionError,
    RegressionSpec,
    ScoreBasis,
    fit_mle,
    generate_dataset,
    mlp_forward_batch,
)
from mlplr.limit_law import eval_score_basis_batch
from mlplr.model import _sigmoid, project_vector


def _in_box(vec, k, d, box):
    """Whether a flattened parameter vector lies in the feasible set,
    checked term by term: every amplitude and every unit norm at least
    eta, and the vector's norm at most M. A NaN fails."""
    if not np.all(vec[1 : 1 + k] >= box.eta):
        return False
    W = vec[1 + k :].reshape(k, d + 1)
    if not np.all(np.linalg.norm(W, axis=1) >= box.eta):
        return False
    return bool(np.linalg.norm(vec) <= box.M)


def _feasible(theta: MlpParams, box: ConstraintBox) -> bool:
    return _in_box(theta.flatten(), theta.k, theta.input_dim, box)


def _project(theta: MlpParams, box: ConstraintBox) -> MlpParams:
    out = project_vector(theta.flatten()[None], theta.k, theta.input_dim, box)[0]
    return MlpParams.unflatten(out, theta.k, theta.input_dim)


def _transfer(t, order):
    """phi (order 0), phi' or phi'' at the points t, as the score basis
    forms them: its phi, phi'_0 and phi''_00 columns for the unit
    w = (0, 1), whose argument w^T x~ is x itself."""
    spec = RegressionSpec(MlpParams(0.0, [HiddenUnit(1.0, np.array([0.0, 1.0]))]), 1.0, 1)
    basis = ScoreBasis(1, 1)
    column = (basis.phi_index(0), basis.dphi_index(0, 0), basis.ddphi_index(0, 0, 0))[order]
    B = eval_score_basis_batch(spec, np.reshape(t, (-1, 1)))
    np.testing.assert_array_equal(B[:, basis.phi_index(0)], _sigmoid(np.ravel(t)))
    return B[:, column]


class TestTransferFunction:
    def test_values_at_zero(self):
        assert _sigmoid(0.0) == 0.5
        assert [_transfer(0.0, order)[0] for order in range(3)] == [0.5, 0.25, 0.0]

    def test_derivative_identities(self):
        """phi' = phi(1-phi) and phi'' = phi'(1-2 phi) on a wide grid."""
        t = np.linspace(-30.0, 30.0, 2001)
        s = _sigmoid(t)
        np.testing.assert_allclose(_transfer(t, 1), s * (1 - s), atol=1e-12)
        np.testing.assert_allclose(_transfer(t, 2), _transfer(t, 1) * (1 - 2 * s), atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_finite_differences(self, order):
        """Each derivative agrees with central differences of one order lower."""
        t = np.linspace(-10.0, 10.0, 401)
        h = 1e-5
        fd = (_transfer(t + h, order - 1) - _transfer(t - h, order - 1)) / (2 * h)
        np.testing.assert_allclose(_transfer(t, order), fd, rtol=1e-6, atol=1e-9)

    def test_bounded_and_stable_at_extremes(self):
        """No overflow for huge |t|; all orders stay bounded."""
        t = np.array([-1e4, -500.0, -36.0, 36.0, 500.0, 1e4])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for order in range(3):
                vals = _transfer(t, order)
                assert np.all(np.isfinite(vals))
                assert np.all(np.abs(vals) <= 1.0)
            assert _sigmoid(1e4) == 1.0
            assert _sigmoid(-1e4) == 0.0

    def test_sigmoid_matches_sign_split_bits(self):
        """The exp(-|t|) form returns the sign-split form's bits, at -0.0,
        subnormals, overflow and infinities as well."""
        edges = [0.0, 5e-324, 1e-300, 1.0, 36.0, 709.0, 800.0, np.inf]
        rng = np.random.default_rng(0)
        t = np.array(edges + [-e for e in edges] + list(rng.normal(scale=30.0, size=998)))
        pos = t >= 0
        ref = np.empty_like(t)
        ref[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        et = np.exp(t[~pos])
        ref[~pos] = et / (1.0 + et)
        assert _sigmoid(t).tobytes() == ref.tobytes()
        assert _sigmoid(t.reshape(-1, 3)).tobytes() == ref.tobytes()
        assert np.signbit(t[len(edges)])  # -0.0 is on the grid


class TestMlpParams:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        theta = MlpParams(
            float(rng.standard_normal()),
            [HiddenUnit(float(rng.standard_normal()), rng.standard_normal(4)) for _ in range(3)],
        )
        vec = theta.flatten()
        assert vec.shape == (3 * (3 + 2) + 1,)
        back = MlpParams.unflatten(vec, 3, 3)
        np.testing.assert_array_equal(back.flatten(), vec)

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpParams(0.0, [])
        with pytest.raises(ValueError):
            MlpParams(0.0, [HiddenUnit(1.0, np.zeros(2)), HiddenUnit(1.0, np.zeros(3))])

    def test_json_round_trip(self):
        theta = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        assert MlpParams.from_dict(theta.to_dict()).to_dict() == theta.to_dict()


class TestForward:
    def test_zero_amplitude(self):
        theta = MlpParams(1.0, [HiddenUnit(0.0, np.array([3.0, -2.0]))])
        assert mlp_forward_batch(theta, np.array([[0.7]]))[0] == 1.0

    def test_zero_weights(self):
        theta = MlpParams(0.0, [HiddenUnit(2.0, np.zeros(3))])
        assert mlp_forward_batch(theta, np.array([[1.5, -4.0]]))[0] == 1.0  # 2 * phi(0)

    def test_scalar_evaluation(self):
        """0.5 + phi(0.5) against an independent high-precision sigmoid."""
        theta = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        expected = float(0.5 + 1 / (1 + mpmath.exp(mpmath.mpf("-0.5"))))
        np.testing.assert_allclose(mlp_forward_batch(theta, np.zeros((1, 1)))[0], expected, rtol=1e-12)
        np.testing.assert_allclose(expected, 1.1224593, atol=5e-8)

    def test_unit_permutation_invariance(self):
        rng = np.random.default_rng(3)
        units = [HiddenUnit(float(rng.standard_normal()), rng.standard_normal(3)) for _ in range(4)]
        theta = MlpParams(0.3, units)
        shuffled = MlpParams(0.3, [units[i] for i in (2, 0, 3, 1)])
        X = rng.standard_normal((20, 2))
        np.testing.assert_allclose(
            mlp_forward_batch(theta, X), mlp_forward_batch(shuffled, X), rtol=1e-14
        )

    def test_dimension_mismatch(self):
        theta = MlpParams(0.0, [HiddenUnit(1.0, np.zeros(3))])
        with pytest.raises(ValueError):
            mlp_forward_batch(theta, np.array([[1.0]]))
        with pytest.raises(ValueError):
            mlp_forward_batch(theta, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            mlp_forward_batch(theta, np.zeros(2))  # a single point needs shape (1, d)


class TestConstraints:
    def test_boundary_weight_norm(self, desk_box):
        theta = MlpParams(0.0, [HiddenUnit(1.0, np.array([desk_box.eta, 0.0]))])
        assert _feasible(theta, desk_box)
        theta.units[0].w[0] = np.nextafter(desk_box.eta, 0.0)
        assert not _feasible(theta, desk_box)

    def test_amplitude_violation(self, desk_box):
        theta = MlpParams(0.0, [HiddenUnit(desk_box.eta / 2, np.array([1.0, 0.0]))])
        assert not _feasible(theta, desk_box)

    def test_desk_truth_is_interior(self, desk_spec, desk_box):
        """A small ball around the truth lies in the feasible set."""
        vec = desk_spec.theta0.flatten()
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.standard_normal(vec.size)
            assert _in_box(vec + 1e-3 * u / np.linalg.norm(u), 1, 1, desk_box)

    def test_absolute_amplitude_mode(self):
        """The free-sign mode is gone: a box asks for positive amplitudes
        with True or not at all, and from JSON the string "false" no
        longer reads as True."""
        for flag in (False, "false", "true", 1):
            with pytest.raises(ValueError, match="positive_amplitudes must be true"):
                ConstraintBox(0.1, 50.0, positive_amplitudes=flag)
            with pytest.raises(ValueError, match="positive_amplitudes must be true"):
                ConstraintBox.from_dict({"eta": 0.1, "M": 50.0, "positive_amplitudes": flag})
        theta = MlpParams(0.0, [HiddenUnit(-0.5, np.array([1.0, 0.0]))])
        assert not _feasible(theta, ConstraintBox.from_dict({"eta": 0.1, "M": 50.0, "positive_amplitudes": True}))

    @pytest.mark.parametrize("a", [-1.0, 0.0, np.nan])
    def test_spec_amplitudes_must_be_positive(self, desk_spec, a):
        theta0 = MlpParams(0.5, [HiddenUnit(a, np.array([0.5, 1.0]))])
        with pytest.raises(ValueError, match="true amplitudes must be positive") as exc:
            RegressionSpec(theta0, 1.0, 1)
        if a < 0:
            # the positive form the message names, (beta + a, |a|, -w), has
            # the same regression function
            canonical = MlpParams.from_dict(json.loads(str(exc.value).split("positive form is ", 1)[1]))
            assert canonical.to_dict() == {"beta": -0.5, "units": [{"a": 1.0, "w": [-0.5, -1.0]}]}
            X = np.linspace(-30.0, 30.0, 6001)[:, None]
            np.testing.assert_allclose(mlp_forward_batch(canonical, X), mlp_forward_batch(theta0, X), rtol=0, atol=1e-15)
            assert RegressionSpec(canonical, 1.0, 1).k0 == 1
        else:
            assert "positive form" not in str(exc.value)


class TestProjection:
    def test_feasible_point_unchanged(self, desk_spec, desk_box):
        vec = desk_spec.theta0.flatten()
        assert project_vector(vec[None], 1, 1, desk_box).tobytes() == vec.tobytes()

    def test_zero_weight_direction_rule(self, desk_box):
        theta = MlpParams(0.0, [HiddenUnit(1.0, np.zeros(2))])
        out = _project(theta, desk_box)
        np.testing.assert_allclose(out.units[0].w, [desk_box.eta, 0.0])
        assert _feasible(out, desk_box)

    def test_norm_rescaling(self, desk_box):
        # ||theta|| = 2M with inner slacks comfortably positive
        w = np.array([40.0, 40.0])
        theta = MlpParams(40.0, [HiddenUnit(40.0, w), HiddenUnit(40.0, w.copy())])
        assert np.linalg.norm(theta.flatten()) > desk_box.M
        out = _project(theta, desk_box)
        assert _feasible(out, desk_box)
        assert np.linalg.norm(out.flatten()) <= desk_box.M

    def test_projection_always_feasible(self, desk_box):
        """Seeded random infeasible points all project into the box."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            units = [
                HiddenUnit(float(rng.normal(scale=5)), rng.normal(scale=5, size=d + 1) * rng.uniform(0, 1))
                for _ in range(k)
            ]
            theta = MlpParams(float(rng.normal(scale=30)), units)
            out = _project(theta, desk_box)
            assert _feasible(out, desk_box)

    def test_inconsistent_box_reports_failure(self):
        # M barely above eta cannot host two units pushed out to eta
        box = ConstraintBox(1.0, 1.1, positive_amplitudes=True)
        theta = MlpParams(0.0, [HiddenUnit(0.0, np.zeros(2)), HiddenUnit(0.0, np.zeros(2))])
        assert np.isnan(_project(theta, box).flatten()).all()


# Frozen copy of the projection as it was before its norms and bound checks
# were streamlined; project_vector must return the same bits.
def _frozen_apply_lower_bounds(vec, k, d, box):
    np.clip(vec[1 : 1 + k], box.eta, None, out=vec[1 : 1 + k])
    W = vec[1 + k :].reshape(k, d + 1)
    norms = np.linalg.norm(W, axis=1)
    for i in range(k):
        if norms[i] < box.eta:
            if norms[i] == 0.0:
                W[i] = 0.0
                W[i, 0] = box.eta
            else:
                W[i] *= box.eta / norms[i] * (1.0 + 4e-15)


def _frozen_feasible(vec, k, d, box):
    if not np.all(vec[1 : 1 + k] >= box.eta):
        return False
    W = vec[1 + k :].reshape(k, d + 1)
    if np.any(np.linalg.norm(W, axis=1) < box.eta):
        return False
    return bool(np.linalg.norm(vec) <= box.M)


def _frozen_project(vec, k, d, box):
    if _frozen_feasible(vec, k, d, box):
        return vec
    out = vec.copy()
    _frozen_apply_lower_bounds(out, k, d, box)
    nrm = np.linalg.norm(out)
    if nrm > box.M:
        out *= box.M / nrm
        _frozen_apply_lower_bounds(out, k, d, box)
    if _frozen_feasible(out, k, d, box):
        return out
    slack2 = box.M**2 - 2 * k * box.eta**2
    if slack2 > 0:
        out = vec.copy()
        _frozen_apply_lower_bounds(out, k, d, box)
        out *= np.sqrt(slack2) / np.linalg.norm(out)
        _frozen_apply_lower_bounds(out, k, d, box)
        if _frozen_feasible(out, k, d, box):
            return out
    raise ProjectionError("projection failed")


_BRANCHES = ("feasible", "ball", "amplitude", "short_w", "zero_w", "slack2")


def _branch_case(branch, k, d, box, rng, positive=True):
    """A flattened vector that takes the named path through the projection;
    unless positive, each amplitude takes a random sign."""
    signs = np.ones(k) if positive else rng.choice([-1.0, 1.0], size=k)
    amps = signs * rng.uniform(0.5, 3.0, size=k)
    W = rng.standard_normal((k, d + 1))
    W *= rng.uniform(0.5, 3.0, size=(k, 1)) / np.linalg.norm(W, axis=1, keepdims=True)
    i = int(rng.integers(k))
    if branch == "amplitude":
        amps[i] = rng.uniform(-1.0, 1.0) * box.eta
        amps[(i + 1) % k] = 0.0 if k > 1 else amps[i]
    elif branch == "short_w":
        W[i] *= rng.uniform(0.05, 0.95) * box.eta / np.linalg.norm(W[i])
    elif branch == "zero_w":
        W[i] = 0.0
    vec = np.concatenate([[rng.normal()], amps, W.ravel()])
    if branch in ("ball", "slack2"):
        vec *= rng.uniform(1.5, 3.0) * box.M / np.linalg.norm(vec)
    if branch == "slack2":
        # amplitudes just under eta: shrinking to the ball drops them
        # further, and pushing them back out overshoots M
        vec[1 : 1 + k] = signs * box.eta * rng.uniform(0.9, 0.99, size=k)
    return vec


class TestProjectionMatchesFrozenCopy:
    """A one-row stack, the form the fit projects its start in, gets the
    frozen copy's bits on every branch, also where the input's amplitudes
    take either sign (positive=False), as the optimizer's trial steps can
    make them."""

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("branch", _BRANCHES)
    def test_same_bits_on_every_branch(self, branch, d, positive):
        box = ConstraintBox(0.1, 10.0)
        rng = np.random.default_rng([d, int(positive), _BRANCHES.index(branch)])
        for trial in range(40):
            k = 1 + trial % 3
            stack = _branch_case(branch, k, d, box, rng, positive)[None]
            before = stack.copy()
            ref = _frozen_project(stack[0].copy(), k, d, box)
            out = project_vector(stack, k, d, box)
            assert out.shape == stack.shape and out.tobytes() == ref.tobytes()
            assert stack.tobytes() == before.tobytes()  # the input is never written
            assert _in_box(out[0], k, d, box)
            if branch == "slack2":
                # the fallback aims at sqrt(M^2 - 2k eta^2), well inside the ball
                assert np.linalg.norm(out[0]) < box.M * (1 - 1e-6)

    def test_infeasible_box_raises_like_the_frozen_copy(self, desk_spec):
        """Where the frozen copy raises, the fit raises ProjectionError."""
        box = ConstraintBox(1.0, 1.1, positive_amplitudes=True)
        with pytest.raises(ProjectionError):
            _frozen_project(np.zeros(7), 2, 1, box)
        data = generate_dataset(desk_spec, 20, seed=1)
        with pytest.raises(ProjectionError, match="mutually inconsistent for k=2, d=1"):
            fit_mle(data, 2, box, FitConfig(n_starts=1))


class TestStackedProjection:
    """An (R, p) stack is projected row by row with the frozen copy's bits,
    and a row that cannot be projected is marked NaN instead of failing
    the call, since the line search may never read it. Unless positive,
    the input amplitudes take either sign."""

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("branch", _BRANCHES)
    def test_stack_matches_row_by_row(self, branch, d, positive):
        box = ConstraintBox(0.1, 10.0)
        rng = np.random.default_rng([d, int(positive), _BRANCHES.index(branch)])
        for k in (1, 2, 3):
            stack = np.array([_branch_case(branch, k, d, box, rng, positive) for _ in range(13)])
            before = stack.copy()
            out = project_vector(stack, k, d, box)
            assert stack.tobytes() == before.tobytes()
            assert out is not stack and out.shape == stack.shape
            for row, vec in zip(out, stack):
                assert row.tobytes() == _frozen_project(vec.copy(), k, d, box).tobytes()

    def test_stack_rows_that_fail_do_not_raise(self, desk_box):
        rng = np.random.default_rng(3)
        good = [_branch_case(b, 2, 1, desk_box, rng) for b in _BRANCHES]
        stack = np.array(good[:3] + [np.full(7, np.nan)] + good[3:])
        out = project_vector(stack, 2, 1, desk_box)
        assert np.isnan(out[3]).all()
        for row, vec in zip(np.delete(out, 3, axis=0), good):
            assert row.tobytes() == _frozen_project(vec.copy(), 2, 1, desk_box).tobytes()

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_of_one_stack_take_different_candidates(self, d, k, positive):
        """Every branch several times in shuffled order, plus a NaN row, in
        one call: rows kept, pushed out, rescaled to M and rescaled to the
        fallback target sit side by side and keep the frozen copy's bits."""
        box = ConstraintBox(0.1, 10.0)
        rng = np.random.default_rng([d, k, int(positive), 5])
        rows = [_branch_case(b, k, d, box, rng, positive) for b in _BRANCHES for _ in range(4)]
        stack = np.array(rows + [np.full(k * (d + 2) + 1, np.nan)])[rng.permutation(len(rows) + 1)]
        out = project_vector(stack, k, d, box)
        nan = np.isnan(stack).all(axis=1)
        assert nan.sum() == 1 and np.isnan(out[nan]).all()
        for row, vec in zip(out[~nan], stack[~nan]):
            assert row.tobytes() == _frozen_project(vec.copy(), k, d, box).tobytes()
        # rows outside the ball took the fallback target within the call,
        # and the M target too unless clamping a negative amplitude pushed
        # every M candidate back out
        radii = np.linalg.norm(out[np.linalg.norm(stack, axis=1) > box.M], axis=1)
        assert np.any(radii < box.M * (1 - 1e-6))
        if positive:
            assert np.any(np.isclose(radii, box.M, rtol=1e-12))

    def test_infeasible_box_marks_every_row(self):
        box = ConstraintBox(1.0, 1.1, positive_amplitudes=True)
        vec = np.zeros(7)
        assert np.isnan(project_vector(np.stack([vec, vec + 1.0]), 2, 1, box)).all()


class TestDataset:
    def test_noiseless_limit(self):
        theta0 = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=0.0, input_dim=1)
        data = generate_dataset(spec, 50, seed=4)
        np.testing.assert_array_equal(data.y, mlp_forward_batch(theta0, data.x))

    def test_determinism(self, desk_spec):
        a = generate_dataset(desk_spec, 100, seed=42)
        b = generate_dataset(desk_spec, 100, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = generate_dataset(desk_spec, 100, seed=43)
        assert not np.array_equal(a.y, c.y)

    def test_residual_moments(self, desk_spec):
        """Law of large numbers on the noise draws."""
        n = 100_000
        data = generate_dataset(desk_spec, n, seed=9)
        resid = data.y - mlp_forward_batch(desk_spec.theta0, data.x)
        sigma = np.sqrt(desk_spec.sigma2)
        assert abs(np.mean(resid)) <= 3 * sigma / np.sqrt(n)
        assert abs(np.var(resid) / desk_spec.sigma2 - 1.0) <= 0.05

    def test_noise_override(self, desk_spec):
        data = generate_dataset(desk_spec, 30, seed=5, noise_sigma2=0.0)
        np.testing.assert_array_equal(data.y, mlp_forward_batch(desk_spec.theta0, data.x))
        assert data.sigma2 == desk_spec.sigma2  # carried for likelihood evaluation

    def test_csv_round_trip(self, desk_spec, tmp_path):
        data = generate_dataset(desk_spec, 25, seed=1)
        path = tmp_path / "data.csv"
        data.to_csv(path, header_comment="config_hash=abc seed=1")
        back = Dataset.from_csv(path, sigma2=desk_spec.sigma2)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)
        header = path.read_text().splitlines()
        assert header[0].startswith("#")
        assert header[1] == "x1,y"

    def test_laplace_input_law(self):
        theta0 = MlpParams(0.0, [HiddenUnit(1.0, np.array([0.0, 1.0, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=1.0, input_dim=2, input_law="laplace")
        data = generate_dataset(spec, 50_000, seed=2)
        # unit variance by construction
        assert abs(np.var(data.x) - 1.0) < 0.05

    def test_spec_json_round_trip(self, desk_spec):
        assert RegressionSpec.from_dict(desk_spec.to_dict()).to_dict() == desk_spec.to_dict()

    def test_box_json_round_trip(self, desk_box):
        assert ConstraintBox.from_dict(desk_box.to_dict()).to_dict() == desk_box.to_dict()

    @pytest.mark.parametrize(
        "x, y", [([[np.nan]], [0.0]), ([[0.0]], [np.inf]), ([[-np.inf]], [1.0])], ids=["nan_x", "inf_y", "minus_inf_x"]
    )
    def test_rejects_non_finite_data(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array(x), np.array(y), 1.0)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_rejects_bad_variances(self, desk_spec, value):
        with pytest.raises(ValueError, match="sigma2 must be non-negative and finite"):
            RegressionSpec(desk_spec.theta0, sigma2=value, input_dim=1)
        with pytest.raises(ValueError, match="noise_sigma2 must be non-negative and finite"):
            generate_dataset(desk_spec, 10, seed=0, noise_sigma2=value)
        with pytest.raises(ValueError, match="sigma2 must be non-negative and finite"):
            Dataset(np.zeros((2, 1)), np.zeros(2), value)


class TestConfigReader:
    """from_config reads every JSON config: unknown keys are errors and
    absent keys take the dataclass default."""

    @pytest.mark.parametrize(
        "config",
        [
            FitConfig(n_starts=3, max_iters=7, grad_tol=1e-4, step_tol=1e-9, seed=5, init_scale=0.5,
                      warm_starts=[MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])]),
            PenaltySchedule("bic_like", input_dim=2),
            PenaltySchedule("zero"),
        ],
        ids=["fit", "bic_like", "zero"],
    )
    def test_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()).to_dict() == config.to_dict()

    @pytest.mark.parametrize(
        "cls, d",
        [
            (ConstraintBox, {"eta": 0.1, "M": 50.0, "positive_amplitude": False}),
            (PenaltySchedule, {"kind": "bic_like", "input_dims": 1}),
            (MlpParams, {"beta": 0.0, "units": [{"a": 1.0, "w": [0.5, 1.0], "b": 0.0}]}),
        ],
        ids=["box", "schedule", "unit"],
    )
    def test_unknown_key_is_rejected(self, cls, d):
        with pytest.raises(ValueError, match="unknown .* keys"):
            cls.from_dict(d)

    def test_absent_key_takes_the_default(self):
        assert ConstraintBox.from_dict({"eta": 0.1, "M": 50}).positive_amplitudes is True
