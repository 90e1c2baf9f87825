import math

import numpy as np
import pytest

import mlplr.estimation
from mlplr import (
    ConstraintBox,
    FitConfig,
    HiddenUnit,
    MlpParams,
    RegressionSpec,
    conditional_loglik,
    fit_mle,
    generate_dataset,
    mlp_forward_batch,
    profile_lr_curve,
)
from mlplr.estimation import _optimize_single, loglik_constant, negloss_and_grad
from mlplr.model import _sigmoid, augment, project_vector


class TestObjectiveGradient:
    def test_matches_finite_differences(self, desk_spec):
        data = generate_dataset(desk_spec, 40, seed=0)
        Xa = augment(data.x)
        rng = np.random.default_rng(1)
        for k in (1, 2):
            vec = rng.standard_normal(k * 3 + 1)
            _, grad = negloss_and_grad(vec, Xa, data.y, data.sigma2, k, 1)
            h = 1e-6
            for i in range(len(vec)):
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    negloss_and_grad(up, Xa, data.y, data.sigma2, k, 1)[0]
                    - negloss_and_grad(dn, Xa, data.y, data.sigma2, k, 1)[0]
                ) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(grad[i]))


class TestFitConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_starts", 0),
            ("max_iters", -3),
            ("grad_tol", 0.0),
            ("grad_tol", float("nan")),
            ("grad_tol", float("inf")),
            ("step_tol", -1e-12),
            ("step_tol", float("nan")),
            ("init_scale", float("nan")),
            ("init_scale", float("inf")),
        ],
    )
    def test_rejects(self, field, value):
        with pytest.raises(ValueError):
            FitConfig(**{field: value})
        with pytest.raises(ValueError):
            FitConfig.from_dict({field: value})

    def test_accepts_zero_iterations(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 30, seed=1)
        fit = fit_mle(data, 1, desk_box, FitConfig(n_starts=2, max_iters=0))
        assert fit.per_start_iters == [0, 0]


class TestFitMle:
    def test_noiseless_warm_start_recovers_truth(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 100, seed=2, noise_sigma2=0.0)
        cfg = FitConfig(n_starts=1, seed=0, warm_starts=[desk_spec.theta0])
        fit = fit_mle(data, 1, desk_box, cfg)
        target = loglik_constant(data.n, 1.0)
        assert abs(fit.loglik - target) <= 1e-8
        rms = np.sqrt(
            np.mean(
                (mlp_forward_batch(fit.theta_hat, data.x) - mlp_forward_batch(desk_spec.theta0, data.x)) ** 2
            )
        )
        assert rms <= 1e-5

    def test_nesting_in_k(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 150, seed=5)
        cfg = FitConfig(n_starts=6, seed=3)
        prof = profile_lr_curve(data, 2, desk_box, cfg)
        assert prof[1].sup_loglik >= prof[0].sup_loglik - 1e-8

    def test_determinism(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 80, seed=7)
        cfg = FitConfig(n_starts=4, seed=11)
        a = fit_mle(data, 2, desk_box, cfg)
        b = fit_mle(data, 2, desk_box, cfg)
        np.testing.assert_array_equal(a.theta_hat.flatten(), b.theta_hat.flatten())
        assert a.loglik == b.loglik
        assert a.per_start_logliks == b.per_start_logliks

    def test_estimate_is_feasible(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 80, seed=7)
        fit = fit_mle(data, 2, desk_box, FitConfig(n_starts=4, seed=1))
        theta = fit.theta_hat
        assert all(u.a >= desk_box.eta for u in theta.units)
        assert all(np.linalg.norm(u.w) >= desk_box.eta for u in theta.units)
        assert np.linalg.norm(theta.flatten()) <= desk_box.M

    def test_loglik_field_matches_conditional_loglik(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 80, seed=7)
        fit = fit_mle(data, 1, desk_box, FitConfig(n_starts=2, seed=1))
        assert fit.loglik == conditional_loglik(fit.theta_hat, data)

    def test_monotone_objective_trace(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 120, seed=9)
        fit = fit_mle(data, 2, desk_box, FitConfig(n_starts=3, seed=2), keep_trace=True)
        trace = np.array(fit.trace)
        assert np.all(np.diff(trace) >= 0)  # accepted iterations never decrease

    def test_projected_gradient_stationarity(self, desk_spec, desk_box):
        from mlplr.model import project_vector

        data = generate_dataset(desk_spec, 200, seed=9)
        cfg = FitConfig(n_starts=2, seed=2, grad_tol=1e-6, warm_starts=[desk_spec.theta0])
        fit = fit_mle(data, 1, desk_box, cfg)
        assert fit.converged
        vec = fit.theta_hat.flatten()
        _, grad = negloss_and_grad(vec, augment(data.x), data.y, data.sigma2, 1, 1)
        pg = vec - project_vector(vec - grad, 1, 1, desk_box)
        assert np.max(np.abs(pg)) <= cfg.grad_tol

    def test_reports_start_bookkeeping(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 60, seed=3)
        cfg = FitConfig(n_starts=3, seed=1, warm_starts=[desk_spec.theta0])
        fit = fit_mle(data, 1, desk_box, cfg)
        assert fit.n_starts_used == 4
        assert len(fit.per_start_logliks) == 4
        assert max(fit.per_start_logliks) <= fit.loglik + 1e-9

    def test_regression_function_recovery(self, desk_spec, desk_box):
        """Consistency of the regular fit at desk scale.

        A single replicate's recovery error fluctuates like the square
        root of a chi-square over n, so the loose 0.1 bound holds for the
        replicate average (expected value is about 0.084 at n=500).
        """
        from scipy.stats import norm

        grid = norm.ppf((np.arange(61) + 0.5) / 61)[:, None]
        truth = mlp_forward_batch(desk_spec.theta0, grid)
        rms = []
        for seed in range(8):
            data = generate_dataset(desk_spec, 500, seed=300 + seed)
            fit = fit_mle(data, 1, desk_box, FitConfig(n_starts=20, seed=4))
            rms.append(np.sqrt(np.mean((mlp_forward_batch(fit.theta_hat, grid) - truth) ** 2)))
        assert np.mean(rms) <= 0.1


class TestFitBitIdentity:
    """An over-sized fit that stops on the norm bound is chaotic: a change
    of one ulp anywhere in the objective, the projection or the line
    search moves its supremum far. These values are the fit's outputs as
    float.hex, recorded before the line search stopped evaluating
    non-descent trial points and the projection and sigmoid were
    streamlined; every change since kept them bit for bit. They were
    recorded with NumPy 2.4 and its bundled OpenBLAS on x86-64; another
    BLAS build may round the matrix products differently.
    """

    EXPECTED = {
        3: (
            "-0x1.166fe14f3e0c8p+8",
            ["-0x1.18702e13933b4p+8", "-0x1.170b2e3d304edp+8", "-0x1.166fe14f3e0c9p+8"],
            [30, 177, 300],
            ["-0x1.3cbe89aa36a9ap+4", "0x1.27e4510113d94p+4", "0x1.b23978872c0ffp+0",
             "0x1.544b1ef7273bbp+4", "-0x1.3dc33e5ff9695p+1", "-0x1.cef0f8cef5b22p+1",
             "-0x1.afd10da51023bp+4", "-0x1.7613a6dd10d39p+4", "0x1.2cd2a9a889cb7p+1",
             "0x1.974879b8f5893p+1"],
            1234,
        ),
        5: (
            "-0x1.0dcd10d4a2a7bp+8",
            ["-0x1.11676b1fad594p+8", "-0x1.0dcd10d4a2a7bp+8", "-0x1.12f7c56bf3be3p+8"],
            [181, 206, 300],
            ["-0x1.186fb94127d6cp+3", "0x1.24401918a32b2p-1", "0x1.32e47c1e090b5p+3",
             "0x1.4249cb30fcd0cp+3", "-0x1.6770f3e20dbf4p+2", "0x1.600a30958c8d8p+5",
             "0x1.553497c624968p+3", "0x1.e130bf6b69f38p+2", "-0x1.fd31c12705e04p+2",
             "-0x1.5268d115110b2p+2"],
            1425,
        ),
    }
    GRADIENTS = {3: 510, 5: 690}

    @pytest.mark.parametrize("seed", [3, 5])
    def test_over_sized_fit_matches_recorded_bits(self, desk_spec, desk_box, monkeypatch, seed):
        losses, grads = [], []
        loss, grad = mlplr.estimation.negloss, mlplr.estimation.negloss_grad

        def counted_loss(*args):
            losses.append(args)
            return loss(*args)

        def counted_grad(*args):
            grads.append(args)
            return grad(*args)

        monkeypatch.setattr(mlplr.estimation, "negloss", counted_loss)
        monkeypatch.setattr(mlplr.estimation, "negloss_grad", counted_grad)
        data = generate_dataset(desk_spec, 200, seed=seed)
        fit = fit_mle(data, 3, desk_box, FitConfig(n_starts=3, seed=0, max_iters=300, grad_tol=1e-5))
        loglik, per_start, iters, theta, evals = self.EXPECTED[seed]
        assert fit.loglik.hex() == loglik
        assert [v.hex() for v in fit.per_start_logliks] == per_start
        assert fit.per_start_iters == iters
        assert [v.hex() for v in fit.theta_hat.flatten()] == theta
        # one evaluation per start plus those at descent trial points (3760
        # and 3223 when every trial point was evaluated)
        assert len(losses) == evals
        # one gradient per start plus one per accepted step
        assert len(grads) == self.GRADIENTS[seed] == 3 + sum(iters)


class TestProfileCurve:
    def test_single_width_equals_fit(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 80, seed=13)
        cfg = FitConfig(n_starts=3, seed=5)
        prof = profile_lr_curve(data, 1, desk_box, cfg)
        fit = fit_mle(data, 1, desk_box, cfg)
        assert len(prof) == 1
        assert prof[0].sup_loglik == fit.loglik
        np.testing.assert_array_equal(prof[0].fit.theta_hat.flatten(), fit.theta_hat.flatten())

    def test_noiseless_suprema_coincide(self, desk_spec, desk_box):
        """With exact interpolation available at every k >= k0 all three
        suprema sit at the zero-residual maximum."""
        data = generate_dataset(desk_spec, 100, seed=17, noise_sigma2=0.0)
        cfg = FitConfig(n_starts=4, seed=6, warm_starts=[desk_spec.theta0])
        prof = profile_lr_curve(data, 3, desk_box, cfg)
        target = loglik_constant(data.n, 1.0)
        for entry in prof:
            assert abs(entry.sup_loglik - target) <= 1e-6

    def test_suprema_non_decreasing(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 500, seed=19)
        prof = profile_lr_curve(data, 3, desk_box, FitConfig(n_starts=6, seed=7))
        sups = [e.sup_loglik for e in prof]
        assert sups[1] >= sups[0] - 1e-6
        assert sups[2] >= sups[1] - 1e-6

    def test_rejects_bad_k_max(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 30, seed=1)
        with pytest.raises(ValueError):
            profile_lr_curve(data, 0, desk_box, FitConfig(n_starts=1))


# Frozen copy of the optimizer, and of the objective it called, as they were
# before the fit took the gradient only at accepted points and projected
# each search's trial steps in one call. It projects one vector per call
# with project_vector, whose 1-D path TestProjectionMatchesFrozenCopy
# (test_model.py) holds to its own frozen copy; _optimize_single must
# return the same bits.
def _frozen_negloss_and_grad(vec, Xa, y, sigma2, k, d):
    beta = vec[0]
    a = vec[1 : 1 + k]
    W = vec[1 + k :].reshape(k, d + 1)
    P = _sigmoid(Xa @ W.T)
    r = y - (beta + P @ a)
    f = 0.5 * float(r @ r) / sigma2
    grad = np.empty_like(vec)
    grad[0] = -r.sum() / sigma2
    grad[1 : 1 + k] = -(P.T @ r) / sigma2
    DP = P * (1.0 - P)
    grad[1 + k :] = (-(a[:, None] * ((DP * r[:, None]).T @ Xa)) / sigma2).ravel()
    return f, grad


def _frozen_norm(v):
    return math.sqrt(v.dot(v))


def _frozen_optimize_single(vec0, Xa, y, sigma2, k, d, box, config):
    vec = project_vector(np.asarray(vec0, dtype=float), k, d, box)
    f, g = _frozen_negloss_and_grad(vec, Xa, y, sigma2, k, d)
    trace = [f]
    S, Y, rho = [], [], []
    for it in range(config.max_iters):
        pg = vec - project_vector(vec - g, k, d, box)
        if np.abs(pg).max() <= config.grad_tol:
            return vec, f, True, it, trace
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
                fc, gc = _frozen_negloss_and_grad(cand, Xa, y, sigma2, k, d)
                if fc <= f + 1e-4 * slope:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            step = 1.0
            direction = -g
            for _ in range(60):
                cand = project_vector(vec + step * direction, k, d, box)
                fc, gc = _frozen_negloss_and_grad(cand, Xa, y, sigma2, k, d)
                if fc < f:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                return vec, f, False, it, trace
        s_vec = cand - vec
        y_vec = gc - g
        sy = float(s_vec @ y_vec)
        s_norm = _frozen_norm(s_vec)
        if sy > 1e-10 * s_norm * _frozen_norm(y_vec):
            S.append(s_vec)
            Y.append(y_vec)
            rho.append(1.0 / sy)
            if len(S) > 10:
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


_TRUE_UNIT = {1: np.array([0.5, 1.0]), 2: np.array([0.5, 1.0, -0.5])}


class TestOptimizerMatchesFrozenCopy:
    # each config's exit, checked on the iteration count it returns
    CONFIGS = {
        "search": (FitConfig(n_starts=1, max_iters=100, grad_tol=1e-5), None),
        "stops_at_iteration_0": (FitConfig(n_starts=1, grad_tol=1e6), 0),
        "small_step": (FitConfig(n_starts=1, step_tol=1e3), 1),
        "max_iters": (FitConfig(n_starts=1, max_iters=4), 4),
    }

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_bits(self, k, d, positive, monkeypatch):
        stacks = []
        project = mlplr.estimation.project_vector

        def recorded(vec, *args):
            stacks.append(len(vec) if vec.ndim == 2 else 1)
            return project(vec, *args)

        monkeypatch.setattr(mlplr.estimation, "project_vector", recorded)
        box = ConstraintBox(0.1, 50.0, positive_amplitudes=positive)
        spec = RegressionSpec(MlpParams(0.5, [HiddenUnit(1.0, _TRUE_UNIT[d])]), 1.0, d)
        data = generate_dataset(spec, 100, seed=10 * k + d)
        Xa = augment(data.x)
        rng = np.random.default_rng([k, d, int(positive)])
        for _ in range(4):
            # wide random starts, often infeasible, run deep searches
            vec0 = rng.normal(scale=3.0, size=k * (d + 2) + 1)
            for config, iters in self.CONFIGS.values():
                args = (vec0, Xa, data.y, data.sigma2, k, d, box, config)
                vec, f, conv, it, trace = _optimize_single(*args)
                ref_vec, ref_f, ref_conv, ref_it, ref_trace = _frozen_optimize_single(*args)
                assert vec.tobytes() == ref_vec.tobytes()
                assert f.hex() == ref_f.hex()
                assert (conv, it) == (ref_conv, ref_it)
                assert [v.hex() for v in trace] == [v.hex() for v in ref_trace]
                if iters is not None:
                    assert it == iters
        assert 39 in stacks  # the first step failed: the other 39 in one call
        if k > 1:
            # every over-sized case reaches the steepest-descent fallback
            # (one unit can converge before a search fails)
            assert 60 in stacks

    def test_step_stacks_equal_repeated_halving(self):
        steps, step = [], 1.0
        for _ in range(60):
            steps.append(step)
            step *= 0.5
        assert mlplr.estimation._SD_STEPS.ravel().tolist() == steps
        assert mlplr.estimation._QN_STEPS.ravel().tolist() == steps[1:40]
