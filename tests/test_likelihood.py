import numpy as np
import pytest
from scipy.stats import chi2

from mlplr.limit_law import eval_score_basis_batch

from mlplr import (
    Dataset,
    HiddenUnit,
    MlpParams,
    Partition,
    RegressionSpec,
    ScoreBasis,
    base_reparameterization,
    conditional_loglik,
    density_ratio,
    fd_check_derivatives,
    generate_dataset,
    gradcheck,
    lr_statistic,
    mlp_forward_batch,
    taylor_terms,
)


class TestConditionalLoglik:
    def test_perfect_fit(self, desk_spec):
        data = generate_dataset(desk_spec, 4, seed=0, noise_sigma2=0.0)
        val = conditional_loglik(desk_spec.theta0, data)
        np.testing.assert_allclose(val, -2.0 * np.log(2 * np.pi))
        np.testing.assert_allclose(val, -3.6757541, atol=5e-8)

    def test_single_point_formula(self):
        theta = MlpParams(1.0, [HiddenUnit(0.0, np.array([1.0, 1.0]))])
        r, s2 = 0.7, 2.5
        data = Dataset(np.zeros((1, 1)), np.array([1.0 + r]), s2)
        expected = -0.5 * np.log(2 * np.pi * s2) - r**2 / (2 * s2)
        np.testing.assert_allclose(conditional_loglik(theta, data), expected)

    def test_analytic_distribution_interval(self, desk_spec):
        """At the truth the residual sum is a chi-square with n dof."""
        n = 500
        data = generate_dataset(desk_spec, n, seed=21)
        val = conditional_loglik(desk_spec.theta0, data)
        const = -0.5 * n * np.log(2 * np.pi)
        lo = const - chi2.ppf(0.995, n) / 2
        hi = const - chi2.ppf(0.005, n) / 2
        assert lo <= val <= hi

    def test_noiseless_data_is_maximized_at_truth(self, desk_spec):
        """Exact interpolation attains the zero-residual maximum."""
        n = 60
        data = generate_dataset(desk_spec, n, seed=3, noise_sigma2=0.0)
        val = conditional_loglik(desk_spec.theta0, data)
        np.testing.assert_allclose(val, -0.5 * n * np.log(2 * np.pi), rtol=1e-14)

    def test_rejects_zero_variance(self, desk_spec):
        data = Dataset(np.zeros((2, 1)), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            conditional_loglik(desk_spec.theta0, data)


class TestResidualScore:
    def test_zero_residual(self, desk_spec):
        x = np.array([[0.3]])
        y = mlp_forward_batch(desk_spec.theta0, x)
        assert (y - mlp_forward_batch(desk_spec.theta0, x)) / desk_spec.sigma2 == 0.0

    def test_unit_scaled_residual(self):
        theta0 = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=1.7, input_dim=1)
        x = np.array([[-0.4]])
        y = mlp_forward_batch(theta0, x) + spec.sigma2
        np.testing.assert_allclose((y - mlp_forward_batch(theta0, x)) / spec.sigma2, 1.0, rtol=1e-14)

    def test_moments(self, desk_spec):
        """e = eps / sigma2 has mean 0 and variance 1/sigma2."""
        n = 100_000
        data = generate_dataset(desk_spec, n, seed=13)
        e = (data.y - mlp_forward_batch(desk_spec.theta0, data.x)) / desk_spec.sigma2
        sigma = np.sqrt(desk_spec.sigma2)
        assert abs(np.mean(e)) <= 3 / (sigma * np.sqrt(n))
        assert abs(np.var(e) * desk_spec.sigma2 - 1.0) <= 0.05


class TestLrStatistic:
    def test_zero_at_truth(self, desk_spec):
        data = generate_dataset(desk_spec, 50, seed=1)
        ll = conditional_loglik(desk_spec.theta0, data)
        assert lr_statistic(ll, desk_spec, data) == 0.0

    def test_doubles_the_gap(self, desk_spec):
        data = generate_dataset(desk_spec, 50, seed=1)
        ll = conditional_loglik(desk_spec.theta0, data)
        np.testing.assert_allclose(lr_statistic(ll + 1.3, desk_spec, data), 2.6, rtol=1e-12)

    def test_constant_shift_cancels(self, desk_spec):
        """Adding the same theta-free constant to both log-likelihoods
        (the dropped input-density sum) leaves the statistic unchanged."""
        data = generate_dataset(desk_spec, 50, seed=1)
        ll = conditional_loglik(desk_spec.theta0, data)
        c = 123.456
        base = lr_statistic(ll + 0.9, desk_spec, data, true_loglik=ll)
        shifted = lr_statistic(ll + 0.9 + c, desk_spec, data, true_loglik=ll + c)
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_negative_beyond_tolerance_raises(self, desk_spec):
        data = generate_dataset(desk_spec, 50, seed=1)
        ll = conditional_loglik(desk_spec.theta0, data)
        with pytest.raises(ValueError):
            lr_statistic(ll - 1.0, desk_spec, data)
        # within tolerance is allowed and returned as is
        assert lr_statistic(ll - 1e-9, desk_spec, data) < 0


class TestReparameterization:
    def test_base_point_replicates_true_units(self, desk_spec):
        part = Partition((0, 3))
        base = base_reparameterization(part, desk_spec)
        # phi is [beta, w1[0], w1[1], w2[0], w2[1], w3[0], w3[1], s1]
        np.testing.assert_array_equal(base.phi[1:7].reshape(3, 2), np.tile(desk_spec.theta0.units[0].w, (3, 1)))
        assert base.phi[7] == 0.0
        np.testing.assert_allclose(base.psi.sum(), 1.0)

    def test_base_point_ratio_is_one(self, desk_spec):
        base = base_reparameterization(Partition((0, 2)), desk_spec, psi=np.array([0.3, 0.7]))
        assert density_ratio(base, desk_spec, np.array([[0.8]]), np.array([1.4])) == pytest.approx(1.0)

    def test_stacked_points_match_one_at_a_time(self, desk_spec):
        """An (R, P) stack of points gives the rows of R single evaluations."""
        base = base_reparameterization(Partition((0, 2)), desk_spec, psi=np.array([0.3, 0.7]))
        rng = np.random.default_rng(4)
        deltas = 0.1 * rng.standard_normal((3, len(base.phi)))
        X, y = rng.standard_normal((5, 1)), rng.standard_normal(5)
        stacked = density_ratio(base.displaced(deltas), desk_spec, X, y)
        assert stacked.shape == (3, 5)
        for row, delta in zip(stacked, deltas):
            np.testing.assert_allclose(row, density_ratio(base.displaced(delta), desk_spec, X, y), rtol=1e-14)


class TestTaylorTerms:
    def test_zero_displacement(self, desk_spec):
        base = base_reparameterization(Partition((0, 2)), desk_spec)
        terms = taylor_terms(base, desk_spec, np.array([[0.5]]), np.array([2.0]))
        assert terms.first_order == 0.0
        assert terms.second_order == 0.0

    def test_beta_displacement(self, desk_spec):
        """Pure beta shift: first = e h, second = (e^2 - 1) h^2 at unit
        noise variance."""
        base = base_reparameterization(Partition((0, 2)), desk_spec)
        h = 0.37
        delta = np.zeros_like(base.phi)
        delta[0] = h
        x, y = np.array([[0.5]]), np.array([2.0])
        e = (y - mlp_forward_batch(desk_spec.theta0, x)) / desk_spec.sigma2
        terms = taylor_terms(base.displaced(delta), desk_spec, x, y)
        np.testing.assert_allclose(terms.first_order, e * h, rtol=1e-12)
        np.testing.assert_allclose(terms.second_order, (e * e - 1.0) * h * h, rtol=1e-12)

    def test_first_order_linear_in_displacement(self, desk_spec):
        base = base_reparameterization(Partition((0, 2)), desk_spec)
        rng = np.random.default_rng(8)
        delta = rng.standard_normal(len(base.phi)) * 1e-2
        x, y = np.array([[-0.3]]), np.array([0.9])
        t1 = taylor_terms(base.displaced(delta), desk_spec, x, y)
        t2 = taylor_terms(base.displaced(2 * delta), desk_spec, x, y)
        np.testing.assert_allclose(t2.first_order, 2 * t1.first_order, rtol=1e-12)
        np.testing.assert_allclose(t2.second_order, 4 * t1.second_order, rtol=1e-12)

    def test_expansion_matches_direct_ratio(self, desk_spec):
        """1 + first + second/2 tracks f_theta/f with a cubic-order error:
        halving the displacement shrinks the gap roughly eightfold."""
        base = base_reparameterization(Partition((0, 2)), desk_spec, psi=np.array([0.35, 0.65]))
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(len(base.phi))
        direction /= np.linalg.norm(direction)
        x = rng.standard_normal((1, 1))
        y = mlp_forward_batch(desk_spec.theta0, x) + rng.standard_normal()
        rems = []
        for h in (1e-2, 5e-3, 2.5e-3):
            rep = base.displaced(h * direction)
            terms = taylor_terms(rep, desk_spec, x, y)
            approx = 1.0 + terms.first_order + 0.5 * terms.second_order
            rems.append(abs(density_ratio(rep, desk_spec, x, y) - approx))
        assert rems[0] / rems[1] == pytest.approx(8.0, rel=0.45)
        assert rems[1] / rems[2] == pytest.approx(8.0, rel=0.45)


class TestFdCheck:
    def test_beta_and_s_first_derivatives(self, desk_spec):
        rep = base_reparameterization(Partition((0, 2)), desk_spec, psi=np.array([0.4, 0.6]))
        x, y = np.array([0.7]), 1.9
        report = fd_check_derivatives(rep, desk_spec, x, y)
        # phi is [beta, w1[0], w1[1], w2[0], w2[1], s1]
        assert report.first_errors.shape == (6,)
        assert report.first_errors[0] <= 1e-6  # beta
        assert report.first_errors[-1] <= 1e-6  # s1

    def test_mixed_second_derivative(self, desk_spec):
        rep = base_reparameterization(Partition((0, 2)), desk_spec, psi=np.array([0.4, 0.6]))
        x, y = np.array([0.7]), 1.9
        report = fd_check_derivatives(rep, desk_spec, x, y)
        # phi is [beta, w1[0], w1[1], w2[0], w2[1], s1]
        assert report.second_errors.shape == (6, 6)
        for w in range(1, 5):
            assert report.second_errors[0, w] <= 1e-5

    def test_catalog_over_random_draws(self, desk_spec):
        """Light version of the acceptance sweep (20 draws), on the desk
        spec and on a d = 2, k0 = 2 Laplace spec, where the phi'' block has
        off-diagonal pairs and a partition has two groups. Its second unit
        is the positive form (beta - 0.8, 0.8, -w) of a unit a = -0.8."""
        theta0 = MlpParams(-0.5, [HiddenUnit(1.2, np.array([0.2, 1.0, -0.5])),
                                  HiddenUnit(0.8, np.array([0.4, -0.3, -0.9]))])
        d2_spec = RegressionSpec(theta0, sigma2=0.8, input_dim=2, input_law="laplace")
        for spec in (desk_spec, d2_spec):
            report = gradcheck(spec, k=spec.k0 + 1, n_draws=20, seed=0)
            assert report["max_rel_error_first"] <= 1e-5
            assert report["max_rel_error_second"] <= 1e-4

    def test_catalog_is_read_off_the_score_basis(self, desk_spec, monkeypatch):
        """Halving one phi'' column of the limit score basis must show up
        in the catalog check: the analytic derivatives are the basis the
        limit law simulates, not a copy of it."""
        import mlplr.likelihood

        def halved(spec, X, basis=None):
            B = eval_score_basis_batch(spec, X, basis)
            B[:, ScoreBasis(spec.k0, spec.input_dim).ddphi_index(0, 0, 1)] *= 0.5
            return B

        monkeypatch.setattr(mlplr.likelihood, "eval_score_basis_batch", halved)
        report = gradcheck(desk_spec, k=2, n_draws=100, seed=7)
        assert report["max_rel_error_first"] <= 1e-5
        assert report["max_rel_error_second"] > 1e-4

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_gradcheck_needs_a_draw(self, desk_spec, n_draws):
        """No draw checks nothing; it used to report an error of 0.0."""
        with pytest.raises(ValueError, match="n_draws"):
            gradcheck(desk_spec, k=2, n_draws=n_draws)

    def test_non_unit_variance_catalog(self):
        """The squared-score coefficient generalizes to e^2 - 1/sigma2."""
        theta0 = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=1.7, input_dim=1)
        rep = base_reparameterization(Partition((0, 2)), spec, psi=np.array([0.3, 0.7]))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1)
        y = float(mlp_forward_batch(theta0, x[None, :])[0] + np.sqrt(1.7) * rng.standard_normal())
        report = fd_check_derivatives(rep, spec, x, y)
        assert report.max_first <= 1e-5
        assert report.max_second <= 1e-4
