import numpy as np
import pytest

from mlplr import (
    FitConfig,
    PenaltySchedule,
    generate_dataset,
    penalty_value,
    select_architecture,
    select_width,
)


class TestPenaltyValue:
    def test_bic_like_at_e_squared(self):
        """dim = 4 at d=1, k=1; log n = 2 at n = e^2 (nearest integer
        hits the analytic value to rounding)."""
        sched = PenaltySchedule("bic_like", input_dim=1)
        n = np.exp(2.0)
        # penalty_value takes integer n; evaluate the formula directly at e^2
        dim = 1 * (1 + 2) + 1
        assert dim / 2 * np.log(n) == pytest.approx(4.0)
        assert penalty_value(sched, 7, 1) == pytest.approx(2.0 * np.log(7))

    def test_bic_like_value(self):
        sched = PenaltySchedule("bic_like", input_dim=1)
        np.testing.assert_allclose(penalty_value(sched, 100, 2), 3.5 * np.log(100))
        np.testing.assert_allclose(penalty_value(sched, 100, 2), 16.1181, atol=5e-5)

    def test_monotone_in_k(self):
        sched = PenaltySchedule("bic_like", input_dim=1)
        for n in (10, 100, 10_000):
            assert penalty_value(sched, n, 3) > penalty_value(sched, n, 2)

    def test_input_validation(self):
        sched = PenaltySchedule("bic_like", input_dim=1)
        with pytest.raises(ValueError):
            penalty_value(sched, 1, 1)
        with pytest.raises(ValueError):
            penalty_value(sched, 100, 0)
        with pytest.raises(ValueError):
            PenaltySchedule("bic_like")
        with pytest.raises(ValueError):
            PenaltySchedule("nonsense")

    @pytest.mark.parametrize("bad", ["1", 1.0, 0, None])
    def test_input_dim_must_be_a_positive_int(self, bad):
        """A string input_dim used to load and then fail inside the fit."""
        with pytest.raises(ValueError, match="input_dim"):
            PenaltySchedule("bic_like", input_dim=bad)
        with pytest.raises(ValueError, match="input_dim"):
            PenaltySchedule.from_dict({"kind": "bic_like", "input_dim": bad})


class TestValidateSchedule:
    """The consistency conditions on a schedule, probed on a sampled n
    grid: p_n(k) increasing in k, gaps growing in n, p_n(k)/n shrinking."""

    N_GRID = (100, 10_000, 1_000_000)

    def _values(self, sched):
        return np.array([[penalty_value(sched, n, k) for k in (1, 2, 3)] for n in self.N_GRID])

    def test_bic_like_passes(self):
        pen = self._values(PenaltySchedule("bic_like", input_dim=1))
        assert np.all(np.diff(pen, axis=1) > 0)
        assert np.all(np.diff(pen[:, 1:] - pen[:, :1], axis=0) > 0)
        assert np.all(np.diff(pen / np.array(self.N_GRID)[:, None], axis=0) < 0)

    def test_zero_schedule_fails(self):
        pen = self._values(PenaltySchedule("zero"))
        assert not np.any(np.diff(pen, axis=1) > 0)  # flat in k: no gap to grow


class TestSelectWidth:
    """The selection rule on fixed arrays: no fits."""

    def test_argmax_of_penalized_suprema(self):
        k_hat, t_vals = select_width([-10.0, -4.0, -3.5], [1.0, 2.0, 3.0])
        assert t_vals == [-11.0, -6.0, -6.5]
        assert k_hat == 2

    def test_exact_ties_go_to_the_smallest_k(self):
        assert select_width([-5.0, -4.0, -3.0, -2.0], [0.0, 1.0, 2.0, 3.0])[0] == 1
        assert select_width([-9.0, -4.0, -3.0, -3.0], [0.0, 1.0, 2.0, 2.0])[0] == 2

    def test_single_width(self):
        assert select_width([-7.0], [3.0]) == (1, [-10.0])


class TestSelectArchitecture:
    def test_noiseless_selects_true_width(self, desk_spec, desk_box):
        """Suprema tie at every k >= k0, so the penalty decides."""
        data = generate_dataset(desk_spec, 100, seed=23, noise_sigma2=0.0)
        cfg = FitConfig(n_starts=4, seed=2, warm_starts=[desk_spec.theta0])
        report = select_architecture(data, 3, desk_box, cfg, PenaltySchedule("bic_like", input_dim=1))
        assert report.k_hat == 1
        sups = [row[1] for row in report.per_k]
        assert max(sups) - min(sups) <= 1e-6

    def test_zero_penalty_selects_k_max(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 200, seed=29)
        cfg = FitConfig(n_starts=6, seed=3)
        report = select_architecture(data, 3, desk_box, cfg, PenaltySchedule("zero"))
        sups = [row[1] for row in report.per_k]
        # raw loglik argmax, up to optimizer slack
        assert report.per_k[report.k_hat - 1][1] >= max(sups) - 1e-6
        assert report.k_hat == 3 or max(sups) - sups[2] <= 1e-6

    def test_t_n_reconstruction(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 150, seed=3)
        cfg = FitConfig(n_starts=4, seed=1)
        report = select_architecture(data, 2, desk_box, cfg, PenaltySchedule("bic_like", input_dim=1))
        for k, sup, pen, t_n in report.per_k:
            assert t_n == sup - pen
            assert pen == penalty_value(PenaltySchedule("bic_like", input_dim=1), data.n, k)

    def test_constant_shift_leaves_k_hat_unchanged(self):
        """Adding one constant to every p_n(k) moves each T_n(k) by the
        same amount, so k_hat stays (on fixed suprema, no fits)."""
        rng = np.random.default_rng(4)
        sched = PenaltySchedule("bic_like", input_dim=1)
        for n in (50, 150, 2000):
            base = [penalty_value(sched, n, k) for k in (1, 2, 3, 4)]
            for _ in range(50):
                sups = list(-n + rng.normal(scale=5.0, size=4).cumsum())
                k_hat = select_width(sups, base)[0]
                for shift in (-3.25, 17.5, 1e3):
                    assert select_width(sups, [p + shift for p in base])[0] == k_hat

    def test_report_serialization(self, desk_spec, desk_box):
        data = generate_dataset(desk_spec, 100, seed=5)
        report = select_architecture(
            data, 2, desk_box, FitConfig(n_starts=2, seed=1), PenaltySchedule("bic_like", input_dim=1)
        )
        d = report.to_dict()
        assert d["k_hat"] == report.k_hat
        assert len(d["per_k"]) == 2
        assert len(d["fit_converged"]) == 2
