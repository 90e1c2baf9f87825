import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mlplr import (
    ExperimentConfig,
    FitConfig,
    HiddenUnit,
    MlpParams,
    PenaltySchedule,
    RegressionSpec,
    expansion_decay,
    generate_dataset,
    gram_matrix_gh,
    ks_distance,
    run_replicates,
    select_architecture,
    summarize,
)
from mlplr.harness import GRAM_DRAWS, GRAM_SEED, _cell_seed, default_gram


def brute_force_ks(a, b):
    """Independent oracle: scan every step point of both samples."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    best = 0.0
    for t in np.concatenate([a, b]):
        fa = np.mean(a <= t)
        fb = np.mean(b <= t)
        best = max(best, abs(fa - fb))
    return best


class TestKsDistance:
    def test_identical_samples(self):
        x = np.array([0.3, 1.0, 2.5])
        assert ks_distance(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([1.0, 2.0], [5.0, 6.0, 7.0]) == 1.0

    def test_interleaved_thirds(self):
        np.testing.assert_allclose(ks_distance([1, 2, 3], [1.5, 2.5, 3.5]), 1 / 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.standard_normal(rng.integers(1, 40))
            b = rng.standard_normal(rng.integers(1, 40)) + rng.uniform(-1, 1)
            np.testing.assert_allclose(ks_distance(a, b), brute_force_ks(a, b), atol=1e-12)

    def test_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(1)
        a = rng.standard_normal(200)
        b = rng.standard_normal(150) * 1.3
        np.testing.assert_allclose(ks_distance(a, b), ks_2samp(a, b).statistic, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])


class TestSummarize:
    def test_constant_sample(self):
        stats = summarize([1.0, 1.0, 1.0])
        assert (stats.q05, stats.q50, stats.q95) == (1.0, 1.0, 1.0)
        assert stats.variance == 0.0
        assert stats.count == 3

    def test_median_of_arithmetic_range(self):
        stats = summarize(np.arange(101.0))
        assert stats.q50 == 50.0

    def test_type7_quantiles(self):
        sample = np.array([0.0, 1.0, 2.0, 3.0])
        stats = summarize(sample)
        np.testing.assert_allclose(stats.q25, np.quantile(sample, 0.25))
        assert stats.q25 == 0.75  # linear interpolation convention

    def test_gaussian_moments(self):
        rng = np.random.default_rng(7)
        stats = summarize(rng.standard_normal(10_000))
        assert abs(stats.mean) <= 0.03
        assert abs(stats.variance - 1.0) <= 0.05

    def test_ks_against_reference(self):
        stats = summarize([1.0, 2.0, 3.0], reference=[1.5, 2.5, 3.5])
        np.testing.assert_allclose(stats.ks, 1 / 3)
        assert 0.0 <= stats.ks <= 1.0


class TestRunReplicates:
    def _config(self, desk_spec, desk_box, **kw):
        defaults = dict(
            spec=desk_spec,
            box=desk_box,
            fit=FitConfig(n_starts=3, seed=0),
            schedule=PenaltySchedule("bic_like", input_dim=1),
            n_grid=[100],
            k_grid=[1],
            replicates=1,
            base_seed=5,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_noiseless_cell_has_zero_lr(self, desk_spec, desk_box):
        """Perfect fit at the truth: the supremum equals the likelihood at
        the true parameters, so the single cell carries 2 lambda ~ 0."""
        config = self._config(
            desk_spec,
            desk_box,
            fit=FitConfig(n_starts=2, seed=0, warm_starts=[desk_spec.theta0]),
            noise_sigma2=0.0,
        )
        matrix = run_replicates(config)
        assert len(matrix.cells) == 1
        assert abs(matrix.cells[0].lr) <= 1e-6
        assert matrix.cells[0].k_hat == 1

    def test_determinism(self, desk_spec, desk_box):
        config = self._config(desk_spec, desk_box, replicates=2, k_grid=[1, 2])
        a = run_replicates(config)
        b = run_replicates(config)
        assert [(c.replicate, c.n, c.k, c.lr, c.k_hat) for c in a.cells] == [
            (c.replicate, c.n, c.k, c.lr, c.k_hat) for c in b.cells
        ]

    def test_threads_match_serial(self, desk_spec, desk_box):
        config = self._config(desk_spec, desk_box, replicates=2)
        serial = run_replicates(config, threads=1)
        parallel = run_replicates(config, threads=2)
        assert [c.lr for c in serial.cells] == [c.lr for c in parallel.cells]

    def test_matrix_accessors_and_csv(self, desk_spec, desk_box, tmp_path):
        config = self._config(desk_spec, desk_box, replicates=3, k_grid=[1, 2])
        matrix = run_replicates(config)
        assert matrix.lr_values(100, 1).shape == (3,)
        assert matrix.k_hat_values(100).shape == (3,)
        assert not matrix.failures()
        matrix.to_csv(tmp_path / "matrix.csv")
        lines = (tmp_path / "matrix.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].split(",")[:4] == ["replicate", "n", "k", "lr"]
        assert len(lines) == 2 + 6
        matrix.selection_csv(tmp_path / "selection.csv")
        sel = (tmp_path / "selection.csv").read_text().splitlines()
        assert sel[1] == "replicate,n,k_hat,T_1,T_2"
        assert len(sel) == 2 + 3

    def test_pool_submits_largest_n_first(self, desk_spec, desk_box, monkeypatch, tmp_path):
        """The pool gets the (replicate, n) tasks largest n first and the
        matrix keeps the serial order; a stand-in executor runs the tasks
        in this process and records the order it was given them."""
        import concurrent.futures

        submitted = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, args):
                submitted.append(args[1:])
                future = concurrent.futures.Future()
                future.set_result(fn(args))
                return future

        config = self._config(desk_spec, desk_box, n_grid=[40, 120, 80], replicates=2,
                              fit=FitConfig(n_starts=1, seed=0, max_iters=20))
        serial = run_replicates(config)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        pooled = run_replicates(config, threads=2)
        assert submitted == [(0, 1), (1, 1), (0, 2), (1, 2), (0, 0), (1, 0)]
        serial.to_csv(tmp_path / "serial.csv")
        pooled.to_csv(tmp_path / "pooled.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_cell_selects_like_select_architecture(self, desk_spec, desk_box):
        """A replicate cell applies the selection rule that
        select_architecture applies, to the same dataset and fit seed."""
        config = self._config(desk_spec, desk_box, n_grid=[60, 80], k_grid=[1, 2, 3], fit=FitConfig(n_starts=2, seed=0))
        matrix = run_replicates(config)
        for ni, n in enumerate(config.n_grid):
            data = generate_dataset(desk_spec, n, _cell_seed(config.base_seed, 0, ni))
            fit = replace(config.fit, seed=_cell_seed(config.base_seed, 0, ni + 10_000))
            report = select_architecture(data, 3, desk_box, fit, config.schedule)
            cells = [c for c in matrix.cells if c.n == n]
            assert [c.k_hat for c in cells] == [report.k_hat] * 3
            assert [(c.k, c.sup_loglik, c.penalty, c.t_n) for c in cells] == report.per_k

    def test_cell_seeds_are_distinct(self):
        seeds = {_cell_seed(1, r, ni) for r in range(50) for ni in range(3)}
        assert len(seeds) == 150

    def test_config_round_trip(self, desk_spec, desk_box):
        config = self._config(desk_spec, desk_box)
        back = ExperimentConfig.from_dict(config.to_dict())
        assert back.to_dict() == config.to_dict()
        assert back.hash() == config.hash()

    def test_import_leaves_concurrent_futures_unloaded(self, modules_after_import):
        """The process pool's module is imported by the threads > 1 branch
        alone, so serial runs never load it."""
        assert "concurrent.futures" not in modules_after_import


class TestRecordedRun:
    """A whole replicate run, warm-started profiles included, keeps its
    bits: the sha256 over every cell was recorded before the fit took its
    gradient only at accepted points and projected each line search's
    trial steps in one call. Recorded with NumPy 2.4 and its bundled
    OpenBLAS on x86-64; another BLAS build may round the matrix products
    differently.
    """

    SHA256 = "ede3f39e403b809e734091aa624ef1f6e7b81c33d35c0555969fdd74ad428c01"

    def test_cells_match_recorded_hash(self, desk_spec, desk_box):
        config = ExperimentConfig(
            spec=desk_spec, box=desk_box,
            fit=FitConfig(n_starts=4, seed=0, max_iters=300, grad_tol=1e-5),
            schedule=PenaltySchedule("bic_like", input_dim=1),
            n_grid=[200, 400], k_grid=[1, 2, 3], replicates=2, base_seed=7,
        )
        digest = hashlib.sha256()
        for c in run_replicates(config).cells:
            digest.update(
                f"{c.replicate},{c.n},{c.k},{c.lr.hex()},{c.sup_loglik.hex()},{c.penalty.hex()},"
                f"{c.t_n.hex()},{int(c.converged)},{c.k_hat},{c.error}\n".encode()
            )
        assert digest.hexdigest() == self.SHA256


class TestDefaultGram:
    def test_d2_gram_is_seed_free(self):
        """At d = 2 the Gram is the input law's quadrature, which no seed touches."""
        unit = HiddenUnit(1.0, np.array([0.5, 1.0, -0.5]))
        for law in ("standard_normal", "laplace"):
            spec = RegressionSpec(MlpParams(0.5, [unit]), 1.0, 2, input_law=law)
            gram = default_gram(spec)
            assert gram.method != "mc" and gram.x_gram.tobytes() == gram_matrix_gh(spec).x_gram.tobytes()

    def test_d3_gram_is_monte_carlo(self):
        spec = RegressionSpec(MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0, -0.5, 0.3]))]), 1.0, 3)
        gram = default_gram(spec)
        assert (gram.method, gram.mc_draws, gram.seed) == ("mc", GRAM_DRAWS, GRAM_SEED)


class TestExpansionDecay:
    def test_cubic_decay_profile(self, desk_spec):
        rems = expansion_decay(desk_spec, k=2, scales=(1e-2, 5e-3, 2.5e-3), n_draws=60, seed=4)
        assert rems[0] / rems[1] == pytest.approx(8.0, rel=0.4)
        assert rems[1] / rems[2] == pytest.approx(8.0, rel=0.4)
