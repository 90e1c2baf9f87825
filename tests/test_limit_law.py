import dataclasses
import gc
import hashlib
import itertools
import json
import warnings
import weakref

import numpy as np
import pytest
from scipy.stats import chi2

import mlplr
from mlplr import (
    ConeSpec,
    GramMatrix,
    HiddenUnit,
    MlpParams,
    Partition,
    RegressionSpec,
    ScoreBasis,
    check_h4,
    delta_feasible,
    enumerate_partitions,
    gram_matrix,
    gram_matrix_gh,
    normalize_score,
    simulate_limit,
)
from mlplr.limit_law import (
    _ConeMaximizer,
    _direction_columns,
    _exact_partition_d1,
    _draw_from_outputs,
    _gaussian_draws,
    _greedy_extra_columns,
    _standard_normals,
    _stream_words,
    _ziggurat_tables,
    eval_score_basis_batch,
    extended_grid,
    save_gram,
)


def _desk_draws(gram, n, seed):
    """Frozen copy of the per-draw loop that built simulate_limit's draws
    g, one default_rng([seed, i]) per draw, jittered factor included."""
    return _per_draw_loop(gram.sigma, n, seed)


def _per_draw_loop(sigma, n, seed):
    p = sigma.shape[0]
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        factor = np.linalg.cholesky(sigma + 1e-12 * float(np.trace(sigma)) / p * np.eye(p))
    return np.stack([factor @ np.random.default_rng([seed, i]).standard_normal(p) for i in range(n)])


def _frozen_optimize_partition_d1(mx, h, v_lin, quad_units, fixed_cols):
    """Frozen copy of the coordinate-ascent search over one angle per
    quadratic direction that scored the d = 1 cones with extra phi columns
    before they had a closed form (64-angle grid, 48 golden-section steps,
    3 sweeps). The extra columns enter sign-constrained, in the
    orientation _greedy_extra_columns gives them."""
    angle_grid, golden_iters, sweeps = 64, 48, 3
    N = h.shape[0]
    R = len(quad_units)

    def all_cols(angles):
        cols = [
            _direction_columns(mx.basis, unit, sign, np.stack([np.cos(angles[:, r]), np.sin(angles[:, r])], axis=-1))
            for r, (unit, sign) in enumerate(quad_units)
        ]
        return np.concatenate([fixed_cols, np.stack(cols, axis=1)], axis=1)

    angles = np.tile(np.arange(R) * np.pi / max(R, 1), (N, 1))
    grid = np.linspace(0.0, np.pi, angle_grid, endpoint=False)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    best = v_lin.copy()
    for _ in range(sweeps if R > 1 else 1):
        for r in range(R):
            cand = angles.copy()
            best_r = np.full(N, -np.inf)
            best_ang = angles[:, r].copy()
            for om in grid:
                cand[:, r] = om
                val = mx.values_with_columns(h, all_cols(cand), v_lin)
                upd = val > best_r
                best_ang[upd] = om
                best_r[upd] = val[upd]
            lo = best_ang - np.pi / angle_grid
            hi = best_ang + np.pi / angle_grid
            for _ in range(golden_iters):
                m1 = hi - gr * (hi - lo)
                m2 = lo + gr * (hi - lo)
                cand[:, r] = m1
                v1 = mx.values_with_columns(h, all_cols(cand), v_lin)
                cand[:, r] = m2
                v2 = mx.values_with_columns(h, all_cols(cand), v_lin)
                take1 = v1 >= v2
                hi = np.where(take1, m2, hi)
                lo = np.where(take1, lo, m1)
            angles[:, r] = 0.5 * (lo + hi)
            val = mx.values_with_columns(h, all_cols(angles), v_lin)
            np.maximum(best, np.maximum(val, best_r), out=best)
    return best


def _frozen_extended_draws(spec, k, gram, n, seed):
    """Extended-index-set draws at d = 1, k0 = 1 as simulate_limit gave
    them when the cones with extra phi columns went to the frozen search."""
    mx = _ConeMaximizer(gram)
    g = _desk_draws(gram, n, seed)
    v_lin = mx.linear_values(g)
    h = mx.residual(g)
    signs = np.sign([u.a for u in spec.theta0.units])
    best = np.full(n, -np.inf)
    for part in enumerate_partitions(k, 1):
        quad_units = ConeSpec(part, gram.basis, signs).quad_units()
        n_free = k - part.total_units
        fixed = _greedy_extra_columns(mx, h, n_free) if n_free > 0 else None
        if not quad_units:
            val = v_lin if fixed is None else mx.values_with_columns(h, fixed, v_lin)
        elif fixed is None:
            val = _exact_partition_d1(mx, h, v_lin, *quad_units[0], len(quad_units))
        else:
            val = _frozen_optimize_partition_d1(mx, h, v_lin, quad_units, fixed)
        np.maximum(best, val, out=best)
    return best


def _frozen_eigvals_angles(a, trig):
    """Frozen copy of the root step that _rank1_gain_d1 took before the
    closed form: the quartic's coefficients in t = tan(phi / 2), its
    leading one bounded away from 0, and the real parts of the
    eigenvalues of its companion matrices."""
    to_t = np.array([  # (c0, c1, s1, c2, s2) -> coefficients of t^4 .. t^0
        [1.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, -4.0],
        [2.0, 0.0, 0.0, -6.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 4.0],
        [1.0, 1.0, 0.0, 1.0, 0.0],
    ])
    M = trig @ to_t.T
    coef = a @ M if M.ndim == 2 else np.einsum("ni,nij->nj", a, M)
    scale = np.abs(coef).max(axis=1)
    tiny = 1e-14 * scale + np.finfo(float).tiny
    lead = np.where(np.abs(coef[:, 0]) > tiny, coef[:, 0], tiny)
    comp = np.zeros((a.shape[0], 4, 4))
    comp[:, 0, :] = -coef[:, 1:] / lead[:, None]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    return 2.0 * np.arctan(np.linalg.eigvals(comp).real)


def _block_values_with_columns(gram, ridge, g, cols, v_lin):
    """Frozen copy of the block-system cone value, the reference for the
    residualized _ConeMaximizer.values_with_columns: the whole linear
    block re-enters every (n_lin + |S|)-dimensional system, and g is the
    raw draw, not its residual."""
    lin = np.arange(gram.basis.n_linear)
    S_ll = gram.sigma[np.ix_(lin, lin)]
    ridge = ridge * float(np.trace(S_ll)) / len(lin)
    N, R, _ = cols.shape
    n_lin = len(lin)
    Sc = np.einsum("nrp,pq->nrq", cols, gram.sigma)
    cross = Sc[:, :, lin]
    quad = np.einsum("nrp,nsp->nrs", Sc, cols)
    y_quad = np.einsum("nrp,np->nr", cols, g)
    best = v_lin.copy()
    for mask in range(1, 2**R):
        sel = [r for r in range(R) if mask >> r & 1]
        ns = len(sel)
        dim = n_lin + ns
        A = np.empty((N, dim, dim))
        A[:, :n_lin, :n_lin] = S_ll
        A[:, n_lin:, :n_lin] = cross[:, sel, :]
        A[:, :n_lin, n_lin:] = np.swapaxes(cross[:, sel, :], 1, 2)
        A[:, n_lin:, n_lin:] = quad[:, sel][:, :, sel]
        A[:, range(n_lin, dim), range(n_lin, dim)] += ridge
        y = np.concatenate([g[:, lin], y_quad[:, sel]], axis=1)
        b = np.linalg.solve(A, y[..., None])[..., 0]
        val = np.einsum("nj,nj->n", b, y)
        feasible = np.all(b[:, n_lin:] >= -1e-12, axis=1)
        np.maximum(best, np.where(feasible, val, -np.inf), out=best)
    return best


class TestPartitions:
    def test_forced_partition(self):
        parts = enumerate_partitions(1, 1)
        assert [p.t for p in parts] == [(0, 1)]

    def test_k2_k01(self):
        parts = enumerate_partitions(2, 1)
        assert [p.t for p in parts] == [(0, 1), (0, 2)]

    def test_k3_k02(self):
        parts = enumerate_partitions(3, 2)
        assert [p.t for p in parts] == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]

    def test_counts_match_binomials(self):
        from math import comb

        for k in range(1, 6):
            for k0 in range(1, k + 1):
                assert len(enumerate_partitions(k, k0)) == comb(k, k0)

    def test_groups(self):
        p = Partition((0, 2, 5))
        assert list(p.group(1)) == [1, 2]
        assert list(p.group(2)) == [3, 4, 5]
        assert p.group_sizes() == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((0, 2, 2))
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            enumerate_partitions(1, 2)


class TestScoreBasis:
    def test_dimension_formula(self):
        basis = ScoreBasis(k0=1, d=1)
        assert basis.dim == 7  # 1 + 1 + 2 + 3
        assert ScoreBasis(k0=2, d=3).dim == 1 + 2 + 2 * 4 + 2 * 10

    def test_index_maps_are_bijections(self):
        for k0, d in ((1, 1), (2, 3), (3, 2)):
            basis = ScoreBasis(k0=k0, d=d)
            seen = [0]  # the constant
            seen += [basis.phi_index(i) for i in range(k0)]
            seen += [basis.dphi_index(i, l) for i in range(k0) for l in range(d + 1)]
            seen += [
                basis.ddphi_index(i, l, m)
                for i in range(k0)
                for l in range(d + 1)
                for m in range(l, d + 1)
            ]
            assert sorted(seen) == list(range(basis.dim))

    def test_values_at_zero_weights(self):
        """phi(0)=1/2, phi'(0)=1/4, phi''(0)=0 show up in the right slots."""
        theta0 = MlpParams(0.0, [HiddenUnit(1.0, np.zeros(2))])
        spec = RegressionSpec(theta0, sigma2=1.0, input_dim=1)
        vec = eval_score_basis_batch(spec, np.zeros((1, 1)))[0]
        basis = ScoreBasis(1, 1)
        assert vec[0] == 1.0
        assert vec[basis.phi_index(0)] == 0.5
        assert vec[basis.dphi_index(0, 0)] == 0.25
        assert vec[basis.ddphi_index(0, 0, 0)] == 0.0

    def test_constant_component_always_one(self, desk_spec):
        rng = np.random.default_rng(0)
        assert np.all(eval_score_basis_batch(desk_spec, rng.standard_normal((10, 1)))[:, 0] == 1.0)


class TestGramMatrix:
    def test_constant_diagonal_exact(self, desk_spec):
        gram = gram_matrix(desk_spec, mc_draws=5000, seed=1)
        assert gram.x_gram[0, 0] == 1.0

    def test_sigma_scaling(self):
        theta0 = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=2.0, input_dim=1)
        gram = gram_matrix(spec, mc_draws=2000, seed=1)
        np.testing.assert_array_equal(gram.sigma, gram.x_gram / 2.0)
        assert gram.sigma[0, 0] == 0.5  # E[e^2] = 1/sigma2

    def test_symmetry_and_psd(self, desk_spec):
        gram = gram_matrix(desk_spec, mc_draws=20_000, seed=3)
        np.testing.assert_allclose(gram.sigma, gram.sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram.sigma).min() >= -1e-10

    def test_two_seeds_agree_within_mc_error(self, desk_spec):
        """Entrywise agreement within 4 Monte-Carlo standard errors."""
        n = 200_000
        g1 = gram_matrix(desk_spec, n, seed=101).x_gram
        g2 = gram_matrix(desk_spec, n, seed=202).x_gram
        # empirical entrywise sd of the products from a third stream
        from mlplr.limit_law import eval_score_basis_batch
        from mlplr.model import draw_inputs

        rng = np.random.default_rng(303)
        B = eval_score_basis_batch(desk_spec, draw_inputs(desk_spec, 50_000, rng))
        prod_sd = np.std(B[:, :, None] * B[:, None, :], axis=0)
        se_diff = prod_sd * np.sqrt(2.0 / n)
        assert np.all(np.abs(g1 - g2) <= 4 * se_diff + 1e-12)

    def test_gh_matches_mc(self, desk_spec):
        gh = gram_matrix_gh(desk_spec).x_gram
        mc = gram_matrix(desk_spec, 200_000, seed=7).x_gram
        np.testing.assert_allclose(mc, gh, atol=5e-3)

    def test_gh_rejects_non_finite_rule(self, desk_spec):
        """hermgauss(400) returns NaN weights, which would make a NaN Gram."""
        with pytest.raises(ValueError, match="nodes"):
            gram_matrix_gh(desk_spec, nodes=400)

    def test_gh_requires_gaussian_1d(self):
        theta0 = MlpParams(0.0, [HiddenUnit(1.0, np.array([0.0, 1.0, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=1.0, input_dim=2)
        with pytest.raises(ValueError):
            gram_matrix_gh(spec)

    def test_save_load_round_trip(self, desk_spec, tmp_path):
        gram = gram_matrix_gh(desk_spec)
        save_gram(gram, str(tmp_path / "gram"), desk_spec)
        np.testing.assert_array_equal(np.loadtxt(tmp_path / "gram.mat"), gram.x_gram)
        meta = json.loads((tmp_path / "gram.json").read_text())
        assert meta["method"] == "gauss_hermite"
        assert (meta["sigma2"], meta["k0"], meta["d"], meta["extra_w"]) == (1.0, 1, 1, [])


class TestCheckH4:
    def test_identity_passes(self):
        basis = ScoreBasis(1, 1)
        eye = np.eye(basis.dim)
        gram = GramMatrix(eye, eye, 1, 0, basis)
        rep = check_h4(gram)
        assert rep.passed
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_duplicated_column_fails(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        xg = gram.x_gram.copy()
        xg[:, 1] = xg[:, 0]
        xg[1, :] = xg[0, :]
        xg[1, 1] = xg[0, 0]
        broken = GramMatrix(xg / desk_spec.sigma2, xg, gram.mc_draws, 0, gram.basis)
        rep = check_h4(broken)
        assert not rep.passed
        assert rep.min_eigenvalue <= 1e-12

    def test_desk_spec_certificate(self, desk_spec):
        """Both quadrature and Monte Carlo certify linear independence."""
        rep_gh = check_h4(gram_matrix_gh(desk_spec))
        rep_mc = check_h4(gram_matrix(desk_spec, 200_000, seed=5))
        assert rep_gh.passed and rep_mc.passed
        assert rep_gh.min_eigenvalue > 1e-8
        assert rep_mc.min_eigenvalue > 1e-8


class TestDeltaFeasible:
    def test_single_nonzero_vector(self):
        assert not delta_feasible([np.array([1.0, 0.5])])

    def test_all_zero(self):
        assert delta_feasible([np.zeros(2), np.zeros(2)])

    def test_antiparallel_pair(self):
        nu = np.array([0.3, -1.2])
        assert delta_feasible([nu, -2.0 * nu])

    def test_orthant_pair(self):
        assert not delta_feasible([np.array([1.0, 0.0]), np.array([0.0, 1.0])])

    def test_positively_spanning_triple(self):
        assert delta_feasible([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])])

    def test_import_leaves_scipy_optimize_unloaded(self, modules_after_import):
        """scipy.optimize is imported by delta_feasible alone, on first use."""
        assert "scipy.optimize" not in modules_after_import


class TestNormalizeScore:
    def _identity_gram(self):
        basis = ScoreBasis(1, 1)
        eye = np.eye(basis.dim)
        return GramMatrix(eye, eye, 1, 0, basis)

    def test_rescales_to_unit_norm(self):
        gram = self._identity_gram()
        c = np.zeros(7)
        c[0] = 2.0  # c^T sigma c = 4
        np.testing.assert_allclose(normalize_score(c, gram), c / 2.0)

    def test_idempotent(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        rng = np.random.default_rng(4)
        c = normalize_score(rng.standard_normal(7), gram)
        np.testing.assert_allclose(normalize_score(c, gram), c, atol=1e-12)

    def test_unit_quadratic_form(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = normalize_score(rng.standard_normal(7), gram)
            assert abs(c @ gram.sigma @ c - 1.0) <= 1e-10

    def test_zero_vector_rejected(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        with pytest.raises(ValueError):
            normalize_score(np.zeros(7), gram)


class TestConeSpec:
    def test_singleton_groups_forbid_quadratics(self, desk_spec):
        cone = ConeSpec(Partition((0, 1)), ScoreBasis(1, 1), np.array([1.0]))
        assert cone.rank_budget(1) == 0
        assert cone.quad_units() == []

    def test_rank_budget_enforced(self):
        """A group of m units admits rank m - 1, capped at d + 1; each
        admissible rank-one direction is one quadratic column, whose
        coefficients on the pair components double the off-diagonal."""
        basis = ScoreBasis(1, 1)
        budgets = [ConeSpec(Partition((0, m)), basis, np.array([1.0])).rank_budget(1) for m in (2, 3, 4)]
        assert budgets == [1, 2, 2]
        assert ConeSpec(Partition((0, 3)), basis, np.array([-1.0])).quad_units() == [(0, -1.0), (0, -1.0)]
        two = ScoreBasis(2, 2)
        cone = ConeSpec(Partition((0, 1, 4)), two, np.array([1.0, 1.0]))
        assert (cone.rank_budget(1), cone.rank_budget(2)) == (0, 2)
        assert cone.quad_units() == [(1, 1.0), (1, 1.0)]
        c = _direction_columns(basis, 0, 1.0, np.array([1.0, 2.0]))
        assert c[basis.ddphi_index(0, 0, 0)] == 1.0
        assert c[basis.ddphi_index(0, 0, 1)] == 4.0  # off-diagonal doubled
        assert c[basis.ddphi_index(0, 1, 1)] == 4.0
        assert np.count_nonzero(c) == 3

    def test_psd_enforced(self):
        """A direction column is sg * u u^T on the quadratic block: PSD for a
        positive sign, negative semi-definite for a negative one."""
        basis = ScoreBasis(1, 2)
        rng = np.random.default_rng(2)
        pairs = [(l, m) for l in range(3) for m in range(l, 3)]
        for sign in (1.0, -1.0):
            for u in rng.standard_normal((20, 3)):
                c = _direction_columns(basis, 0, sign, u)
                A = np.zeros((3, 3))
                for l, m in pairs:
                    A[l, m] = A[m, l] = c[basis.ddphi_index(0, l, m)] / (1.0 if l == m else 2.0)
                np.testing.assert_allclose(A, sign * np.outer(u, u), rtol=1e-14)
                assert sign * np.linalg.eigvalsh(A).min() >= -1e-12

    def test_rayleigh_scale_invariance(self, desk_spec):
        """The normalized score is what enters the supremum, so scaling a
        coefficient vector by any positive constant changes nothing."""
        gram = gram_matrix_gh(desk_spec)
        basis = gram.basis
        rng = np.random.default_rng(9)
        g = rng.standard_normal(7)
        c = _direction_columns(basis, 0, 1.0, rng.standard_normal(2))
        c[: basis.n_linear] = rng.standard_normal(basis.n_linear)
        val = max(c @ g, 0.0) ** 2 / (c @ gram.sigma @ c)
        val_scaled = max(3.7 * c @ g, 0.0) ** 2 / (3.7 * c @ gram.sigma @ c * 3.7)
        np.testing.assert_allclose(val_scaled, val, rtol=1e-12)


class TestSimulateLimit:
    def test_regular_case_is_chi_square(self, desk_spec):
        """k = k0: all-singleton partition, symmetric linear span, chi^2
        with k0(d+2)+1 = 4 degrees of freedom."""
        gram = gram_matrix_gh(desk_spec)
        sample = simulate_limit(desk_spec, 1, gram, 4000, seed=17)
        vals = sample.values
        assert np.all(vals >= 0)
        assert abs(np.mean(vals) - 4.0) <= 0.07 * 4.0
        assert abs(np.quantile(vals, 0.95) - chi2.ppf(0.95, 4)) <= 0.07 * chi2.ppf(0.95, 4)

    def test_identity_sigma_linear_cone(self):
        """With sigma = I the linear-only draw is a sum of r squared
        standard normals."""
        theta0 = MlpParams(0.0, [HiddenUnit(1.0, np.array([0.0, 1.0]))])
        spec = RegressionSpec(theta0, sigma2=1.0, input_dim=1)
        basis = ScoreBasis(1, 1)
        eye = np.eye(basis.dim)
        gram = GramMatrix(eye, eye, 1, 0, basis)
        sample = simulate_limit(spec, 1, gram, 10_000, seed=23)
        r = basis.n_linear  # 4
        assert abs(np.mean(sample.values) - r) <= 0.05 * r

    def test_per_draw_monotone_in_k(self, desk_spec):
        """F^k grows with k, so on common Gaussian draws the supremum can
        only increase."""
        gram = gram_matrix_gh(desk_spec)
        s1 = simulate_limit(desk_spec, 1, gram, 400, seed=31)
        s2 = simulate_limit(desk_spec, 2, gram, 400, seed=31)
        s3 = simulate_limit(desk_spec, 3, gram, 400, seed=31)
        assert np.all(s2.values >= s1.values - 1e-8)
        assert np.all(s3.values >= s2.values - 1e-8)

    def test_values_nonnegative_and_diagnostics(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        sample = simulate_limit(desk_spec, 2, gram, 200, seed=37)
        assert np.all(sample.values >= 0)
        assert len(sample.best_partition) == 200
        assert all(t in ((0, 1), (0, 2)) for t in sample.best_partition)

    def test_desk_draws_are_bit_identical_to_recorded(self, desk_spec, monkeypatch):
        """sha256 of the k = 2 and k = 3 draws at seed 71, recorded with the
        block-system cone solver that built its own Schur complement in each
        closed form and took the rank-one roots from companion matrices:
        with that root step put back, every other stage must not move a
        bit."""
        monkeypatch.setattr(mlplr.limit_law, "_rank1_angles", _frozen_eigvals_angles)
        gram = gram_matrix_gh(desk_spec)
        recorded = {
            2: "a1e8b5f022f2c3f8ea2616619c67b1a26bb0368f250d51b862fafd3d88c26cdd",
            3: "a73f8d7f76d0f4b6e7071705790bcf854f79e474d751268f4950e775985c2d34",
        }
        for k, digest in recorded.items():
            values = simulate_limit(desk_spec, k, gram, 500, seed=71).values
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest, k

    def test_desk_draws_match_recorded_closed_form(self, desk_spec):
        """sha256 of the same draws with the closed-form root step, which
        moves values by a few ulps (TestRank1Roots bounds by how much)."""
        gram = gram_matrix_gh(desk_spec)
        recorded = {
            2: "39696b99acff1bdba3c542e74028ab8e4822df07116e641c26b8b31239b0d7d2",
            3: "8829eb942dd6f8d752420f1b3d797f5ac7bdafd0e516dad0b5a70ae84f56833f",
        }
        for k, digest in recorded.items():
            values = simulate_limit(desk_spec, k, gram, 500, seed=71).values
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest, k

    def test_determinism(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        a = simulate_limit(desk_spec, 2, gram, 100, seed=41)
        # a fresh copy, so the second call is computed, not read from the memo
        b = simulate_limit(desk_spec, 2, dataclasses.replace(gram), 100, seed=41)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_k_below_k0(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        with pytest.raises(ValueError):
            simulate_limit(desk_spec, 0, gram, 10, seed=1)

    def test_rejects_failed_certificate(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        xg = gram.x_gram.copy()
        xg[:, 1] = xg[:, 0]
        xg[1, :] = xg[0, :]
        xg[1, 1] = xg[0, 0]
        broken = GramMatrix(xg, xg, gram.mc_draws, 0, gram.basis)
        with pytest.raises(ValueError):
            simulate_limit(desk_spec, 1, broken, 10, seed=1)

    def test_csv_output(self, desk_spec, tmp_path):
        gram = gram_matrix_gh(desk_spec)
        sample = simulate_limit(desk_spec, 2, gram, 50, seed=43)
        path = tmp_path / "limit.csv"
        sample.to_csv(path, header_comment="config_hash=xyz seed=43")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "value,best_partition,path"
        assert len(lines) == 52
        assert {line.rsplit(",", 1)[1] for line in lines[2:]} <= {"linear", "exact_rank1"}

    def test_path_names_the_winning_partition_solver(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        sample = simulate_limit(desk_spec, 3, gram, 300, seed=53)
        solver = {(0, 1): "linear", (0, 2): "exact_rank1", (0, 3): "exact_psd"}
        assert [solver[t] for t in sample.best_partition] == list(sample.path)
        # the full PSD cone strictly beats its rank-one boundary on some
        # draws, and ties go to the smaller partition
        assert {"exact_rank1", "exact_psd"} <= set(sample.path)

    def test_extended_index_set_dominates(self, desk_spec, desk_box):
        """The appendix-variant index set adds free-unit phi terms, so on
        common draws its supremum is at least the default one."""
        basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=6, radii=(1.0,)))
        gram_ext = gram_matrix_gh(desk_spec, basis=basis)
        gram_core = gram_matrix_gh(desk_spec)
        core = simulate_limit(desk_spec, 2, gram_core, 150, seed=47)
        ext = simulate_limit(desk_spec, 2, gram_ext, 150, seed=47, extended=True)
        assert ext.extended
        # slack covers the draws themselves: the extended Gram is singular
        # to rounding, so its Cholesky factor carries a jitter that moves
        # the core components of g (by up to 1.5e-5 in value here)
        assert np.all(ext.values >= core.values - 1e-3)
        assert np.mean(ext.values > core.values + 1e-6) > 0.2


class TestGaussianDraws:
    """simulate_limit runs every draw's PCG64 and ziggurat in one vectorized
    pass; its draws must stay those of one default_rng([seed, i]) per draw."""

    # 2**128 + 7 has five words: SeedSequence mixes entropy beyond its
    # four-word pool in a loop of its own
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**95, 2**128 + 7])
    def test_stream_words_match_seed_sequence(self, seed):
        ref = np.stack([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64) for i in range(3000)])
        got = _stream_words(seed, 3000)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, ref)

    @pytest.fixture(scope="class", params=["desk_core_gh", "desk_extended_gh", "d2_mc"])
    def case(self, request, desk_spec, desk_box):
        """(spec, k, gram, extended) for one simulate_limit call."""
        if request.param == "desk_core_gh":
            return desk_spec, 3, gram_matrix_gh(desk_spec), False
        if request.param == "desk_extended_gh":
            basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0)))
            gram = gram_matrix_gh(desk_spec, basis=basis)
            with pytest.raises(np.linalg.LinAlgError):  # the jittered-factor branch
                np.linalg.cholesky(gram.sigma)
            return desk_spec, 2, gram, True
        units = [HiddenUnit(1.0, np.array([0.5, 1.0, -0.5])), HiddenUnit(1.5, np.array([-0.3, 0.2, 1.2]))]
        spec = RegressionSpec(MlpParams(0.5, units), 1.0, 2, input_law="laplace")
        return spec, 3, gram_matrix(spec, 20_000, seed=3), False

    def test_values_match_frozen_per_draw_loop(self, case, monkeypatch):
        spec, k, gram, extended = case
        seed = 67
        n = 40 if spec.input_dim > 1 else 500  # the d = 2 sphere search is slow
        assert _gaussian_draws(gram.sigma, n, seed).tobytes() == _desk_draws(gram, n, seed).tobytes()
        got = simulate_limit(spec, k, gram, n, seed, extended=extended).values
        monkeypatch.setattr(mlplr.limit_law, "_gaussian_draws", lambda sigma, n_draws, s: _desk_draws(gram, n_draws, s))
        ref = simulate_limit(spec, k, dataclasses.replace(gram), n, seed, extended=extended).values
        assert got.tobytes() == ref.tobytes()

    def test_negative_seed_is_rejected(self, desk_spec):
        with pytest.raises(ValueError):
            simulate_limit(desk_spec, 1, gram_matrix_gh(desk_spec), 10, seed=-1)

    def test_rejects_draw_index_beyond_one_word(self, desk_spec):
        """Raised before anything of that size is allocated."""
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate_limit(desk_spec, 1, gram_matrix_gh(desk_spec), 2**32, seed=0)

    # 90,000 normals per case, 1.08 M over the twelve
    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 7])
    @pytest.mark.parametrize("p", [1, 7, 13, 31])
    def test_draws_match_per_draw_streams(self, p, seed):
        a = np.random.default_rng(p).standard_normal((p, p))
        sigma = a @ a.T + np.eye(p)
        n = -(-90_000 // p)
        assert _gaussian_draws(sigma, n, seed).tobytes() == _per_draw_loop(sigma, n, seed).tobytes()

    @staticmethod
    def _row_paths(raw, p, width, guard):
        """The ziggurat paths numpy takes over one row's raw outputs, up to
        the first the vectorized walk leaves to numpy."""
        ki, wi, fi = _ziggurat_tables()
        paths, pos, drawn = set(), 0, 0
        while drawn < p:
            if pos >= width:
                return paths | {"overrun"}
            r = int(raw[pos])
            idx, rabs = r & 0xFF, r >> 9 & (2**52 - 1)
            if rabs < ki[idx]:
                pos, drawn = pos + 1, drawn + 1
                continue
            if idx == 0:
                return paths | {"tail"}
            if pos + 1 >= width:
                return paths | {"overrun"}
            x = rabs * wi[idx]
            lhs = (fi[idx - 1] - fi[idx]) * ((int(raw[pos + 1]) >> 11) * 2.0**-53) + fi[idx]
            rhs = np.exp(-0.5 * x * x)
            if abs(lhs - rhs) <= guard * rhs:
                return paths | {"guard"}
            paths.add("accept" if lhs < rhs else "reject")
            pos, drawn = pos + 2, drawn + (lhs < rhs)
        return paths

    @pytest.mark.parametrize("extra, guard", [(4, 1e-12), (1, 1e-3)])
    def test_every_ziggurat_path_occurs_and_matches(self, extra, guard, monkeypatch):
        """A narrow buffer and a wide guard band send rows to numpy through
        the overrun and guard fallbacks as well."""
        monkeypatch.setattr(mlplr.limit_law, "_ZIG_EXTRA", extra)
        monkeypatch.setattr(mlplr.limit_law, "_ZIG_GUARD", guard)
        seed, n, p = 9, 20_000, 7
        streams = [np.random.PCG64(np.random.SeedSequence([seed, i])) for i in range(n)]
        ref = np.stack([np.random.Generator(bits).standard_normal(p) for bits in streams])
        assert _standard_normals(seed, n, p).tobytes() == ref.tobytes()
        raws = [np.random.PCG64(np.random.SeedSequence([seed, i])).random_raw(p + extra) for i in range(n)]
        paths = set().union(*(self._row_paths(raw, p, p + extra, guard) for raw in raws))
        expected = {"accept", "reject", "tail"} | ({"guard", "overrun"} if extra == 1 else set())
        assert expected <= paths

    def test_guard_covers_the_recovered_wedge(self):
        """At chosen (rabs, u) just outside the guard band on either side of
        the wedge threshold, numpy decides as the recovered tables do: a
        taken candidate uses two outputs, a refused one more."""
        ki, wi, fi = _ziggurat_tables()
        assert (int(ki[0]), int(ki[1]), int(ki[2])) == (0xEF33D8025EF6A, 0, 0xC08BE98FBC6A8)
        gen = np.random.default_rng(0)
        guard = mlplr.limit_law._ZIG_GUARD
        for idx in range(1, 256):
            for frac in (0.2, 0.5, 0.8):
                rabs = int(ki[idx]) + int(frac * (2**52 - int(ki[idx])))
                x = rabs * wi[idx]
                rhs = np.exp(-0.5 * x * x)
                for side, used in ((-1, 2), (1, 3)):
                    u = (rhs * (1 + 2 * side * guard) - fi[idx]) / (fi[idx - 1] - fi[idx])
                    bits = int(u * 2**53)
                    lhs = (fi[idx - 1] - fi[idx]) * (bits * 2.0**-53) + fi[idx]
                    assert side * (lhs - rhs) > guard * rhs
                    value, got = _draw_from_outputs(gen, rabs << 9 | idx, bits << 11)
                    assert got == used, (idx, frac, side)
                    if used == 2:
                        assert value == x

    def test_drifted_words_fail_loudly(self, monkeypatch):
        monkeypatch.setattr(mlplr.limit_law, "_stream_words", lambda seed, n: _stream_words(seed + 1, n))
        with pytest.raises(RuntimeError):
            _gaussian_draws(np.eye(2), 5, 7)

    def test_import_leaves_numpy_random_unloaded(self, modules_after_import):
        """numpy.random, and the ISeedSequence registration, wait for the
        first draw."""
        assert "numpy.random" not in modules_after_import


class TestGramMemo:
    """simulate_limit shares draws and cone values between calls on one
    Gram; every call must still return what it returns on a fresh copy."""

    @staticmethod
    def _bytes(sample):
        return sample.values.tobytes(), repr(sample.best_partition), sample.path.tobytes()

    def test_calls_on_one_gram_equal_fresh_calls(self, desk_spec, desk_box):
        neg = RegressionSpec(MlpParams(0.5, [HiddenUnit(-1.0, np.array([0.5, 1.0]))]), 1.0, 1)
        signed_box = dataclasses.replace(desk_box, positive_amplitudes=False)
        grid = extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0))
        core, ext = gram_matrix_gh(desk_spec), gram_matrix_gh(desk_spec, basis=ScoreBasis(1, 1, grid))
        neg_core = gram_matrix_gh(neg)
        neg_ext = gram_matrix_gh(neg, basis=ScoreBasis(1, 1, extended_grid(signed_box, 1, n_angles=4, radii=(2.0,))))
        calls = [  # (spec, gram, k, n_draws, seed, extended)
            (desk_spec, core, 1, 4000, 11, False),
            (desk_spec, core, 2, 1000, 11, False),
            (desk_spec, core, 3, 1000, 11, False),
            (desk_spec, core, 3, 500, 11, False),
            (desk_spec, core, 2, 500, 11, False),
            (desk_spec, core, 3, 1000, 12, False),
            (desk_spec, core, 2, 1000, 11, False),
            (desk_spec, ext, 2, 1000, 11, True),
            (desk_spec, ext, 2, 1000, 11, False),
            (desk_spec, ext, 3, 1000, 11, True),
            (neg, core, 3, 1000, 11, False),
            (neg, neg_core, 3, 700, 11, False),
            (neg, neg_core, 2, 700, 11, False),
            (neg, neg_ext, 3, 700, 11, True),
            (neg, neg_ext, 2, 700, 11, False),
        ]
        for spec, gram, k, n, seed, extended in calls:
            got = simulate_limit(spec, k, gram, n, seed, extended=extended)
            ref = simulate_limit(spec, k, dataclasses.replace(gram), n, seed, extended=extended)
            assert self._bytes(got) == self._bytes(ref), (spec.theta0.units[0].a, k, n, seed, extended)
            got.values[:] = -1.0  # the memo hands out copies
            got.path[:] = "linear"

    def test_draws_are_made_once_per_gram_and_seed(self, desk_spec, desk_box, monkeypatch):
        """The desk round's sequence draws for k1 and k2ext only, and a new
        seed frees the old seed's arrays."""
        made = []

        def spy(sigma, n_draws, seed):
            made.append((sigma.shape[0], n_draws, seed))
            return _gaussian_draws(sigma, n_draws, seed)

        monkeypatch.setattr(mlplr.limit_law, "_gaussian_draws", spy)
        grid = extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0))
        core, ext = gram_matrix_gh(desk_spec), gram_matrix_gh(desk_spec, basis=ScoreBasis(1, 1, grid))
        for k, n in [(1, 4000), (2, 1000), (3, 1000)]:
            simulate_limit(desk_spec, k, core, n, 5)
        simulate_limit(desk_spec, 2, ext, 1000, 5, extended=True)
        assert made == [(core.basis.dim, 4000, 5), (ext.basis.dim, 1000, 5)]
        old = [weakref.ref(core._memo["draws"][1]), weakref.ref(core._memo["shared"].h)]
        simulate_limit(desk_spec, 2, core, 1000, 6)
        gc.collect()
        assert made[2:] == [(core.basis.dim, 1000, 6)]
        assert [ref() for ref in old] == [None, None]
        assert core._memo["draws"][0] == 6 and core._memo["shared"].key[0] == 6


class TestExactConeD1:
    """The d = 1 closed forms against a dense search over the columns the
    fallback search would use, scored without a ridge; on the extended
    index set, with the greedily chosen extra phi columns entering every
    column set sign-free."""

    N = 6

    @pytest.fixture(scope="class")
    def setup(self, desk_spec):
        gram = gram_matrix_gh(desk_spec)
        g = _desk_draws(gram, self.N, seed=61)
        mx = _ConeMaximizer(gram)
        return gram, mx.residual(g), mx.linear_values(g), mx, _ConeMaximizer(gram, ridge=0.0)

    @pytest.fixture(scope="class")
    def extended(self, desk_spec, desk_box):
        basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=4, radii=(1.0, 10.0)))
        gram = gram_matrix_gh(desk_spec, basis=basis)
        g = _desk_draws(gram, self.N, seed=61)
        plain = _ConeMaximizer(gram, ridge=0.0)
        h = plain.residual(g)
        return gram, h, plain.linear_values(g), plain, _greedy_extra_columns(plain, h, 2)

    @staticmethod
    def _columns(gram, sign, n):
        om = np.arange(n) * np.pi / n
        return _direction_columns(gram.basis, 0, sign, np.stack([np.cos(om), np.sin(om)], axis=-1))

    @staticmethod
    def _check(exact, brute, resolution):
        assert np.all(exact >= brute - 1e-9 * (1.0 + np.abs(brute)))
        assert np.all(exact - brute <= resolution)

    def _rank1_search(self, gram, h, v_lin, plain, sign, extras=None):
        """Best value over 4096 angles, and how far it can be from the
        maximum: within one grid step of the best grid angle."""
        n = 4096
        cols = self._columns(gram, sign, n)
        rep = None if extras is None else np.repeat(extras, n, axis=0)
        vals = plain.values_with_columns(
            np.repeat(h, n, axis=0), np.tile(cols, (self.N, 1))[:, None, :], np.repeat(v_lin, n), rep
        ).reshape(self.N, n)
        best = np.argmax(vals, axis=1)
        rows = np.arange(self.N)
        resolution = np.maximum(
            np.abs(vals[rows, best] - vals[rows, (best - 1) % n]),
            np.abs(vals[rows, best] - vals[rows, (best + 1) % n]),
        )
        return vals.max(axis=1), resolution

    def _pair_search(self, gram, h, v_lin, plain, sign, extras=None):
        """Best value over pairs of 256 angles, and its grid resolution."""
        n = 256
        cols = self._columns(gram, sign, n)
        I, J = np.triu_indices(n, 1)  # equal angles give a singular system
        pair_cols = np.stack([cols[I], cols[J]], axis=1)
        brute = np.empty(self.N)
        resolution = np.empty(self.N)
        for d in range(self.N):
            rep = None if extras is None else np.repeat(extras[d : d + 1], len(I), axis=0)
            vals = plain.values_with_columns(np.tile(h[d], (len(I), 1)), pair_cols, np.full(len(I), v_lin[d]), rep)
            grid = np.full((n, n), np.nan)
            grid[I, J] = vals
            grid[J, I] = vals
            i, j = I[np.argmax(vals)], J[np.argmax(vals)]
            near = [grid[(i + a) % n, (j + b) % n] for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            brute[d] = vals.max()
            resolution[d] = np.nanmax(np.abs(brute[d] - np.array(near)))
        return brute, resolution

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rank1_matches_dense_angle_search(self, setup, sign):
        gram, h, v_lin, mx, plain = setup
        self._check(_exact_partition_d1(mx, h, v_lin, 0, sign, 1), *self._rank1_search(gram, h, v_lin, plain, sign))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_psd_matches_dense_angle_pair_search(self, setup, sign):
        gram, h, v_lin, mx, plain = setup
        exact = _exact_partition_d1(mx, h, v_lin, 0, sign, 2)
        self._check(exact, *self._pair_search(gram, h, v_lin, plain, sign))
        assert np.all(exact >= _exact_partition_d1(mx, h, v_lin, 0, sign, 1))

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extra_columns_match_dense_search(self, extended, sign, budget):
        gram, h, v_lin, plain, extras = extended
        search = self._rank1_search if budget == 1 else self._pair_search
        exact = _exact_partition_d1(plain, h, v_lin, 0, sign, budget, extras)
        self._check(exact, *search(gram, h, v_lin, plain, sign, extras))
        # the extra columns enter: the value beats the cone without them
        without = _exact_partition_d1(plain, h, v_lin, 0, sign, budget)
        assert np.all(exact >= without - 1e-9 * (1.0 + without))
        assert np.mean(exact > without + 1e-6) > 0.5

    @staticmethod
    def _one_call_per_candidate(gram, g, v_lin, n_free, refit_signs):
        """Greedy scan that scores each candidate with the block-system
        reference, one call per candidate and sign pattern. With
        refit_signs the pattern covers every chosen column too, so a
        candidate scores the sign-free fit; without it the earlier columns
        keep the signs they were chosen with."""
        basis = gram.basis
        N, p = g.shape
        n_extra = len(basis.extra_w)
        chosen = np.zeros((N, 0, p))
        used = np.zeros((N, n_extra), dtype=bool)
        for m in range(n_free):
            patterns = [np.array(s) for s in itertools.product((1.0, -1.0), repeat=m + 1 if refit_signs else 1)]
            best_val = np.full(N, -np.inf)
            best = np.zeros((N, m + 1, p))
            for j in range(n_extra):
                col = np.zeros((N, 1, p))
                col[:, 0, basis.extra_index(j)] = 1.0
                for signs in patterns:
                    cols = np.concatenate([chosen, col], axis=1)
                    cols[:, m + 1 - len(signs):] *= signs[:, None]
                    val = np.where(used[:, j], -np.inf, _block_values_with_columns(gram, 1e-12, g, cols, v_lin))
                    upd = val > best_val
                    best_val[upd] = val[upd]
                    best[upd] = cols[upd]
            chosen = best
            used |= chosen[:, -1, basis.core_dim:] != 0
        return chosen, best_val

    @pytest.mark.parametrize("n_free", [2, 3])
    def test_greedy_extra_columns_match_one_call_per_candidate(self, desk_spec, desk_box, n_free):
        """The closed-form scan chooses the columns and signs of the
        sign-free scan over one-candidate calls, and the chosen columns
        score that scan's value. Up to two columns this is also what a scan
        that keeps earlier signs fixed chooses; from the third on, such a
        scan passes over a candidate whose fit turns an earlier coefficient
        negative (one draw of these 40 at n_free = 3)."""
        basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=4, radii=(1.0, 10.0)))
        gram = gram_matrix_gh(desk_spec, basis=basis)
        mx = _ConeMaximizer(gram)
        g = _desk_draws(gram, 40, seed=67)
        v_lin = mx.linear_values(g)
        chosen, best_val = self._one_call_per_candidate(gram, g, v_lin, n_free, refit_signs=True)
        if n_free == 2:
            fixed_signs, _ = self._one_call_per_candidate(gram, g, v_lin, n_free, refit_signs=False)
            np.testing.assert_array_equal(fixed_signs, chosen)
        h = mx.residual(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # chosen columns are masked, not divided by 0
            got = _greedy_extra_columns(mx, h, n_free)
        np.testing.assert_array_equal(got, chosen)
        scored = mx.values_with_columns(h, got, v_lin)
        # one column of this grid keeps a residual variance of 2.1e-8 after
        # the linear block, where the two formulas part by up to 2e-8
        # relative; against a 50-digit solve the residualized value is the
        # closer one (5e-9 against 2.5e-8 over these draws at n_free = 3)
        assert np.all(np.abs(scored - best_val) <= 1e-7 * (1.0 + np.abs(best_val)))
        assert np.all(scored > v_lin)


class TestResidualizedConeValues:
    """values_with_columns in the residual process against the frozen
    block-system reference, for random columns."""

    N = 200

    @pytest.fixture(scope="class", params=["desk_extended_gh", "d2_mc"])
    def gram(self, request, desk_spec, desk_box):
        if request.param == "desk_extended_gh":
            basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0)))
            return gram_matrix_gh(desk_spec, basis=basis)
        units = [HiddenUnit(1.0, np.array([0.5, 1.0, -0.5])), HiddenUnit(1.5, np.array([-0.3, 0.2, 1.2]))]
        spec = RegressionSpec(MlpParams(0.5, units), 1.0, 2, input_law="laplace")
        return gram_matrix(spec, 20_000, seed=3)

    @pytest.mark.parametrize("ridge", [1e-12, 0.0])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_matches_block_system(self, gram, ridge, R):
        p = gram.basis.dim
        rng = np.random.default_rng(100 + R)
        # the extended Gram is singular to rounding, so draw from a jittered
        # factor as simulate_limit does; the identity holds for any g
        jitter = 1e-12 * float(np.trace(gram.sigma)) / p
        g = rng.standard_normal((self.N, p)) @ np.linalg.cholesky(gram.sigma + jitter * np.eye(p)).T
        cols = rng.standard_normal((self.N, R, p))
        mx = _ConeMaximizer(gram, ridge=ridge)
        v_lin = mx.linear_values(g)
        ref = _block_values_with_columns(gram, ridge, g, cols, v_lin)
        got = mx.values_with_columns(mx.residual(g), cols, v_lin)
        assert np.all(np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref)))
        assert np.mean(got > v_lin) > 0.3  # the columns do enter


class TestExtendedD1ClosedForm:
    """Every d = 1 cone of one true unit is solved in closed form, also
    with extra phi columns; quadratic directions on several true units go
    to the sphere search."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_never_below_the_frozen_search(self, desk_spec, desk_box, k):
        basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0)))
        gram = gram_matrix_gh(desk_spec, basis=basis)
        sample = simulate_limit(desk_spec, k, gram, 300, seed=73, extended=True)
        ref = _frozen_extended_draws(desk_spec, k, gram, 300, 73)
        assert "search" not in set(sample.path)
        if k == 2:  # no cone with extra columns: the reference is today's law
            np.testing.assert_array_equal(sample.values, ref)
            return
        assert np.all(sample.values >= ref - 1e-12 * (1.0 + np.abs(ref)))
        if k == 4:  # sign-free extras and the exact cone beat the search
            assert np.any(sample.values > ref + 1e-6 * (1.0 + np.abs(ref)))

    def test_several_true_units_use_the_search(self, monkeypatch):
        """k0 = 2, d = 1: at k = 4 the partition (0, 2, 4) has one
        quadratic direction on each true unit, which the sphere search
        handles; k = 3 has only single-unit cones."""
        units = [HiddenUnit(1.0, np.array([2.70081007, -2.81680757])),
                 HiddenUnit(1.5, np.array([-2.60333845, -2.83310456]))]
        spec = RegressionSpec(MlpParams(0.5, units), 1.0, 1)
        gram = gram_matrix_gh(spec)
        assert 1e-8 <= check_h4(gram).min_eigenvalue <= 1e-6  # certified, barely (3.0e-7)
        calls = []
        search = mlplr.limit_law._optimize_partition_general

        def spy(mx, h, v_lin, quad_units, *args):
            calls.append(quad_units)
            return search(mx, h, v_lin, quad_units, *args)

        monkeypatch.setattr(mlplr.limit_law, "_optimize_partition_general", spy)
        s3 = simulate_limit(spec, 3, gram, 100, seed=79)
        assert not calls and "search" not in set(s3.path)
        s4 = simulate_limit(spec, 4, gram, 100, seed=79)
        assert calls == [[(0, 1.0), (1, 1.0)]]
        assert np.all(np.isfinite(s4.values))
        assert np.all(s3.values <= s4.values)


class TestRank1Roots:
    """The closed-form root step of the d = 1 rank-one cone against the
    frozen companion-matrix step and a dense angle grid over desk draws,
    and on constructed rows."""

    N = 4000

    @pytest.fixture(scope="class")
    def metrics(self, desk_spec, desk_box):
        """(h, T) as simulate_limit hands them to _rank1_gain_d1: the shared
        metric of the core k = 2 cone, and the per-draw metric that one
        extra phi column leaves in partition (0, 2) of extended k = 3."""
        seen = []
        gain = mlplr.limit_law._rank1_gain_d1

        def spy(h, T, sign):
            seen.append((h, T))
            return gain(h, T, sign)

        basis = ScoreBasis(1, 1, extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mlplr.limit_law, "_rank1_gain_d1", spy)
            simulate_limit(desk_spec, 2, gram_matrix_gh(desk_spec), self.N, seed=83)
            simulate_limit(desk_spec, 3, gram_matrix_gh(desk_spec, basis=basis), self.N, seed=83, extended=True)
        per_draw = [(h, T) for h, T in seen if T.ndim == 3]
        assert seen[0][1].ndim == 2 and len(per_draw) == 1
        return {"shared": seen[0], "per_draw": per_draw[0]}

    @staticmethod
    def _grid_best(h, T, sign, n=8192, rows=250):
        """Best ratio over n equally spaced angles, scored rows draws at a
        time, and the condition number sum |v_i B_ij v_j| / v^T B v of the
        ratio's denominator at the best angle."""
        P = mlplr.limit_law._RANK1_D1
        a, B = sign * (h @ P), P.T @ T @ P
        phi = np.arange(n) * (2.0 * np.pi / n)
        V = np.stack([np.ones(n), np.cos(phi), np.sin(phi)], axis=1)
        best, at = np.empty(len(a)), np.empty(len(a), dtype=int)
        for i in range(0, len(a), rows):
            num = np.maximum(a[i : i + rows] @ V.T, 0.0)
            f = num * num / np.einsum("ki,...ij,kj->...k", V, B if B.ndim == 2 else B[i : i + rows], V)
            best[i : i + rows], at[i : i + rows] = f.max(axis=1), f.argmax(axis=1)
        v, Bn = V[at], np.broadcast_to(B, (len(a), 3, 3))
        cond = np.einsum("ni,nij,nj->n", np.abs(v), np.abs(Bn), np.abs(v)) / np.einsum("ni,nij,nj->n", v, Bn, v)
        return best, cond

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("metric", ["shared", "per_draw"])
    def test_matches_eigvals_and_never_falls_below_a_dense_grid(self, metrics, metric, sign, monkeypatch):
        h, T = metrics[metric]
        got = mlplr.limit_law._rank1_gain_d1(h, T, sign)
        monkeypatch.setattr(mlplr.limit_law, "_rank1_angles", _frozen_eigvals_angles)
        ref = mlplr.limit_law._rank1_gain_d1(h, T, sign)
        grid, cond = self._grid_best(h, T, sign)
        # both steps feed the unchanged ratio angles that differ in their
        # last bits, and its denominator at the maximum loses log10(cond)
        # digits to cancellation (cond up to 2e3 on the per-draw metric;
        # the two part by at most 3.4 eps cond)
        tol = np.maximum(1e-13, 8.0 * np.finfo(float).eps * cond) * (1.0 + np.abs(ref))
        assert np.all(np.abs(got - ref) <= tol)
        assert np.all(got >= grid - 1e-12 * (1.0 + np.abs(grid)))
        assert np.mean(got != ref) > 0.1  # the new step did run

    @staticmethod
    def _row(a, B, sign):
        """(h, T) for which _rank1_gain_d1 sees a and B."""
        Pinv = np.linalg.inv(mlplr.limit_law._RANK1_D1)
        return sign * (a @ Pinv), np.swapaxes(Pinv, -1, -2) @ B @ Pinv

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_maximum_at_a_known_angle(self, sign):
        """With a = B v(phi0) the ratio peaks at phi0 over all of R^3, so the
        gain is v(phi0)^T B v(phi0). The first rows put phi0 at pi, where p
        vanishes and with it the quartic's leading coefficient."""
        rng = np.random.default_rng(89)
        n = 2000
        phi0 = rng.uniform(-np.pi, np.pi, n)
        phi0[:50] = np.pi
        v0 = np.stack([np.ones(n), np.cos(phi0), np.sin(phi0)], axis=1)
        Q = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0]
        B = np.einsum("nij,nj,nkj->nik", Q, 10.0 ** rng.uniform(-3.0, 0.0, (n, 3)), Q)
        a = np.einsum("nij,nj->ni", B, v0)
        h, T = self._row(a, B, sign)
        want = np.einsum("ni,nij,nj->n", v0, B, v0)
        got = mlplr.limit_law._rank1_gain_d1(h, T, sign)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_zero_draw_gains_nothing(self):
        T = np.eye(3) + 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for metric in (T, np.stack([T, 2.0 * T])):
                gain = mlplr.limit_law._rank1_gain_d1(np.zeros((2, 3)), metric, 1.0)
                assert gain.tolist() == [0.0, 0.0]

    @staticmethod
    def _with_roots(roots, lift=0.0):
        """Coefficients (c0, c1, s1, c2, s2) of prod_i sin((phi - r_i) / 2)
        + lift, a trigonometric polynomial of degree 2 with zeros at the
        four roots when lift = 0."""
        phi = np.arange(8) * (np.pi / 4)
        X = np.fft.rfft(np.prod(np.sin((phi[:, None] - np.asarray(roots)) / 2.0), axis=1) + lift) / 4.0
        return np.array([X[0].real / 2.0, X[1].real, -X[1].imag, X[2].real, -X[2].imag])

    @pytest.mark.parametrize("roots, tol", [
        ((-2.5, -0.4, 1.1, 3.0), 1e-12),  # four real roots, one near pi
        ((-np.pi, -1.2, 0.3, 2.0), 1e-12),  # one at pi: the leading coefficient is 0
        ((0.7, 0.7, -1.9, 2.6), 1e-7),  # a double root, found to about sqrt(eps)
        ((1.0, 1.0, -2.0, -2.0), 1e-7),  # two double roots
    ])
    def test_every_real_root_is_found(self, roots, tol):
        coef = self._with_roots(roots)
        got = mlplr.limit_law._rank1_angles(np.stack([coef, -3.0 * coef]), np.eye(5))
        assert got.shape == (2, 4) and np.all(np.isfinite(got))
        for r in roots:
            gap = np.abs(np.angle(np.exp(1j * (got - r))))  # distance on the circle
            assert np.all(gap.min(axis=1) <= tol), r

    def test_random_rows_find_every_real_root(self):
        """20,000 rows of random coefficients, over six decades of scale,
        against the frozen companion-matrix roots, each polished by Newton
        steps on p in long double; those that reach a zero of p are its
        real roots."""
        rng = np.random.default_rng(97)
        coef = rng.standard_normal((20_000, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, (20_000, 1))
        phi = _frozen_eigvals_angles(coef, np.eye(5)).astype(np.longdouble)
        c0, c1, s1, c2, s2 = coef.T.astype(np.longdouble)[..., None]
        for _ in range(8):
            cs, sn = np.cos(phi), np.sin(phi)
            cs2, sn2 = cs * cs - sn * sn, 2 * sn * cs
            val = c0 + c1 * cs + s1 * sn + c2 * cs2 + s2 * sn2
            phi = phi - val / (s1 * cs - c1 * sn + 2 * (s2 * cs2 - c2 * sn2))
        real = np.abs(val) <= 1e-15 * np.abs(coef).sum(axis=1, keepdims=True)
        assert real.mean() > 0.5
        got = mlplr.limit_law._rank1_angles(coef, np.eye(5))
        gap = np.abs(np.angle(np.exp(1j * (got[:, None, :] - phi.astype(float)[:, :, None])))).min(axis=2)
        assert np.all(gap[real] <= 1e-10)

    def test_no_real_root_gives_finite_angles(self):
        coef = self._with_roots((-2.5, -0.4, 1.1, 3.0), lift=2.0)
        phi = np.linspace(-np.pi, np.pi, 1001)
        at = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)], axis=1)
        assert np.all(at @ coef > 0.5)  # p has no real zero
        got = mlplr.limit_law._rank1_angles(coef[None], np.eye(5))
        assert got.shape == (1, 4) and np.all(np.isfinite(got))


class TestSignFreeExtras:
    def test_d2_extended_value_dominates_both_orientations(self, desk_box):
        """values_with_columns with extras: sign-free extra columns in
        every active subset give the best value over the fixed
        orientations of them held sign-constrained, which the greedy
        orientation alone falls short of."""
        units = [HiddenUnit(1.0, np.array([0.5, 1.0, -0.5])), HiddenUnit(1.5, np.array([-0.3, 0.2, 1.2]))]
        spec = RegressionSpec(MlpParams(0.5, units), 1.0, 2, input_law="laplace")
        basis = ScoreBasis(2, 2, extended_grid(desk_box, 2, n_angles=6, radii=(1.0, 5.0)))
        gram = gram_matrix(spec, 20_000, seed=3, basis=basis)
        mx = _ConeMaximizer(gram)
        g = _desk_draws(gram, 200, seed=83)
        h = mx.residual(g)
        v_lin = mx.linear_values(g)
        extras = _greedy_extra_columns(mx, h, 2)
        rng = np.random.default_rng(89)
        cols = np.stack([_direction_columns(gram.basis, u, 1.0, rng.standard_normal((200, 3))) for u in (0, 1)], axis=1)
        got = mx.values_with_columns(h, cols, v_lin, extras)
        fixed = {}
        for signs in itertools.product((1.0, -1.0), repeat=2):
            cols_s = np.concatenate([extras * np.array(signs)[None, :, None], cols], axis=1)
            fixed[signs] = mx.values_with_columns(h, cols_s, v_lin)
            assert np.all(got >= fixed[signs] - 1e-12 * (1.0 + np.abs(fixed[signs])))
        best_fixed = np.max(list(fixed.values()), axis=0)
        assert np.all(got <= best_fixed + 1e-9 * (1.0 + best_fixed))
        assert np.any(got > fixed[(1.0, 1.0)] + 1e-6 * (1.0 + got))
