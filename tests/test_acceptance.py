"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest
tests/test_acceptance.py -s` to see them live). The heavy samples are
built once in session fixtures and shared; total runtime is roughly half
an hour on two cores.

Default desk configuration throughout: d=1, k0=1, theta0=(0.5, 1,
(0.5, 1)), sigma2=1, standard normal inputs, eta=0.1, M=50.
"""

import functools
import time

import numpy as np
import pytest
from scipy.stats import chi2

from mlplr import (
    ExperimentConfig,
    FitConfig,
    PenaltySchedule,
    ScoreBasis,
    check_h4,
    delta_feasible,
    enumerate_partitions,
    expansion_decay,
    gradcheck,
    gram_matrix,
    gram_matrix_gh,
    ks_distance,
    normalize_score,
    run_replicates,
    simulate_limit,
)
from mlplr.limit_law import extended_grid

BASE_SEED = 20240801
FIT = FitConfig(n_starts=20, seed=0, max_iters=300, grad_tol=1e-5)
TIMES: dict[str, float] = {}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _timed(key):
    def wrap(fn):
        @functools.wraps(fn)  # pytest reads the fixture's arguments from the signature
        def inner(*args, **kwargs):
            t0 = time.time()
            out = fn(*args, **kwargs)
            TIMES[key] = time.time() - t0
            return out

        return inner

    return wrap


# ---------------------------------------------------------------------------
# Shared heavy samples
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def gh_gram(desk_spec):
    return gram_matrix_gh(desk_spec)


@pytest.fixture(scope="session")
@_timed("limit_k1")
def limit_k1(desk_spec, gh_gram):
    return simulate_limit(desk_spec, 1, gh_gram, 10_000, seed=424242)


@pytest.fixture(scope="session")
@_timed("limit_k2")
def limit_k2(desk_spec, gh_gram):
    return simulate_limit(desk_spec, 2, gh_gram, 10_000, seed=424242)


@pytest.fixture(scope="session")
@_timed("limit_k2_ext")
def limit_k2_extended(desk_spec, desk_box):
    """Appendix-variant index set: free-unit phi columns on a grid of
    slope scales spanning the box (log-spaced up to near M)."""
    grid = extended_grid(desk_box, 1, n_angles=8, radii=(2.0, 10.0, 45.0))
    basis = ScoreBasis(1, 1, grid)
    gram = gram_matrix_gh(desk_spec, basis=basis)
    return simulate_limit(desk_spec, 2, gram, 10_000, seed=424242, extended=True)


@pytest.fixture(scope="session")
@_timed("emp_k1")
def empirical_k1_n500(desk_spec, desk_box):
    config = ExperimentConfig(
        spec=desk_spec, box=desk_box, fit=FIT,
        schedule=PenaltySchedule("bic_like", input_dim=1),
        n_grid=[500], k_grid=[1], replicates=200, base_seed=BASE_SEED,
    )
    matrix = run_replicates(config, threads=2)
    assert not matrix.failures()
    return matrix.lr_values(500, 1)


@pytest.fixture(scope="session")
@_timed("emp_k2")
def empirical_k2_grid(desk_spec, desk_box):
    config = ExperimentConfig(
        spec=desk_spec, box=desk_box, fit=FIT,
        schedule=PenaltySchedule("bic_like", input_dim=1),
        n_grid=[200, 500, 1000], k_grid=[2], replicates=100, base_seed=BASE_SEED + 1,
    )
    matrix = run_replicates(config, threads=2)
    assert not matrix.failures()
    return {n: matrix.lr_values(n, 2) for n in (200, 500, 1000)}


@pytest.fixture(scope="session")
@_timed("selection")
def selection_grid(desk_spec, desk_box):
    config = ExperimentConfig(
        spec=desk_spec, box=desk_box,
        fit=FitConfig(n_starts=10, seed=0, max_iters=300, grad_tol=1e-5),
        schedule=PenaltySchedule("bic_like", input_dim=1),
        n_grid=[500, 2000], k_grid=[1, 2, 3], replicates=100, base_seed=BASE_SEED + 2,
    )
    matrix = run_replicates(config, threads=2)
    assert not matrix.failures()
    return {n: matrix.k_hat_values(n) for n in (500, 2000)}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_derivative_catalog(desk_spec):
    t0 = time.time()
    report = gradcheck(desk_spec, k=2, n_draws=100, seed=7, step_first=1e-5, step_second=1e-4)
    elapsed = time.time() - t0
    ok = (
        report["max_rel_error_first"] <= 1e-5
        and report["max_rel_error_second"] <= 1e-4
        and elapsed < 10.0
    )
    _report(
        1, "derivative catalog", ok,
        f"max rel err first={report['max_rel_error_first']:.2e} (<=1e-5), "
        f"second={report['max_rel_error_second']:.2e} (<=1e-4), {elapsed:.1f}s",
    )


def test_criterion_2_expansion_order(desk_spec):
    t0 = time.time()
    rems = expansion_decay(desk_spec, k=2, scales=(1e-2, 5e-3, 2.5e-3), n_draws=300, seed=11)
    elapsed = time.time() - t0
    r1 = rems[0] / rems[1]
    r2 = rems[1] / rems[2]
    ok = 6.0 <= r1 <= 10.0 and 6.0 <= r2 <= 10.0 and elapsed < 10.0
    _report(
        2, "cubic remainder decay", ok,
        f"halving ratios {r1:.2f}, {r2:.2f} (within [6, 10]), {elapsed:.1f}s",
    )


def test_criterion_3_h4_certificate(desk_spec, gh_gram):
    t0 = time.time()
    rep_gh = check_h4(gh_gram)
    rep_mc = check_h4(gram_matrix(desk_spec, 200_000, seed=5))
    elapsed = time.time() - t0
    ok = (
        rep_gh.passed
        and rep_gh.min_eigenvalue > 1e-8
        and rep_gh.passed == rep_mc.passed
        and elapsed < 30.0
    )
    _report(
        3, "H-4 certificate", ok,
        f"GH min eig={rep_gh.min_eigenvalue:.2e}, MC min eig={rep_mc.min_eigenvalue:.2e} "
        f"(>1e-8, modes agree), {elapsed:.1f}s",
    )


def test_criterion_4_regular_case_chi_square(limit_k1):
    vals = limit_k1.values
    mean = float(np.mean(vals))
    q95 = float(np.quantile(vals, 0.95))
    ref = chi2.ppf(0.95, 4)  # 9.4877
    elapsed = TIMES["limit_k1"]
    ok = abs(mean - 4.0) <= 0.05 * 4.0 and abs(q95 - ref) <= 0.05 * ref and elapsed < 120.0
    _report(
        4, "regular-case chi-square", ok,
        f"mean={mean:.3f} (4 +/- 5%), q95={q95:.3f} ({ref:.4f} +/- 5%), {elapsed:.0f}s",
    )


def test_criterion_5_regular_case_empirical(empirical_k1_n500, limit_k1):
    mean = float(np.mean(empirical_k1_n500))
    ks = ks_distance(empirical_k1_n500, limit_k1.values)
    elapsed = TIMES["emp_k1"]
    ok = abs(mean - 4.0) <= 0.2 * 4.0 and ks <= 0.15 and elapsed < 1200.0
    _report(
        5, "regular-case empirical LR", ok,
        f"mean 2*lambda={mean:.3f} (4 +/- 20%), KS vs limit={ks:.3f} (<=0.15), {elapsed:.0f}s",
    )


def test_criterion_6_tightness(empirical_k2_grid):
    medians = {n: float(np.median(v)) for n, v in empirical_k2_grid.items()}
    pooled = float(np.median(np.concatenate(list(empirical_k2_grid.values()))))
    gaps = [
        abs(medians[a] - medians[b])
        for a in medians
        for b in medians
        if a < b
    ]
    elapsed = TIMES["emp_k2"]
    ok = all(g <= 0.30 * pooled for g in gaps) and elapsed < 2400.0
    _report(
        6, "tightness under over-parameterization", ok,
        f"medians n=200/500/1000: {medians[200]:.2f}/{medians[500]:.2f}/{medians[1000]:.2f}, "
        f"pooled={pooled:.2f}, max gap={max(gaps):.2f} (<= {0.3 * pooled:.2f}), {elapsed:.0f}s",
    )


def test_criterion_7_limit_distribution(empirical_k2_grid, limit_k2, limit_k2_extended):
    """Distributional match of the simulated limit at k = k0 + 1.

    The paper's proof derives limit scores that include free-unit phi
    terms, which the final theorem statement drops; at desk scale those
    directions carry real likelihood mass (steep thresholded units), so
    the proof-variant index set is the one compared against experiment.
    The as-stated variant's distance is reported alongside for reference.
    """
    emp = empirical_k2_grid[1000]
    ks_ext = ks_distance(emp, limit_k2_extended.values)
    ks_core = ks_distance(emp, limit_k2.values)
    elapsed = TIMES["limit_k2"] + TIMES["limit_k2_ext"]
    ok = ks_ext <= 0.20 and elapsed < 1800.0
    _report(
        7, "limit-law distributional check", ok,
        f"KS (proof-variant index set)={ks_ext:.3f} (<=0.20); "
        f"KS (theorem-as-stated)={ks_core:.3f} for reference, {elapsed:.0f}s",
    )


def test_criterion_8_selection_consistency(selection_grid):
    freq = {n: float(np.mean(k_hats == 1)) for n, k_hats in selection_grid.items()}
    # smoothed binomial standard error so a perfect 100/100 stays testable
    n_rep = len(selection_grid[500])
    p_tilde = (np.sum(selection_grid[500] == 1) + 1.0) / (n_rep + 2.0)
    se = float(np.sqrt(p_tilde * (1.0 - p_tilde) / n_rep))
    elapsed = TIMES["selection"]
    ok = freq[2000] >= 0.9 and freq[2000] >= freq[500] - 2.0 * se and elapsed < 2400.0
    _report(
        8, "selection consistency", ok,
        f"freq(k_hat=k0): n=500 -> {freq[500]:.2f}, n=2000 -> {freq[2000]:.2f} "
        f"(>=0.9 and non-decreasing within 2 SE={2 * se:.3f}), {elapsed:.0f}s",
    )


def test_criterion_9_structural_invariants(desk_spec, gh_gram, limit_k1, limit_k2):
    t0 = time.time()
    checks = []

    counts_ok = len(enumerate_partitions(2, 1)) == 2 and len(enumerate_partitions(3, 2)) == 3
    checks.append(("partition counts", counts_ok))

    nu = np.array([0.4, -1.1])
    delta_ok = (
        not delta_feasible([nu])
        and delta_feasible([nu, -2.0 * nu])
        and not delta_feasible([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    )
    checks.append(("delta feasibility table", delta_ok))

    rng = np.random.default_rng(3)
    c = normalize_score(rng.standard_normal(7), gh_gram)
    norm_ok = np.allclose(normalize_score(c, gh_gram), c, atol=1e-12)
    checks.append(("normalization idempotence", norm_ok))

    mono_ok = bool(np.all(limit_k2.values >= limit_k1.values - 1e-8))
    checks.append(("per-draw monotonicity in k", mono_ok))

    sym_ok = np.allclose(gh_gram.sigma, gh_gram.sigma.T, atol=1e-12)
    psd_ok = float(np.linalg.eigvalsh(gh_gram.sigma).min()) >= -1e-10
    checks.append(("gram symmetry/PSD", sym_ok and psd_ok))

    elapsed = time.time() - t0
    ok = all(flag for _, flag in checks) and elapsed < 60.0
    failed = [name for name, flag in checks if not flag]
    _report(
        9, "structural invariants", ok,
        f"{len(checks)} checks, failed: {failed or 'none'}, {elapsed:.1f}s",
    )
