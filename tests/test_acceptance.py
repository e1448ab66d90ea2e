"""Acceptance suite: every quantitative claim at its pinned tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (run with -s or -rP
to see them all); the asserts carry the same numbers, so the pytest verdict
and the printed lines always agree.  Monte Carlo sizes follow the stated
configurations; KS thresholds are the asymptotic 99% values for the
effective sample size.
"""
import math
import time

import numpy as np
import pytest

import _acceptance_log

from skewdiff import (DriftSpec, SimConfig, TimeGrid, brownian_h_residual,
                      censored_posterior, chapman_kolmogorov_residual,
                      constant_correlation_family, constant_skew_family,
                      constant_skew_tpd, family_from_amplitude, family_tpd,
                      family_tpd_unshifted, girsanov_kl_gap, horizon_family,
                      horizon_tpd, horizon_tpd_two_time, mixture_probability,
                      ode_residual, ou_h_residual,
                      ou_identity_residual, ou_mixture_probability,
                      ou_skew_driven_marginal, restart_tpd,
                      simulate, simulate_bivariate_censoring, simulate_mixture,
                      simulate_ou_skew_noise, solve_kfe, std_normal_cdf,
                      verify_ou_selection, verify_selection_representation)
from skewdiff.densities import density_mass
from skewdiff.fokker_planck import FpConfig
from skewdiff.validation import cdf_from_pdf, ks_statistic, ks_threshold, \
    martingale_mean

SEED = 1


def report(tag, passed, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)                        # visible live under -s
    _acceptance_log.LINES.append(line)  # echoed in the terminal summary


def l1(a, b, x):
    return float(np.trapezoid(np.abs(a - b), x))


# ---------------------------------------------------------------- fixtures
_SIM_WALL = {"elapsed": 0.0}


@pytest.fixture(scope="module")
def constant_skew_run():
    drift = DriftSpec(family=constant_skew_family(1.0, +1))
    grid = TimeGrid(0.0, 1.0, 1000)             # dt = 1e-3
    cfg = SimConfig(n_paths=200_000, seed=SEED, record_stride=250)
    t0 = time.perf_counter()
    ens = simulate(drift, 0.0, grid, cfg)
    _SIM_WALL["elapsed"] += time.perf_counter() - t0
    return ens


@pytest.fixture(scope="module")
def horizon_run():
    T, eps = 1.0, 1e-4
    drift = DriftSpec(family=horizon_family(T, +1))
    grid = TimeGrid(0.0, T, 2500, terminal_cutoff_epsilon=eps)
    cfg = SimConfig(n_paths=200_000, seed=SEED + 1, record_stride=625)
    t0 = time.perf_counter()
    ens = simulate(drift, 0.0, grid, cfg)
    _SIM_WALL["elapsed"] += time.perf_counter() - t0
    return ens


@pytest.fixture(scope="module")
def censoring_run():
    T = 1.0
    grid = TimeGrid(0.0, T, 2000)
    cfg = SimConfig(n_paths=200_000, seed=SEED + 2, record_stride=500)
    ens_x, ens_y = simulate_bivariate_censoring(lambda t: math.sqrt(t / T), grid, cfg)
    return T, grid, ens_x, ens_y


# ------------------------------------------------------------- criterion 1
def test_criterion_1_amplitude_skewness_system():
    t0 = time.perf_counter()
    worst_sup = 0.0

    num_h = family_from_amplitude(lambda t: 1.0, 1.0, +1,
                                  np.linspace(0.01, 0.995, 60))
    fam_h = horizon_family(1.0, +1)
    ts = np.linspace(0.01, 0.99, 200)
    worst_sup = max(worst_sup, float(np.max(np.abs(num_h.alpha(ts) - fam_h.alpha(ts)))))

    fam_c = constant_skew_family(1.0, +1)
    num_c = family_from_amplitude(lambda t: float(fam_c.psi(t)), 1.0, +1,
                                  np.linspace(0.01, 5.0, 60))
    ts_inf = np.linspace(0.01, 4.95, 200)
    worst_sup = max(worst_sup, float(np.max(np.abs(num_c.alpha(ts_inf) - 1.0))))

    fam_r = constant_correlation_family(0.6, +1)
    num_r = family_from_amplitude(lambda t: 0.5, 0.6, +1, np.linspace(0.01, 5.0, 60))
    worst_sup = max(worst_sup, float(np.max(np.abs(num_r.alpha(ts_inf) - fam_r.alpha(ts_inf)))))

    worst_ode = 0.0
    for fam, span in ((fam_h, (0.05, 0.8)), (fam_c, (0.05, 4.0)), (fam_r, (0.05, 4.0))):
        res = float(np.max(np.abs(ode_residual(fam, np.linspace(*span, 50)))))
        worst_ode = max(worst_ode, res)

    elapsed = time.perf_counter() - t0
    ok = worst_sup < 1e-8 and worst_ode < 1e-6 and elapsed < 1.0
    report("1 amplitude/skewness system", ok,
           f"sup={worst_sup:.2e}<1e-8, ode={worst_ode:.2e}<1e-6, {elapsed:.2f}s<1s")
    assert worst_sup < 1e-8
    assert worst_ode < 1e-6
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 2
def test_criterion_2_backward_equation_residuals():
    t0 = time.perf_counter()
    xg = np.linspace(-3, 3, 101)
    fam = horizon_family(1.0, +1)
    tg_b = np.linspace(0.01, 0.9, 101)
    res_b = brownian_h_residual(fam, xg, tg_b)
    neg_b = brownian_h_residual(fam, xg, tg_b, alpha_scale=1.01)
    tg_o = np.linspace(0.0, 2.0, 101)
    res_o = ou_h_residual(1.0, +1, xg, tg_o)
    neg_o = ou_h_residual(1.0, +1, xg, tg_o, drop_time_factor=True)
    elapsed = time.perf_counter() - t0
    ok = res_b < 1e-12 and res_o < 1e-10 and neg_b > 1e-3 and neg_o > 1e-3 \
        and elapsed < 1.0
    report("2 backward residuals", ok,
           f"brownian={res_b:.2e}<1e-12, ou={res_o:.2e}<1e-10, "
           f"controls {neg_b:.2e}/{neg_o:.2e}>1e-3, {elapsed:.2f}s<1s")
    assert res_b < 1e-12
    assert res_o < 1e-10
    assert neg_b > 1e-3 and neg_o > 1e-3
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 3
def test_criterion_3_forward_equation_oracle():
    t0 = time.perf_counter()
    grid = TimeGrid(0.0, 1.0, 10_000)

    zero = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))
    cfg = FpConfig(x_min=-10, x_max=10, n_x=2001, n_t=10_000)
    sol = solve_kfe(zero, 0.0, grid, cfg)
    w = cfg.mollifier_width()
    ref = np.exp(-sol.x_nodes**2 / (2 * (1 + w * w))) / math.sqrt(2 * math.pi * (1 + w * w))
    err_heat = l1(sol.values[-1], ref, sol.x_nodes)

    lam, x0 = 1.0, 1.0
    ou = DriftSpec(mu_fn=lambda x, t: -lam * x)
    cfg_ou = FpConfig(x_min=-9, x_max=10, n_x=2001, n_t=10_000)
    sol_ou = solve_kfe(ou, x0, grid, cfg_ou)
    m = x0 * math.exp(-lam)
    v = (1 - math.exp(-2 * lam)) / (2 * lam)
    ref_ou = np.exp(-(sol_ou.x_nodes - m) ** 2 / (2 * v)) / math.sqrt(2 * math.pi * v)
    err_ou = l1(sol_ou.values[-1], ref_ou, sol_ou.x_nodes)

    skew = DriftSpec(family=constant_skew_family(1.0, +1))
    cfg_sk = FpConfig(x_min=-10, x_max=10, n_x=2001, n_t=10_000)
    sol_sk = solve_kfe(skew, 0.0, grid, cfg_sk)
    ref_sk = constant_skew_tpd(sol_sk.x_nodes, 1.0, 1.0, +1)
    err_sk = l1(sol_sk.values[-1], ref_sk, sol_sk.x_nodes)

    elapsed = time.perf_counter() - t0
    ok = err_heat <= 1e-4 and err_ou <= 5e-4 and err_sk <= 5e-3 and elapsed < 60
    report("3 forward-equation oracle", ok,
           f"heat={err_heat:.2e}<=1e-4, ou={err_ou:.2e}<=5e-4, "
           f"skew={err_sk:.2e}<=5e-3, {elapsed:.1f}s<60s")
    assert err_heat <= 1e-4
    assert err_ou <= 5e-4
    assert err_sk <= 5e-3
    assert elapsed < 60


# ------------------------------------------------------------- criterion 4
def test_criterion_4_monte_carlo_laws(constant_skew_run, horizon_run):
    t0 = time.perf_counter()
    n = constant_skew_run.n_paths
    ref = cdf_from_pdf(lambda v: constant_skew_tpd(v, 1.0, 1.0, +1), -7, 8)
    ks_cs = ks_statistic(constant_skew_run.values[:, -1], ref)
    thr = ks_threshold(n)

    T = 1.0
    t_half = float(horizon_run.times[2])
    ref_h = cdf_from_pdf(lambda v: horizon_tpd(v, t_half, 0.0, T, +1), -6, 7)
    ks_h = ks_statistic(horizon_run.at_time(t_half), ref_h)
    neg_frac = float(np.mean(horizon_run.values[:, -1] < 0))
    elapsed = time.perf_counter() - t0

    ok = ks_cs < thr and ks_h < thr and neg_frac < 0.02
    report("4 Monte Carlo laws", ok,
           f"constant-skew KS={ks_cs:.4f}<{thr:.4f}, horizon KS={ks_h:.4f}<{thr:.4f}, "
           f"neg-frac={neg_frac:.4f}<0.02, check {elapsed:.0f}s")
    assert ks_cs < thr
    assert ks_h < thr
    assert neg_frac < 0.02


def test_criterion_4_runtime_budget(constant_skew_run, horizon_run):
    ok = _SIM_WALL["elapsed"] < 120.0
    report("4b simulation runtime", ok,
           f"{_SIM_WALL['elapsed']:.0f}s<120s for both ensembles")
    assert ok


# ------------------------------------------------------------- criterion 5
def test_criterion_5_censoring_equivalence(censoring_run):
    T, grid, ens_x, ens_y = censoring_run
    n = ens_x.n_paths
    rho_vals = np.sqrt(np.maximum(grid.times()[:-1], 0.0) / T)
    all_ok = True
    details = []
    for t_check in (0.25, 0.5):
        j = int(np.argmin(np.abs(ens_x.times - t_check)))
        t_j = float(ens_x.times[j])
        n_sub = int(round(t_j / grid.dt))
        r_eff = float(rho_vals[:n_sub].sum() * grid.dt / t_j)
        keep = ens_y.values[:, j] >= 0.0
        surv = ens_x.values[:, j][keep]
        frac = keep.mean()
        ref = cdf_from_pdf(lambda v: censored_posterior(v, t_j, r_eff), -6, 7)
        ks = ks_statistic(surv, ref)
        thr = ks_threshold(len(surv))
        frac_tol = 3.0 / (2.0 * math.sqrt(n))
        ok = ks < thr and abs(frac - 0.5) < frac_tol
        all_ok = all_ok and ok
        details.append(f"t={t_check}: KS={ks:.4f}<{thr:.4f}, "
                       f"|frac-0.5|={abs(frac-0.5):.4f}<{frac_tol:.4f}")
        assert ks < thr
        assert abs(frac - 0.5) < frac_tol
    report("5 censoring equivalence", all_ok, "; ".join(details))


# ------------------------------------------------------------- criterion 6
def test_criterion_6_selection_identities():
    worst = 0.0
    families = [(horizon_family(1.0, +1), (0.05, 0.9)),
                (constant_skew_family(1.0, +1), (0.05, 3.0)),
                (constant_correlation_family(0.5, +1), (0.05, 3.0))]
    for fam, span in families:
        for t in np.linspace(*span, 21):
            for x in np.linspace(-3, 3, 21):
                _, _, d = verify_selection_representation(fam, float(x), float(t))
                worst = max(worst, d)

    worst_ou = 0.0
    for lam in (0.5, 1.0, 2.0):
        for x in np.linspace(-3, 3, 21):
            for chir in (+1, -1):
                _, _, d = verify_ou_selection(lam, float(x), chir)
                worst_ou = max(worst_ou, d)

    ok = worst < 1e-10 and worst_ou < 1e-10
    report("6 selection identities", ok,
           f"families={worst:.2e}<1e-10, ou(corrected variance lam/2, "
           f"doubled mean weight)={worst_ou:.2e}<1e-10")
    assert worst < 1e-10
    assert worst_ou < 1e-10


# ------------------------------------------------------------- criterion 7
def test_criterion_7_pointwise_mixture_identities():
    T = 1.0
    xs = np.linspace(-4, 4, 161)
    worst = 0.0
    for x0 in (0.0, 0.7, -1.2):
        p_minus, p_plus = mixture_probability(x0, T)
        for t in (0.25, 0.5, 0.75):
            mix = (p_plus * horizon_tpd(xs, t, x0, T, +1)
                   + p_minus * horizon_tpd(xs, t, x0, T, -1))
            gauss = np.exp(-0.5 * (xs - x0) ** 2 / t) / math.sqrt(2 * math.pi * t)
            worst = max(worst, float(np.max(np.abs(mix - gauss))))

    res_ou = ou_identity_residual(1.0, 0.3, xs, [0.25, 0.5, 1.0, 2.0])
    ok = worst < 1e-10 and res_ou < 1e-10
    report("7a pointwise mixture identities", ok,
           f"brownian={worst:.2e}<1e-10, ou-reversal={res_ou:.2e}<1e-10")
    assert worst < 1e-10
    assert res_ou < 1e-10


def test_criterion_7_mixture_simulations():
    T, eps = 1.0, 1e-4
    n = 200_000
    drift = DriftSpec(family=horizon_family(T, +1))
    grid = TimeGrid(0.0, T, 2500, terminal_cutoff_epsilon=eps)
    cfg = SimConfig(n_paths=n, seed=SEED + 3, record_stride=2500)
    ens = simulate_mixture(drift, 0.5, 0.0, grid, cfg)
    t_term = T - eps
    ks_b = ks_statistic(ens.values[:, -1],
                        lambda v: std_normal_cdf(v / math.sqrt(t_term)))
    thr = ks_threshold(n)

    lam, x0 = 1.0, 0.3
    ou = DriftSpec(params={"lam": lam, "chirality": +1})
    _, p_plus = ou_mixture_probability(lam, x0)
    grid2 = TimeGrid(0.0, 1.0, 1000)
    ens2 = simulate_mixture(ou, p_plus, x0, grid2,
                            SimConfig(n_paths=n, seed=SEED + 4, record_stride=1000))
    m = x0 * math.exp(lam)
    sd = math.sqrt((math.exp(2 * lam) - 1) / (2 * lam))
    ks_ou = ks_statistic(ens2.values[:, -1],
                         lambda v: std_normal_cdf((v - m) / sd))

    ok = ks_b < thr and ks_ou < thr
    report("7b mixture simulations", ok,
           f"brownian-recomb KS={ks_b:.4f}<{thr:.4f}, "
           f"ou-mixture KS={ks_ou:.4f}<{thr:.4f} (target: growing-OU law)")
    assert ks_b < thr
    assert ks_ou < thr


# ------------------------------------------------------------- criterion 8
def test_criterion_8_martingale_means():
    n = 100_000
    T, x0 = 1.0, 0.3
    zero = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))
    bm = simulate(zero, x0, TimeGrid(0.0, T, 300),
                  SimConfig(n_paths=n, seed=SEED + 5, record_stride=75))

    def h_b(x, t):
        return std_normal_cdf(x / math.sqrt(T - t))

    rows_b = martingale_mean(h_b, bm, x0, checkpoints=[0.25, 0.5, 0.75])

    lam = 1.0
    ou = DriftSpec(mu_fn=lambda x, t: -lam * x)
    ou_paths = simulate(ou, x0, TimeGrid(0.0, 0.32, 320),
                        SimConfig(n_paths=n, seed=SEED + 6, record_stride=80))

    def h_o(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-lam * t + lam * x * x) * std_normal_cdf(math.sqrt(2 * lam) * x)

    rows_o = martingale_mean(h_o, ou_paths, x0, checkpoints=[0.08, 0.16, 0.24])

    devs = [(abs(m - 1.0), 3 * se) for _, m, se in rows_b + rows_o]
    ok = all(d < tol for d, tol in devs)
    detail = ", ".join(f"{d:.4f}<{tol:.4f}" for d, tol in devs)
    report("8 martingale means", ok, detail)
    for d, tol in devs:
        assert d < tol


# ------------------------------------------------------------- criterion 9
def test_criterion_9_semigroup_consistency():
    def tpd(x, t, xp, tp):
        return horizon_tpd_two_time(x, t, xp, tp, T=1.0, chirality=+1)

    res = chapman_kolmogorov_residual(tpd, 0.7, 0.2, 0.5, 0.8,
                                      np.linspace(-3, 3, 13))

    fam = constant_skew_family(1.0, +1)

    def naive(x, t, xp, tp):
        return restart_tpd(x, t, xp, tp, fam)

    res_neg = chapman_kolmogorov_residual(naive, 1.5, 0.2, 0.5, 0.8,
                                          np.linspace(-3, 3, 13))
    ok = res < 1e-8 and res_neg > 1e-3
    report("9 semigroup consistency", ok,
           f"horizon tpd={res:.2e}<1e-8, restart control={res_neg:.2e}>1e-3")
    assert res < 1e-8
    assert res_neg > 1e-3


# ------------------------------------------------------------ criterion 10
def test_criterion_10_skew_noise_marginal():
    lam, T, x0 = 1.0, 2.0, 0.4
    n = 200_000
    grid = TimeGrid(0.0, 1.0, 1000)
    ens_x, _ = simulate_ou_skew_noise(lam, x0, T, grid,
                                      SimConfig(n_paths=n, seed=SEED + 7,
                                                record_stride=1000))
    ref = cdf_from_pdf(lambda v: ou_skew_driven_marginal(v, 1.0, lam, x0, T),
                       -8, 8)
    ks = ks_statistic(ens_x.values[:, -1], ref)
    thr = ks_threshold(n)

    xs = np.linspace(-5, 5, 401)
    worst = 0.0
    for t in (0.5, 1.0, 1.5):
        m = ou_skew_driven_marginal(xs, t, 1e-4, 0.0, T)
        worst = max(worst, float(np.max(np.abs(m - horizon_tpd(xs, t, 0.0, T, +1)))))

    ok = ks < thr and worst < 1e-3
    report("10 skew-noise marginal", ok,
           f"KS={ks:.4f}<{thr:.4f}, small-rate sup={worst:.2e}<1e-3")
    assert ks < thr
    assert worst < 1e-3


# ------------------------------------------------------------ criterion 11
def test_criterion_11_energy_equals_divergence():
    fam = horizon_family(1.0, +1)
    drift = DriftSpec(family=fam)
    all_ok = True
    details = []
    for seed in (1, 2, 3):
        ens = simulate(drift, 0.0, TimeGrid(0.0, 0.8, 400),
                       SimConfig(n_paths=20_000, seed=seed))
        gap, se = girsanov_kl_gap(fam, ens, 0.0)
        ok = abs(gap) < 3 * se
        all_ok = all_ok and ok
        details.append(f"seed {seed}: |gap|={abs(gap):.5f}<{3 * se:.5f}")
        assert abs(gap) < 3 * se
    report("11 energy equals divergence", all_ok, "; ".join(details))


# ------------------------------------------------------------ criterion 12
def test_criterion_12_normalization_audit():
    fam = constant_skew_family(1.0, +1)
    worst_shifted = 0.0
    for x0 in (-2.0, 0.0, 1.5):
        mass = density_mass(lambda x, t: family_tpd(x, t, fam, x0), 1.0, center=x0)
        worst_shifted = max(worst_shifted, abs(mass - 1.0))
    mass_raw = density_mass(lambda x, t: family_tpd_unshifted(x, t, fam, 1.5), 1.0,
                            center=1.5)
    deviation = abs(mass_raw - 1.0)
    ok = worst_shifted < 1e-8 and deviation > 1e-3
    report("12 normalization audit", ok,
           f"shifted worst={worst_shifted:.2e}<1e-8, "
           f"unshifted deviation={deviation:.3f}>1e-3")
    assert worst_shifted < 1e-8
    assert deviation > 1e-3
