"""Prebuilt verification suite wiring the analytic and statistical checks.

Every check's threshold is pinned here; KS thresholds derive from the
effective sample count at 99% confidence.  The "quick" variant trims the
Monte Carlo sizes for smoke testing, the "core" variant is what the CLI
validate command runs by default.
"""
from __future__ import annotations

import math

import numpy as np

from .censoring import verify_ou_selection, verify_selection_representation
from .densities import (chapman_kolmogorov_residual, horizon_tpd,
                        horizon_tpd_two_time, ou_htransform_tpd,
                        ou_htransform_tpd_raw, restart_tpd)
from .dists import ExtendedSkewNormalParams, esn_pdf, std_normal_cdf
from .families import (DriftSpec, constant_correlation_family,
                       constant_skew_family, family_from_amplitude,
                       horizon_family, ode_residual)
from .fokker_planck import brownian_h_residual, ou_h_residual
from .ou_skew import ou_identity_residual
from .sde import SimConfig, TimeGrid, mixture_probability, simulate
from .validation import (ValidationReport, ks_statistic, ks_threshold,
                         martingale_mean, normalization_audit)


def _check_family_recovery(report: ValidationReport):
    t_scan = np.linspace(0.01, 0.99, 120)

    fam_h = horizon_family(1.0, +1)
    num = family_from_amplitude(lambda t: 1.0, 1.0 / math.sqrt(1.0), +1,
                                np.linspace(0.01, 0.995, 60))
    err = float(np.max(np.abs(num.alpha(t_scan) - fam_h.alpha(t_scan))))
    report.add("family/solver-recovers-horizon", err, 1e-8)

    a = 1.0
    fam_c = constant_skew_family(a, +1)
    num2 = family_from_amplitude(lambda t: float(fam_c.psi(t)), a, +1,
                                 np.linspace(0.01, 5.0, 60))
    t2 = np.linspace(0.01, 4.95, 120)
    err2 = float(np.max(np.abs(num2.alpha(t2) - a)))
    report.add("family/solver-recovers-constant-skew", err2, 1e-8)

    C = 0.6
    fam_r = constant_correlation_family(C, +1)
    num3 = family_from_amplitude(lambda t: 0.5, C, +1, np.linspace(0.01, 5.0, 60))
    err3 = float(np.max(np.abs(num3.alpha(t2) - fam_r.alpha(t2))))
    report.add("family/solver-recovers-constant-correlation", err3, 1e-10)

    for fam, rng in ((fam_h, (0.05, 0.8)), (fam_c, (0.05, 4.0)), (fam_r, (0.05, 4.0))):
        ts = np.linspace(*rng, 50)
        res = float(np.max(np.abs(ode_residual(fam, ts))))
        report.add(f"family/ode-residual-{fam.kind}", res, 1e-6)


def _check_backward_residuals(report: ValidationReport):
    xg = np.linspace(-3, 3, 101)
    tg = np.linspace(0.01, 0.9, 101)
    report.add("pde/horizon-h-residual", brownian_h_residual(1.0, +1, xg, tg), 1e-12)
    report.add("pde/horizon-h-residual-perturbed",
               brownian_h_residual(1.0, +1, xg, tg, alpha_scale=1.01), 1e-3,
               larger_is_failure=False, notes="negative control must exceed 1e-3")
    tg2 = np.linspace(0.0, 2.0, 101)
    report.add("pde/ou-h-residual", ou_h_residual(1.0, +1, xg, tg2), 1e-10)
    report.add("pde/ou-h-residual-dropped-factor",
               ou_h_residual(1.0, +1, xg, tg2, drop_time_factor=True), 1e-2,
               larger_is_failure=False, notes="negative control must exceed 1e-2")
    gap = abs(ou_h_residual(1.0, +1, xg, tg2) - ou_h_residual(1.0, -1, xg, tg2))
    report.add("pde/ou-h-residual-mirror", gap, 1e-12)


def _check_selection(report: ValidationReport):
    xs = np.linspace(-3, 3, 21)
    fams = [horizon_family(1.0, +1), constant_skew_family(1.0, +1),
            constant_correlation_family(0.5, +1), constant_skew_family(2.0, -1)]
    spans = [(0.05, 0.9), (0.05, 3.0), (0.05, 3.0), (0.05, 3.0)]
    worst = 0.0
    for fam, span in zip(fams, spans):
        for t in np.linspace(*span, 21):
            for x in xs:
                _, _, diff = verify_selection_representation(fam, float(x), float(t))
                worst = max(worst, diff)
    report.add("selection/family-identity", worst, 1e-10)

    worst_ou = 0.0
    for lam in (0.5, 1.0, 2.0):
        for x in xs:
            _, _, diff = verify_ou_selection(lam, float(x), +1)
            worst_ou = max(worst_ou, diff)
            _, _, diff_m = verify_ou_selection(lam, float(x), -1)
            worst_ou = max(worst_ou, diff_m)
    report.add("selection/ou-identity-corrected", worst_ou, 1e-10,
               notes="censored-mean form uses variance lam/2 with a doubled "
                     "mean weight")


def _check_pointwise_identities(report: ValidationReport):
    # Brownian recombination of opposite-chirality horizon laws
    T = 1.0
    xs = np.linspace(-4, 4, 161)
    worst = 0.0
    for x0 in (0.0, 0.7, -1.2):
        p_minus, p_plus = mixture_probability(x0, T)
        for t in (0.25, 0.5, 0.75):
            mix = (p_plus * horizon_tpd(xs, t, x0, T, +1)
                   + p_minus * horizon_tpd(xs, t, x0, T, -1))
            gauss = esn_pdf(xs, ExtendedSkewNormalParams(x0, math.sqrt(t), 0.0, 0.0))
            worst = max(worst, float(np.max(np.abs(mix - gauss))))
    report.add("identity/brownian-recombination", worst, 1e-10)

    report.add("identity/ou-reversal",
               ou_identity_residual(1.0, 0.3, np.linspace(-4, 4, 161),
                                    [0.25, 0.5, 1.0, 2.0]), 1e-10)

    # ESN parameter mapping vs the raw integral-ratio law
    worst_esn = 0.0
    for chir in (+1, -1):
        for t in (0.3, 1.0, 2.0):
            a = ou_htransform_tpd(xs, t, 1.0, 0.4, chir)
            b = ou_htransform_tpd_raw(xs, t, 1.0, 0.4, chir)
            worst_esn = max(worst_esn, float(np.max(np.abs(a - b))))
    report.add("identity/esn-mapping", worst_esn, 1e-12)


def _check_semigroup(report: ValidationReport):
    tpd = lambda x, t, xp, tp: horizon_tpd_two_time(x, t, xp, tp, T=1.0, chirality=+1)
    res = chapman_kolmogorov_residual(tpd, x0=0.7, t0=0.2, t1=0.5, t2=0.8,
                                      x2_grid=np.linspace(-3, 3, 7))
    report.add("semigroup/horizon-tpd", res, 1e-8)

    fam = constant_skew_family(1.0, +1)
    naive = lambda x, t, xp, tp: restart_tpd(x, t, xp, tp, fam)
    res_neg = chapman_kolmogorov_residual(naive, x0=1.5, t0=0.2, t1=0.5, t2=0.8,
                                          x2_grid=np.linspace(-3, 3, 7))
    report.add("semigroup/restart-kernel-fails", res_neg, 1e-3,
               larger_is_failure=False,
               notes="restarted shifted kernel is not a semigroup (negative control)")


def _check_monte_carlo(report: ValidationReport, seed: int, quick: bool):
    n = 20_000 if quick else 50_000
    steps = 250 if quick else 500
    fam = constant_skew_family(1.0, +1)
    drift = DriftSpec(family=fam)
    grid = TimeGrid(0.0, 1.0, steps)
    cfg = SimConfig(n_paths=n, seed=seed, record_stride=steps)
    ens = simulate(drift, 0.0, grid, cfg)
    ks = ks_statistic(ens.values[:, -1], drift.law(0.0).cdf(grid.t_final))
    report.add("mc/constant-skew-terminal-ks", ks, ks_threshold(n),
               n_effective=n)
    report.add("mc/clamp-fraction", ens.clamp_events / (n * steps), 1e-3,
               notes="clamped steps must stay below 0.1%")

    # the grid ends at the last checkpoint with the step of 300 steps to
    # t = 1 (0.75/225 and 1/300 are one double), so no later step is run
    bm = simulate(DriftSpec(mu_fn=lambda x, t: np.zeros_like(x)),
                  0.3, TimeGrid(0.0, 0.75, 225), SimConfig(n_paths=n, seed=seed + 1,
                                                           record_stride=75))
    T = 1.0

    def h(x, t):
        return std_normal_cdf(x / math.sqrt(T - t))

    rows = martingale_mean(h, bm, 0.3, checkpoints=[0.25, 0.5, 0.75])
    worst = max(abs(m - 1.0) / se for _, m, se in rows)
    report.add("mc/horizon-martingale-mean", worst, 3.0, n_effective=n,
               notes="max |mean-1|/SE over checkpoints")


def build_core_report(seed: int = 1, quick: bool = False) -> ValidationReport:
    report = ValidationReport(seed=seed)
    _check_family_recovery(report)
    _check_backward_residuals(report)
    _check_selection(report)
    _check_pointwise_identities(report)
    _check_semigroup(report)
    fam = constant_skew_family(1.0, +1)
    normalization_audit(fam, x0_list=(-2.0, 0.0, 1.5), t_list=(1.0,), report=report)
    _check_monte_carlo(report, seed, quick)
    return report
