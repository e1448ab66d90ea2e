"""Statistical and analytic checks: KS, KL, martingale means, mass audits.

Checks produce CheckResult records that aggregate into a machine-diffable
ValidationReport.  KS thresholds always come from the asymptotic KS
distribution at 99% confidence and the effective sample size, never from
per-test constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, List, Optional

import numpy as np
from scipy.special import kolmogi

# cdf_from_pdf lives beside densities.Law and is still importable from here
from .densities import cdf_from_pdf, density_mass, family_tpd, family_tpd_unshifted
from .dists import std_normal_logcdf
from .families import DriftSpec, SkewFamily, drift_value
from .sde import PathEnsemble


@dataclass
class CheckResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n_effective: int = 0
    notes: str = ""


@dataclass
class ValidationReport:
    checks: List[CheckResult] = field(default_factory=list)
    seed: Optional[int] = None

    def add(self, name: str, statistic: float, threshold: float,
            n_effective: int = 0, notes: str = "", larger_is_failure: bool = True):
        passed = statistic <= threshold if larger_is_failure else statistic >= threshold
        self.checks.append(CheckResult(name=name, statistic=float(statistic),
                                       threshold=float(threshold), passed=bool(passed),
                                       n_effective=int(n_effective), notes=notes))
        return self.checks[-1]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"checks": [asdict(c) for c in self.checks],
                "seed": self.seed,
                "all_passed": self.all_passed}


def ks_statistic(samples, cdf: Callable) -> float:
    """Sup-norm distance between the empirical cdf of `samples` and `cdf`."""
    s = np.asarray(samples, dtype=float)
    if len(s) < 100:
        raise ValueError("need at least 100 samples for a KS statistic")
    if np.any(np.isnan(s)):
        raise ValueError("NaN samples rejected")
    s = np.sort(s)
    n = len(s)
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_threshold(n: int) -> float:
    """Asymptotic KS acceptance threshold at 99% confidence."""
    # 1.0 - 0.99, not 0.01: the two differ in the last bits
    return float(kolmogi(1.0 - 0.99)) / math.sqrt(n)


def _mean_and_se(v: np.ndarray):
    """Sample mean and standard error of v."""
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


def martingale_mean(h: Callable, ensemble: PathEnsemble, x0: float, checkpoints):
    """Sample mean and standard error of h(X_t, t) / h(x0, t_start) at the
    recorded times nearest the checkpoints.

    The ensemble must be simulated under the base measure that makes h a
    martingale; that contract is the caller's (it cannot be detected here).
    """
    times = ensemble.times
    h0 = float(np.asarray(h(np.asarray([x0]), float(times[0])))[0])
    out = []
    for tc in checkpoints:
        j = int(np.argmin(np.abs(times - tc)))
        vals = np.asarray(h(ensemble.values[:, j], float(times[j])), dtype=float) / h0
        out.append((float(times[j]), *_mean_and_se(vals)))
    return out


def _energy_paths(family: SkewFamily, paths: PathEnsemble) -> np.ndarray:
    """Half the time-integrated squared drift along each path (left Riemann
    on the recorded grid)."""
    spec = DriftSpec(family=family)
    times = paths.times
    dt = np.diff(times)
    acc = np.zeros(paths.n_paths)
    for j, t in enumerate(times[:-1]):
        mu = drift_value(spec, paths.values[:, j], float(t))
        acc += mu * mu * dt[j]
    return 0.5 * acc


def girsanov_energy(family: SkewFamily, paths: PathEnsemble):
    """Monte Carlo estimate of half the time-integrated squared drift along
    an ensemble simulated under the skewed dynamics (left Riemann on the
    recorded grid).  Returns (estimate, standard_error)."""
    return _mean_and_se(_energy_paths(family, paths))


def _log_ratio_paths(family: SkewFamily, paths: PathEnsemble, x0: float) -> np.ndarray:
    """The terminal log harmonic ratio log h(X_end)/h(x0) along each path."""
    times = paths.times
    return (std_normal_logcdf(family.alpha(float(times[-1])) * paths.values[:, -1])
            - std_normal_logcdf(family.alpha(float(times[0])) * x0))


def path_kl_telescoped(family: SkewFamily, paths: PathEnsemble, x0: float):
    """Relative entropy of the skewed path law w.r.t. the Brownian one,
    estimated as the mean terminal log harmonic ratio log h(X_end)/h(x0).

    The harmonic factor is the exact likelihood ratio of the two path
    measures, so this telescopes the divergence without density estimation.
    Orientation: KL(skewed || Brownian), the quantity the quadratic drift
    energy equals.  Returns (estimate, standard_error)."""
    return _mean_and_se(_log_ratio_paths(family, paths, x0))


def girsanov_kl_gap(family: SkewFamily, paths: PathEnsemble, x0: float):
    """Per-path gap between the telescoped log ratio and the quadratic
    energy; zero in the mean exactly when the optimality equality holds.
    Returns (gap_mean, gap_se)."""
    return _mean_and_se(_log_ratio_paths(family, paths, x0) - _energy_paths(family, paths))


def normalization_audit(family: SkewFamily, x0_list, t_list,
                        report: Optional[ValidationReport] = None) -> ValidationReport:
    """Mass audit: the shifted family density must integrate to one for
    every starting point; the unshifted kernel must deviate measurably for
    x0 != 0 (that deviation is the local-martingale signature, so it is
    asserted as a lower bound, not a defect)."""
    rep = report if report is not None else ValidationReport()
    for x0 in x0_list:
        for t in t_list:
            m_shift = density_mass(lambda x, s: family_tpd(x, s, family, x0),
                                   float(t), center=x0)
            rep.add(f"mass/shifted x0={x0} t={t}", abs(m_shift - 1.0), 1e-8,
                    notes="shifted-kernel quadrature mass vs 1")
            m_raw = density_mass(lambda x, s: family_tpd_unshifted(x, s, family, x0),
                                 float(t), center=x0)
            if x0 == 0:
                rep.add(f"mass/unshifted x0=0 t={t}", abs(m_raw - 1.0), 1e-8,
                        notes="unshifted kernel normalized at the origin")
            else:
                rep.add(f"mass/unshifted-deviates x0={x0} t={t}", abs(m_raw - 1.0),
                        1e-3, larger_is_failure=False,
                        notes="mass defect expected: amplitude-weighted factor is "
                              "only a local martingale off the origin")
    return rep
