"""Ornstein-Uhlenbeck extensions: reversal transforms and skew noise drivers.

Covers the harmonic reweighting that turns a mean-reverting process into a
skew diffusion (drift lam*x + a Mills term), the mixture that reassembles
the repulsive OU law from the two chiralities, and the mean-reverting
system driven by finite-horizon skew noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .densities import ou_gaussian_esn, ou_htransform_tpd_raw
from .dists import esn_pdf, mills, std_normal_cdf, std_normal_logcdf
from .errors import SchemaError, SkewDiffError
from .families import DriftSpec, horizon_family
from .sde import PathEnsemble, SimConfig, TimeGrid, _clamp, _integrate


@dataclass(frozen=True)
class OuSkewSpec:
    """Mean-reversion rate and skew side."""

    lam: float
    chirality: int = 1

    def __post_init__(self):
        if not self.lam > 0:
            raise SchemaError(f"lam must be positive, got {self.lam}")
        if self.chirality not in (-1, 1):
            raise SchemaError("chirality must be +1 or -1")


def ou_htransform_drift(x, spec: OuSkewSpec):
    """Drift lam*x + chirality * sqrt(2 lam) * mills(chirality sqrt(2 lam) x).

    Equals lam*x + exp(-lam x^2) / (Gaussian mass below chirality*x at rate
    lam), with the Mills term evaluated in log space so the disfavored tail
    (where the ratio grows like 2*lam*|x|) stays finite.  The left-chirality
    Mills term carries a negative sign, which is what the mirror law and
    integrability require.
    """
    x = np.asarray(x, dtype=float)
    s = math.sqrt(2.0 * spec.lam)
    return spec.lam * x + spec.chirality * s * mills(spec.chirality * s * x)


def ou_h_log(x, t, spec: OuSkewSpec):
    """log of the harmonic factor e^{-lam t} e^{lam x^2} Phi(chir sqrt(2lam) x)."""
    x = np.asarray(x, dtype=float)
    s = math.sqrt(2.0 * spec.lam)
    return -spec.lam * t + spec.lam * x * x + std_normal_logcdf(spec.chirality * s * x)


def ou_h(x, t, spec: OuSkewSpec):
    """Harmonic factor of the reversal transform; a unit-mean martingale of
    the mean-reverting process when normalized by its starting value.

    Raises on overflow (lam * x^2 beyond ~700 cannot be exponentiated);
    use ou_h_log for ratios in that regime.
    """
    logs = ou_h_log(x, t, spec)
    if np.any(logs > 709.0):
        raise SkewDiffError("ou_h overflows for lam*x^2 > ~709; use ou_h_log")
    return np.exp(logs)


def ou_mixture_probability(lam: float, x: float):
    """Chirality weights (p_minus, p_plus) = Gaussian masses at rate lam
    below -x and x; they sum to one exactly."""
    if not lam > 0:
        raise SchemaError(f"lam must be positive, got {lam}")
    s = math.sqrt(2.0 * lam)
    p_plus = float(std_normal_cdf(s * x))
    return 1.0 - p_plus, p_plus


def stationary_ou_tpd(x, t: float, lam: float, x0: float):
    """Gaussian transition law of dX = -lam X dt + dW from x0."""
    return esn_pdf(x, ou_gaussian_esn(t, -lam, x0))


def repulsive_ou_tpd(x, t: float, lam: float, x0: float):
    """Gaussian transition law of the unstable counterpart dX = +lam X dt + dW."""
    return esn_pdf(x, ou_gaussian_esn(t, lam, x0))


def ou_identity_residual(lam: float, x0: float, x_grid, t_values) -> float:
    """Max-abs gap in the reversal identity

        p_minus(lam, x0) * Q_minus + p_plus(lam, x0) * Q_plus = repulsive OU tpd,

    where Q_pm are the chirality transition laws (harmonic ratio times the
    stationary tpd).  The weighted harmonic ratios sum to exactly
    e^{-lam t} e^{lam (x^2 - x0^2)}, which converts the stationary law into
    the repulsive one, so the identity is exact; a single time factor,
    already inside each harmonic factor, is the correct bookkeeping.
    """
    p_minus, p_plus = ou_mixture_probability(lam, x0)
    x = np.asarray(x_grid, dtype=float)
    worst = 0.0
    for t in np.atleast_1d(t_values):
        t = float(t)
        mix = (p_minus * ou_htransform_tpd_raw(x, t, lam, x0, chirality=-1)
               + p_plus * ou_htransform_tpd_raw(x, t, lam, x0, chirality=+1))
        target = repulsive_ou_tpd(x, t, lam, x0)
        worst = max(worst, float(np.max(np.abs(mix - target))))
    return worst


def simulate_ou_skew_noise(lam: float, x0: float, T: float, grid: TimeGrid,
                           cfg: SimConfig):
    """Integrate the coupled pair: Z follows the horizon family's drift
    (right chirality, horizon T) and X follows dX = -lam X dt + dZ.

    X is driven by the *same* increments dZ, not by fresh noise -- the pair
    is a degenerate two-dimensional diffusion with a single Gaussian source,
    and splitting the streams would change the law of X.  The skew drift
    increment of Z is clamped at cfg.drift_clamp like every drift in
    `simulate`; both ensembles carry the event count.  Returns the (X, Z)
    ensembles.  A grid that reaches T is a SchemaError: the law of Z is
    singular there.
    """
    if not lam > 0:
        raise SchemaError(f"lam must be positive, got {lam}")
    noise = DriftSpec(family=horizon_family(T))
    if not grid.t_final < T:
        raise SchemaError(f"the skew noise needs t_final < T, got t_final="
                          f"{grid.t_final} and T={T}")
    dt = grid.dt
    sqdt = math.sqrt(dt)
    times = grid.times()

    def step(states, zs, k, lo):
        x, z = states
        inc, n = _clamp(noise.mu(z, times[k]) * dt, cfg.drift_clamp, k, lo)
        dz = inc + zs[0]
        # x + (-lam * x) * dt + dz, summed in that order
        x_new = -lam * x
        x_new *= dt
        x_new += x
        x_new += dz
        dz += z
        return (x_new, dz), n

    (xv, zv), clamps = _integrate(lambda lo, hi: partial(step, lo=lo), (x0, 0.0), grid, cfg,
                                  scales=(sqdt,))
    ens_x = PathEnsemble(grid=grid, values=xv, seed=cfg.seed,
                         record_stride=cfg.record_stride, clamp_events=clamps)
    ens_z = PathEnsemble(grid=grid, values=zv, seed=cfg.seed,
                         record_stride=cfg.record_stride, clamp_events=clamps)
    return ens_x, ens_z
