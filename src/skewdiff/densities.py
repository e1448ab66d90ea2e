"""Closed-form transition and marginal densities, evaluated in log space.

Every normalized law here is one extended skew-normal (ESN) law: a map
`*_esn(t, ...)` gives its (location, scale, shape, truncation) at time t,
the `*_tpd` of the same law is `dists.esn_pdf` at those parameters, and a
`Law` carries the map with the affine image Y = shift + sigma X.  Only the
two ratio forms kept as independent references are written out.
Grids record their trapezoid mass per time slice rather than assuming
normalization: the unshifted general-family kernel genuinely loses mass for
a nonzero start, and that deviation is itself a tested signature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

import numpy as np

from .dists import (ExtendedSkewNormalParams, LOG_SQRT_2PI, esn_moments, esn_pdf,
                    std_normal_logcdf)
from .errors import HorizonError

if TYPE_CHECKING:  # pragma: no cover
    from .families import SkewFamily


@dataclass
class DensityGrid:
    """Discretized density values q(x_i, t_j) with mass bookkeeping."""

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray                 # len(t_nodes) x len(x_nodes)
    mass_per_t: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x_nodes = np.asarray(self.x_nodes, dtype=float)
        self.t_nodes = np.asarray(self.t_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.t_nodes), len(self.x_nodes)):
            raise ValueError("values must be |t| x |x|")
        self.mass_per_t = np.trapezoid(self.values, self.x_nodes, axis=1)

    def moments(self):
        """Trapezoid (mass, mean, variance, skewness) per time slice.  A
        moment the slice leaves undefined is None: all three without mass,
        the skewness without variance."""
        x, mass = self.x_nodes, self.mass_per_t
        # a slice without mass divides by zero; its moments are None below
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.trapezoid(self.values * x, x) / mass
            dev = x - mean[:, None]
            var = np.trapezoid(self.values * dev ** 2, x) / mass
            m3 = np.trapezoid(self.values * dev ** 3, x) / mass
        # skewness from NumPy scalars: an array ** rounds differently in the last bit
        return [(float(a), None, None, None) if a == 0 else
                (float(a), float(b), float(v), None if v == 0 else float(c / v ** 1.5))
                for a, b, v, c in zip(mass, mean, var, m3)]


@dataclass(frozen=True)
class Law:
    """The law of Y = shift + sigma X at each time t, where X has the ESN law
    `unit(t)`: the closed-form law of a drift, or of a density kind."""

    unit: Callable[[float], ExtendedSkewNormalParams]
    shift: float = 0.0
    sigma: float = 1.0

    def pdf(self, y, t: float):
        """Density of Y at y (scalar or array) and time t."""
        return esn_pdf((y - self.shift) / self.sigma, self.unit(t)) / self.sigma

    def cdf(self, t: float):
        """Trapezoid cdf of the time-t law over its mean +- 12 sd, a window
        that holds the law's mass wherever its parameters put it."""
        mean, var = esn_moments(self.unit(t))
        center = self.shift + self.sigma * mean
        half = 12.0 * self.sigma * math.sqrt(var)
        return cdf_from_pdf(lambda y: self.pdf(y, t), center - half, center + half)


def cdf_from_pdf(pdf: Callable, lo: float, hi: float) -> Callable:
    """Numerically integrated cdf of a vectorized pdf on 20001 nodes, as an
    interpolant."""
    x = np.linspace(lo, hi, 20001)
    p = np.asarray(pdf(x), dtype=float)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(x))])
    total = c[-1]

    def cdf(v):
        return np.clip(np.interp(v, x, c / total), 0.0, 1.0)

    cdf.total_mass = total
    return cdf


def density_grid(fn, x_nodes, t_nodes) -> DensityGrid:
    """Tabulate fn(x_array, t) over the grid."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    t_nodes = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    values = np.empty((len(t_nodes), len(x_nodes)))
    for j, t in enumerate(t_nodes):
        values[j] = fn(x_nodes, float(t))
    return DensityGrid(x_nodes=x_nodes, t_nodes=t_nodes, values=values)


def _ratio_kernel(x, mean, var, a, x_prev, a_prev):
    """Gaussian(mean, var) density times Phi(a x) / Phi(a_prev x_prev),
    written out term by term: the reference the ESN forms are checked against."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x - mean) ** 2 / var - 0.5 * np.log(var) - LOG_SQRT_2PI
                  + std_normal_logcdf(a * x) - std_normal_logcdf(a_prev * x_prev))


def horizon_tpd(x, t: float, x0: float, T: float, chirality: int = 1):
    """Transition density of the finite-horizon skew diffusion from (x0, 0):
    the two-time kernel below at t_prev = 0.  Mass is preserved for every
    starting point.  Valid for 0 < t < T."""
    return horizon_tpd_two_time(x, t, x0, 0.0, T, chirality)


def horizon_tpd_two_time(x, t: float, x_prev: float, t_prev: float, T: float,
                         chirality: int = 1):
    """General two-time kernel of the finite-horizon diffusion."""
    return esn_pdf(x, horizon_esn(t, x_prev, t_prev, T, chirality))


def horizon_esn(t: float, x_prev: float, t_prev: float, T: float, chirality: int = 1):
    """ESN parameters of the finite-horizon kernel from (x_prev, t_prev).

    Gaussian(x_prev, t - t_prev) times Phi(alpha_t x)/Phi(alpha_prev x_prev),
    with the skewness alpha_u = chirality/sqrt(T - u) at the absolute times,
    which is what makes the kernel an exact semigroup.  That is the ESN law
    with location x_prev, scale s = sqrt(t - t_prev), shape alpha_t * s and
    truncation alpha_t * x_prev, whose normaliser alpha_t * x_prev /
    sqrt(1 + alpha_t^2 s^2) equals alpha_prev * x_prev.
    """
    if not 0 <= t_prev < t < T:
        raise HorizonError(f"need 0 <= t_prev < t < T, got ({t_prev}, {t}, {T})")
    s = math.sqrt(t - t_prev)
    a_t = chirality / math.sqrt(T - t)
    return ExtendedSkewNormalParams(x_prev, s, a_t * s, a_t * x_prev)


def constant_skew_tpd(x, t: float, alpha: float, chirality: int = 1):
    """Marginal law of the constant-skew diffusion started at zero."""
    return esn_pdf(x, constant_skew_esn(t, alpha, chirality))


def constant_skew_esn(t: float, alpha: float, chirality: int = 1):
    """A skew-normal with scale sqrt(t) and shape chirality*alpha*sqrt(t)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    s = math.sqrt(t)
    return ExtendedSkewNormalParams(0.0, s, chirality * alpha * s, 0.0)


def family_tpd(x, t: float, family: SkewFamily, x0: float = 0.0):
    """Marginal law of a general-family diffusion with the shift rule.

    The cdf factor is evaluated at alpha_t * (x - x0): the drift of a
    nonzero-start process must carry the same shift, and this is the density
    that stays normalized for every x0.
    """
    return esn_pdf(x, family_esn(t, family, x0))


def family_esn(t: float, family: SkewFamily, x0: float = 0.0):
    """The skew-normal law with location x0, scale sqrt(t) and shape
    alpha_t * sqrt(t)."""
    family.check_time(t)
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    s = math.sqrt(t)
    return ExtendedSkewNormalParams(x0, s, float(family.alpha(t)) * s, 0.0)


def family_tpd_unshifted(x, t: float, family: SkewFamily, x0: float,
                         t0: float = 0.0):
    """Naive nonzero-start kernel with an unshifted cdf factor.

    Gaussian(x0, t - t0) times Phi(alpha_t x)/Phi(alpha_t0 x0).  For unit
    drift amplitude this is the exact two-time law; otherwise it is only a
    local-martingale reweighting and its mass measurably deviates from one
    when x0 != 0 (a negative control, not a usable density).
    """
    family.check_time(t)
    if not t > t0 >= 0:
        raise ValueError("need t > t0 >= 0")
    return _ratio_kernel(x, x0, t - t0, float(family.alpha(t)), x0,
                         float(family.alpha(t0)))  # t0 = 0 needs a finite alpha(0)


def restart_tpd(x, t: float, x_prev: float, t_prev: float, family: SkewFamily):
    """Chained one-step kernel: the shifted family law restarted at
    (x_prev, t_prev) with elapsed time t - t_prev.

    Each slice is a genuine probability density, but the chain is not a
    semigroup unless the drift amplitude is identically one, so this kernel
    serves as the negative control in semigroup-consistency checks.
    """
    return family_tpd(x, t - t_prev, family, x0=x_prev)


def censored_posterior(x, t: float, rho_t: float):
    """Density of X_t given Y_t >= 0 for a centered bivariate-Gaussian pair
    with common variance t and correlation rho_t."""
    return esn_pdf(x, censored_esn(t, rho_t))


def censored_esn(t: float, rho_t: float):
    """The skew-normal law with scale sqrt(t) and shape rho_t / sqrt(1 - rho_t^2)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not abs(rho_t) < 1:
        raise ValueError("|rho_t| must be < 1 (degenerate limit is half-normal)")
    shape = rho_t / math.sqrt(1.0 - rho_t * rho_t)
    return ExtendedSkewNormalParams(0.0, math.sqrt(t), shape, 0.0)


def _ou_moments(t: float, rate: float, x0: float):
    """Mean and variance at time t of dX = rate * X dt + dW from x0."""
    mean = x0 * math.exp(rate * t)
    # expm1: exp(2 rate t) - 1 cancels when |rate| t is small
    var = math.expm1(2.0 * rate * t) / (2.0 * rate)
    return mean, var


def ou_gaussian_esn(t: float, rate: float, x0: float):
    """The Gaussian law at time t of dX = rate * X dt + dW from x0."""
    m, v = _ou_moments(t, rate, x0)
    return ExtendedSkewNormalParams(m, math.sqrt(v), 0.0, 0.0)


def ou_htransform_tpd(x, t: float, lam: float, x0: float, chirality: int = 1):
    """Transition density of the OU-reversal skew diffusion; matches the raw
    integral-ratio form pointwise."""
    return esn_pdf(x, ou_htransform_esn(t, lam, x0, chirality))


def ou_htransform_esn(t: float, lam: float, x0: float, chirality: int = 1):
    """ESN parameters of the OU-reversal law.

    Location/scale are the growing-OU moments x0*exp(lam t) and
    sqrt((exp(2 lam t) - 1)/(2 lam)); the shape is chirality *
    sqrt(exp(2 lam t) - 1) and the truncation chirality * sqrt(2 lam) * x0 *
    exp(lam t).
    """
    if not (t > 0 and lam > 0):
        raise ValueError("t and lam must be positive")
    m_plus, s2_plus = _ou_moments(t, lam, x0)
    k_t = math.sqrt(math.expm1(2.0 * lam * t))
    return ExtendedSkewNormalParams(location=m_plus, scale=math.sqrt(s2_plus),
                                    shape=chirality * k_t,
                                    truncation=chirality * math.sqrt(2.0 * lam) * m_plus)


def ou_htransform_tpd_raw(x, t: float, lam: float, x0: float, chirality: int = 1):
    """Unsimplified form of the same law: growing-OU Gaussian times the
    ratio of Gaussian masses below chirality*x and chirality*x0.  Ground
    truth for the ESN parameter mapping."""
    if not (t > 0 and lam > 0):
        raise ValueError("t and lam must be positive")
    m_plus, s2_plus = _ou_moments(t, lam, x0)
    a = chirality * math.sqrt(2.0 * lam)
    return _ratio_kernel(x, m_plus, s2_plus, a, x0, a)


def ou_skew_driven_marginal(x, t: float, lam: float, x0: float, T: float):
    """Marginal law of a mean-reverting system driven by the finite-horizon
    skew noise (shared increments, right chirality)."""
    return esn_pdf(x, ou_skew_driven_esn(t, lam, x0, T))


def ou_skew_driven_esn(t: float, lam: float, x0: float, T: float):
    """ESN parameters of the skew-driven OU marginal.

    The pair (system, noise) is the harmonic reweighting of a degenerate
    Gaussian pair, so the marginal is the decaying-OU Gaussian N(m, s^2)
    times 2*Phi(k(t) (x - m)), the skew-normal law with shape k(t) * s, where

        k(t) = (2 / (1 + e^{-lam t})) / sqrt(T - (2/lam) tanh(lam t / 2)).

    k(t) -> 1/sqrt(T - t) as lam -> 0, recovering the pure noise law.
    """
    if not (0 < t < T and lam > 0):
        raise ValueError("need 0 < t < T and lam > 0")
    m_minus, s2_minus = _ou_moments(t, -lam, x0)
    s = math.sqrt(s2_minus)
    u = math.exp(-lam * t)
    k = (2.0 / (1.0 + u)) / math.sqrt(T - (2.0 / lam) * math.tanh(0.5 * lam * t))
    return ExtendedSkewNormalParams(m_minus, s, k * s, 0.0)


def chapman_kolmogorov_residual(tpd, x0: float, t0: float, t1: float, t2: float,
                                x2_grid) -> float:
    """Sup over x2 of |Q(x2,t2|x0,t0) - int Q(x2,t2|x1,t1) Q(x1,t1|x0,t0) dx1|.

    `tpd(x, t, x_prev, t_prev)` must accept general two-time arguments.  The
    inner integral runs over the whole line by adaptive quadrature.
    """
    from scipy.integrate import quad
    if not t0 < t1 < t2:
        raise ValueError("need t0 < t1 < t2")
    x2_grid = np.atleast_1d(np.asarray(x2_grid, dtype=float))
    # Gaussian-tailed integrand: a wide finite window is exact at 1e-12
    span = 10.0 * math.sqrt(t2 - t0) + 5.0
    lo = min(float(np.min(x2_grid)), x0) - span
    hi = max(float(np.max(x2_grid)), x0) + span
    worst = 0.0
    for x2 in x2_grid:
        direct = float(tpd(x2, t2, x0, t0))

        def integrand(x1):
            return float(tpd(x2, t2, x1, t1)) * float(tpd(x1, t1, x0, t0))

        composed, _ = quad(integrand, lo, hi, points=[x0, float(x2)],
                           epsabs=1e-12, epsrel=1e-10, limit=300)
        worst = max(worst, abs(direct - composed))
    return worst


def density_mass(fn, t: float, lo: float = None, hi: float = None,
                 center: float = 0.0) -> float:
    """Adaptive-quadrature mass of a density slice x -> fn(x, t), by default
    over center -/+ (12 sqrt(t) + 8)."""
    from scipy.integrate import quad
    w = 12.0 * math.sqrt(max(t, 1e-12)) + 8.0
    lo = center - w if lo is None else lo
    hi = center + w if hi is None else hi

    def integrand(x):
        return float(np.asarray(fn(x, t)))

    val, _ = quad(integrand, lo, hi, points=[center], epsabs=1e-11,
                  epsrel=1e-10, limit=300)
    return float(val)
