"""Numerically stable scalar special functions and the skew-normal family.

Everything here is a pure function of its arguments.  All densities accept
scalars or numpy arrays and broadcast; log-space forms are used internally
so pdf/cdf ratios stay finite out to ~40 standard deviations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)

# mills takes its erfcx branch below this argument (see mills)
MILLS_CUTOFF = -5.0
# above this argument phi(x)/Phi(x) is below the smallest subnormal double
_MILLS_ZERO_ABOVE = 40.0


def is_scalar(x) -> bool:
    """One number: a float, an int, a NumPy scalar or a 0-d array."""
    return isinstance(x, float) or np.ndim(x) == 0


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _ret(a, scalar):
    return float(a) if scalar else a


@dataclass(frozen=True)
class ExtendedSkewNormalParams:
    """Location/scale/shape parametrization of the skew-normal law, extended
    by a truncation shift in the cdf factor (0 gives the skew-normal law).

    `scale` is in standard-deviation units; `shape` is the dimensionless
    asymmetry parameter (0 recovers the Gaussian).
    """

    location: float
    scale: float
    shape: float
    truncation: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        for v in (self.location, self.shape, self.truncation):
            if not math.isfinite(v):
                raise ValueError("ESN parameters must be finite")


def std_normal_logpdf(x):
    x, scalar = _as_array(x)
    return _ret(-0.5 * x * x - LOG_SQRT_2PI, scalar)


def std_normal_cdf(x):
    """P(Z <= x) for standard normal Z."""
    x, scalar = _as_array(x)
    return _ret(ndtr(x), scalar)


def std_normal_logcdf(x):
    """log P(Z <= x), finite and accurate into the deep left tail."""
    x, scalar = _as_array(x)
    return _ret(log_ndtr(x), scalar)


def mills(x):
    """Inverse Mills ratio phi(x)/Phi(x); behaves like -x for x -> -inf.

    Two branches, split at MILLS_CUTOFF = -5:
      - x >= -5: exp(-x^2/2 - log sqrt(2 pi)) / ndtr(x), about twice as
        fast as erfcx.  Its exponent carries the rounding of x^2, so the
        relative error grows like x^2 * 1e-16: about 5e-15 on [-5, 8] and
        1e-13 at 38.  Past x ~ 38.6 the ratio underflows to 0, its true
        value in doubles.
      - x < -5: sqrt(2/pi) / erfcx(-x/sqrt(2)), good to about 6e-16 out
        to -40 and beyond.  There ndtr sees x/sqrt(2) rounded, an error
        that also grows like x^2, and below about -38 ndtr and exp(-x^2/2)
        both underflow.
    The two branches meet within about 3e-15 relative.  A scalar gives a
    Python float, from the same operations as an array element.  This sits
    on the hot path of every drift evaluation.
    """
    if is_scalar(x):    # no 0-d array round trip
        v = float(x)
        if v < MILLS_CUTOFF:
            # at -inf, erfcx(inf) = 0: return the limit without dividing
            return float(_SQRT_2_OVER_PI / erfcx(-v / _SQRT_2)) if v > -math.inf else math.inf
        return float(np.exp(v * v * -0.5 - LOG_SQRT_2PI) / ndtr(v))
    x = np.asarray(x, dtype=float)
    # one min finds a tail; a NaN minimum falls back to the mask
    if x.size and not x.min() >= MILLS_CUTOFF:
        tail = x < MILLS_CUTOFF
        if tail.any():
            # each branch runs on its own elements only
            q = np.empty_like(x)
            # erfcx(inf) = 0 at -inf: the quotient is the limit, inf
            with np.errstate(divide="ignore"):
                q[tail] = _SQRT_2_OVER_PI / erfcx(-x[tail] / _SQRT_2)
            body = ~tail
            q[body] = _mills_body(x[body])
            return q
    return _mills_body(x)


def _mills_body(x: np.ndarray) -> np.ndarray:
    """mills' exp/ndtr branch on an array whose elements are at or above
    MILLS_CUTOFF or NaN.  Clipped at _MILLS_ZERO_ABOVE, so neither x^2
    overflows nor 0/0 forms where both factors underflow; the ratio is 0
    there, which the clipped value gives too."""
    u = np.minimum(x, _MILLS_ZERO_ABOVE)
    q = u * u
    q *= -0.5
    q -= LOG_SQRT_2PI
    np.exp(q, out=q)
    q /= ndtr(u, out=u)
    return q


def sn_moments(p: ExtendedSkewNormalParams):
    """Return (mean, variance, skewness coefficient) of the skew-normal law,
    the extended law at truncation 0; any other truncation is a ValueError."""
    if p.truncation != 0:
        raise ValueError(f"sn_moments needs truncation 0, got {p.truncation}")
    mean, variance = esn_moments(p)
    mu_z = p.shape / math.sqrt(1.0 + p.shape * p.shape) * _SQRT_2_OVER_PI
    skew = (4.0 - math.pi) / 2.0 * mu_z**3 / (1.0 - mu_z * mu_z) ** 1.5
    return mean, variance, skew


def esn_moments(p: ExtendedSkewNormalParams):
    """Return (mean, variance) of the extended skew-normal law: with
    delta = shape/sqrt(1 + shape^2), tau = truncation/sqrt(1 + shape^2) and
    m = mills(tau), the mean is location + scale * delta * m and the
    variance scale^2 * (1 - delta^2 * m * (tau + m))."""
    r = math.sqrt(1.0 + p.shape * p.shape)
    delta, tau = p.shape / r, p.truncation / r
    m = mills(tau)
    return (p.location + p.scale * delta * m,
            p.scale * p.scale * (1.0 - delta * delta * m * (tau + m)))


def esn_logpdf(x, p: ExtendedSkewNormalParams):
    """log phi(z) Phi(truncation + shape z) / (scale Phi(truncation/sqrt(1 + shape^2)))
    at z = (x - location)/scale; every closed-form law is evaluated here.

    A z, shape * z or z * z that overflows is +-inf, and the log density's
    IEEE limit there is the right value, so the overflow is not reported."""
    x, scalar = _as_array(x)
    if scalar:
        # a Python float is cheaper than a NumPy scalar, and its overflow is
        # silent
        return float(_esn_log_kernel(float(x), p))
    with np.errstate(over="ignore"):
        return _esn_log_kernel(x, p)


def _esn_log_kernel(x, p: ExtendedSkewNormalParams):
    z = (x - p.location) / p.scale
    norm = log_ndtr(p.truncation / math.sqrt(1.0 + p.shape * p.shape))
    # at shape 0 the truncation itself: truncation + 0 * z has its bits at
    # every finite z and is nan where z overflows
    skew = log_ndtr(p.truncation + p.shape * z if p.shape else p.truncation)
    return -math.log(p.scale) + (-0.5 * z * z - LOG_SQRT_2PI) + skew - norm


def esn_pdf(x, p: ExtendedSkewNormalParams):
    """Extended skew-normal density; at truncation 0 it is the skew-normal
    density 2/scale * phi(z) * Phi(shape*z), z standardized."""
    x, scalar = _as_array(x)
    return _ret(np.exp(esn_logpdf(x, p)), scalar)


def half_normal_pdf(x, variance, origin=0.0, chirality=1):
    """Folded-Gaussian density supported on the `chirality` side of `origin`."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    if chirality not in (-1, 1):
        raise ValueError("chirality must be +1 or -1")
    x, scalar = _as_array(x)
    sd = math.sqrt(variance)
    z = (x - origin) / sd
    dens = 2.0 * np.exp(std_normal_logpdf(z)) / sd
    support = (chirality * (x - origin)) >= 0.0
    return _ret(np.where(support, dens, 0.0), scalar)
