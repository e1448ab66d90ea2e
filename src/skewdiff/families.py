"""Drift families: the coupled amplitude/skewness system and drift evaluation.

A family pairs a drift amplitude psi(t) in [0, 1] with a skewness path
alpha(t) whose sign is fixed by the chirality.  The two are linked through
the log-derivative system

    Gamma'(t) = -(1 - psi(t)) / t,   Lambda(t) = C * exp(Gamma(t)),
    alpha(t)  = chirality * Lambda(t) / sqrt(1 - t * Lambda(t)^2),

valid while t * Lambda(t)^2 < 1.  Three closed-form members are provided
(finite-horizon, constant-skew, constant-correlation) plus a quadrature
solver for arbitrary amplitude paths.
"""
from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional

import numpy as np

from .densities import Law, family_esn, horizon_esn, ou_htransform_esn
from .dists import is_scalar, mills
from .errors import HorizonError, SchemaError


@dataclass(frozen=True)
class SkewFamily:
    """Immutable amplitude/skewness pair with a validity horizon.

    `psi` and `alpha` accept scalars or arrays.  `alpha_dot` is the exact
    time derivative when a closed form exists (None for numeric families,
    where finite differences apply).  The closed-form psi and alpha take one
    number as a Python float, with the array path's operations in the same
    order, so a scalar call skips the 0-d array round trip and gives the
    same bits.
    """

    psi: Callable
    alpha: Callable
    chirality: int
    validity_horizon: float
    kind: str
    params: dict = field(default_factory=dict)
    alpha_dot: Optional[Callable] = None

    def __post_init__(self):
        if self.chirality not in (-1, 1):
            raise SchemaError("chirality must be +1 or -1")

    def check_time(self, t):
        tmax = float(t) if is_scalar(t) else float(np.max(t))
        if tmax >= self.validity_horizon:
            raise HorizonError(
                f"t={tmax} is at or beyond the validity horizon {self.validity_horizon}")

    def descriptor(self) -> dict:
        """JSON-serializable description {kind, parameters, chirality, horizon}."""
        return {
            "kind": self.kind,
            "parameters": self.params,
            "chirality": self.chirality,
            "horizon": self.validity_horizon if math.isfinite(self.validity_horizon) else "inf",
        }


def family_from_descriptor(desc: dict) -> SkewFamily:
    kind = desc.get("kind")
    params = desc.get("parameters", {})
    chirality = int(desc.get("chirality", 1))
    if kind in CLOSED_FORM_FAMILIES:
        make, name = CLOSED_FORM_FAMILIES[kind]
        return make(params[name], chirality)
    if kind == "general":
        horizon = desc.get("horizon", "inf")
        horizon = math.inf if horizon == "inf" else float(horizon)
        return _family_from_gamma_table(
            C=float(params["C"]), chirality=chirality,
            t_nodes=np.asarray(params["t"], dtype=float),
            psi_vals=np.asarray(params["psi"], dtype=float),
            gamma=np.asarray(params["gamma"], dtype=float),
            horizon=horizon)
    raise ValueError(f"unknown family kind {kind!r}")


def _numeric_alpha(log_lambda, chirality, lo, hi):
    """alpha(t) = chirality * Lambda / sqrt(1 - t Lambda^2) from log Lambda,
    evaluable on [lo, hi] and below the validity horizon."""
    def alpha(t):
        t = np.asarray(t, dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise HorizonError(f"numeric family only evaluable on [{lo:g}, {hi:g}]")
        lam = np.exp(log_lambda(t))
        under = 1.0 - t * lam * lam
        if np.any(under <= 0):
            raise HorizonError("evaluation at or beyond the validity horizon")
        return chirality * lam / np.sqrt(under)
    return alpha


def _family_from_gamma_table(C, chirality, t_nodes, psi_vals, gamma, horizon):
    """Rebuild a numeric family from its serialized log-growth table."""
    from scipy.interpolate import CubicHermiteSpline, CubicSpline
    spline = CubicHermiteSpline(np.log(t_nodes), gamma, -(1.0 - psi_vals))
    psi_interp = CubicSpline(t_nodes, psi_vals)
    logC = math.log(C) if C > 0 else -math.inf
    alpha = _numeric_alpha(lambda t: logC + spline(np.log(t)), chirality,
                           float(t_nodes[0]), float(t_nodes[-1]))

    def psi(t):
        return np.clip(psi_interp(np.asarray(t, dtype=float)), 0.0, 1.0)

    return SkewFamily(psi=psi, alpha=alpha, chirality=chirality,
                      validity_horizon=horizon, kind="general",
                      params={"C": float(C), "t": np.asarray(t_nodes).tolist(),
                              "psi": np.asarray(psi_vals).tolist(),
                              "gamma": np.asarray(gamma).tolist()})


def _constant(c: float) -> Callable:
    """t -> c: a Python float for one number, else an array shaped like t."""
    def f(t):
        if is_scalar(t):
            return c
        return np.full_like(np.asarray(t, dtype=float), c)
    return f


def horizon_family(T: float, chirality: int = 1) -> SkewFamily:
    """Finite-horizon family: unit amplitude, skewness 1/sqrt(T - t).

    The drift is the exact harmonic-function transform of Brownian motion
    that pins the terminal law at time T to a half-normal; the skewness
    blows up as t -> T, which is the validity horizon.
    """
    if not 0 < T < math.inf:
        raise SchemaError(f"horizon T must be positive and finite, got {T}")
    chirality = int(chirality)

    def alpha(t):
        # from T on, math raises where NumPy gives inf or nan
        if is_scalar(t) and float(t) < T:
            return chirality / math.sqrt(T - float(t))
        t = np.asarray(t, dtype=float)
        return chirality / np.sqrt(T - t)

    def alpha_dot(t):
        return chirality * 0.5 * np.power(T - t, -1.5)

    return SkewFamily(psi=_constant(1.0), alpha=alpha, chirality=chirality,
                      validity_horizon=float(T), kind="horizon", params={"T": float(T)},
                      alpha_dot=alpha_dot)


def constant_skew_family(alpha_const: float, chirality: int = 1) -> SkewFamily:
    """Constant-skewness family; the amplitude decays from 1 toward 1/2."""
    if not 0 < alpha_const < math.inf:
        raise SchemaError(f"alpha_const must be positive and finite, got {alpha_const}")
    chirality = int(chirality)
    big = sys.float_info.max
    # an overflowing a2 is taken as the largest double, so a2 * 0 is 0 and
    # psi(0) is 1; every finite a2 keeps its bits
    a2 = min(alpha_const * alpha_const, big)

    def psi(t):
        # a float divides by at least one for t >= 0; elsewhere NumPy's rules
        # apply.  An overflowing a2 * t is taken as the largest double, where
        # psi is 0.5 exactly; every finite a2 * t keeps its bits.
        if is_scalar(t) and t >= 0:
            a2t = a2 * float(t)
            a2t = big if a2t > big else a2t
        else:
            with np.errstate(over="ignore"):
                a2t = np.minimum(a2 * np.asarray(t, dtype=float), big)
        return 0.5 * (2.0 + a2t) / (1.0 + a2t)

    return SkewFamily(psi=psi, alpha=_constant(chirality * float(alpha_const)),
                      chirality=chirality, validity_horizon=math.inf, kind="constant_skew",
                      params={"alpha": float(alpha_const)}, alpha_dot=_constant(0.0))


def constant_correlation_family(C: float, chirality: int = 1) -> SkewFamily:
    """Half-amplitude family with skewness proportional to 1/sqrt(t).

    Matches a censoring construction with constant correlation C in [0, 1);
    C = 0 degenerates to plain Brownian motion.
    """
    if not 0 <= C < 1:
        raise SchemaError(f"C must lie in [0, 1), got {C}")
    chirality = int(chirality)
    coef = C / math.sqrt(1.0 - C * C)

    def alpha(t):
        if is_scalar(t) and t > 0:
            return chirality * coef / math.sqrt(float(t))
        # diverges like 1/sqrt(t) at the origin; inf is the correct limit
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return chirality * coef / np.sqrt(t)

    def alpha_dot(t):
        return -0.5 * chirality * coef * np.power(t, -1.5)

    return SkewFamily(psi=_constant(0.5), alpha=alpha, chirality=chirality,
                      validity_horizon=math.inf, kind="constant_correlation",
                      params={"C": float(C)}, alpha_dot=alpha_dot)


# closed-form family kind -> (constructor, the name of its one parameter)
CLOSED_FORM_FAMILIES = {"horizon": (horizon_family, "T"),
                        "constant_skew": (constant_skew_family, "alpha"),
                        "constant_correlation": (constant_correlation_family, "C")}


def _log_growth_nodes(psi, t_nodes, anchor_zero: bool):
    """Cumulative Gamma(t) = -int (1 - psi(s))/s ds at the given nodes.

    Anchored at 0 when the integrand is integrable there (psi(0+) = 1),
    otherwise at t = 1, which fixes the normalization e^Gamma(1) = 1 that
    the half-amplitude closed form uses.
    """
    from scipy.integrate import quad

    def integrand(s):
        return (1.0 - float(psi(s))) / s

    gammas = np.empty(len(t_nodes))
    if anchor_zero:
        t0 = t_nodes[0]
        # series start on (0, t0]: psi ~ 1 - c*s makes the integrand ~ c
        c = integrand(t0)
        acc = -c * t0
        prev = t0
        gammas[0] = acc
        start = 1
    else:
        prev = 1.0
        acc = 0.0
        start = 0
    for i in range(start, len(t_nodes)):
        t = t_nodes[i]
        val, _ = quad(integrand, prev, t, epsabs=1e-13, epsrel=1e-11, limit=200)
        acc -= val
        gammas[i] = acc
        prev = t
    return gammas


def family_from_amplitude(psi: Callable, C: float, chirality: int,
                          t_grid) -> SkewFamily:
    """Solve the amplitude/skewness system numerically for a given psi.

    psi must map (0, max(t_grid)] into [0, 1].  Gamma is accumulated by
    adaptive quadrature on a dense log-spaced refinement of t_grid and
    interpolated with a cubic spline in log-time; the validity horizon is
    located by bisection on t * Lambda(t)^2 - 1.
    """
    from scipy.interpolate import CubicHermiteSpline
    from scipy.optimize import brentq
    if C < 0:
        raise SchemaError(f"C must be nonnegative, got {C}")
    chirality = int(chirality)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise SchemaError("t_grid must be strictly increasing with >= 2 points")
    if t_grid[0] <= 0:
        raise SchemaError("t_grid must start at a strictly positive time")

    t_hi = float(t_grid[-1])
    probe = float(psi(1e-9))
    anchor_zero = abs(1.0 - probe) < 1e-6
    t_lo = min(1e-6, float(t_grid[0]) / 10.0) if anchor_zero else min(float(t_grid[0]) / 10.0, 1e-4)

    nodes = np.unique(np.concatenate([
        np.geomspace(t_lo, t_hi, 2400),
        t_grid,
        [1.0] if (not anchor_zero and t_lo < 1.0 < t_hi) else [],
    ]))
    gam = _log_growth_nodes(psi, nodes, anchor_zero)
    # in tau = log t the slope is exactly -(1 - psi(t)); Hermite nodes pin it
    slopes = np.array([-(1.0 - float(psi(t))) for t in nodes])
    spline = CubicHermiteSpline(np.log(nodes), gam, slopes)
    logC = math.log(C) if C > 0 else -math.inf

    def log_lambda(t):
        t = np.asarray(t, dtype=float)
        return logC + spline(np.log(t))

    alpha = _numeric_alpha(log_lambda, chirality, nodes[0], t_hi)

    def psi_vec(t):
        t = np.asarray(t, dtype=float)
        return np.vectorize(lambda s: float(psi(s)))(t) if t.ndim else float(psi(float(t)))

    # horizon: first root of g(t) = t*Lambda^2 - 1 within the scanned range
    def g(t):
        lam = math.exp(float(log_lambda(t)))
        return t * lam * lam - 1.0

    gvals = nodes * np.exp(2.0 * (logC + gam)) - 1.0
    horizon = math.inf
    crossing = np.nonzero(gvals >= 0)[0]
    if C > 0 and len(crossing) > 0:
        j = crossing[0]
        if j == 0:
            horizon = float(nodes[0])
        else:
            horizon = brentq(g, nodes[j - 1], nodes[j], xtol=1e-10 * t_hi)
    elif C > 0 and abs(1.0 - float(psi(t_hi))) < 1e-9:
        # Lambda has flattened (unit amplitude at the edge): constant
        # extrapolation puts the crossing at 1/Lambda^2
        lam_end = math.exp(logC + gam[-1])
        est = 1.0 / (lam_end * lam_end)
        if est > t_hi:
            horizon = est

    # serialize a subsampled log-growth table so the family reconstructs
    # without re-solving
    step = max(1, len(nodes) // 240)
    idx = np.unique(np.r_[np.arange(0, len(nodes), step), len(nodes) - 1])
    return SkewFamily(psi=psi_vec, alpha=alpha, chirality=chirality,
                      validity_horizon=horizon, kind="general",
                      params={"C": float(C), "t": nodes[idx].tolist(),
                              "psi": [float(psi(t)) for t in nodes[idx]],
                              "gamma": gam[idx].tolist()})


def amplitude_from_family(family: SkewFamily, t):
    """Recover psi(t) from alpha(t) through the inverse relation.

    Lambda = |alpha| / sqrt(1 + t alpha^2) and psi = 1 + t * dlogLambda/dt;
    the log-derivative is taken by centered differences with step
    1e-6 * max(t, 1e-3).
    """
    t = np.asarray(t, dtype=float)

    def log_lam(s):
        a = np.abs(family.alpha(s))
        return np.log(a) - 0.5 * np.log1p(s * a * a)

    h = 1e-6 * np.maximum(t, 1e-3)
    dlog = (log_lam(t + h) - log_lam(t - h)) / (2.0 * h)
    return 1.0 + t * dlog


def ode_residual(family: SkewFamily, t):
    """Residual of the skewness evolution equation at times t.

    The governing ODE (equivalent to the Gamma/Lambda system) is

        alpha' = psi * alpha * (alpha^2 + 1/t) - alpha/t - alpha^3 / 2,

    so the residual alpha' - psi*alpha*(alpha^2 + 1/t) + alpha/t + alpha^3/2
    vanishes identically on valid families.  alpha' uses the closed form
    when available, otherwise centered differences with step 1e-4 * t.
    """
    t = np.asarray(t, dtype=float)
    a = family.alpha(t)
    p = family.psi(t)
    if family.alpha_dot is not None:
        da = family.alpha_dot(t)
    else:
        h = 1e-4 * t
        da = (family.alpha(t + h) - family.alpha(t - h)) / (2.0 * h)
    return da - p * a * (a * a + 1.0 / t) + a / t + 0.5 * a**3


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


@dataclass(frozen=True)
class DriftSpec:
    """Drift of Y = shift + sigma * X (sigma = diffusion_scale), where
    dX = mu(X, t) dt + dW and mu is
      - a family's psi_t * alpha_t * mills(alpha_t * x);
      - for params {"lam", "chirality"}, the OU h-transform lam*x +
        chirality * sqrt(2 lam) * mills(chirality * sqrt(2 lam) * x);
      - or mu_fn(y, t), the drift of Y itself, used as given (no shift).
    Exactly one of family, params and mu_fn is given; params are checked
    once, here, into the OuSkewSpec that every evaluation uses.  `kind` is
    a derived label (the family's kind, "ou_htransform" or "custom"); an
    init-only `kind` argument must name it."""

    family: Optional[SkewFamily] = None
    shift: float = 0.0
    diffusion_scale: float = 1.0
    params: dict = field(default_factory=dict)
    mu_fn: Optional[Callable] = None
    kind: InitVar[Optional[str]] = None
    _ou: Optional[OuSkewSpec] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self, kind):
        if not self.diffusion_scale > 0:
            raise SchemaError("diffusion_scale must be positive")
        if (self.family is not None) + (self.mu_fn is not None) + bool(self.params) != 1:
            raise SchemaError("a drift needs exactly one of a family, a mu_fn "
                              "or params {'lam', 'chirality'}")
        if self.mu_fn is not None and self.shift != 0.0:
            raise SchemaError("a mu_fn is the drift of Y itself and takes no shift")
        if self.params:
            if not {"lam", "chirality"} <= self.params.keys():
                raise SchemaError("OU h-transform params need 'lam' and 'chirality'")
            # a SchemaError for a bad rate or chirality, before any evaluation
            object.__setattr__(self, "_ou", OuSkewSpec(lam=self.params["lam"],
                                                       chirality=self.params["chirality"]))
        derived = (self.family.kind if self.family is not None
                   else "custom" if self.mu_fn is not None else "ou_htransform")
        if kind not in (None, derived):
            raise SchemaError(f"drift kind {kind!r} does not match its {derived!r} definition")
        object.__setattr__(self, "kind", derived)

    @property
    def validity_horizon(self) -> float:
        if self.family is not None:
            return self.family.validity_horizon
        return math.inf

    @property
    def time_free(self) -> bool:
        """True when mu does not depend on t: the OU h-transform."""
        return self._ou is not None

    def mu(self, x, t):
        return drift_value(self, x, t)

    def law(self, x0: float, t0: float = 0.0):
        """Closed-form `densities.Law` of Y started at (x0, t0), or None.

        Its unit law is that of X from (x0 - shift)/sigma: the horizon and
        (time-free) OU h-transform kernels from any start, a family's
        marginal only from (shift, 0)."""
        shift, sigma, fam, ou = self.shift, self.diffusion_scale, self.family, self._ou
        u0 = (x0 - shift) / sigma
        if ou is not None:
            unit = lambda t: ou_htransform_esn(t - t0, ou.lam, u0, ou.chirality)
        elif fam is not None and fam.kind == "horizon":
            unit = lambda t: horizon_esn(t, u0, t0, fam.params["T"], fam.chirality)
        elif fam is not None and t0 == 0 and x0 == shift:
            unit = lambda t: family_esn(t, fam)
        else:
            return None
        return Law(unit, shift, sigma)

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "shift": self.shift, "sigma": self.diffusion_scale}
        if self.family is not None:
            d["family"] = self.family.descriptor()
        if self.params:
            d["parameters"] = self.params
        return d


def drift_spec_from_descriptor(desc: dict) -> DriftSpec:
    """Rebuild a drift from its descriptor; a bare family descriptor stands
    for that family's own drift, and kind "general" for any family's drift."""
    kind = desc["kind"]
    if kind == "custom":
        raise ValueError("custom drifts are not JSON-constructible")
    if "family" not in desc and kind != "ou_htransform":
        return DriftSpec(family=family_from_descriptor(desc))
    family = family_from_descriptor(desc["family"]) if "family" in desc else None
    return DriftSpec(kind=None if kind == "general" else kind, family=family,
                     shift=float(desc.get("shift", 0.0)),
                     diffusion_scale=float(desc.get("sigma", 1.0)),
                     params=desc.get("parameters", {}))


def drift_value(spec: DriftSpec, x, t):
    """Evaluate the drift of Y at (x, t); vectorized over x.  A family or
    OU drift is sigma * mu((x - shift)/sigma, t), the image of X's drift.

    A 1-D array t gives one row per time, shape (len(t), *x.shape), and row
    j has the bits of drift_value(spec, x, t[j]): a family's psi and alpha
    take the whole array, and times with equal alpha(t) share one mills
    row.  A custom mu_fn is still called with one float time at a time."""
    x = np.asarray(x, dtype=float)
    rows = not is_scalar(t)
    if spec.mu_fn is not None:
        if not rows:
            return spec.mu_fn(x, t)
        out = np.empty((len(t), *x.shape))
        for j, tj in enumerate(t):
            out[j] = spec.mu_fn(x, float(tj))
        return out
    if spec.shift == 0.0 and spec.diffusion_scale == 1.0:
        u = x   # the identity map: (x - 0)/1 is x, bit for bit
    else:
        u = (x - spec.shift) / spec.diffusion_scale
    if spec._ou is not None:
        mu = spec.diffusion_scale * ou_htransform_drift(u, spec._ou)
        return np.repeat(mu[None], len(t), axis=0) if rows else mu
    fam = spec.family
    fam.check_time(t)
    a = fam.alpha(t)
    # sigma * psi * alpha * m, with the coefficient's product formed first
    if not rows:
        m = mills(a * u)
        m *= float(spec.diffusion_scale * fam.psi(t) * a)
        return m
    coef = spec.diffusion_scale * fam.psi(t) * a
    a_rows, row_of = np.unique(a, return_inverse=True)
    m = mills(np.multiply.outer(a_rows, u))[row_of]
    m *= coef.reshape(coef.shape + (1,) * u.ndim)
    return m
