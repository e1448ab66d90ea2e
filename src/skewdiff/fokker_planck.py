"""Forward-equation PDE oracle and analytic backward-equation residuals.

solve_kfe integrates dq/dt = -d/dx(mu q) + (sigma^2/2) d2q/dx2 with a
theta-weighted conservative finite-volume scheme: fluxes are centered with
optional upwinding above cell Peclet 2, boundaries are zero-flux, and each
step is one tridiagonal solve.  Column sums of the operator vanish, so mass
is conserved to roundoff and any drift flags instability.

The time loop evaluates the drift at the midpoints of up to _STEP_CHUNK
steps with one call (one row per time) and assembles their bands in one batch
of array operations; each step then forms its explicit right-hand side and
calls LAPACK's dgtsv.  The time-free OU h-transform drift gives one matrix,
factored once with dgttrf and solved with dgttrs at every step.  The batch
only moves interpreter overhead: every value is computed by the same
operations in the same order as one step at a time.  A batch whose drift
call, bands or matrix fail (a raising drift, a non-finite matrix) is redone,
with the rest of the solve, one step at a time, so the steps before the
failing one run their checks first and the first failure in step order is
the one raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dists import std_normal_cdf
from .densities import DensityGrid
from .errors import PdeInstabilityError, SchemaError
from .families import DriftSpec, SkewFamily
from .sde import TimeGrid

_N_STORE = 201              # time slices kept, the start included
_STEP_CHUNK = 32            # steps whose operator bands are assembled together
# scipy.linalg's message for a non-finite matrix or right-hand side
_NON_FINITE = "array must not contain infs or NaNs"


@dataclass(frozen=True)
class FpConfig:
    """Spatial domain, resolution, and time-stepping blend for solve_kfe.

    The Dirac initial condition is replaced by a Gaussian of standard
    deviation init_width (default 4 grid spacings); compare solutions
    against references that carry the same mollification.  theta = 1/2 is
    Crank-Nicolson, theta = 1 implicit Euler.
    """

    x_min: float
    x_max: float
    n_x: int = 2001
    n_t: int = 1000
    init_width: Optional[float] = None
    theta: float = 0.5

    def __post_init__(self):
        if self.n_x < 64 or self.n_t < 64:
            raise SchemaError("need n_x >= 64 and n_t >= 64")
        if not self.x_min < self.x_max:
            raise SchemaError("x_min must be below x_max")
        if not 0.0 <= self.theta <= 1.0:
            raise SchemaError("theta must lie in [0, 1]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    def mollifier_width(self) -> float:
        return self.init_width if self.init_width is not None else 4.0 * self.dx


def _operator_bands(mu_face, dx, diff):
    """Banded (..., 3, n) representation of the conservative flux operator,
    one band matrix per row of mu_face (shape (..., n - 1))."""
    n = mu_face.shape[-1] + 1
    pe = np.abs(mu_face) * dx / (2.0 * diff) if diff > 0 else np.full_like(mu_face, np.inf)
    w_left = np.where(pe > 2.0, np.where(mu_face > 0, 1.0, 0.0), 0.5)
    left = mu_face * w_left
    left /= dx
    right = mu_face * (1.0 - w_left)
    right /= dx

    dcoef = diff / dx**2
    # rows: upper, main and lower diagonal; face j sits between nodes j and
    # j+1, with zero flux outside the domain
    ab = np.zeros((*mu_face.shape[:-1], 3, n))
    ab[..., 1, :-1] += -left - dcoef
    ab[..., 0, 1:] += -right + dcoef
    ab[..., 1, 1:] += right - dcoef
    ab[..., 2, :-1] += left + dcoef
    return ab


def solve_kfe(drift: DriftSpec, x0: float, grid: TimeGrid, cfg: FpConfig) -> DensityGrid:
    """Solve the forward equation (sigma = drift.diffusion_scale) to grid.t_final
    in grid.n_steps steps, which must equal cfg.n_t; returns the stored time
    slices as a DensityGrid (first is the mollified start).

    Raises PdeInstabilityError when negative values below -1e-10 or a
    midpoint-mass drift above 1e-6 appear, with step diagnostics attached.
    """
    from scipy.linalg import get_lapack_funcs
    if not (cfg.x_min < x0 < cfg.x_max):
        raise SchemaError("x0 must lie inside the spatial domain")
    if grid.n_steps != cfg.n_t:
        raise SchemaError(f"the grid has {grid.n_steps} steps but cfg.n_t is {cfg.n_t}")
    dx = cfg.dx
    x = cfg.x_min + dx * np.arange(cfg.n_x)
    w = cfg.mollifier_width()
    q = np.exp(-0.5 * ((x - x0) / w) ** 2)
    q /= q.sum() * dx
    inside = std_normal_cdf((cfg.x_max - x0) / w) - std_normal_cdf((cfg.x_min - x0) / w)
    if inside < 1.0 - 1e-10:
        raise SchemaError("mollifier mass leaks outside the domain; widen it")

    t_start = grid.t_start
    dt = (grid.t_final - t_start) / cfg.n_t
    diff = 0.5 * drift.diffusion_scale * drift.diffusion_scale
    x_face = 0.5 * (x[:-1] + x[1:])

    store_every = max(1, cfg.n_t // (_N_STORE - 1))
    stored_t = [t_start]
    stored_q = [q.copy()]

    identity = np.zeros((3, cfg.n_x))
    identity[1, :] = 1.0
    gtsv, gttrf, gttrs = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (identity, q))
    t_mid = t_start + (np.arange(cfg.n_t) + 0.5) * dt
    explicit = (1.0 - cfg.theta) * dt

    # the time-free drift is evaluated once, at the first midpoint; its one
    # band matrix, factored once, serves every step
    mu_is_time_free = drift.kind == "ou_htransform"
    k0, chunk = 0, _STEP_CHUNK
    while k0 < cfg.n_t:
        m = min(chunk, cfg.n_t - k0)
        if k0 == 0 or not mu_is_time_free:
            ts = t_mid[k0:k0 + (1 if mu_is_time_free else m)]
            try:
                ab = _operator_bands(drift.mu(x_face, ts), dx, diff)
                lhs = ab * (cfg.theta * dt)
                np.subtract(identity, lhs, out=lhs)
                if not np.isfinite(lhs).all():
                    raise ValueError(_NON_FINITE)
            except Exception:
                # redone one step at a time, so that the steps before the
                # failing one run their own checks first
                if m == 1:
                    raise
                chunk = 1
                continue
            if mu_is_time_free:
                *factor, info = gttrf(lhs[0, 2, :-1], lhs[0, 1], lhs[0, 0, 1:])
        for k in range(k0, k0 + m):
            j = 0 if mu_is_time_free else k - k0
            rhs = _banded_matvec(ab[j], q)
            rhs *= explicit
            rhs += q
            # a finite sum has only finite terms; only a non-finite one is scanned
            if not math.isfinite(rhs.sum()) and not np.isfinite(rhs).all():
                raise ValueError(_NON_FINITE)
            if not mu_is_time_free:
                # each step's bands serve once, so LAPACK may overwrite them
                q, info = gtsv(lhs[j, 2, :-1], lhs[j, 1], lhs[j, 0, 1:], rhs,
                               overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                               overwrite_b=True)[3:]
            elif not info:
                q = gttrs(*factor, rhs, overwrite_b=True)[0]
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")

            if (k + 1) % store_every == 0 or k == cfg.n_t - 1:
                neg = float(q.min())
                mass = float(q.sum() * dx)
                tk = t_start + (k + 1) * dt
                if neg < -1e-10 or abs(mass - 1.0) > 1e-6:
                    raise PdeInstabilityError(
                        f"instability at step {k + 1}: min={neg:.3e}, mass={mass:.12f}",
                        diagnostics={"step": k + 1, "t": tk, "min_value": neg, "mass": mass})
                stored_t.append(tk)
                stored_q.append(q.copy())
        k0 += m

    return DensityGrid(x_nodes=x, t_nodes=np.array(stored_t), values=np.array(stored_q))


def _banded_matvec(ab, v):
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


def brownian_h_residual(family: SkewFamily, x_grid, t_grid,
                        alpha_scale: float = 1.0) -> float:
    """Max |dh/dt + (1/2) d2h/dx2| for the finite-horizon harmonic factor,
    using the analytic derivatives.

    With h = unnormalized Gaussian mass below alpha_t * x, every term is
    proportional to x * exp(-(alpha_t x)^2 / 2) times (alpha' - alpha^3/2),
    which vanishes identically for alpha_t = 1/sqrt(T - t).  `alpha_scale`
    perturbs the skewness path for negative controls.
    """
    if family.kind != "horizon":
        raise ValueError("residual defined for unit-amplitude horizon families")
    T = family.params["T"]
    chir = family.chirality
    x = np.asarray(x_grid, dtype=float)[:, None]
    t = np.asarray(t_grid, dtype=float)[None, :]
    if np.any(t >= T):
        raise ValueError("t_grid must stay below the horizon")
    a = alpha_scale * chir / np.sqrt(T - t)
    a_dot = alpha_scale * chir * 0.5 * (T - t) ** -1.5
    envelope = x * np.exp(-0.5 * (a * x) ** 2)
    residual = envelope * (a_dot - 0.5 * a**3)
    return float(np.max(np.abs(residual)))


def ou_h_residual(lam: float, chirality: int, x_grid, t_grid,
                  drop_time_factor: bool = False) -> float:
    """Max |dh/dt - lam x dh/dx + (1/2) d2h/dx2| for the OU-reversal
    harmonic factor h = e^{-lam t} e^{lam x^2} Phi(chir sqrt(2 lam) x),
    assembled from the analytic derivatives.

    Exact in analytic terms; float evaluation leaves only cancellation
    noise.  Dropping the exponential time factor (negative control) leaves
    a residual of size lam * e^{lam x^2}.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x_grid, dtype=float)[:, None]
    t = np.asarray(t_grid, dtype=float)[None, :]
    s = math.sqrt(2.0 * lam)
    F = np.exp(lam * x * x) * std_normal_cdf(chirality * s * x)
    c = chirality * math.sqrt(lam / math.pi)
    time_factor = 1.0 if drop_time_factor else np.exp(-lam * t)
    h_t = 0.0 if drop_time_factor else -lam * time_factor * F
    h_x = time_factor * (2.0 * lam * x * F + c)
    h_xx = time_factor * (2.0 * lam * F + 4.0 * lam**2 * x * x * F + 2.0 * lam * x * c)
    residual = h_t - lam * x * h_x + 0.5 * h_xx
    return float(np.max(np.abs(residual)))


def forward_residual(pdf, mu, x_pts, t_pts) -> float:
    """Finite-difference residual of dq/dt + d/dx(mu q) - (1/2) d2q/dx2
    for a closed-form density: centered second-order in x, forward in t.

    `pdf(x, t)` and `mu(x, t)` must be vectorized in x.  The steps
    dx = 5e-4 and dt = 5e-8 place the discretization error below 1e-6 for
    the smooth mid-horizon regions this check targets.
    """
    dx, dt = 5e-4, 5e-8
    worst = 0.0
    x = np.asarray(x_pts, dtype=float)
    for t in np.atleast_1d(t_pts):
        t = float(t)
        q0 = pdf(x, t)
        dq_dt = (pdf(x, t + dt) - q0) / dt
        flux_p = mu(x + dx, t) * pdf(x + dx, t)
        flux_m = mu(x - dx, t) * pdf(x - dx, t)
        d_flux = (flux_p - flux_m) / (2.0 * dx)
        d2q = (pdf(x + dx, t) - 2.0 * q0 + pdf(x - dx, t)) / dx**2
        worst = max(worst, float(np.max(np.abs(dq_dt + d_flux - 0.5 * d2q))))
    return worst
