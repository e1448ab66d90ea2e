"""Censoring and selection-model representations of the skew drifts.

The Mills-ratio drift of every family equals a truncated-Gaussian
conditional mean, so each identity here is algebraic and is verified to
near machine precision; the simulation-facing helper estimates the
survivor-conditioned state density from a censored bivariate ensemble.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dists import mills
from .errors import SchemaError
from .families import DriftSpec, OuSkewSpec, SkewFamily, drift_value, ou_htransform_drift
from .sde import PathEnsemble, ordered_map

_KDE_ROWS = 32      # grid points per block of the kernel matrix


def truncated_normal_mean(mean: float, std: float, threshold: float, side: str) -> float:
    """E[z | z > threshold] (side='above') or E[z | z < threshold] for
    z ~ N(mean, std^2).  A std that is not positive, or a side other than
    'above' and 'below', is a ValueError.

    Computed through the log-space Mills ratio, so thresholds 40 standard
    deviations into either tail are handled without over/underflow.
    """
    if not std > 0:
        raise ValueError("std must be positive")
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    a = (threshold - mean) / std
    if side == "above":
        return mean + std * float(mills(-a))
    return mean - std * float(mills(a))


def verify_selection_representation(family: SkewFamily, x: float, t: float,
                                    shift: float = 0.0):
    """Compare the family drift with its selection-model form.

    The drift psi*alpha*mills(alpha*(x - shift)) equals psi*alpha times the
    mean of a unit Gaussian conditioned to exceed -(alpha*(x - shift)) for
    right chirality (mirrored to the below-side mean for left chirality).
    Returns (drift_direct, drift_via_selection, abs_diff).
    """
    spec = DriftSpec(family=family, shift=shift)
    direct = float(drift_value(spec, np.asarray(x, dtype=float), t))

    a = float(family.alpha(t))
    p = float(family.psi(t))
    u = x - shift
    if family.chirality > 0:
        via = p * a * truncated_normal_mean(0.0, 1.0, -a * u, "above")
    else:
        via = p * (-a) * truncated_normal_mean(0.0, 1.0, a * u, "below")
    return direct, via, abs(direct - via)


def verify_ou_selection(lam: float, x: float, chirality: int = 1):
    """Compare the OU-reversal drift with its censored-mean form.

    The representation that reproduces the drift identically is

        drift = -2 * E[z | z < 0] - lam * x   (right chirality)
        drift = -2 * E[z | z > 0] - lam * x   (left chirality)

    with z ~ N(-lam x, lam / 2): that variance matches the Mills argument
    sqrt(2 lam) x, and the factor two restores the Mills amplitude.  A
    single censored mean with variance lam/2 (or any other variance) is off
    by that factor.  Returns (drift_direct, drift_via_selection, abs_diff).
    """
    direct = float(ou_htransform_drift(x, OuSkewSpec(lam=lam, chirality=chirality)))
    censored = truncated_normal_mean(-lam * x, math.sqrt(lam / 2.0), 0.0,
                                     "below" if chirality > 0 else "above")
    via = -2.0 * censored - lam * x
    return direct, via, abs(direct - via)


def silverman_bandwidth(samples: np.ndarray) -> float:
    # a spread whose squares overflow gives an infinite bandwidth, which the
    # KDE refuses
    with np.errstate(over="ignore"):
        sd = float(np.std(samples, ddof=1))
    return 1.06 * sd * len(samples) ** (-0.2)


def posterior_from_censored_sim(ensemble_x: PathEnsemble, ensemble_y: PathEnsemble,
                                t_index: int, bandwidth: Optional[float] = None):
    """Kernel-density estimate of X at a recorded time, keeping only paths
    whose Y value is nonnegative there.

    Gaussian kernel; bandwidth defaults to the Silverman rule.  The estimate
    is taken on 801 points spanning the survivors plus 4 bandwidths.  Returns
    (x_grid, density, survivor_fraction, n_survivors).  Raises when fewer
    than 1000 paths survive, since the estimate is meaningless below that,
    and FloatingPointError when its grid is not finite or the estimate has
    no finite positive mass.
    """
    if bandwidth is not None and not 0 < bandwidth < math.inf:
        raise SchemaError(f"bandwidth must be positive and finite, got {bandwidth}")
    xs = ensemble_x.values[:, t_index]
    ys = ensemble_y.values[:, t_index]
    keep = ys >= 0.0
    n_surv = int(keep.sum())
    if n_surv < 1000:
        raise ValueError(f"only {n_surv} survivors at t_index={t_index}; need >= 1000")
    sel = xs[keep]
    frac = n_surv / len(xs)
    bw = bandwidth if bandwidth is not None else silverman_bandwidth(sel)
    lo, hi = float(sel.min()), float(sel.max())
    # the histogram's edges span the most; a span that is not finite is no grid
    if not math.isfinite((hi + 6 * bw) - (lo - 6 * bw)):
        raise FloatingPointError(f"the KDE grid at t_index={t_index} is not finite "
                                 f"at bandwidth {bw:g}")
    pad = 4.0 * bw
    x_grid = np.linspace(lo - pad, hi + pad, 801)
    # smooth a 4096-bin histogram, so the smoothing cost does not grow with the survivors
    edges = np.linspace(lo - 6 * bw, hi + 6 * bw, 4097)
    counts, _ = np.histogram(sel, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # the kernel matrix a block of grid rows at a time, on the shared pool:
    # its temporaries stay small, and a row's sum does not depend on the block
    def rows(i):
        # a z that overflows is a kernel weight of 0; the mass check below
        # catches a bandwidth too small for any weight to survive
        with np.errstate(over="ignore"):
            z = (x_grid[i:i + _KDE_ROWS, None] - centers[None, :]) / bw
            return (np.exp(-0.5 * z * z) * counts[None, :]).sum(axis=1)

    dens = np.concatenate(list(ordered_map(rows, range(0, len(x_grid), _KDE_ROWS))))
    with np.errstate(over="ignore"):
        dens /= len(sel) * bw * math.sqrt(2 * math.pi)
    if not 0 < dens.sum() < math.inf:
        raise FloatingPointError(f"the KDE at t_index={t_index} has no finite positive "
                                 f"mass at bandwidth {bw:g}")
    return x_grid, dens, frac, n_surv
