"""Correctness gate for benchmark jobs.

Every check here is independent of the code under test: closed-form laws
are written out with scipy.special, SKDF files are parsed from the v1
layout documented in skewdiff.io, and the KS distance uses its own
reference integration.  A check returns a list of failure messages; an
empty list means the job's outputs are correct.

Statistical checks use a 99.99% level, so a chance miss of the program's
own 99% gate (exit code 1) is not a failure here.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import kolmogi, ndtr, ndtri

KS_ALPHA = 1e-4                          # 99.99% level for every KS check
Z_LIMIT = float(ndtri(1.0 - KS_ALPHA / 2))   # two-sided 99.99% normal quantile
# acceptance criterion 3 pins the Fokker-Planck terminal-slice L1 error of a
# skew (Mills-term) drift at 5e-3; every solve in the benchmark has one
FP_L1_TOL_SKEW = 5e-3

SKDF_HEADER = struct.Struct("<4sHHQQqdddII")


def ks_limit(n: int) -> float:
    """KS acceptance threshold at the 99.99% level for n samples."""
    return float(kolmogi(KS_ALPHA)) / math.sqrt(n)


# ----------------------------------------------------------- closed-form laws
# Each law maps (x array, t) to the density at time t of the process started
# at 0, the start point of every benchmark job; right chirality unless stated.

def _gauss(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def brownian_law():
    return lambda x, t: _gauss(x, 0.0, t)


def constant_skew_law(alpha, chirality=1):
    """Constant-skew diffusion: 2/sqrt(t) phi(x/sqrt(t)) Phi(chir*alpha*x)."""
    return lambda x, t: 2.0 * _gauss(x, 0.0, t) * ndtr(chirality * alpha * x)


def horizon_law(T):
    """Finite-horizon diffusion: Gaussian kernel times Phi(x/sqrt(T-t))/Phi(0)."""
    return lambda x, t: 2.0 * _gauss(x, 0.0, t) * ndtr(x / math.sqrt(T - t))


def ou_htransform_law(lam):
    """OU-reversal diffusion: growing-OU Gaussian times Phi(sqrt(2 lam) x)/Phi(0)."""
    s = math.sqrt(2.0 * lam)
    return lambda x, t: 2.0 * _gauss(x, 0.0, math.expm1(2.0 * lam * t) / (2.0 * lam)) \
        * ndtr(s * x)


def ou_sknoise_law(lam, T):
    """Mean-reverting system driven by horizon-T skew noise (shared increments)."""
    def law(x, t):
        u = math.exp(-lam * t)
        k = (2.0 / (1.0 + u)) / math.sqrt(T - (2.0 / lam) * math.tanh(0.5 * lam * t))
        return 2.0 * _gauss(x, 0.0, (1.0 - u * u) / (2.0 * lam)) * ndtr(k * x)
    return law


# ------------------------------------------------------------------ statistics

def ks_distance(samples, pdf, lo: float, hi: float, n: int = 200_001) -> float:
    """Sup distance between the empirical cdf of samples and the cdf of pdf.

    The reference cdf is a trapezoid integral on [lo, hi] and is not
    renormalized, so a law whose mass is not one shows as a large distance.
    """
    x = np.linspace(lo, hi, n)
    p = np.asarray(pdf(x), dtype=float)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(x))])
    s = np.sort(np.asarray(samples, dtype=float))
    f = np.interp(s, x, c, left=0.0, right=c[-1])
    i = np.arange(1, len(s) + 1)
    return float(max(np.max(i / len(s) - f), np.max(f - (i - 1) / len(s))))


def l1_error(values, law_values, x) -> float:
    return float(np.trapezoid(np.abs(np.asarray(values) - law_values), x))


def binomial_ok(successes_frac: float, p: float, n: int) -> bool:
    return abs(successes_frac - p) <= Z_LIMIT * math.sqrt(p * (1.0 - p) / n)


# ------------------------------------------------------------------------ SKDF

def read_skdf(path):
    """Parse an SKDF v1 file; returns (header dict, times, values, labels)
    or raises ValueError on a malformed file."""
    raw = Path(path).read_bytes()
    if len(raw) < SKDF_HEADER.size:
        raise ValueError(f"{path.name}: {len(raw)} bytes is shorter than the header")
    magic, version, flags, n_paths, n_times, seed, t_start, t_end, eps, stride, n_steps = \
        SKDF_HEADER.unpack_from(raw)
    head = dict(magic=magic, version=version, flags=flags, n_paths=n_paths,
                n_times=n_times, seed=seed, t_start=t_start, t_end=t_end,
                epsilon=eps, record_stride=stride, n_steps=n_steps)
    size = SKDF_HEADER.size + 8 * n_times + 8 * n_paths * n_times + (n_paths if flags & 1 else 0)
    if len(raw) != size:
        raise ValueError(f"{path.name}: {len(raw)} bytes, header implies {size}")
    off = SKDF_HEADER.size
    times = np.frombuffer(raw, dtype="<f8", count=n_times, offset=off)
    off += 8 * n_times
    values = np.frombuffer(raw, dtype="<f8", count=n_paths * n_times,
                           offset=off).reshape(n_paths, n_times)
    off += 8 * n_paths * n_times
    labels = np.frombuffer(raw, dtype="<i1", count=n_paths, offset=off) if flags & 1 else None
    return head, times, values, labels


def check_skdf(path, *, n_paths, n_steps, stride, seed, t_end, epsilon=0.0,
               t_start=0.0, x0=0.0, labels=False):
    """Read an SKDF and compare it with the job's configuration.

    Returns (values, times, labels, failures); values is None when the file
    could not be used at all.
    """
    path = Path(path)
    try:
        head, times, values, lab = read_skdf(path)
    except (OSError, ValueError) as e:
        return None, None, None, [f"SKDF unreadable: {e}"]
    fails = []
    expect = dict(magic=b"SKDF", version=1, flags=1 if labels else 0, n_paths=n_paths,
                  n_times=n_steps // stride + 1, seed=seed, t_start=t_start, t_end=t_end,
                  epsilon=epsilon, record_stride=stride, n_steps=n_steps)
    for key, want in expect.items():
        if head[key] != want:
            fails.append(f"{path.name}: header {key}={head[key]!r}, expected {want!r}")
    if fails:
        return None, None, None, fails
    dt = (t_end - epsilon - t_start) / n_steps
    grid = (t_start + dt * np.arange(n_steps + 1))[::stride]
    if not np.allclose(times, grid, rtol=0.0, atol=1e-12):
        fails.append(f"{path.name}: recorded times do not match the grid")
    if not np.all(np.isfinite(values)):
        fails.append(f"{path.name}: non-finite path values")
    elif not np.all(values[:, 0] == x0):
        fails.append(f"{path.name}: first column is not the start point {x0}")
    if lab is not None and not np.all(np.abs(lab) == 1):
        fails.append(f"{path.name}: labels outside {{-1, +1}}")
    return values, times, lab, fails


# ------------------------------------------------------------------- artifacts

def missing_artifacts(outdir, names):
    return [f"missing artifact {n}" for n in names if not (Path(outdir) / n).is_file()]


def artifact_digests(outdir) -> dict:
    """sha256 of every file under outdir.  A JSON object carrying a
    `wall_time_s` timing is hashed without that key."""
    out = {}
    for p in sorted(Path(outdir).rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.suffix == ".json":
            obj = json.loads(data)
            if isinstance(obj, dict) and "wall_time_s" in obj:
                obj.pop("wall_time_s")
                data = json.dumps(obj, sort_keys=True).encode()
        out[str(p.relative_to(outdir))] = hashlib.sha256(data).hexdigest()
    return out


def read_csv_tail(path, n_rows: int) -> np.ndarray:
    """Last n_rows of a numeric CSV as a float array."""
    lines = Path(path).read_bytes().splitlines()[-n_rows:]
    return np.array([[float(v) for v in ln.split(b",")] for ln in lines])


def count_lines(path) -> int:
    return Path(path).read_bytes().count(b"\n")
