"""The benchmark's workloads: job lists of real skewdiff CLI runs, each with
the artifacts it must write and the checks its outputs must pass.

README.md gives the reason for each workload.  Every job's --seed is
derived from the workload seed, and the same seed gives the same jobs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from gate import (FP_L1_TOL_SKEW, Z_LIMIT, binomial_ok, brownian_law, check_skdf,
                  constant_skew_law, count_lines, horizon_law, ks_distance,
                  ks_limit, l1_error, missing_artifacts, ou_htransform_law,
                  ou_sknoise_law, read_csv_tail)

WORKLOADS = ("mc_pde", "validate_suite")


@dataclass(frozen=True)
class Size:
    paths: int            # Monte Carlo paths; noise blocks hold 8192 paths
    steps: int            # Euler-Maruyama steps to t = 1
    n_x: int              # Fokker-Planck grid nodes
    n_t: int              # Fokker-Planck time steps
    density_step: str     # x spacing of the density table
    suite: str            # validate --suite
    validate_seeds: int   # validate seeds; each pass runs the next one in turn


SIZES = {
    "full": Size(paths=32768, steps=200, n_x=1001, n_t=1000, density_step="0.001",
                 suite="core", validate_seeds=2),
    # for the benchmark's own smoke test: seconds, not minutes
    "tiny": Size(paths=4096, steps=40, n_x=1001, n_t=1000, density_step="0.01",
                 suite="quick", validate_seeds=1),
}
# one small job per command before timing, so lazy scipy set-up is not timed
WARMUP = Size(paths=4096, steps=20, n_x=201, n_t=64, density_step="0.1",
              suite="quick", validate_seeds=1)


@dataclass
class JobRun:
    rc: Optional[int]            # CLI exit code; None when the job raised
    result: object = None        # return value of a library job
    error: Optional[str] = None  # traceback text when the job raised


@dataclass(frozen=True)
class Job:
    name: str
    outdir: Path
    check: Callable              # (outdir, JobRun) -> list of failure messages
    argv: Optional[tuple] = None     # a CLI job: skewdiff argv
    call: Optional[Callable] = None  # a library job: no arguments, returns a JSON-able dict
    artifacts: tuple = ()
    own_gate: bool = False       # exit 1 from the program's own 99% gate is a check miss

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else self.name


def evaluate(job: Job, run: JobRun):
    """Apply the gate to one job run; returns (failures, check_miss)."""
    if run.error is not None:
        return [f"raised: {run.error.strip().splitlines()[-1]}"], False
    miss = run.rc == 1 and job.own_gate
    if run.rc != 0 and not miss:
        return [f"exit code {run.rc}"], False
    fails = missing_artifacts(job.outdir, job.artifacts)
    return (fails or job.check(job.outdir, run)), miss


def _seeds(seed: int, n: int, first: int = 0):
    return [str(seed * 1000 + i) for i in range(first, first + n)]


def _load(outdir, name):
    return json.loads((Path(outdir) / name).read_text())


def _read_table(path, header):
    """Numeric CSV written by the CLI row by row.  Under NumPy 2 some rows
    carry NumPy scalar reprs such as np.float64(0.5) (a known defect, see
    README.md); the numbers inside are still checked."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{Path(path).name}: header is not {header!r}")
    return np.array([[float(v.removeprefix("np.float64(").removesuffix(")"))
                      for v in ln.split(",")] for ln in lines[1:]], ndmin=2)


# ------------------------------------------------------------ Monte Carlo jobs

def _ks_check(label, samples, law, t, span):
    ks = ks_distance(samples, lambda x: law(x, t), *span)
    lim = ks_limit(len(samples))
    return ks, ([] if ks <= lim else [f"{label}: KS {ks:.5f} at t={t:.4g} above {lim:.5f}"])


def _check_simulate(outdir, run, *, skdf, law, ks_index, span):
    values, times, _, fails = check_skdf(outdir / "ensemble.skdf", **skdf)
    if values is None:
        return fails
    _, f = _ks_check("ensemble", values[:, ks_index], law, float(times[ks_index]), span)
    fails += f
    term = values[:, -1]
    summary = _load(outdir, "summary.json")
    if abs(summary["terminal_mean"] - float(term.mean())) > 1e-12 * max(1.0, abs(term.mean())):
        fails.append("summary terminal_mean disagrees with the ensemble")
    return fails


def _check_mixture(outdir, run, *, skdf, ks_index, span):
    values, times, labels, fails = check_skdf(outdir / "mixture.skdf", labels=True, **skdf)
    if values is None:
        return fails
    n = len(labels)
    # the recombination identity holds at every t < T; at an interior time
    # Euler-Maruyama bias near the horizon singularity does not enter
    _, f = _ks_check("mixture", values[:, ks_index], brownian_law(),
                     float(times[ks_index]), span)
    fails += f
    res = _load(outdir, "mixture_results.json")
    frac = float(np.mean(labels > 0))
    if res["p_plus"] != 0.5 or res["label_fraction_plus"] != frac:
        fails.append("mixture_results label bookkeeping disagrees with the SKDF")
    if not binomial_ok(frac, 0.5, n):
        fails.append(f"label fraction {frac:.4f} inconsistent with p_plus=0.5")
    t_term = float(times[-1])
    own = ks_distance(values[:, -1], lambda x: brownian_law()(x, t_term), *span)
    if abs(own - res["terminal_ks"]) > 1e-5:
        fails.append(f"reported terminal KS {res['terminal_ks']:.6f} != recomputed {own:.6f}")
    return fails


def _check_ou(outdir, run, *, skdf, lam, T, span):
    xs, times, _, fails = check_skdf(outdir / "ou_system.skdf", **skdf)
    zs, _, _, fz = check_skdf(outdir / "ou_driver.skdf", **skdf)
    fails += fz
    if xs is None or zs is None:
        return fails
    t = float(times[-1])
    ks_x, f = _ks_check("system X", xs[:, -1], ou_sknoise_law(lam, T), t, span)
    fails += f
    fails += _ks_check("driver Z", zs[:, -1], horizon_law(T), t, span)[1]
    res = _load(outdir, "ou_results.json")
    if abs(ks_x - res["terminal_ks"]) > 1e-5:
        fails.append(f"reported terminal KS {res['terminal_ks']:.6f} != recomputed {ks_x:.6f}")
    return fails


def _check_censor(outdir, run, *, n_paths, n_steps, stride, check_t):
    res = _load(outdir, "censor_results.json")["checks"]
    if [round(c["t"], 12) for c in res] != list(check_t):
        return [f"censor checked t={[c['t'] for c in res]}, expected {list(check_t)}"]
    fails = []
    dt = 1.0 / n_steps
    rho = np.sqrt(dt * np.arange(n_steps))          # sqrt-ramp correlation, T = 1
    for c in res:
        t, n_eff = c["t"], c["n_effective"]
        if c["ks"] > ks_limit(n_eff):
            fails.append(f"censor t={t}: KS {c['ks']:.5f} above {ks_limit(n_eff):.5f}")
        if n_eff != round(c["survivor_fraction"] * n_paths) or \
                not binomial_ok(c["survivor_fraction"], 0.5, n_paths):
            fails.append(f"censor t={t}: survivor fraction {c['survivor_fraction']}")
        n_sub = round(t / dt)
        if abs(c["correlation"] - rho[:n_sub].sum() * dt / t) > 1e-12:
            fails.append(f"censor t={t}: correlation {c['correlation']}")
        kde = _read_table(outdir / f"kde_t{round(t / (dt * stride))}.csv", "x,density")
        mass = float(np.trapezoid(kde[:, 1], kde[:, 0]))
        if kde.shape != (801, 2) or not np.all(kde[:, 1] >= 0) or abs(mass - 1.0) > 1e-2:
            fails.append(f"censor t={t}: KDE table shape {kde.shape}, mass {mass:.4f}")
    return fails


def _readback(skdf_path):
    """Downstream use of an artifact: read the SKDF with the program's reader
    and recompute its terminal KS with the program's statistics."""
    from skewdiff import densities, io, validation
    ens = io.ensemble_from_binary(skdf_path)
    cdf = validation.cdf_from_pdf(lambda v: densities.constant_skew_tpd(v, 1.0, 1.0, +1),
                                  -7.0, 8.0)
    return {"ks": validation.ks_statistic(ens.values[:, -1], cdf), "seed": ens.seed,
            "n_paths": ens.n_paths, "n_steps": ens.grid.n_steps,
            "values_sha256": hashlib.sha256(ens.values.tobytes()).hexdigest()}


def _check_readback(outdir, run, *, skdf_path, skdf, span):
    values, times, _, fails = check_skdf(skdf_path, **skdf)
    if values is None:
        return fails
    r = run.result
    if r["values_sha256"] != hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest():
        fails.append("ensemble_from_binary values differ from the file")
    if (r["seed"], r["n_paths"], r["n_steps"]) != (skdf["seed"], skdf["n_paths"], skdf["n_steps"]):
        fails.append(f"ensemble_from_binary header {r['seed'], r['n_paths'], r['n_steps']}")
    own, f = _ks_check("read-back", values[:, -1], constant_skew_law(1.0), float(times[-1]), span)
    fails += f
    if abs(own - r["ks"]) > 1e-5:
        fails.append(f"read-back KS {r['ks']:.6f} != recomputed {own:.6f}")
    return fails


def mc_jobs(seed: int, size: Size, work: Path):
    """Monte Carlo jobs: EM engine, mills, threads, SKDF writes and reads."""
    n, s = size.paths, size.steps
    stride = s // 5                      # records t = 0, 0.2, ..., 1
    seeds = _seeds(seed, 5)
    d = {k: work / k for k in ("simulate_constant_skew", "simulate_horizon",
                               "mixture_horizon", "ou_sknoise", "censor", "readback")}
    sim = ("--t-end", "1", "--steps", str(s), "--paths", str(n),
           "--record-stride", str(stride), "--format", "binary")

    def skdf(i, eps=0.0):
        return dict(n_paths=n, n_steps=s, stride=stride, seed=int(seeds[i]),
                    t_end=1.0, epsilon=eps)

    cs_skdf = d["simulate_constant_skew"] / "ensemble.skdf"
    return [
        Job("simulate_constant_skew", d["simulate_constant_skew"],
            argv=("simulate", "--kind", "constant-skew", "--alpha", "1", *sim,
                  "--seed", seeds[0], "--output-dir", str(d["simulate_constant_skew"])),
            artifacts=("ensemble.skdf", "summary.json", "manifest.json"),
            check=partial(_check_simulate, skdf=skdf(0), law=constant_skew_law(1.0),
                          ks_index=-1, span=(-8.0, 9.0))),
        # horizon drifts run to T with the default 1e-4*T cutoff; the KS check
        # is at t = 0.4 (acceptance 4 checks T/2), since at 200 steps the
        # Euler-Maruyama bias near the horizon singularity dominates the
        # terminal slice (README.md)
        Job("simulate_horizon", d["simulate_horizon"],
            argv=("simulate", "--kind", "horizon", "--T", "1", *sim,
                  "--seed", seeds[1], "--output-dir", str(d["simulate_horizon"])),
            artifacts=("ensemble.skdf", "summary.json", "manifest.json"),
            check=partial(_check_simulate, skdf=skdf(1, 1e-4), law=horizon_law(1.0),
                          ks_index=2, span=(-8.0, 8.0))),
        Job("mixture_horizon", d["mixture_horizon"],
            argv=("mixture", "--kind", "horizon", "--T", "1", *sim,
                  "--seed", seeds[2], "--output-dir", str(d["mixture_horizon"])),
            artifacts=("mixture.skdf", "mixture_results.json", "manifest.json"),
            own_gate=True,
            check=partial(_check_mixture, skdf=skdf(2, 1e-4), ks_index=3, span=(-8.0, 8.0))),
        Job("ou_sknoise", d["ou_sknoise"],
            argv=("ou", "--mode", "sknoise", "--lam", "1", "--T", "2", *sim,
                  "--seed", seeds[3], "--output-dir", str(d["ou_sknoise"])),
            artifacts=("ou_system.skdf", "ou_driver.skdf", "ou_results.json", "manifest.json"),
            own_gate=True,
            check=partial(_check_ou, skdf=skdf(3), lam=1.0, T=2.0, span=(-8.0, 9.0))),
        Job("censor", d["censor"],
            argv=("censor", "--t-end", "1", "--steps", str(s), "--paths", str(n),
                  "--record-stride", str(s // 4), "--check-t", "0.25,0.5",
                  "--seed", seeds[4], "--output-dir", str(d["censor"])),
            artifacts=("kde_t1.csv", "kde_t2.csv", "censor_results.json", "manifest.json"),
            own_gate=True,
            check=partial(_check_censor, n_paths=n, n_steps=s, stride=s // 4,
                          check_t=(0.25, 0.5))),
        Job("readback", d["readback"], call=partial(_readback, cs_skdf),
            check=partial(_check_readback, skdf_path=cs_skdf, skdf=skdf(0),
                          span=(-8.0, 9.0))),
    ]


# -------------------------------------------------------------------- PDE jobs

def _check_family(outdir, run, *, table_t):
    fails = []
    if _load(outdir, "family.json") != {"kind": "constant_skew", "parameters": {"alpha": 1.0},
                                         "chirality": 1, "horizon": "inf"}:
        fails.append("family.json does not describe constant-skew alpha=1")
    tab = _read_table(outdir / "family_table.csv", "t,psi,alpha")
    t = np.array(table_t)
    psi = (2.0 + t) / (2.0 * (1.0 + t))       # closed-form amplitude, alpha = 1
    if tab.shape != (len(t), 3) or not np.allclose(tab, np.c_[t, psi, np.ones_like(t)],
                                                   rtol=1e-12, atol=0):
        fails.append("family_table.csv disagrees with psi=(2+t)/(2(1+t)), alpha=1")
    return fails


def _check_fp(outdir, run, *, law, n_x, x_min, x_max, t_final):
    summary = _load(outdir, "kfe_summary.json")
    ts, masses = summary["t"], summary["mass"]
    fails = [f"slice mass {m!r} drifted from 1" for m in masses if abs(m - 1.0) > 1e-6][:1]
    path = outdir / "kfe_solution.csv"
    if count_lines(path) != 1 + n_x * len(ts):
        return fails + [f"kfe_solution.csv has {count_lines(path)} lines for "
                        f"{len(ts)} slices of {n_x} nodes"]
    tail = read_csv_tail(path, n_x)
    x, t, q = tail[:, 0], tail[:, 1], tail[:, 2]
    if not (np.all(t == ts[-1]) and abs(ts[-1] - t_final) < 1e-9):
        fails.append(f"last slice at t={t[0]!r}, expected {t_final}")
    if not np.allclose(x, np.linspace(x_min, x_max, n_x), rtol=0, atol=1e-9):
        fails.append("x nodes differ from the requested grid")
    err = l1_error(q, law(x, t_final), x)
    if not err <= FP_L1_TOL_SKEW:
        fails.append(f"terminal L1 error {err:.2e} above {FP_L1_TOL_SKEW:g}")
    return fails


def _check_density(outdir, run, *, law, ts, x):
    fails = []
    tab = np.loadtxt(outdir / "density.csv", delimiter=",", skiprows=1)
    want = np.c_[np.tile(x, len(ts)), np.repeat(ts, len(x))]
    if tab.shape != (len(ts) * len(x), 3) or not np.allclose(tab[:, :2], want, rtol=0,
                                                           atol=1e-12):
        return [f"density.csv layout {tab.shape} is not {len(ts)} slices of {len(x)} nodes"]
    ref = np.concatenate([law(x, t) for t in ts])
    if not np.allclose(tab[:, 2], ref, rtol=1e-9, atol=1e-300):
        fails.append("density values disagree with the closed-form law")
    masses = _load(outdir, "density_summary.json")["mass"]
    if any(abs(m - 1.0) > 1e-6 for m in masses):
        fails.append(f"density slice masses {masses}")
    return fails


def pde_jobs(seed: int, size: Size, work: Path):
    """Fokker-Planck solves and closed-form tables: the PDE solver and the
    text artifact writers."""
    seeds = _seeds(seed, 5, first=10)
    d = {k: work / k for k in ("family", "fp_family_json", "fp_ou_htransform",
                               "fp_horizon", "density")}
    grid = ("--n-x", str(size.n_x), "--n-t", str(size.n_t))
    table_t = (0.5, 1.0, 2.0)
    density_t = (0.25, 0.5, 1.0, 2.0)
    step = float(size.density_step)
    density_x = -8.0 + step * np.arange(int(round(18.0 / step)) + 1)

    def fp(i, name, args, law, lo, hi, t_final):
        return Job(name, d[name],
                   argv=("fokker-planck", *args, "--x-min", str(lo), "--x-max", str(hi),
                         *grid, "--seed", seeds[i], "--output-dir", str(d[name])),
                   artifacts=("kfe_solution.csv", "kfe_summary.json", "manifest.json"),
                   check=partial(_check_fp, law=law, n_x=size.n_x, x_min=lo, x_max=hi,
                                 t_final=t_final))

    return [
        Job("family", d["family"],
            argv=("family", "--kind", "constant-skew", "--alpha", "1",
                  "--table-t", ",".join(map(str, table_t)),
                  "--seed", seeds[0], "--output-dir", str(d["family"])),
            artifacts=("family.json", "family_table.csv", "manifest.json"),
            check=partial(_check_family, table_t=table_t)),
        # a time-dependent drift read from the family file: bands rebuilt every step
        fp(1, "fp_family_json", ("--drift-json", str(d["family"] / "family.json"),
                                 "--t-end", "1"),
           constant_skew_law(1.0), -10, 10, 1.0),
        # a time-free drift: the cached-band path
        fp(2, "fp_ou_htransform", ("--kind", "ou-htransform", "--lam", "1", "--t-end", "1"),
           ou_htransform_law(1.0), -6, 12, 1.0),
        fp(3, "fp_horizon", ("--kind", "horizon", "--T", "1", "--t-end", "1",
                             "--epsilon", "0.01"),
           horizon_law(1.0), -6, 6, 0.99),
        Job("density", d["density"],
            argv=("density", "--kind", "constant-skew", "--alpha", "1",
                  "--t", ",".join(map(str, density_t)), f"--x=-8:10:{size.density_step}",
                  "--seed", seeds[4], "--output-dir", str(d["density"])),
            artifacts=("density.csv", "density_summary.json", "manifest.json"),
            check=partial(_check_density, law=constant_skew_law(1.0), ts=density_t,
                          x=density_x)),
    ]


# -------------------------------------------------------------- validate_suite

def _check_validate(outdir, run):
    rep = _load(outdir, "validation_report.json")
    checks = rep["checks"]
    if not checks:
        return ["validation report holds no checks"]
    fails = []
    for c in checks:
        name, stat = c["name"], c["statistic"]
        if name == "mc/constant-skew-terminal-ks":
            ok = c["n_effective"] > 0 and stat <= ks_limit(c["n_effective"])
        elif name == "mc/horizon-martingale-mean":
            ok = stat <= Z_LIMIT       # max |mean - 1| / SE over checkpoints
        else:
            ok = c["passed"]           # deterministic: must pass as reported
        if not (ok and math.isfinite(stat)):
            fails.append(f"check {name}: statistic {stat:.3e}, threshold {c['threshold']:.3e}")
    all_passed = all(c["passed"] for c in checks)
    if rep["all_passed"] != all_passed or (run.rc == 0) != all_passed:
        fails.append(f"exit code {run.rc} disagrees with all_passed={rep['all_passed']}")
    return fails


def mc_pde(seed: int, size: Size, work: Path):
    # the Monte Carlo and PDE jobs share one workload: alone, the PDE jobs'
    # interpreter-bound time drifted with the host's load by more than the
    # 0.25 bound between sets of runs (README.md)
    return [mc_jobs(seed, size, work) + pde_jobs(seed, size, work)]


def validate_suite(seed: int, size: Size, work: Path):
    # one validate job per pass, the seeds in turn: twice the passes in a
    # run, so the median over passes is steadier
    return [[Job(f"validate_{i}", work / f"validate_{i}",
                 argv=("validate", "--suite", size.suite, "--seed", s,
                       "--output-dir", str(work / f"validate_{i}")),
                 artifacts=("validation_report.json", "manifest.json"),
                 own_gate=True, check=_check_validate)]
            for i, s in enumerate(_seeds(seed, size.validate_seeds))]


def build(workload: str, seed: int, size: str, work: Path):
    """Return (warm-up jobs, plans) for a workload.  A plan is the job list
    of one pass; pass k runs plan k mod len(plans)."""
    make = {"mc_pde": mc_pde, "validate_suite": validate_suite}[workload]
    warm, seen = [], set()
    for job in (j for plan in make(seed, WARMUP, work / "warmup") for j in plan):
        if job.command not in seen:
            seen.add(job.command)
            warm.append(job)
    return warm, make(seed, SIZES[size], work / "timed")
