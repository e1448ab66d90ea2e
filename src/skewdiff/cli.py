"""Command-line front end: simulation, densities, PDE solves, validation.

Every command writes its artifacts plus a manifest.json recording the full
configuration, seed, package/library versions, and wall time.  Artifact
files are byte-identical across reruns of the same configuration.

Exit codes: 0 success, 1 validation failure, 2 configuration/schema error,
3 numerical failure (a diagnostics file is written when possible).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .censoring import posterior_from_censored_sim
from .densities import (Law, censored_esn, density_grid, ou_gaussian_esn,
                        ou_skew_driven_esn)
from .dists import ExtendedSkewNormalParams
from .errors import SchemaError, SkewDiffError
from .families import (CLOSED_FORM_FAMILIES, DriftSpec, OuSkewSpec,
                       drift_spec_from_descriptor, horizon_family)
from .fokker_planck import FpConfig, solve_kfe
from .io import (columns_to_csv, density_grid_summary, density_grid_to_csv,
                 ensemble_to_binary, ensemble_to_csv, write_json)
from .ou_skew import ou_mixture_probability, simulate_ou_skew_noise
from .sde import SimConfig, TimeGrid, mixture_probability, simulate, \
    simulate_bivariate_censoring, simulate_mixture, thread_count
from .validation import ks_statistic, ks_threshold


def _parse_floats(text: str, sep: str = ","):
    try:
        values = [float(v) for v in text.split(sep) if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise SchemaError(f"not a {sep!r}-separated list of numbers: {text!r}")
    return values


def _parse_range(text: str) -> np.ndarray:
    """Parse 'lo:hi:step' into an inclusive uniform grid."""
    parts = _parse_floats(text, ":")
    if len(parts) != 3:
        raise SchemaError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = parts
    if not (0 < step < math.inf and -math.inf < lo < hi < math.inf):
        raise SchemaError(f"bad range {text!r}")
    # so is a node count that overflows, or that no array can hold
    try:
        return lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    except (OverflowError, MemoryError, ValueError) as e:
        raise SchemaError(f"bad range {text!r}: {e}") from e


# the parameter flags a kind may read, with their argparse settings; each is
# None unless given, and a kind that reads --chirality without one gets +1
_KIND_PARAMS = {"T": dict(type=float, help="horizon"),
                "alpha": dict(type=float, help="constant skewness"),
                "C": dict(type=float, help="constant correlation in [0,1)"),
                "lam": dict(type=float, help="mean-reversion rate"),
                "rho": dict(type=float, help="censoring correlation"),
                "chirality": dict(type=int, choices=(-1, 1), help="skew side (default +1)")}


def _params(args, flags, what):
    """The values of `flags`; a SchemaError names those left unset, or a
    parameter flag given that `what` does not read."""
    values = [1 if f == "chirality" and getattr(args, f) is None else getattr(args, f)
              for f in flags]
    missing = ["--" + f.replace("_", "-") for f, v in zip(flags, values) if v is None]
    if missing:
        raise SchemaError(f"{what} requires {', '.join(missing)}")
    stray = [f for f in _KIND_PARAMS if f not in flags and getattr(args, f, None) is not None]
    if stray:
        raise SchemaError(f"{what} does not read --{stray[0]}")
    return values


def _horizon_mixture(T, x0):
    """The horizon drift; mixed with its reflection it is Brownian motion."""
    brownian = Law(lambda t: ExtendedSkewNormalParams(x0, math.sqrt(t), 0.0, 0.0))
    return DriftSpec(family=horizon_family(T)), mixture_probability(x0, T), brownian, "brownian"


def _ou_mixture(lam, x0):
    """The OU h-transform; mixed with its reflection it is the growing OU."""
    growing = Law(lambda t: ou_gaussian_esn(t, lam, x0))
    return DriftSpec(ou=OuSkewSpec(lam, 1)), ou_mixture_probability(lam, x0), growing, "growing-ou"


# an ou mode runs on (grid, cfg) and returns its ensembles by file stem, the
# first being the process its law describes, and that law
def _ou_htransform(lam, chirality, x0, grid, cfg):
    drift = DriftSpec(ou=OuSkewSpec(lam, chirality))
    return {"ou_htransform": simulate(drift, x0, grid, cfg)}, drift.law(x0)


def _ou_sknoise(lam, x0, T, grid, cfg):
    ensembles = simulate_ou_skew_noise(lam, x0, T, grid, cfg)
    return (dict(zip(("ou_system", "ou_driver"), ensembles)),
            Law(lambda t: ou_skew_driven_esn(t, lam, x0, T)))


# One table per kind axis (--kind, ou's --mode, censor's --rho-kind): choice
# -> (constructor, the flags passed to it in order).  A command has a
# parameter flag only if one of its choices reads it.
FAMILY_KINDS = {kind.replace("_", "-"): (make, (param, "chirality"))
                for kind, (make, param) in CLOSED_FORM_FAMILIES.items()}
# simulate, fokker-planck and density also take the OU h-transform drift
DRIFT_KINDS = {**FAMILY_KINDS, "ou-htransform": (OuSkewSpec, ("lam", "chirality"))}
# plain densities, not the law of a drift: each makes its Law from its flags
DENSITY_KINDS = {
    "censored": (lambda rho: Law(lambda t: censored_esn(t, rho)), ("rho",)),
    "ou-noise-marginal": (lambda lam, x0, T: Law(lambda t: ou_skew_driven_esn(t, lam, x0, T)),
                          ("lam", "x0", "T")),
}
MIXTURE_KINDS = {
    "horizon": (_horizon_mixture, ("T", "x0")),
    "ou": (_ou_mixture, ("lam", "x0")),
}
OU_MODES = {
    "htransform": (_ou_htransform, ("lam", "chirality", "x0")),
    "sknoise": (_ou_sknoise, ("lam", "x0", "T")),
}
# the correlation of the censoring pair: a number, or rho(t) = sqrt(t / t_end)
RHO_KINDS = {"constant": (float, ("rho",)),
             "sqrt-ramp": (lambda T: lambda t: math.sqrt(max(t, 0.0) / T), ("t_end",))}


def _make(table, args, axis="kind", *extra):
    """The choice of --axis in `table`, made from the flags it reads and `extra`."""
    choice = getattr(args, axis)
    make, flags = table[choice]
    return make(*_params(args, flags, f"{axis.replace('_', '-')}={choice}"), *extra)


def _read_json(path, what) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise SchemaError(f"{what} {path}: {e}") from e
    if not isinstance(data, dict):
        raise SchemaError(f"{what} {path} must hold a JSON object")
    return data


def _drift_from_args(args) -> DriftSpec:
    shift = getattr(args, "shift", None)
    if args.drift_json:
        if args.kind is not None:
            raise SchemaError("--kind and --drift-json are exclusive")
        # the descriptor holds every parameter of the drift, its shift included
        _params(args, (), "--drift-json")
        if shift is not None:
            raise SchemaError("--drift-json does not read --shift")
        desc = _read_json(args.drift_json, "drift descriptor")
        try:
            return drift_spec_from_descriptor(desc)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad drift descriptor: {e}") from e
    if args.kind is None:
        raise SchemaError("--kind (or --drift-json) is required")
    source = _make(DRIFT_KINDS, args)
    ou = isinstance(source, OuSkewSpec)
    return DriftSpec(family=None if ou else source, ou=source if ou else None,
                     shift=0.0 if shift is None else shift)


def _grid(args, family, n_steps: int, t_start: float = 0.0) -> TimeGrid:
    """The run's grid; --epsilon defaults to 1e-4 * t_end for a horizon family, else 0."""
    eps = args.epsilon
    if eps is None:
        eps = 1e-4 * args.t_end if family is not None and family.kind == "horizon" else 0.0
    return TimeGrid(t_start, args.t_end, n_steps, eps)


def _write_manifest(outdir: Path, args, artifacts, t0: float):
    cfg = {k: v for k, v in vars(args).items() if k != "config"}
    manifest = {
        "command": args.command,
        "configuration": cfg,
        "seed": args.seed,
        "versions": {"skewdiff": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "artifacts": [str(a.name) for a in artifacts],
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "manifest_version": 1,
    }
    if hasattr(args, "threads"):
        manifest["threads"] = thread_count(args.threads)
    # the configuration as given, which may hold a flag's inf or nan
    write_json(outdir / "manifest.json", manifest, strict=False)


def _sim_config(args) -> SimConfig:
    return SimConfig(n_paths=args.paths, seed=args.seed, drift_clamp=args.clamp,
                     antithetic=args.antithetic, record_stride=args.record_stride,
                     n_threads=args.threads)


def _emit_ensemble(ens, outdir: Path, stem: str, fmt: str):
    if fmt == "binary":
        p = outdir / f"{stem}.skdf"
        ensemble_to_binary(ens, p)
    else:
        p = outdir / f"{stem}.csv"
        ensemble_to_csv(ens, p)
    return p


# Each cmd_<name>(args, outdir) writes its artifacts into outdir and returns
# (exit code, artifact paths); main times it and writes the manifest.

def cmd_family(args, outdir: Path):
    fam = _make(FAMILY_KINDS, args)
    table = None
    if args.table_t:
        ts = _parse_floats(args.table_t)
        if not all(0 < t < fam.validity_horizon for t in ts):
            raise SchemaError(f"--table-t times must be positive, finite and below the "
                              f"horizon {fam.validity_horizon:g}, got {args.table_t!r}")
        table = (ts, [fam.psi(t) for t in ts], [fam.alpha(t) for t in ts])
        # a cell that is not finite is a numerical failure, never a table row
        if not np.isfinite(table).all():
            raise FloatingPointError(f"psi or alpha is not finite at --table-t {args.table_t!r}")
    artifacts = [outdir / "family.json"]
    write_json(artifacts[0], fam.descriptor())
    if table is not None:
        artifacts.append(outdir / "family_table.csv")
        columns_to_csv(artifacts[-1], ("t", "psi", "alpha"), *table)
    return 0, artifacts


def cmd_simulate(args, outdir: Path):
    drift = _drift_from_args(args)
    grid = _grid(args, drift.family, args.steps, args.t_start)
    ens = simulate(drift, args.x0, grid, _sim_config(args))
    artifacts = [_emit_ensemble(ens, outdir, "ensemble", args.format)]
    terminal = ens.values[:, -1]
    # the terminal KS against the drift's own law, where it has one
    law, ks, thr = drift.law(args.x0, grid.t_start), None, None
    if law is not None and args.paths >= 100 and grid.t_final < drift.validity_horizon:
        ks, thr = ks_statistic(terminal, law.cdf(grid.t_final)), ks_threshold(args.paths)
    # a statistic the run leaves undefined (one path, no spread) is null;
    # one that overflows is not finite, and write_json refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd3 = terminal.mean(), terminal.std() ** 3
        var = float(terminal.var(ddof=1)) if args.paths > 1 else None
        skew = None if sd3 == 0 else float(((terminal - mean) ** 3).mean() / sd3)
    summary = {"law": None if law is None else drift.kind, "terminal_ks": ks,
               "threshold": thr, "terminal_mean": float(mean),
               "terminal_variance": var, "terminal_skewness": skew,
               "clamp_events": ens.clamp_events,
               "clamp_fraction": ens.clamp_events / (args.paths * args.steps)}
    sp = outdir / "summary.json"
    write_json(sp, summary)
    artifacts.append(sp)
    return 0, artifacts


def cmd_density(args, outdir: Path):
    xs = _parse_range(args.x)
    ts = _parse_floats(args.t)
    if not all(0 < t < math.inf for t in ts):
        raise SchemaError(f"--t times must be positive and finite, got {args.t!r}")
    if args.kind in DENSITY_KINDS and not args.drift_json:
        law, what, horizon = _make(DENSITY_KINDS, args), f"kind={args.kind}", math.inf
    else:
        # a drift's own law; --kind beside --drift-json is refused here
        drift = _drift_from_args(args)
        law, what, horizon = drift.law(args.x0), f"the {drift.kind} drift", drift.validity_horizon
    if law is None:
        raise SchemaError(f"{what} has no closed-form law from x0={args.x0}")
    if max(ts) >= horizon:
        raise SchemaError(f"--t times must stay below the horizon {horizon:g}, got {args.t!r}")
    # the law refuses its parameters, and a time at or past its horizon,
    # before any slice is evaluated
    law.unit(max(ts))
    grid = density_grid(law.pdf, xs, ts)
    csv_path = outdir / "density.csv"
    density_grid_to_csv(grid, csv_path)
    sp = outdir / "density_summary.json"
    write_json(sp, density_grid_summary(grid))
    return 0, [csv_path, sp]


def cmd_fokker_planck(args, outdir: Path):
    drift = _drift_from_args(args)
    grid = _grid(args, drift.family, args.n_t)
    cfg = FpConfig(x_min=args.x_min, x_max=args.x_max, n_x=args.n_x,
                   n_t=args.n_t, theta=args.theta)
    sol = solve_kfe(drift, args.x0, grid, cfg)
    csv_path = outdir / "kfe_solution.csv"
    density_grid_to_csv(sol, csv_path)
    sp = outdir / "kfe_summary.json"
    write_json(sp, density_grid_summary(sol))
    return 0, [csv_path, sp]


def cmd_censor(args, outdir: Path):
    rho = _make(RHO_KINDS, args, "rho_kind")
    T = args.t_end
    grid = TimeGrid(t_start=0.0, t_end=T, n_steps=args.steps)
    cfg = SimConfig(n_paths=args.paths, seed=args.seed,
                    record_stride=args.record_stride, n_threads=args.threads)
    times = grid.times()[::cfg.record_stride]
    rho_vals = np.array([rho(t) if callable(rho) else rho for t in grid.times()[:-1]])
    # each check time must be a positive recorded time; its reference, the
    # survivors' law at the pair's time-t correlation, is built before any
    # path is drawn, so a correlation that law refuses is refused first
    checks = []
    for t_check in _parse_floats(args.check_t):
        j = int(np.argmin(np.abs(times - t_check)))
        if not (t_check > 0 and j > 0 and abs(times[j] - t_check) <= 1e-9):
            raise SchemaError(f"--check-t {t_check} is not a positive recorded time "
                              f"(every {grid.dt * cfg.record_stride:g} up to {T:g})")
        t_j = float(times[j])
        n_sub = int(round(t_j / grid.dt))
        r_eff = float(rho_vals[:n_sub].sum() * grid.dt / t_j)  # time-t correlation of the pair
        checks.append((j, t_j, r_eff, censored_esn(t_j, r_eff)))
    # no check reads a step past the last check time, so none is run
    n_run = max(j for j, *_ in checks) * cfg.record_stride
    ens_x, ens_y = simulate_bivariate_censoring(rho, grid, cfg, n_steps=n_run)

    results = []
    artifacts = []
    for j, t_j, r_eff, unit in checks:
        xg, dens, frac, n_surv = posterior_from_censored_sim(
            ens_x, ens_y, j, bandwidth=args.bandwidth)
        surv = ens_x.values[:, j][ens_y.values[:, j] >= 0.0]
        ks = ks_statistic(surv, Law(lambda t: unit).cdf(t_j))
        results.append({"t": t_j, "survivor_fraction": frac, "ks": ks,
                        "threshold": ks_threshold(n_surv),
                        "n_effective": n_surv, "correlation": r_eff})
        kde_path = outdir / f"kde_t{j}.csv"
        columns_to_csv(kde_path, ("x", "density"), xg, dens)
        artifacts.append(kde_path)
    rp = outdir / "censor_results.json"
    write_json(rp, {"checks": results})
    artifacts.append(rp)
    return (0 if all(r["ks"] <= r["threshold"] for r in results) else 1), artifacts


def cmd_mixture(args, outdir: Path):
    drift, (p_minus, p_plus), target, target_name = _make(MIXTURE_KINDS, args)
    grid = _grid(args, drift.family, args.steps)
    ens = simulate_mixture(drift, p_plus, args.x0, grid, _sim_config(args))
    ks = ks_statistic(ens.values[:, -1], target.cdf(grid.t_final))
    thr = ks_threshold(args.paths)
    artifacts = [_emit_ensemble(ens, outdir, "mixture", args.format)]
    rp = outdir / "mixture_results.json"
    write_json(rp, {"p_plus": p_plus, "p_minus": p_minus, "terminal_ks": ks,
                    "threshold": thr, "target": target_name,
                    "label_fraction_plus": float((ens.labels > 0).mean())})
    artifacts.append(rp)
    return (0 if ks <= thr else 1), artifacts


def cmd_ou(args, outdir: Path):
    cfg = _sim_config(args)
    # the skew-noise horizon is --T, not --t-end, so no cutoff by default
    grid = _grid(args, None, args.steps)
    ensembles, law = _make(OU_MODES, args, "mode", grid, cfg)
    first = next(iter(ensembles.values()))
    ks = ks_statistic(first.values[:, -1], law.cdf(grid.t_final))
    artifacts = [_emit_ensemble(ens, outdir, stem, args.format)
                 for stem, ens in ensembles.items()]
    thr = ks_threshold(args.paths)
    rp = outdir / "ou_results.json"
    write_json(rp, {"terminal_ks": ks, "threshold": thr})
    artifacts.append(rp)
    return (0 if ks <= thr else 1), artifacts


def cmd_validate(args, outdir: Path):
    from .suite import build_core_report
    report = build_core_report(seed=args.seed, quick=(args.suite == "quick"))
    rp = outdir / "validation_report.json"
    write_json(rp, report.to_dict())
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: statistic={c.statistic:.3e} threshold={c.threshold:.3e}")
    print(f"{'ALL CHECKS PASSED' if report.all_passed else 'CHECK FAILURES PRESENT'}")
    return (0 if report.all_passed else 1), [rp]


def _add_common(p):
    p.add_argument("--output-dir", default=".", help="directory for artifacts")
    p.add_argument("--seed", type=int, default=1, help="master RNG seed")
    p.add_argument("--config", default=None,
                   help="JSON file whose keys override the flags")


def _add_kind(p, table, flag="--kind", default=None, drift_json=False):
    """`flag` over the choices of `table`, and the parameter flags they read;
    `flag` is required unless it has a default or --drift-json stands in for it."""
    p.add_argument(flag, choices=table, default=default,
                   required=default is None and not drift_json)
    if drift_json:
        p.add_argument("--drift-json", default=None,
                       help="drift (or family) descriptor file, instead of --kind")
    read = {f for _, flags in table.values() for f in flags}
    for name, settings in _KIND_PARAMS.items():
        if name in read:
            p.add_argument(f"--{name}", default=None, **settings)


def _add_sim_params(p):
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="terminal cutoff (default 1e-4*t_end for horizon drifts)")
    p.add_argument("--record-stride", type=int, default=1)
    p.add_argument("--clamp", type=float, default=10.0,
                   help="bound on a step's drift increment, in units of the "
                        "drift's sigma (default 10)")
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--format", choices=("csv", "binary"), default="csv",
                   help="ensemble file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdiff",
        description="Skew-normal diffusion toolkit: simulate, evaluate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="construct a drift family and export it")
    _add_common(p)
    _add_kind(p, FAMILY_KINDS)
    p.add_argument("--table-t", default=None, help="comma list of times to tabulate")

    p = sub.add_parser("simulate", help="Euler-Maruyama ensemble for a drift")
    _add_common(p)
    _add_kind(p, DRIFT_KINDS, drift_json=True)
    _add_sim_params(p)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=None, help="shift of a --kind drift (default 0)")

    p = sub.add_parser("density", help="tabulate a closed-form density")
    _add_common(p)
    _add_kind(p, {**DRIFT_KINDS, **DENSITY_KINDS}, drift_json=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t", required=True, help="comma list of times")
    p.add_argument("--x", required=True, help="x grid as lo:hi:step")

    p = sub.add_parser("fokker-planck", help="finite-difference forward solve")
    _add_common(p)
    _add_kind(p, DRIFT_KINDS, drift_json=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="terminal cutoff (default 1e-4*t_end for horizon drifts)")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--n-x", type=int, default=2001)
    p.add_argument("--n-t", type=int, default=1000)
    p.add_argument("--theta", type=float, default=0.5)

    p = sub.add_parser("censor", help="bivariate censoring simulation and checks")
    _add_common(p)
    _add_kind(p, RHO_KINDS, "--rho-kind", default="sqrt-ramp")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--check-t", default="0.25,0.5", help="times for posterior checks")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--record-stride", type=int, default=1)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("mixture", help="chirality-mixture simulation and identity check")
    _add_common(p)
    _add_kind(p, MIXTURE_KINDS, default="horizon")
    _add_sim_params(p)

    p = sub.add_parser("ou", help="mean-reversion extensions")
    _add_common(p)
    _add_kind(p, OU_MODES, "--mode", default="htransform")
    _add_sim_params(p)

    p = sub.add_parser("validate", help="run the verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=("core", "quick"), default="core")

    return parser


def _fuse_range_values(argv):
    """Join '--x -5:5:0.01' into '--x=-5:5:0.01' so argparse does not read
    the leading minus of the range as an option prefix."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    skip = False
    for i, a in enumerate(argv):
        if skip:
            skip = False
            continue
        if a == "--x" and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and ":" in argv[i + 1]:
            out.append(f"--x={argv[i + 1]}")
            skip = True
        else:
            out.append(a)
    return out


# parse_args leaves a parser as it found it, so one serves every main()
# call in a process; build_parser() itself still returns a fresh one
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def _parse(argv):
    """Parse the command line, then parse it again with the --config keys
    appended as flags: each value meets its flag's type and choices, and
    argparse keeps the last value it reads, so the config overrides the
    command line.  A switch (a store_true flag, the only kind that parses to
    a bool) takes a JSON true/false instead."""
    parser = _shared_parser()
    argv = _fuse_range_values(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    flags, switches = [], {}
    for key, value in _read_json(args.config, "config file").items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "config"):
            raise SchemaError(f"unknown configuration key {key!r}")
        switch = isinstance(getattr(args, dest), bool)
        if switch and isinstance(value, bool):
            switches[dest] = value
        elif not switch and isinstance(value, (str, int, float)) \
                and not isinstance(value, bool):
            flags.append(f"--{dest.replace('_', '-')}={value}")
        else:
            raise SchemaError(f"configuration key {key!r} cannot be {json.dumps(value)}")
    args = parser.parse_args([*argv, *flags])
    vars(args).update(switches)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        t0 = time.perf_counter()
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so a wrapped cmd_<name> is the one that runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        code, artifacts = command(args, outdir)
    except SystemExit as e:
        # argparse exits 2 on schema violations and 0 on --help
        return int(e.code or 0)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SkewDiffError, ArithmeticError, ValueError) as e:
        # vars(e) holds the fields an exception carries, such as the
        # PDE step diagnostics or the failing path and step index
        write_json(outdir / "diagnostics.json",
                   {"error": str(e), "type": type(e).__name__, **vars(e)}, strict=False)
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    _write_manifest(outdir, args, artifacts, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
