"""Command-line front end: simulation, densities, PDE solves, validation.

Every command writes its artifacts plus a manifest.json recording the full
configuration, seed, package/library versions, and wall time.  Artifact
files are byte-identical across reruns of the same configuration.

Exit codes: 0 success, 1 validation failure, 2 configuration/schema error,
3 numerical failure (a diagnostics file is written when possible).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .censoring import posterior_from_censored_sim
from .densities import (censored_posterior, constant_skew_tpd, density_grid,
                        horizon_tpd, ou_htransform_tpd, ou_skew_driven_marginal)
from .errors import SchemaError, SkewDiffError
from .families import (DriftSpec, constant_correlation_family,
                       constant_skew_family, drift_spec_from_descriptor,
                       horizon_family)
from .fokker_planck import FpConfig, solve_kfe
from .io import (columns_to_csv, density_grid_summary, density_grid_to_csv,
                 ensemble_to_binary, ensemble_to_csv, write_json)
from .ou_skew import ou_mixture_probability, repulsive_ou_tpd, simulate_ou_skew_noise
from .sde import SimConfig, TimeGrid, mixture_probability, simulate, \
    simulate_bivariate_censoring, simulate_mixture
from .validation import cdf_from_pdf, ks_statistic, ks_threshold


def _parse_floats(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_range(text: str) -> np.ndarray:
    """Parse 'lo:hi:step' into an inclusive uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi <= lo:
        raise SchemaError(f"bad range {text!r}")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def _family_from_args(args):
    chir = args.chirality
    if args.kind == "horizon":
        if args.T is None:
            raise SchemaError("--T is required for kind=horizon")
        return horizon_family(args.T, chir)
    if args.kind == "constant-skew":
        if args.alpha is None:
            raise SchemaError("--alpha is required for kind=constant-skew")
        return constant_skew_family(args.alpha, chir)
    if args.kind == "constant-correlation":
        if args.C is None:
            raise SchemaError("--C is required for kind=constant-correlation")
        return constant_correlation_family(args.C, chir)
    raise SchemaError(f"unknown family kind {args.kind!r}")


def _drift_from_args(args) -> DriftSpec:
    if getattr(args, "drift_json", None):
        path = Path(args.drift_json)
        if not path.exists():
            raise SchemaError(f"drift descriptor {path} does not exist")
        try:
            desc = json.loads(path.read_text())
            if "family" not in desc and desc.get("kind") in (
                    "horizon", "constant_skew", "constant_correlation", "general"):
                # bare family descriptor: wrap it in its natural drift
                from .families import family_from_descriptor
                fam = family_from_descriptor(desc)
                return DriftSpec(kind=fam.kind, family=fam)
            return drift_spec_from_descriptor(desc)
        except (KeyError, ValueError, json.JSONDecodeError) as e:
            raise SchemaError(f"bad drift descriptor: {e}") from e
    if args.kind is None:
        raise SchemaError("--kind (or --drift-json) is required")
    if args.kind == "ou-htransform":
        if args.lam is None:
            raise SchemaError("--lam is required for kind=ou-htransform")
        return DriftSpec(kind="ou_htransform",
                         params={"lam": args.lam, "chirality": args.chirality})
    fam = _family_from_args(args)
    return DriftSpec(kind=fam.kind, family=fam, shift=getattr(args, "shift", 0.0) or 0.0)


def _write_manifest(outdir: Path, command: str, args, artifacts, t0: float):
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "config") and not k.startswith("_")}
    manifest = {
        "command": command,
        "configuration": cfg,
        "seed": getattr(args, "seed", None),
        "versions": {"skewdiff": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "artifacts": [str(a.name) for a in artifacts],
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "manifest_version": 1,
    }
    write_json(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def cmd_family(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    fam = _family_from_args(args)
    artifacts = [outdir / "family.json"]
    write_json(artifacts[0], fam.descriptor())
    if args.table_t:
        ts = np.asarray(_parse_floats(args.table_t))
        tab = outdir / "family_table.csv"
        columns_to_csv(tab, ("t", "psi", "alpha"), ts,
                       [fam.psi(t) for t in ts], [fam.alpha(t) for t in ts])
        artifacts.append(tab)
    _write_manifest(outdir, "family", args, artifacts, t0)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    drift = _drift_from_args(args)
    eps = args.epsilon if args.epsilon is not None else \
        (1e-4 * args.t_end if drift.kind == "horizon" else 0.0)
    grid = TimeGrid(t_start=args.t_start, t_end=args.t_end, n_steps=args.steps,
                    terminal_cutoff_epsilon=eps)
    with np.errstate(invalid="ignore"):
        probe = np.asarray(drift.mu(np.asarray([args.x0]), grid.t_start))
    if not np.all(np.isfinite(probe)):
        raise SchemaError(
            f"drift is singular at t={grid.t_start} for this family; "
            "pass a positive --t-start")
    ens = simulate(drift, args.x0, grid, _sim_config(args))
    artifacts = [_emit_ensemble(ens, outdir, "ensemble", args.format)]
    terminal = ens.values[:, -1]
    summary = {"terminal_mean": float(terminal.mean()),
               "terminal_variance": float(terminal.var(ddof=1)),
               "terminal_skewness": float(
                   ((terminal - terminal.mean()) ** 3).mean() / terminal.std() ** 3),
               "clamp_events": ens.clamp_events,
               "clamp_fraction": ens.clamp_events / (args.paths * args.steps)}
    sp = outdir / "summary.json"
    write_json(sp, summary)
    artifacts.append(sp)
    _write_manifest(outdir, "simulate", args, artifacts, t0)
    return 0


def cmd_density(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    xs = _parse_range(args.x)
    ts = _parse_floats(args.t)
    kind = args.kind
    chir = args.chirality
    if kind == "horizon":
        if args.T is None:
            raise SchemaError("--T required")
        fn = lambda x, t: horizon_tpd(x, t, args.x0, args.T, chir)
    elif kind == "constant-skew":
        if args.alpha is None:
            raise SchemaError("--alpha required")
        fn = lambda x, t: constant_skew_tpd(x, t, args.alpha, chir)
    elif kind == "censored":
        if args.rho is None:
            raise SchemaError("--rho required")
        fn = lambda x, t: censored_posterior(x, t, args.rho)
    elif kind == "ou-htransform":
        if args.lam is None:
            raise SchemaError("--lam required")
        fn = lambda x, t: ou_htransform_tpd(x, t, args.lam, args.x0, chir)
    elif kind == "ou-noise-marginal":
        if args.lam is None or args.T is None:
            raise SchemaError("--lam and --T required")
        fn = lambda x, t: ou_skew_driven_marginal(x, t, args.lam, args.x0, args.T)
    else:
        raise SchemaError(f"unknown density kind {kind!r}")
    grid = density_grid(fn, xs, ts)
    csv_path = outdir / "density.csv"
    density_grid_to_csv(grid, csv_path)
    sp = outdir / "density_summary.json"
    write_json(sp, density_grid_summary(grid))
    _write_manifest(outdir, "density", args, [csv_path, sp], t0)
    return 0


def cmd_fokker_planck(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    drift = _drift_from_args(args)
    grid = TimeGrid(t_start=0.0, t_end=args.t_end, n_steps=max(64, args.n_t),
                    terminal_cutoff_epsilon=args.epsilon or 0.0)
    cfg = FpConfig(x_min=args.x_min, x_max=args.x_max, n_x=args.n_x,
                   n_t=args.n_t, theta=args.theta)
    sol = solve_kfe(drift, args.sigma, args.x0, grid, cfg)
    csv_path = outdir / "kfe_solution.csv"
    density_grid_to_csv(sol, csv_path)
    sp = outdir / "kfe_summary.json"
    write_json(sp, density_grid_summary(sol))
    _write_manifest(outdir, "fokker-planck", args, [csv_path, sp], t0)
    return 0


def cmd_censor(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    T = args.t_end
    if args.rho_kind == "sqrt-ramp":
        rho = lambda t: math.sqrt(max(t, 0.0) / T)
    else:
        rho = args.rho if args.rho is not None else 0.0
    grid = TimeGrid(t_start=0.0, t_end=T, n_steps=args.steps)
    cfg = SimConfig(n_paths=args.paths, seed=args.seed,
                    record_stride=args.record_stride, n_threads=args.threads)
    ens_x, ens_y = simulate_bivariate_censoring(rho, grid, cfg)

    rho_vals = np.array([rho(t) if callable(rho) else rho for t in grid.times()[:-1]])
    results = []
    artifacts = []
    for t_check in _parse_floats(args.check_t):
        times = ens_x.times
        j = int(np.argmin(np.abs(times - t_check)))
        t_j = float(times[j])
        n_sub = int(round(t_j / grid.dt))
        r_eff = float(rho_vals[:n_sub].sum() * grid.dt / t_j)  # time-t correlation of the pair
        xg, dens, frac, n_surv = posterior_from_censored_sim(
            ens_x, ens_y, j, bandwidth=args.bandwidth)
        surv = ens_x.values[:, j][ens_y.values[:, j] >= 0.0]
        ref = cdf_from_pdf(lambda v: censored_posterior(v, t_j, r_eff),
                           xg[0] - 2.0, xg[-1] + 2.0)
        ks = ks_statistic(surv, ref)
        results.append({"t": t_j, "survivor_fraction": frac, "ks": ks,
                        "threshold": ks_threshold(n_surv),
                        "n_effective": n_surv, "correlation": r_eff})
        kde_path = outdir / f"kde_t{j}.csv"
        columns_to_csv(kde_path, ("x", "density"), xg, dens)
        artifacts.append(kde_path)
    rp = outdir / "censor_results.json"
    write_json(rp, {"checks": results})
    artifacts.append(rp)
    _write_manifest(outdir, "censor", args, artifacts, t0)
    return 0 if all(r["ks"] <= r["threshold"] for r in results) else 1


def cmd_mixture(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    grid_eps = args.epsilon if args.epsilon is not None else \
        (1e-4 * args.t_end if args.kind == "horizon" else 0.0)
    grid = TimeGrid(t_start=0.0, t_end=args.t_end, n_steps=args.steps,
                    terminal_cutoff_epsilon=grid_eps)
    cfg = _sim_config(args)
    if args.kind == "horizon":
        if args.T is None:
            raise SchemaError("--T required")
        dplus = DriftSpec(kind="horizon", family=horizon_family(args.T, +1))
        dminus = DriftSpec(kind="horizon", family=horizon_family(args.T, -1))
        p_minus, p_plus = mixture_probability(args.x0, args.T)
        t_term = grid.t_end - grid.terminal_cutoff_epsilon
        target = cdf_from_pdf(
            lambda v: np.exp(-0.5 * (v - args.x0) ** 2 / t_term) / math.sqrt(2 * math.pi * t_term),
            args.x0 - 8 * math.sqrt(t_term), args.x0 + 8 * math.sqrt(t_term))
        target_name = "brownian"
    elif args.kind == "ou":
        if args.lam is None:
            raise SchemaError("--lam required")
        dplus = DriftSpec(kind="ou_htransform", params={"lam": args.lam, "chirality": +1})
        dminus = DriftSpec(kind="ou_htransform", params={"lam": args.lam, "chirality": -1})
        p_minus, p_plus = ou_mixture_probability(args.lam, args.x0)
        t_term = grid.t_end
        sd = math.sqrt((math.exp(2 * args.lam * t_term) - 1) / (2 * args.lam))
        m = args.x0 * math.exp(args.lam * t_term)
        target = cdf_from_pdf(lambda v: repulsive_ou_tpd(v, t_term, args.lam, args.x0),
                              m - 8 * sd, m + 8 * sd)
        target_name = "growing-ou"
    else:
        raise SchemaError(f"unknown mixture kind {args.kind!r}")
    ens = simulate_mixture(dplus, dminus, p_plus, args.x0, grid, cfg)
    ks = ks_statistic(ens.values[:, -1], target)
    thr = ks_threshold(args.paths)
    artifacts = [_emit_ensemble(ens, outdir, "mixture", args.format)]
    rp = outdir / "mixture_results.json"
    write_json(rp, {"p_plus": p_plus, "p_minus": p_minus, "terminal_ks": ks,
                    "threshold": thr, "target": target_name,
                    "label_fraction_plus": float((ens.labels > 0).mean())})
    artifacts.append(rp)
    _write_manifest(outdir, "mixture", args, artifacts, t0)
    return 0 if ks <= thr else 1


def cmd_ou(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    cfg = _sim_config(args)
    artifacts = []
    if args.mode == "htransform":
        drift = DriftSpec(kind="ou_htransform",
                          params={"lam": args.lam, "chirality": args.chirality})
        grid = TimeGrid(t_start=0.0, t_end=args.t_end, n_steps=args.steps)
        ens = simulate(drift, args.x0, grid, cfg)
        term = float(grid.t_end)
        ref = cdf_from_pdf(lambda v: ou_htransform_tpd(v, term, args.lam, args.x0,
                                                       args.chirality),
                           -10 - abs(args.x0), 10 + abs(args.x0)
                           + 3 * math.exp(args.lam * term))
        ks = ks_statistic(ens.values[:, -1], ref)
        artifacts.append(_emit_ensemble(ens, outdir, "ou_htransform", args.format))
    elif args.mode == "sknoise":
        if args.T is None:
            raise SchemaError("--T required for mode=sknoise")
        grid = TimeGrid(t_start=0.0, t_end=args.t_end, n_steps=args.steps)
        ens_x, ens_z = simulate_ou_skew_noise(args.lam, args.x0, args.T, grid, cfg)
        term = float(grid.t_end)
        ref = cdf_from_pdf(lambda v: ou_skew_driven_marginal(v, term, args.lam,
                                                             args.x0, args.T),
                           -12, 12)
        ks = ks_statistic(ens_x.values[:, -1], ref)
        artifacts.append(_emit_ensemble(ens_x, outdir, "ou_system", args.format))
        artifacts.append(_emit_ensemble(ens_z, outdir, "ou_driver", args.format))
    else:
        raise SchemaError(f"unknown ou mode {args.mode!r}")
    thr = ks_threshold(args.paths)
    rp = outdir / "ou_results.json"
    write_json(rp, {"terminal_ks": ks, "threshold": thr})
    artifacts.append(rp)
    _write_manifest(outdir, "ou", args, artifacts, t0)
    return 0 if ks <= thr else 1


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    outdir = _outdir(args)
    from .suite import build_core_report
    report = build_core_report(seed=args.seed, quick=(args.suite == "quick"))
    rp = outdir / "validation_report.json"
    rp.write_text(report.to_json() + "\n")
    _write_manifest(outdir, "validate", args, [rp], t0)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: statistic={c.statistic:.3e} threshold={c.threshold:.3e}")
    print(f"{'ALL CHECKS PASSED' if report.all_passed else 'CHECK FAILURES PRESENT'}")
    return 0 if report.all_passed else 1


def _add_common(p):
    p.add_argument("--output-dir", default=".", help="directory for artifacts")
    p.add_argument("--seed", type=int, default=1, help="master RNG seed")
    p.add_argument("--config", default=None,
                   help="JSON file whose keys override the flags")


def _add_family_params(p, kind_required=True):
    p.add_argument("--kind", required=kind_required, default=None)
    p.add_argument("--T", type=float, default=None, help="horizon (horizon kind)")
    p.add_argument("--alpha", type=float, default=None, help="constant skewness")
    p.add_argument("--C", type=float, default=None, help="constant correlation in [0,1)")
    p.add_argument("--lam", type=float, default=None, help="mean-reversion rate")
    p.add_argument("--chirality", type=int, choices=(-1, 1), default=1)


def _add_sim_params(p):
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="terminal cutoff (default 1e-4*t_end for horizon drifts)")
    p.add_argument("--record-stride", type=int, default=1)
    p.add_argument("--clamp", type=float, default=10.0)
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
    _add_family_params(p)
    p.add_argument("--table-t", default=None, help="comma list of times to tabulate")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("simulate", help="Euler-Maruyama ensemble for a drift")
    _add_common(p)
    _add_family_params(p, kind_required=False)
    _add_sim_params(p)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--drift-json", default=None,
                   help="drift (or family) descriptor file, instead of --kind")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density", help="tabulate a closed-form density")
    _add_common(p)
    _add_family_params(p)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--t", required=True, help="comma list of times")
    p.add_argument("--x", required=True, help="x grid as lo:hi:step")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("fokker-planck", help="finite-difference forward solve")
    _add_common(p)
    _add_family_params(p, kind_required=False)
    p.add_argument("--drift-json", default=None,
                   help="drift (or family) descriptor file, instead of --kind")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--n-x", type=int, default=2001)
    p.add_argument("--n-t", type=int, default=1000)
    p.add_argument("--theta", type=float, default=0.5)
    p.set_defaults(func=cmd_fokker_planck)

    p = sub.add_parser("censor", help="bivariate censoring simulation and checks")
    _add_common(p)
    p.add_argument("--rho-kind", choices=("constant", "sqrt-ramp"), default="sqrt-ramp")
    p.add_argument("--rho", type=float, default=None, help="constant correlation")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--check-t", default="0.25,0.5", help="times for posterior checks")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--record-stride", type=int, default=1)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("mixture", help="chirality-mixture simulation and identity check")
    _add_common(p)
    p.add_argument("--kind", choices=("horizon", "ou"), default="horizon")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    _add_sim_params(p)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("ou", help="mean-reversion extensions")
    _add_common(p)
    p.add_argument("--mode", choices=("htransform", "sknoise"), default="htransform")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--T", type=float, default=None, help="noise horizon (sknoise)")
    p.add_argument("--chirality", type=int, choices=(-1, 1), default=1)
    _add_sim_params(p)
    p.set_defaults(func=cmd_ou)

    p = sub.add_parser("validate", help="run the verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=("core", "quick"), default="core")
    p.set_defaults(func=cmd_validate)

    return parser


def _apply_config(args, parser):
    """Overlay --config JSON onto parsed args; unknown keys are errors."""
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    if not path.exists():
        raise SchemaError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise SchemaError("config file must hold a JSON object")
    known = set(vars(args))
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("func", "command", "config"):
            raise SchemaError(f"unknown configuration key {key!r}")
        setattr(args, dest, value)
    return args


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_fuse_range_values(argv))
    except SystemExit as e:
        # argparse exits 2 on schema violations and 0 on --help
        return int(e.code or 0)
    try:
        args = _apply_config(args, parser)
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SkewDiffError, FloatingPointError, ValueError) as e:
        outdir = Path(getattr(args, "output_dir", "."))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            write_json(outdir / "diagnostics.json",
                       {"error": str(e), "type": type(e).__name__})
        except OSError:
            pass
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
