"""Span tracing around the calls into skewdiff's layers.

The tracer wraps public functions from the outside: it replaces every
binding of a listed function in the loaded skewdiff modules (the defining
module's attribute and each `from ... import` copy) with a wrapper that
records a span, and restores the originals afterwards.  Spans are kept in
memory; self time and counts per layer are derived from them when a pass
ends.  End-to-end metrics never come from a traced pass.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name, parent, thread):
        self.name, self.parent, self.thread = name, parent, thread
        self.start = self.end = 0
        self.counts = None


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _size(v) -> int:
    return int(getattr(v, "size", 1))


def _file_bytes(fn):
    bind = _bound(fn)
    return lambda a, k, r: {"bytes": os.path.getsize(bind(a, k)["path"])}


def _sim_counts(fn):
    bind = _bound(fn)

    def count(a, k, result):
        b = bind(a, k)
        ensembles = result if isinstance(result, tuple) else (result,)
        nbytes = sum(e.values.nbytes + (0 if e.labels is None else e.labels.nbytes)
                     for e in ensembles)
        from skewdiff import sde
        return {"path_steps": b["cfg"].n_paths * b["grid"].n_steps,
                "clamp_events": sum(e.clamp_events for e in ensembles),
                "values_mb": nbytes / 1e6,
                "threads": sde.thread_count(b["cfg"].n_threads)}
    return count


def _elems(position):
    return lambda fn: (lambda a, k, r: {"elems": _size(a[position] if len(a) > position
                                                        else k["x"])})


def _kfe_counts(fn):
    bind = _bound(fn)

    def count(a, k, r):
        cfg = bind(a, k)["cfg"]
        return {"node_steps": cfg.n_x * cfg.n_t}
    return count


def _grid_points(fn):
    bind = _bound(fn)

    def count(a, k, r):
        b = bind(a, k)
        return {"points": len(b["x_nodes"]) * len(b["t_nodes"])}
    return count


def _ks_samples(fn):
    bind = _bound(fn)
    return lambda a, k, r: {"samples": len(bind(a, k)["samples"])}


def _kde_branch(fn):
    # posterior_from_censored_sim smooths directly while survivors * grid
    # points stay within 2e6, otherwise through a 4096-bin histogram
    def count(a, k, r):
        x_grid, _, _, n_surv = r
        return {"kde_direct" if n_surv * len(x_grid) <= 2_000_000 else "kde_binned": 1}
    return count


_CLI_COMMANDS = ("family", "simulate", "mixture", "ou", "censor", "fokker_planck",
                 "density", "validate")
_TPD = ("horizon_tpd", "horizon_tpd_two_time", "constant_skew_tpd", "family_tpd",
        "family_tpd_unshifted", "restart_tpd", "censored_posterior", "ou_htransform_tpd",
        "ou_htransform_tpd_raw", "ou_skew_driven_marginal")

# (module, function, layer, counter factory)
TARGETS = [
    ("skewdiff.cli", "main", "cli.main", None),
    *[("skewdiff.cli", f"cmd_{c}", f"cli.{c}", None) for c in _CLI_COMMANDS],
    ("skewdiff.sde", "simulate", "sde.simulate", _sim_counts),
    ("skewdiff.sde", "simulate_mixture", "sde.simulate_mixture", _sim_counts),
    ("skewdiff.sde", "simulate_bivariate_censoring", "sde.simulate_bivariate_censoring",
     _sim_counts),
    ("skewdiff.ou_skew", "simulate_ou_skew_noise", "ou_skew.simulate_ou_skew_noise",
     _sim_counts),
    ("skewdiff.families", "drift_value", "families.drift_value", _elems(1)),
    ("skewdiff.families", "family_from_amplitude", "families.family_from_amplitude", None),
    ("skewdiff.dists", "mills", "dists.mills", _elems(0)),
    ("skewdiff.fokker_planck", "solve_kfe", "fokker_planck.solve_kfe", _kfe_counts),
    ("skewdiff.densities", "density_grid", "densities.density_grid", _grid_points),
    *[("skewdiff.densities", f, "densities.tpd", None) for f in _TPD],
    ("skewdiff.censoring", "verify_selection_representation", "censoring.verify_selection",
     None),
    ("skewdiff.censoring", "verify_ou_selection", "censoring.verify_selection", None),
    ("skewdiff.censoring", "posterior_from_censored_sim",
     "censoring.posterior_from_censored_sim", _kde_branch),
    ("skewdiff.io", "density_grid_to_csv", "io.density_grid_to_csv", _file_bytes),
    ("skewdiff.io", "write_json", "io.write_json", _file_bytes),
    ("skewdiff.io", "ensemble_to_binary", "io.ensemble_to_binary", _file_bytes),
    ("skewdiff.io", "ensemble_from_binary", "io.ensemble_from_binary", None),
    ("skewdiff.validation", "ks_statistic", "validation.ks_statistic", _ks_samples),
    ("skewdiff.validation", "cdf_from_pdf", "validation.cdf_from_pdf", None),
    ("skewdiff.validation", "martingale_mean", "validation.martingale_mean", None),
    ("skewdiff.suite", "build_core_report", "suite.build_core_report", None),
]
# simulate_mixture runs its paths through simulate: one layer, not two
_FOLD = {"sde.simulate": ("sde.simulate_mixture",)}


class Tracer:
    """Records spans (name, start, end, parent, thread) while installed."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._home = None          # span stack of the thread that installed the tracer
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, counter=None, fold_under=()):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name in fold_under:
                return fn(*args, **kwargs)
            # a pool thread has an empty stack; its parent is the span the
            # installing thread is blocked in
            parent = stack[-1] if stack else (tracer._home[-1] if tracer._home else None)
            span = Span(layer, parent, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Patch every skewdiff binding of each target function."""
        self._home = self._stack()
        for modname, *_ in TARGETS:
            importlib.import_module(modname)
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "skewdiff" or n.startswith("skewdiff."))]
        for modname, attr, layer, factory in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(layer, orig, factory(orig) if factory else None,
                                _FOLD.get(layer, ()))
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _covered(children) -> int:
    """Length of the union of the children's intervals."""
    total, end = 0, None
    for s in sorted(children, key=lambda c: c.start):
        if end is None or s.start >= end:
            total += s.end - s.start
            end = s.end
        elif s.end > end:
            total += s.end - end
            end = s.end
    return total


def _under(span, layer) -> bool:
    p = span.parent
    while p is not None:
        if p.name == layer:
            return True
        p = p.parent
    return False


_MAX_COUNTS = ("threads", "values_mb")


def layer_metrics(spans, home_thread: int, job_ns: int):
    """Per-layer metrics of one traced pass, plus the self-time sum check.

    Self time is a span's duration minus the union of its same-thread
    children; spans of pool threads count as busy time of their own layer.
    On the thread that ran the jobs, self times partition the job time, so
    their sum must match the time measured around the jobs.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            kids[id(s.parent)].append(s)
    self_ns, incl_ns = defaultdict(int), defaultdict(int)
    calls, counts = defaultdict(int), defaultdict(float)
    home_self = 0
    drift_in_kfe = 0
    for s in spans:
        dur = s.end - s.start
        own = dur - _covered(kids[id(s)])
        self_ns[s.name] += own
        calls[s.name] += 1
        if not _under(s, s.name):
            incl_ns[s.name] += dur
        if s.thread == home_thread:
            home_self += own
        if s.name == "families.drift_value" and _under(s, "fokker_planck.solve_kfe"):
            drift_in_kfe += 1
        for key, v in (s.counts or {}).items():
            full = f"{s.name}.{key}"
            counts[full] = max(counts[full], v) if key in _MAX_COUNTS else counts[full] + v

    def sec(ns):
        return ns / 1e9

    def per(num_ns, den):
        return num_ns / den if den else 0.0

    sde_layers = ("sde.simulate", "sde.simulate_mixture", "sde.simulate_bivariate_censoring")
    sde_steps = sum(counts[f"{x}.path_steps"] for x in sde_layers)
    mills_elems = counts["dists.mills.elems"]
    kfe_nodes = counts["fokker_planck.solve_kfe.node_steps"]
    csv_bytes = counts["io.density_grid_to_csv.bytes"]
    m = {f"cli.{c}.wall_s": sec(incl_ns[f"cli.{c}"]) for c in _CLI_COMMANDS}
    m["cli.self_s"] = sec(self_ns["cli.main"] + sum(self_ns[f"cli.{c}"] for c in _CLI_COMMANDS))
    for layer in sde_layers:
        m[f"{layer}.self_s"] = sec(self_ns[layer])
    m.update({
        "sde.path_steps": sde_steps,
        "sde.ns_per_path_step": per(sum(incl_ns[x] for x in sde_layers), sde_steps),
        "sde.clamp_events": sum(counts[f"{x}.clamp_events"] for x in sde_layers),
        "sde.threads": max(counts[f"{x}.threads"] for x in sde_layers),
        "sde.values_mb": max(counts[f"{x}.values_mb"] for x in sde_layers),
        "ou_skew.simulate_ou_skew_noise.self_s": sec(self_ns["ou_skew.simulate_ou_skew_noise"]),
        "ou_skew.path_steps": counts["ou_skew.simulate_ou_skew_noise.path_steps"],
        "families.drift_value.calls": calls["families.drift_value"],
        "families.drift_value.elems": counts["families.drift_value.elems"],
        "families.drift_value.self_s": sec(self_ns["families.drift_value"]),
        "dists.mills.calls": calls["dists.mills"],
        "dists.mills.elems": mills_elems,
        "dists.mills.self_s": sec(self_ns["dists.mills"]),
        "dists.mills.ns_per_elem": per(self_ns["dists.mills"], mills_elems),
        "families.family_from_amplitude.self_s": sec(self_ns["families.family_from_amplitude"]),
        "censoring.verify_selection.calls": calls["censoring.verify_selection"],
        "censoring.verify_selection.self_s": sec(self_ns["censoring.verify_selection"]),
        "densities.tpd.calls": calls["densities.tpd"],
        "densities.tpd.self_s": sec(self_ns["densities.tpd"]),
        "validation.martingale_mean.self_s": sec(self_ns["validation.martingale_mean"]),
        "suite.build_core_report.self_s": sec(self_ns["suite.build_core_report"]),
        "fokker_planck.solve_kfe.self_s": sec(self_ns["fokker_planck.solve_kfe"]),
        "fokker_planck.node_steps": kfe_nodes,
        "fokker_planck.ns_per_node_step": per(incl_ns["fokker_planck.solve_kfe"], kfe_nodes),
        "fokker_planck.drift_evals": drift_in_kfe,
        "densities.density_grid.self_s": sec(self_ns["densities.density_grid"]),
        "densities.density_grid.points": counts["densities.density_grid.points"],
        "io.density_grid_to_csv.self_s": sec(self_ns["io.density_grid_to_csv"]),
        "io.csv_bytes": csv_bytes,
        "io.csv_mb_per_s": per(csv_bytes * 1e3, self_ns["io.density_grid_to_csv"]),
        "io.write_json.self_s": sec(self_ns["io.write_json"]),
        "io.json_bytes": counts["io.write_json.bytes"],
        "io.ensemble_to_binary.self_s": sec(self_ns["io.ensemble_to_binary"]),
        "io.ensemble_from_binary.self_s": sec(self_ns["io.ensemble_from_binary"]),
        "io.skdf_bytes": counts["io.ensemble_to_binary.bytes"],
        "validation.ks_statistic.self_s": sec(self_ns["validation.ks_statistic"]),
        "validation.ks_statistic.samples": counts["validation.ks_statistic.samples"],
        "validation.cdf_from_pdf.self_s": sec(self_ns["validation.cdf_from_pdf"]),
        "censoring.posterior_from_censored_sim.self_s":
            sec(self_ns["censoring.posterior_from_censored_sim"]),
        "censoring.kde_direct": counts["censoring.posterior_from_censored_sim.kde_direct"],
        "censoring.kde_binned": counts["censoring.posterior_from_censored_sim.kde_binned"],
    })
    check = {"job_s": sec(job_ns), "self_sum_s": sec(home_self),
             "unattributed_frac": per(job_ns - home_self, job_ns)}
    return m, check


def spans_to_records(spans):
    """Spans as JSON-able rows: name, start_ns, end_ns, parent row, thread."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s.name, s.start, s.end, index.get(id(s.parent)), s.thread] for s in spans]
