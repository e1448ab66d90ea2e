"""One workload in one fresh process: warm up, run timed passes of the job
list for a fixed time, gate every output, and write a JSON result.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  With
--trace 1, passes alternate between untraced and traced; the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import skewdiff                      # found through PYTHONPATH, set by run.py
import skewdiff.cli
from gate import artifact_digests
from tracing import Tracer, layer_metrics, spans_to_records
from workloads import JobRun, build, evaluate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine_record() -> dict:
    """What a timing is only comparable under: cores, versions, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "skewdiff_threads": skewdiff.sde.thread_count(None),
        "SKEWDIFF_THREADS": os.environ.get("SKEWDIFF_THREADS"),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def code_digest() -> str:
    """sha256 over the program and benchmark sources: "the same code"."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_job(job, tracer=None):
    """Run one job from a clean output directory; returns (JobRun, wall ns, cpu s)."""
    shutil.rmtree(job.outdir, ignore_errors=True)
    job.outdir.mkdir(parents=True)
    call = job.call
    if tracer is not None and call is not None:
        call = tracer.wrap(f"bench.{job.name}", call)
    c0, t0 = _cpu(), time.perf_counter_ns()
    try:
        if job.argv is not None:
            run = JobRun(rc=skewdiff.cli.main(list(job.argv)))
        else:
            run = JobRun(rc=0, result=call())
    except Exception:  # a traceback is a job failure, recorded, not fatal
        run = JobRun(rc=None, error=traceback.format_exc())
    t1, c1 = time.perf_counter_ns(), _cpu()
    if run.result is not None:
        (job.outdir / "result.json").write_text(json.dumps(run.result, sort_keys=True))
    return run, t1 - t0, c1 - c0


class DigestStore:
    """Artifact digests of earlier runs of the same code, workload and seed."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def compare(self, job_name: str, digests: dict):
        old = self.data.get(self.key, {}).get(job_name)
        self.data.setdefault(self.key, {})[job_name] = digests
        return old is None or old == digests

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data))
        os.replace(tmp, self.path)


class Gate:
    """Verdicts for every job run.  The first run of a job is checked in
    full; a later run must reproduce its artifacts byte for byte, and then
    shares its verdict."""

    def __init__(self, store: DigestStore):
        self.store = store
        self.first = {}           # job name -> (digests, failures, check miss)
        self.attempted = self.check_miss = 0
        self.failures = []

    def judge(self, pass_no: int, job, run):
        self.attempted += 1
        digests = artifact_digests(job.outdir) if run.error is None else {}
        if job.name not in self.first:
            fails, miss = evaluate(job, run)
            if digests and not self.store.compare(job.name, digests):
                fails = fails + ["artifacts differ from an earlier run of this code and seed"]
            self.first[job.name] = (digests, fails, miss)
        else:
            digests0, fails, miss = self.first[job.name]
            if digests != digests0:
                fails, miss = evaluate(job, run)
                fails = fails + ["artifacts differ between runs of the same seed"]
        self.check_miss += miss
        if fails:
            self.failures.append({"pass": pass_no, "job": job.name, "why": fails})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if not Path(skewdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"skewdiff imported from {skewdiff.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    work = state / "work" / args.workload
    warmup, plans = build(args.workload, args.seed, args.size, work)
    for job in warmup:
        run, _, _ = run_job(job)
        if run.error is not None:
            print(f"warm-up {job.name} raised:\n{run.error}", file=sys.stderr)

    tracer = Tracer() if args.trace else None
    gate = Gate(DigestStore(state / "digests.json",
                            f"{code_digest()}/{args.workload}/{args.size}/{args.seed}"))
    passes, layers, checks, last_spans = [], [], [], []
    t_stop = time.monotonic() + args.seconds
    while len(passes) < (2 if args.trace else 1) or time.monotonic() < t_stop:
        traced = bool(args.trace) and len(passes) % 2 == 1
        jobs = plans[len(passes) % len(plans)]
        if traced:
            tracer.install()
        runs = []
        try:
            for job in jobs:
                runs.append(run_job(job, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        wall_ns = sum(r[1] for r in runs)
        passes.append({"traced": traced, "wall_s": wall_ns / 1e9,
                       "cpu_s": sum(r[2] for r in runs),
                       "jobs": {j.name: r[1] / 1e9 for j, r in zip(jobs, runs)}})
        if traced:
            last_spans = tracer.take()
            m, check = layer_metrics(last_spans, threading.main_thread().ident, wall_ns)
            layers.append(m)
            checks.append(check)
        for job, (run, _, _) in zip(jobs, runs):
            gate.judge(len(passes), job, run)
    gate.store.save()

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "machine": machine_record(),
        "attempted": gate.attempted, "failed": len(gate.failures),
        "check_miss": gate.check_miss, "failures": gate.failures[:20], "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    plain = [p for p in passes if not p["traced"]]
    result["wall_s"] = statistics.median(p["wall_s"] for p in plain)
    result["cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    if args.trace:
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["layers"]["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1.0
        result["self_time_checks"] = checks
        trace_dir = state / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"columns": ["name", "start_ns", "end_ns", "parent", "thread"],
                        "spans": spans_to_records(last_spans)}))
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
