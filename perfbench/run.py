#!/usr/bin/env python3
"""skewdiff benchmark: run one workload of real CLI jobs, gate the outputs,
print every metric by name and unit, and end with one JSON result line.

    python3 perfbench/run.py --workload mc_pde --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout that holds src/skewdiff; nothing needs
building.  --trace 0 prints the end-to-end metrics (setup_s, wall_s,
cpu_s, peak_rss_mb); --trace 1 prints the per-layer metrics from a traced
run.  The job failure fraction is `failed` / `attempted` in the result
line.  Full records (machine, passes, failures) go to .perfbench/results/.
See README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc_pde", "validate_suite")   # as in workloads.py; run.py stays free of numpy
SETUP_REPEATS = 2         # fresh interpreters before and again after the worker
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0       # a run must end within 180 s

SETUP_CODE = ("import time; t0 = time.perf_counter(); import skewdiff.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t0)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """The checkout's sources first; the program's own thread default."""
    env = dict(os.environ)
    env.pop("SKEWDIFF_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _python(args, timeout):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def measure_setup(repeats: int) -> list:
    """Times for fresh interpreters to import skewdiff.cli and build the
    parser (the cost every CLI command pays)."""
    return [float(_python(["-c", SETUP_CODE], 60).stdout) for _ in range(repeats)]


def measure_importtime(repeats: int) -> dict:
    """Median self time of scipy and of skewdiff modules under -X importtime."""
    runs = []
    for _ in range(repeats):
        err = _python(["-X", "importtime", "-c", "import skewdiff.cli"], 60).stderr
        total = {"scipy": 0, "skewdiff": 0}
        for line in err.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            name = parts[2].strip()
            top = name.split(".")[0]
            if top in total and parts[0].split(":")[1].strip().isdigit():
                total[top] += int(parts[0].split(":")[1])
        runs.append(total)
    return {"setup.import_scipy_s": statistics.median(r["scipy"] for r in runs) / 1e6,
            "setup.import_skewdiff_s": statistics.median(r["skewdiff"] for r in runs) / 1e6}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "skewdiff" / "cli.py").is_file():
        print(f"error: no skewdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_begin = time.monotonic()
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)

    metrics, setup = {}, []
    setup_repeats = SETUP_REPEATS if args.size == "full" else 1
    if args.trace:
        metrics.update(measure_importtime(IMPORTTIME_REPEATS))
    else:
        # half the samples now, half after the worker: the host's speed
        # drifts over tens of seconds, and the median should span it
        setup = measure_setup(setup_repeats)
    # leave time for the set-up samples taken after the worker
    budget = RUN_LIMIT_S - 20.0 - (time.monotonic() - t_begin)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--out", str(out)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    rec = json.loads(out.read_text())

    correct = rec["failed"] == 0
    if args.trace:
        metrics.update(rec["layers"])
        worst = max(abs(c["unattributed_frac"]) for c in rec["self_time_checks"])
        # per-layer self times must account for the traced job time
        if worst > 0.01:
            correct = False
            print(f"self-time check failed: {worst:.4f} of job time unattributed")
        units = {}
    else:
        setup += measure_setup(setup_repeats)
        metrics["setup_s"] = statistics.median(setup)
        rec["setup_samples_s"] = setup
        metrics.update({k: rec[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        units = END_TO_END_UNITS
    rec["metrics"] = metrics
    out.write_text(json.dumps(rec, indent=1))

    m = rec["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} skewdiff_threads={m['skewdiff_threads']} "
          f"blas={m['blas']} blas_threads_env={m['blas_threads_env']}")
    n_plain = sum(not p["traced"] for p in rec["passes"])
    print(f"workload {args.workload} seed {args.seed}: {len(rec['passes'])} passes "
          f"({n_plain} untraced), {rec['attempted']} jobs, {rec['failed']} failed, "
          f"{rec['check_miss']} check_miss")
    for f in rec["failures"]:
        print(f"FAILED pass {f['pass']} {f['job']}: {'; '.join(f['why'])}")
    print(f"failed_frac {rec['failed'] / rec['attempted']!r} ratio")
    shown = {}
    for name, value in metrics.items():
        unit = units.get(name) or _layer_unit(name)
        shown[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": shown}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB-computed"
    if name.endswith("_frac"):
        return "ratio"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".threads"):
        return "threads"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
