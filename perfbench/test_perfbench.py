"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A tiny-size smoke run of every workload, proof that the gate catches a
wrong reference law, corrupted SKDF files and changed artifacts, and a
check of the tracer's self-time bookkeeping.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import struct
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import skewdiff.cli  # noqa: E402
from gate import SKDF_HEADER, artifact_digests, check_skdf, constant_skew_law  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, JobRun, evaluate, mc_jobs, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_tiny(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_traced():
    proc = _bench("--workload", "mc_pde", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["sde.path_steps"] > 0 and m["dists.mills.elems"] > 0
    assert m["cli.simulate.wall_s"] > 0 and m["cli.validate.wall_s"] == 0
    assert m["fokker_planck.drift_evals"] > m["fokker_planck.node_steps"] / 10**6


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc_pde", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The tiny constant-skew simulate job, run once."""
    job = mc_jobs(3, SIZES["tiny"], tmp_path_factory.mktemp("mc"))[0]
    job.outdir.mkdir(parents=True)
    run = JobRun(rc=skewdiff.cli.main(list(job.argv)))
    assert evaluate(job, run) == ([], False)
    return job, run


def test_gate_catches_wrong_law(simulated):
    job, run = simulated
    wrong = dataclasses.replace(job, check=partial(
        job.check.func, **{**job.check.keywords, "law": constant_skew_law(1.0, -1)}))
    fails, _ = evaluate(wrong, run)
    assert any("KS" in f for f in fails)


def _corrupt_copy(job, tmp_path, mutate):
    bad = dataclasses.replace(job, outdir=tmp_path / "bad")
    shutil.copytree(job.outdir, bad.outdir)
    path = bad.outdir / "ensemble.skdf"
    path.write_bytes(mutate(bytearray(path.read_bytes())))
    return bad


@pytest.mark.parametrize("mutate", [
    lambda b: b[:-8],                                                   # truncated
    lambda b: b[:24] + struct.pack("<q", 999) + b[32:],                # wrong seed
    lambda b: b[:-8] + struct.pack("<d", float("nan")),                # NaN value
    lambda b: b[:SKDF_HEADER.size] + struct.pack("<d", 0.5) + b[SKDF_HEADER.size + 8:],
], ids=["truncated", "seed", "nan", "times"])
def test_gate_catches_corrupted_skdf(simulated, tmp_path, mutate):
    job, run = simulated
    fails, _ = evaluate(_corrupt_copy(job, tmp_path, mutate), run)
    assert fails


def test_gate_catches_missing_artifact(simulated, tmp_path):
    job, run = simulated
    bad = _corrupt_copy(job, tmp_path, lambda b: b)
    (bad.outdir / "summary.json").unlink()
    assert evaluate(bad, run)[0] == ["missing artifact summary.json"]


def test_gate_exit_codes(simulated):
    job, _ = simulated
    assert evaluate(job, JobRun(rc=3))[0] == ["exit code 3"]
    assert evaluate(job, JobRun(rc=1))[0] == ["exit code 1"]     # simulate has no own gate
    assert evaluate(job, JobRun(rc=None, error="Traceback\nKeyError: 'x'"))[0]


def test_skdf_reader_matches_config(simulated):
    job, _ = simulated
    kw = job.check.keywords["skdf"]
    values, times, labels, fails = check_skdf(job.outdir / "ensemble.skdf", **kw)
    assert fails == [] and labels is None
    assert values.shape == (kw["n_paths"], kw["n_steps"] // kw["stride"] + 1)
    assert check_skdf(job.outdir / "ensemble.skdf", **{**kw, "seed": kw["seed"] + 1})[3]


def test_digests_ignore_only_wall_time(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"a": 1, "wall_time_s": 0.5}))
    (tmp_path / "data.csv").write_text("x\n1.0\n")
    d0 = artifact_digests(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"a": 1, "wall_time_s": 0.7}))
    assert artifact_digests(tmp_path) == d0
    (tmp_path / "data.csv").write_text("x\n1.5\n")
    assert artifact_digests(tmp_path) != d0


def test_tracer_self_times_partition_job_time():
    from skewdiff import dists, families
    tracer = Tracer()
    orig = families.mills
    tracer.install()
    try:
        assert families.mills is not orig and dists.mills is families.mills
        spec = families.DriftSpec(kind="constant_skew",
                                  family=families.constant_skew_family(1.0, +1))
        root = tracer.wrap("bench.job", lambda: [spec.mu(np.linspace(-3, 3, 1000), 0.5)
                                                 for _ in range(20)])
        t0 = time.perf_counter_ns()
        root()
        job_ns = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    assert families.mills is orig
    spans = tracer.take()
    m, check = layer_metrics(spans, threading.get_ident(), job_ns)
    assert m["families.drift_value.calls"] == 20 and m["dists.mills.elems"] == 20_000
    assert 0 <= check["unattributed_frac"] < 0.05
