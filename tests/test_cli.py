"""Command-line interface: artifacts, determinism, exit codes."""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdiff import (DriftSpec, OuSkewSpec, PdeInstabilityError, SimulationError,
                      constant_correlation_family,
                      constant_skew_family, constant_skew_tpd, family_from_amplitude,
                      horizon_family, ks_statistic, ks_threshold)
from skewdiff import cli
from skewdiff.cli import main


def run(tmp_path, *args):
    return main([*args, "--output-dir", str(tmp_path)])


# sha256 of (density.csv, density_summary.json) for one `density` run per
# law; the drift-json case reads a constant-correlation drift with shift 1.5
# and sigma 2, written by the test
DENSITY_PINS = {
    "constant-skew": (
        ("--kind", "constant-skew", "--alpha", "1.5", "--chirality", "-1",
         "--t", "0.5,1,2", "--x=-4:4:0.125"),
        ("42d27e3e2b740190d5a0b875027671194472fd685752fc609b695d46988140d2",
         "a3adc50b4291d0a29c02b2e4784694f65b1038c068c5c6659207409a6e9054c6")),
    "horizon": (
        ("--kind", "horizon", "--T", "1", "--x0", "0.7", "--t", "0.25,0.9,0.99",
         "--x=-3:4:0.125"),
        ("ddcd5fc294b3bc2e26c36b14bbcd94710eaaab3ee834b78ed32418e1895ccbd0",
         "5eff8f4502cacfa398c4a95daec5baa39b81b674af55a112dd1e14df346eb18e")),
    "ou-htransform": (
        ("--kind", "ou-htransform", "--lam", "1", "--x0", "-0.4", "--chirality", "-1",
         "--t", "0.3,1", "--x=-8:3:0.125"),
        ("c7558b415ae62632da31053bf9820a32f88f6baf48c8d092f53a7447db74c313",
         "043362c2965e7909c6a7b09c598fc617c30230756b9408de71a1d122b6788bf4")),
    "drift-json": (
        ("--drift-json", "{tmp}/drift.json", "--x0", "1.5", "--t", "0.5,1",
         "--x=-6:9:0.125"),
        ("757bcd5371104619ac6fd9e1a1679c252da13bf165121d689fc26870e791b736",
         "313b43f297ae0152077faebaea250a31fe85130bb5cbebd3cd1dbaf77f9bd2de")),
    "censored": (
        ("--kind", "censored", "--rho", "-0.7", "--t", "0.25,1", "--x=-4:4:0.125"),
        ("8deeb8fb4501fbcf3ce1f9f2a5b15dd4162f31c8101508dcb243676446390e02",
         "8673e9f4af5277a3e88bc4a4f20e57202a65888b50f6e44b5dd48fa6726d1028")),
    "ou-noise-marginal": (
        ("--kind", "ou-noise-marginal", "--lam", "1", "--x0", "0.5", "--T", "2",
         "--t", "0.5,1.5", "--x=-4:4:0.125"),
        ("2537990cc8dc0145905294f28a13c66330e9d57953d918b729a3a286f44889eb",
         "7cdfd436266e06ca65086804b7a6cfdd849a61bd4ae5622798f8754ff7fd5234")),
}


class TestFamilyCommand:
    def test_writes_descriptor_and_manifest(self, tmp_path):
        code = run(tmp_path, "family", "--kind", "horizon", "--T", "2.0",
                   "--table-t", "0.5,1.0")
        assert code == 0
        desc = json.loads((tmp_path / "family.json").read_text())
        assert desc["kind"] == "horizon"
        assert desc["parameters"]["T"] == 2.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "family"
        assert "family.json" in manifest["artifacts"]
        table = (tmp_path / "family_table.csv").read_text().splitlines()
        assert table[0] == "t,psi,alpha"
        assert len(table) == 3

    def test_table_is_pinned(self, tmp_path):
        # sha256 of family_table.csv: fixed and exponent-form cells alike
        assert run(tmp_path, "family", "--kind", "constant-skew", "--alpha", "1.5",
                   "--chirality", "-1", "--table-t", "1e-07,0.125,0.5,1,3.7,1e+16") == 0
        assert hashlib.sha256((tmp_path / "family_table.csv").read_bytes()).hexdigest() \
            == "26288e4aa0b50cd6fe62852095a7f94e6c47b7873c36f08fc3f1112672b909bd"

    def test_psi_where_a2t_overflows_is_its_limit(self, tmp_path):
        # a2 * t = 4e308 overflows; psi = (2 + a2 t) / (2 (1 + a2 t)) tends to 1/2
        assert run(tmp_path, "family", "--kind", "constant-skew", "--alpha", "2",
                   "--table-t", "1e308") == 0
        assert _float_cells(tmp_path / "family_table.csv", "t,psi,alpha") == [[1e308, 0.5, 2.0]]


class TestDensityCommand:
    def test_matches_direct_evaluation(self, tmp_path):
        code = run(tmp_path, "density", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t", "0.5,1.0", "--x", "-2:2:0.5")
        assert code == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "x,t,q"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        for x, t, q in rows[:6]:
            assert q == float(constant_skew_tpd(np.asarray(x), t, 1.0, +1))

    @pytest.mark.parametrize("argv", [
        ("--kind", "ou-noise-marginal", "--lam", "1", "--T", "2", "--t", "0.5,2"),
        ("--kind", "censored", "--rho", "1", "--t", "0.5,2")])
    def test_a_law_is_refused_before_any_slice(self, tmp_path, monkeypatch, argv):
        # the kind's law is evaluated at the latest --t first
        monkeypatch.setattr(cli, "density_grid", lambda *a: pytest.fail("a slice was evaluated"))
        assert run(tmp_path, "density", *argv, "--x=-1:1:0.5") == 2

    def test_missing_parameter_is_schema_error(self, tmp_path):
        code = run(tmp_path, "density", "--kind", "constant-skew",
                   "--t", "1.0", "--x", "-1:1:0.5")
        assert code == 2

    def test_start_without_a_law_exits_2(self, tmp_path):
        # a family's law is known only from the shift, here 0
        base = ("density", "--kind", "constant-skew", "--alpha", "1", "--t", "1",
                "--x", "-1:1:0.5")
        assert run(tmp_path, *base, "--x0", "2") == 2
        assert not (tmp_path / "density.csv").exists()
        assert run(tmp_path, *base, "--x0", "0") == 0

    def test_family_file_gives_the_same_table(self, tmp_path):
        assert run(tmp_path / "fam", "family", "--kind", "constant-skew", "--alpha", "1") == 0
        grid = ("--t", "0.5,1", "--x", "-3:3:0.25")
        assert run(tmp_path / "json", "density", "--drift-json",
                   str(tmp_path / "fam" / "family.json"), *grid) == 0
        assert run(tmp_path / "flags", "density", "--kind", "constant-skew", "--alpha", "1",
                   *grid) == 0
        assert (tmp_path / "json" / "density.csv").read_bytes() == \
            (tmp_path / "flags" / "density.csv").read_bytes()

    def test_scaled_and_shifted_descriptor_is_its_law(self, tmp_path):
        drift = DriftSpec(family=constant_skew_family(1.0), shift=1.5, diffusion_scale=2.0)
        desc = tmp_path / "drift.json"
        desc.write_text(json.dumps(drift.descriptor()))
        assert run(tmp_path, "density", "--drift-json", str(desc), "--x0", "1.5",
                   "--t", "0.5,1", "--x", "-6:9:0.25") == 0
        x, t, q = np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=1).T
        law = drift.law(1.5)
        np.testing.assert_allclose(q, [law.pdf(np.asarray(u), s) for u, s in zip(x, t)],
                                   rtol=1e-14, atol=0)

    def test_general_descriptor_away_from_its_shift_exits_2(self, tmp_path):
        desc = tmp_path / "drift.json"
        desc.write_text(json.dumps({"kind": "general", "shift": 1.5,
                                    "family": constant_skew_family(1.0).descriptor()}))
        assert run(tmp_path, "density", "--drift-json", str(desc), "--t", "1",
                   "--x", "-1:1:0.5") == 2
        assert not (tmp_path / "diagnostics.json").exists()
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("kind", [("--kind", "constant-skew", "--alpha", "1"),
                                      ("--kind", "censored", "--rho", "0.5")])
    def test_kind_beside_drift_json_exits_2(self, tmp_path, kind):
        assert run(tmp_path / "fam", "family", "--kind", "constant-skew", "--alpha", "1") == 0
        assert run(tmp_path, "density", *kind, "--drift-json",
                   str(tmp_path / "fam" / "family.json"), "--t", "1", "--x", "-1:1:0.5") == 2
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("c", ["0.3", "0.6", "0.9"])
    def test_constant_correlation_is_the_censored_law(self, tmp_path, c):
        # the censoring identity: the constant-correlation law from 0 is the
        # censored posterior at correlation C
        grid = ("--t", "0.25,1,3", "--x", "-5:5:0.25")
        assert run(tmp_path / "cc", "density", "--kind", "constant-correlation",
                   "--C", c, *grid) == 0
        assert run(tmp_path / "rho", "density", "--kind", "censored", "--rho", c, *grid) == 0
        cc, rho = (np.loadtxt(tmp_path / d / "density.csv", delimiter=",", skiprows=1)
                   for d in ("cc", "rho"))
        assert np.array_equal(cc[:, :2], rho[:, :2])
        np.testing.assert_allclose(cc[:, 2], rho[:, 2], rtol=1.5e-14, atol=0)

    @pytest.mark.parametrize("case", sorted(DENSITY_PINS))
    def test_tables_are_pinned(self, tmp_path, case):
        desc = tmp_path / "drift.json"
        desc.write_text(json.dumps(DriftSpec(
            family=constant_correlation_family(0.6, -1), shift=1.5,
            diffusion_scale=2.0).descriptor()))
        argv, digests = DENSITY_PINS[case]
        assert run(tmp_path, "density", *(a.format(tmp=tmp_path) for a in argv)) == 0
        for name, digest in zip(("density.csv", "density_summary.json"), digests):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestSimulateCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        args = ("simulate", "--kind", "constant-skew", "--alpha", "1.0",
                "--t-end", "0.5", "--steps", "50", "--paths", "64",
                "--record-stride", "10", "--seed", "5", "--format", "binary")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main([*args, "--output-dir", str(a)]) == 0
        assert main([*args, "--output-dir", str(b)]) == 0
        assert (a / "ensemble.skdf").read_bytes() == (b / "ensemble.skdf").read_bytes()
        summary = json.loads((a / "summary.json").read_text())
        assert summary["clamp_events"] == 0

    @pytest.mark.parametrize("argv,law", [
        (("--kind", "constant-skew", "--alpha", "1"), "constant_skew"),
        (("--kind", "horizon", "--T", "1", "--x0", "0.3"), "horizon"),
        (("--kind", "ou-htransform", "--lam", "1", "--t-start", "0.2", "--x0", "-0.5"),
         "ou_htransform"),
        (("--kind", "constant-skew", "--alpha", "1", "--t-start", "0.2"), None),
        (("--kind", "horizon", "--T", "1", "--shift", "0.5", "--x0", "0.3"), "horizon")])
    def test_summary_reports_the_law(self, tmp_path, argv, law):
        n = 4000
        assert run(tmp_path, "simulate", *argv, "--t-end", "0.8", "--steps", "400",
                   "--paths", str(n), "--record-stride", "400", "--seed", "2") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law"] == law
        if law is None:
            assert summary["terminal_ks"] is None and summary["threshold"] is None
        else:
            assert summary["threshold"] == ks_threshold(n)
            assert summary["terminal_ks"] <= summary["threshold"]

    def test_shift_moves_the_ou_drift(self, tmp_path):
        # the OU drift once dropped --shift: both runs wrote the same bytes
        argv = ("simulate", "--kind", "ou-htransform", "--lam", "1", "--x0", "0.3",
                "--t-end", "0.5", "--steps", "50", "--paths", "2000", "--record-stride", "50")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main([*argv, "--shift", "0", "--output-dir", str(a)]) == 0
        assert main([*argv, "--shift", "0.5", "--output-dir", str(b)]) == 0
        assert (a / "ensemble.csv").read_bytes() != (b / "ensemble.csv").read_bytes()
        # no --shift is a shift of 0, and the manifest records it as not given
        assert main([*argv, "--output-dir", str(c)]) == 0
        assert (a / "ensemble.csv").read_bytes() == (c / "ensemble.csv").read_bytes()
        shifts = [json.loads((d / "manifest.json").read_text())["configuration"]["shift"]
                  for d in (a, c)]
        assert shifts == [0.0, None]
        terminal = np.loadtxt(b / "ensemble.csv", delimiter=",", skiprows=2)[:, -1]
        summary = json.loads((b / "summary.json").read_text())
        # the KS is taken against the law started from x0 - shift
        shifted, plain = (DriftSpec(ou=OuSkewSpec(1.0), shift=s).law(0.3) for s in (0.5, 0.0))
        assert summary["law"] == "ou_htransform"
        assert summary["terminal_ks"] == ks_statistic(terminal, shifted.cdf(0.5))
        assert summary["terminal_ks"] != ks_statistic(terminal, plain.cdf(0.5))
        assert summary["terminal_ks"] <= summary["threshold"]

    def test_drift_descriptor_file(self, tmp_path):
        # export a family, then simulate from the descriptor file
        fam_dir = tmp_path / "fam"
        assert main(["family", "--kind", "constant-skew", "--alpha", "1.0",
                     "--output-dir", str(fam_dir)]) == 0
        sim_dir = tmp_path / "sim"
        code = main(["simulate", "--drift-json", str(fam_dir / "family.json"),
                     "--t-end", "0.5", "--steps", "50", "--paths", "32",
                     "--record-stride", "50", "--seed", "5",
                     "--output-dir", str(sim_dir)])
        assert code == 0
        flags_dir = tmp_path / "flags"
        code = main(["simulate", "--kind", "constant-skew", "--alpha", "1.0",
                     "--t-end", "0.5", "--steps", "50", "--paths", "32",
                     "--record-stride", "50", "--seed", "5",
                     "--output-dir", str(flags_dir)])
        assert code == 0
        assert (sim_dir / "ensemble.csv").read_bytes() == \
            (flags_dir / "ensemble.csv").read_bytes()

    def test_rebuilt_numeric_family_drives_each_command(self, tmp_path):
        # the suite's constant-skew solve, rebuilt from its descriptor file;
        # it is evaluable from 1e-6 on, so simulate starts after 0
        fam = constant_skew_family(1.0, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), 1.0, +1,
                                    np.linspace(0.01, 5.0, 60))
        desc = tmp_path / "family.json"
        desc.write_text(json.dumps(num.descriptor()))
        for argv in (("simulate", "--t-start", "0.1", "--t-end", "1", "--steps", "20",
                      "--paths", "200"),
                     ("fokker-planck", "--t-end", "1", "--x-min", "-6", "--x-max", "6",
                      "--n-x", "101", "--n-t", "64"),
                     ("density", "--t", "0.5,1", "--x=-3:3:0.5")):
            assert main([*argv, "--drift-json", str(desc),
                         "--output-dir", str(tmp_path / argv[0])]) == 0, argv[0]

    def test_horizon_violation_is_numerical_failure(self, tmp_path):
        code = run(tmp_path, "simulate", "--kind", "horizon", "--T", "1.0",
                   "--t-end", "2.0", "--steps", "10", "--paths", "4",
                   "--epsilon", "0.0")
        assert code == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "horizon" in diag["error"]

    def test_singular_start_needs_positive_t_start(self, tmp_path, capsys):
        args = ("simulate", "--kind", "constant-correlation", "--C", "0.5",
                "--t-end", "1.0", "--steps", "50", "--paths", "16",
                "--record-stride", "50")
        assert run(tmp_path, *args) == 2
        assert "pass a positive t_start" in capsys.readouterr().err
        assert run(tmp_path, *args, "--t-start", "0.01") == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,where", [
        (("--lam", "1e308", "--t-start", "0.1"), "x0=0.0, t=0.1"),
        (("--lam", "1", "--x0=-1e308"), "x0=-1e+308, t=0.0")])
    def test_a_drift_that_is_not_finite_at_the_start_is_named(self, tmp_path, capsys,
                                                             argv, where):
        # no --t-start can help a time-free drift: the message names the
        # drift and the point, not that flag
        assert run(tmp_path, "simulate", "--kind", "ou-htransform", *argv, "--t-end", "0.5",
                   "--steps", "8", "--paths", "128") == 2
        err = capsys.readouterr().err
        assert f"the ou_htransform drift is not finite at {where}" in err
        assert "--t-start" not in err
        assert not (tmp_path / "diagnostics.json").exists()


class TestConfigurationErrors:
    SIM = ("--t-end", "0.5", "--steps", "10", "--paths", "8")

    def test_zero_paths_exits_2(self, tmp_path):
        assert run(tmp_path, "simulate", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t-end", "0.5", "--steps", "10", "--paths", "0") == 2
        assert not (tmp_path / "diagnostics.json").exists()

    @pytest.mark.parametrize("command", [
        ("simulate", "--kind", "constant-skew", "--alpha", "1.0", *SIM),
        ("family", "--kind", "horizon", "--T", "1.0")])
    def test_json_format_rejected(self, tmp_path, command):
        assert run(tmp_path, *command, "--format", "json") == 2

    def test_format_only_on_ensemble_commands(self, tmp_path):
        assert run(tmp_path, "density", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t", "1.0", "--x", "0:1:0.5", "--format", "csv") == 2

    CENSOR = ("censor", "--t-end", "1", "--steps", "100", "--paths", "4000",
              "--record-stride", "25")

    @pytest.mark.parametrize("argv", [
        # a check time that is not recorded was checked at the nearest one
        (*CENSOR, "--check-t", "0.3"),
        (*CENSOR, "--check-t", "2"),
        (*CENSOR, "--check-t", "0"),
        # nearest to the recorded time 0, whose law was a numerical failure
        (*CENSOR, "--check-t", "1e-300,0.5"),
        (*CENSOR, "--check-t", "0.5", "--rho-kind", "constant", "--rho", "1.5"),
        (*CENSOR, "--check-t", "0.5", "--bandwidth", "-1"),
        # simulated, then failed in censored_posterior: exit 3
        (*CENSOR, "--check-t", "0.5", "--rho-kind", "constant", "--rho", "1"),
        (*CENSOR, "--check-t", "0.5", "--rho-kind", "constant", "--rho", "-1"),
        ("density", "--kind", "constant-skew", "--alpha", "1", "--t", "0", "--x=-1:1:0.5"),
        ("density", "--kind", "constant-skew", "--alpha", "1", "--t", "-1", "--x=-1:1:0.5"),
        # ran on one thread
        ("simulate", "--kind", "constant-skew", "--alpha", "1", *SIM, "--threads", "0"),
        # ran the sqrt-ramp correlation, ignoring --rho
        (*CENSOR, "--check-t", "0.5", "--rho", "0.9"),
        # ran at rho = 0
        (*CENSOR, "--check-t", "0.5", "--rho-kind", "constant"),
        # an empty list ran with no checks, or wrote a header-only table
        (*CENSOR, "--check-t="),
        ("density", "--kind", "constant-skew", "--alpha", "1", "--t=", "--x=-1:1:0.5"),
        # a time at or past the law's horizon was a numerical failure
        ("density", "--kind", "horizon", "--T", "1", "--t", "2", "--x=-1:1:0.5"),
        ("density", "--kind", "horizon", "--T", "1", "--t", "0.5,1", "--x=-1:1:0.5"),
        ("density", "--kind", "ou-noise-marginal", "--lam", "1", "--T", "2", "--t", "2",
         "--x=-1:1:0.5"),
        # a bad law parameter was a numerical failure
        ("density", "--kind", "ou-noise-marginal", "--lam", "-1", "--T", "2", "--t", "1",
         "--x=-1:1:0.5"),
        ("density", "--kind", "censored", "--rho", "1.5", "--t", "1", "--x=-1:1:0.5"),
        ("density", "--kind", "ou-htransform", "--lam", "-1", "--t", "1", "--x=-1:1:0.5"),
        # an infinite noise horizon made a Gaussian whose far-off start
        # wrote nan cells and exited 0
        ("density", "--kind", "ou-noise-marginal", "--lam", "1", "--T", "inf",
         "--x0", "1e308", "--t", "0.125", "--x=-5:1:0.5"),
    ], ids=["check_t_between", "check_t_past_end", "check_t_zero", "check_t_near_zero",
            "rho_above_one",
            "negative_bandwidth", "rho_one", "rho_minus_one", "density_t_zero",
            "density_t_negative", "zero_threads",
            "rho_without_constant_kind", "constant_kind_without_rho", "check_t_empty",
            "density_t_empty", "density_t_past_horizon", "density_t_at_horizon",
            "density_t_at_noise_horizon", "density_negative_noise_rate",
            "density_rho_above_one", "density_negative_ou_rate",
            "density_infinite_noise_horizon"])
    def test_setting_out_of_range_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.json").exists()
        assert not (tmp_path / "density.csv").exists()
        assert not list(tmp_path.glob("kde_*.csv"))

    def test_empty_table_times_write_nothing(self, tmp_path):
        assert run(tmp_path, "family", "--kind", "horizon", "--T", "1", "--table-t=,") == 2
        assert not list(tmp_path.iterdir())

    def test_mixture_honors_clamp(self, tmp_path):
        def clamps(out, *extra):
            assert main(["mixture", "--kind", "horizon", "--T", "1.0", "--t-end", "0.5",
                         "--steps", "10", "--paths", "200", "--seed", "3",
                         "--output-dir", str(out), *extra]) in (0, 1)
            header = (out / "mixture.csv").read_text().split("\n", 1)[0]
            return int(header.rsplit("clamp_events=", 1)[1])

        assert clamps(tmp_path / "default") == 0
        assert clamps(tmp_path / "tight", "--clamp", "0.01") > 0


class TestRunSettingsReadOnce:
    def test_sigma_comes_from_the_drift_descriptor(self, tmp_path):
        # simulate and fokker-planck both read sigma from the descriptor, so
        # the Monte Carlo terminal law matches the forward-equation slice
        desc = tmp_path / "drift.json"
        desc.write_text(json.dumps({"kind": "constant_skew", "sigma": 2.0,
                                    "family": constant_skew_family(1.0).descriptor()}))
        n = 20000
        assert main(["simulate", "--drift-json", str(desc), "--t-end", "1",
                     "--steps", "200", "--paths", str(n), "--record-stride", "200",
                     "--seed", "7", "--output-dir", str(tmp_path / "sim")]) == 0
        assert main(["fokker-planck", "--drift-json", str(desc), "--t-end", "1",
                     "--x-min", "-12", "--x-max", "12", "--n-x", "801", "--n-t", "400",
                     "--output-dir", str(tmp_path / "fp")]) == 0
        terminal = np.loadtxt(tmp_path / "sim" / "ensemble.csv", delimiter=",",
                              skiprows=2)[:, -1]
        x, t, q = np.loadtxt(tmp_path / "fp" / "kfe_solution.csv", delimiter=",",
                             skiprows=1).T
        x, q = x[t == t.max()], q[t == t.max()]
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(x))])
        ks = ks_statistic(terminal, lambda v: np.interp(v, x, cdf / cdf[-1]))
        assert ks <= ks_threshold(n)

    def test_ou_mixture_target_at_the_cutoff(self, tmp_path):
        assert run(tmp_path, "mixture", "--kind", "ou", "--lam", "1", "--x0", "0.3",
                   "--t-end", "1", "--epsilon", "0.3", "--steps", "140",
                   "--paths", "20000", "--record-stride", "140") == 0

    def test_ou_honours_epsilon(self, tmp_path):
        assert run(tmp_path, "ou", "--mode", "sknoise", "--lam", "1", "--T", "1",
                   "--t-end", "1", "--epsilon", "0.25", "--steps", "150",
                   "--paths", "20000", "--record-stride", "150") == 0
        with (tmp_path / "ou_system.csv").open() as fh:
            fh.readline()
            assert fh.readline().rstrip("\n").split(",")[-1] == "t=0.75"

    SIM = ("--t-end", "1", "--steps", "10", "--paths", "8")
    FP = ("fokker-planck", "--kind", "constant-skew", "--alpha", "1", "--t-end", "1",
          "--x-min", "-5", "--x-max", "5")
    DENSITY = ("density", "--kind", "constant-skew", "--alpha", "1")
    FAMILY = ("--drift-json", "{tmp}/family.json")
    FROM_FAMILY = {"simulate": ("simulate", *FAMILY, *SIM),
                   "fokker-planck": ("fokker-planck", *FAMILY, "--t-end", "1", "--x-min", "-5",
                                     "--x-max", "5"),
                   "density": ("density", *FAMILY, "--t", "1", "--x", "0:1:0.5")}

    @pytest.mark.parametrize("argv", [
        (*DENSITY, "--t", "1", "--x", "a:b:c"),
        (*DENSITY, "--t", "abc", "--x", "0:1:0.5"),
        (*FP, "--n-x", "10"),
        (*FP, "--x0", "9"),
        ("ou", "--lam", "-1", *SIM),
        ("simulate", "--drift-json", "{tmp}/list_params.json", *SIM),
        # a family and OU parameters: two drift sources
        ("simulate", "--drift-json", "{tmp}/two_sources.json", *SIM),
        # removed flags: each was parsed and then ignored, or restated sigma
        (*FP, "--sigma", "2"),
        ("mixture", "--T", "1", *SIM, "--t-start", "0.3"),
        ("ou", "--lam", "1", *SIM, "--t-start", "0.3"),
        ("family", "--kind", "horizon", "--T", "1", "--lam", "1"),
        (*DENSITY, "--t", "1", "--x", "0:1:0.5", "--C", "0.5"),
        # a parameter flag that only another kind reads
        ("simulate", "--kind", "constant-skew", "--alpha", "1", "--T", "2", *SIM),
        ("density", "--kind", "censored", "--rho", "0.5", "--lam", "1", "--t", "1",
         "--x", "0:1:0.5"),
        # a descriptor holds every parameter of its drift: these flags were
        # ignored
        *((*argv, flag, value) for argv in FROM_FAMILY.values()
          for flag, value in (("--alpha", "5"), ("--chirality", "-1"))),
        # a range whose width overflowed exited 3; one too long to allocate
        # (8 TB, refused at once) ended in a traceback with exit 1
        (*DENSITY, "--t", "1", "--x=-1e308:1e308:1"),
        (*DENSITY, "--t", "1", "--x=0:1e6:1e-6"),
        # the descriptor holds its own shift: --shift was ignored
        (*FROM_FAMILY["simulate"], "--shift", "0.5")])
    def test_configuration_error_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "family.json").write_text(json.dumps(constant_skew_family(1.0).descriptor()))
        (tmp_path / "list_params.json").write_text(
            json.dumps({"kind": "horizon", "parameters": []}))
        (tmp_path / "two_sources.json").write_text(json.dumps(
            {"kind": "constant_skew", "family": constant_skew_family(1.0).descriptor(),
             "parameters": {"lam": 1, "chirality": 1}}))
        assert run(tmp_path, *(a.format(tmp=tmp_path) for a in argv)) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.json").exists()


class TestInfiniteRate:
    SIM = ("--t-end", "0.5", "--steps", "8", "--paths", "128")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        # exit 2 at the rate check, before the drift is probed
        ("simulate", "--kind", "ou-htransform", *SIM),
        # exit 3: a scale of nan, or of 0
        ("density", "--kind", "ou-htransform", "--t", "0.5", "--x=-1:1:0.5"),
        ("density", "--kind", "ou-noise-marginal", "--T", "2", "--t", "0.5",
         "--x=-1:1:0.5"),
        # exit 3: a non-finite path, a p_plus of nan, or a non-finite matrix
        ("ou", "--mode", "htransform", *SIM),
        ("ou", "--mode", "sknoise", "--T", "2", *SIM),
        ("mixture", "--kind", "ou", *SIM),
        ("fokker-planck", "--kind", "ou-htransform", "--t-end", "0.5", "--x-min", "-3",
         "--x-max", "3", "--n-x", "101", "--n-t", "64")],
        ids=["simulate", "density", "density_noise_marginal", "ou_htransform", "ou_sknoise",
             "mixture", "fokker_planck"])
    def test_an_infinite_rate_exits_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--lam", "inf") == 2
        assert "must be positive and finite, got inf" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOverflowIsItsLimit:
    """An overflow in a log density or a drift is +-inf, whose IEEE limit is
    the right value; it is not a RuntimeWarning (an error in this suite)."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,digest", [
        (("--kind", "constant-skew", "--alpha=1e+308", "--t=1.0"),
         "6cbb22541458a37d6bbc9a03f5d113e0760ffc51288543c15ed24f9d40dec9f5"),
        (("--kind", "horizon", "--T=1e+308", "--x0=1e+308", "--t=0.25"),
         "5e61b72151c856595aa5ca2b1e1460845f6f5a8899c40b65e9ab942a44031026"),
        (("--kind", "horizon", "--T=1e+308", "--x0=1e+308", "--t=1.0"),
         "caa57ac6edda3c86bf5a74bd41161fa06662cddd7de16124257fd099a049c89f")],
        ids=["shape_times_z", "z", "z_squared"])
    def test_density_keeps_its_bytes(self, tmp_path, argv, digest):
        argv = ("density", *argv, "--x=-5:1:0.5")
        assert run(tmp_path / "strict", *argv) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(tmp_path / "quiet", *argv) == 0
        strict, quiet = ((tmp_path / d / "density.csv").read_bytes() for d in ("strict", "quiet"))
        assert strict == quiet
        assert hashlib.sha256(strict).hexdigest() == digest

    def test_simulate_from_an_extreme_start(self, tmp_path, capsys):
        # alpha * x overflows once paths move; the terminal statistics of
        # eight paths near 1e308 overflow too, which is the exit 3
        assert run(tmp_path, "simulate", "--kind", "horizon", "--T", "0.25", "--x0", "1e308",
                   "--t-end", "0.125", "--steps", "10", "--paths", "8") == 3
        assert "summary.json: not finite at terminal_mean" in capsys.readouterr().err
        assert np.isfinite(np.loadtxt(tmp_path / "ensemble.csv", delimiter=",",
                                      skiprows=2)).all()


class TestHorizonAndModeFlags:
    OU = ("ou", "--lam", "1", "--t-end", "0.5", "--steps", "50", "--paths", "2000")
    # theta = 1: the Crank-Nicolson solve of this grid fails its positivity
    # check near the horizon whatever the cutoff
    FP_HORIZON = ("fokker-planck", "--kind", "horizon", "--T", "1", "--t-end", "1",
                  "--x-min", "-6", "--x-max", "6", "--n-x", "201", "--n-t", "100",
                  "--theta", "1")

    @pytest.mark.parametrize("argv,code", [
        # the skew-noise law is singular at its horizon
        (("ou", "--mode", "sknoise", "--lam", "1", "--T", "1", "--t-end", "1",
          "--steps", "10", "--paths", "8"), 2),
        # a horizon drift gets the 1e-4 * t_end cutoff, as in simulate
        (FP_HORIZON, 0),
        # each ou mode rejects the flag it does not read
        ((*OU, "--mode", "sknoise", "--T", "2", "--chirality", "-1"), 2),
        ((*OU, "--mode", "htransform", "--T", "2"), 2),
        ((*OU, "--mode", "htransform", "--chirality", "-1"), 0),
        # so does each density kind that is not the law of a drift
        (("density", "--kind", "censored", "--rho", "0.5", "--t", "1", "--x=-1:1:0.5",
          "--chirality", "-1"), 2),
        (("density", "--kind", "ou-noise-marginal", "--lam", "1", "--T", "2", "--t", "1",
          "--x=-1:1:0.5", "--chirality", "-1"), 2),
    ])
    def test_exit_code(self, tmp_path, capsys, argv, code):
        assert run(tmp_path, *argv) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.json").exists()
        if argv == self.FP_HORIZON:
            summary = json.loads((tmp_path / "kfe_summary.json").read_text())
            assert summary["t"][-1] == pytest.approx(1.0 - 1e-4, abs=1e-12)


class TestFamilyParameterErrors:
    @pytest.mark.parametrize("params", [
        ("--kind", "horizon", "--T", "-1"),
        ("--kind", "constant-skew", "--alpha", "0"),
        # an infinite parameter or a table time off (0, horizon) wrote
        # inf or nan cells and exited 0
        ("--kind", "constant-skew", "--alpha", "inf"),
        ("--kind", "horizon", "--T", "inf"),
        ("--kind", "constant-skew", "--alpha", "1", "--table-t=-1"),
        ("--kind", "constant-skew", "--alpha", "1", "--table-t", "0,1"),
        ("--kind", "constant-skew", "--alpha", "1", "--table-t", "1,inf"),
        ("--kind", "constant-correlation", "--C", "0.5", "--table-t", "nan"),
        ("--kind", "horizon", "--T", "1", "--table-t", "0.5,1")])
    def test_bad_family_parameter_exits_2(self, tmp_path, params):
        assert run(tmp_path, "family", *params) == 2
        assert not list(tmp_path.iterdir())

    def test_horizon_family_under_general_kind(self, tmp_path):
        # a horizon family keeps its cutoff default, and takes a shift, under
        # any drift kind
        fam = horizon_family(1.0).descriptor()
        desc = tmp_path / "drift.json"
        sim = ("--t-end", "1.0", "--steps", "20", "--paths", "16", "--seed", "4")
        desc.write_text(json.dumps({"kind": "general", "family": fam, "shift": 1.5}))
        assert main(["simulate", "--drift-json", str(desc), *sim,
                     "--output-dir", str(tmp_path / "shifted")]) == 0
        desc.write_text(json.dumps({"kind": "general", "family": fam}))
        assert main(["simulate", "--drift-json", str(desc), *sim,
                     "--output-dir", str(tmp_path / "general")]) == 0
        assert main(["simulate", "--kind", "horizon", "--T", "1.0", *sim,
                     "--output-dir", str(tmp_path / "flags")]) == 0
        assert (tmp_path / "general" / "ensemble.csv").read_bytes() == \
            (tmp_path / "flags" / "ensemble.csv").read_bytes()


class TestDiagnostics:
    def test_pde_instability_fields(self, tmp_path):
        code = run(tmp_path, "fokker-planck", "--kind", "constant-skew", "--alpha", "1",
                   "--t-end", "1", "--x-min", "-8", "--x-max", "8", "--n-t", "64",
                   "--theta", "0")
        assert code == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["type"] == "PdeInstabilityError"
        assert set(diag["diagnostics"]) == {"step", "t", "min_value", "mass"}
        assert diag["diagnostics"]["min_value"] < 0
        assert not (tmp_path / "manifest.json").exists()

    def test_simulation_error_fields(self, tmp_path, monkeypatch):
        def failing(args, outdir):
            raise SimulationError("non-finite value", path_index=3, step_index=7)

        # main looks the command up when it runs, so the replacement is used
        monkeypatch.setattr(cli, "cmd_family", failing)
        assert run(tmp_path, "family", "--kind", "horizon", "--T", "1.0") == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert (diag["path_index"], diag["step_index"]) == (3, 7)

    @pytest.mark.parametrize("argv,error", [
        (("density", "--kind", "ou-htransform", "--lam", "1", "--t", "1e308",
          "--x=-5:1:0.5"), "OverflowError"),
        (("density", "--kind", "ou-htransform", "--lam", "1e308", "--t", "0.5",
          "--x=-5:1:0.5"), "OverflowError")])
    def test_overflow_is_numerical_failure(self, tmp_path, argv, error):
        assert run(tmp_path, *argv) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["type"] == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.json"]


def _strict_json(path):
    """The JSON in `path`, refusing the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    """No artifact holds a NaN or Infinity token: a statistic the run leaves
    undefined is null, and any other value that is not finite exits 3."""

    def test_one_path_leaves_variance_and_skewness_null(self, tmp_path):
        assert run(tmp_path, "simulate", "--kind", "constant-skew", "--alpha", "1",
                   "--t-end", "0.5", "--steps", "8", "--paths", "1") == 0
        s = _strict_json(tmp_path / "summary.json")
        assert s["terminal_variance"] is None and s["terminal_skewness"] is None
        assert math.isfinite(s["terminal_mean"])

    def test_a_slice_without_mass_has_null_moments(self, tmp_path):
        assert run(tmp_path, "density", "--kind", "horizon", "--T", "1", "--x0", "100",
                   "--t", "0.5", "--x=-5:1:0.5") == 0
        s = _strict_json(tmp_path / "density_summary.json")
        assert s["mass"] == [0.0]
        assert s["mean"] == s["variance"] == s["skewness"] == [None]

    def test_an_overflowing_statistic_exits_3(self, tmp_path):
        assert run(tmp_path, "simulate", "--kind", "constant-skew", "--alpha", "1",
                   "--t-end", "0.5", "--steps", "8", "--paths", "8", "--x0", "1e308") == 3
        diag = _strict_json(tmp_path / "diagnostics.json")
        assert diag["type"] == "FloatingPointError"
        assert "terminal_mean" in diag["error"]
        assert not (tmp_path / "summary.json").exists()

    def test_the_manifest_records_a_flag_that_is_not_finite(self, tmp_path):
        # the censored kind does not read --x0, so the run succeeds
        assert run(tmp_path, "density", "--kind", "censored", "--rho", "0.5",
                   "--x0", "inf", "--t", "1", "--x=-1:1:0.5") == 0
        manifest = _strict_json(tmp_path / "manifest.json")
        assert manifest["configuration"]["x0"] == "Infinity"

    def test_diagnostics_take_a_field_that_is_not_finite(self, tmp_path, monkeypatch):
        def failing(args, outdir):
            raise PdeInstabilityError("unstable", diagnostics={
                "min_value": math.nan, "mass": math.inf, "t": -math.inf, "step": 3})

        monkeypatch.setattr(cli, "cmd_family", failing)
        assert run(tmp_path, "family", "--kind", "horizon", "--T", "1.0") == 3
        diag = _strict_json(tmp_path / "diagnostics.json")
        assert diag["diagnostics"] == {"min_value": "NaN", "mass": "Infinity",
                                       "t": "-Infinity", "step": 3}


class TestConfigOverlay:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        code = run(tmp_path, "density", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t", "1.0", "--x", "0:1:0.5", "--config", str(cfg))
        assert code == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()[1:]
        x, t, q = (float(v) for v in lines[0].split(","))
        assert q == float(constant_skew_tpd(np.asarray(0.0), 1.0, 2.0, +1))

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_parameter": 1}))
        code = run(tmp_path, "density", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t", "1.0", "--x", "0:1:0.5", "--config", str(cfg))
        assert code == 2

    SIM = ("simulate", "--kind", "constant-skew", "--alpha", "1.0", "--t-end", "0.5",
           "--steps", "10", "--paths", "8", "--seed", "3")

    def sim(self, out, config=None, *extra):
        args = [*self.SIM, *extra, "--output-dir", str(out)]
        if config is not None:
            cfg = out.parent / f"{out.name}.json"
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
            args += ["--config", str(cfg)]
        return main(args)

    @pytest.mark.parametrize("config", [{"paths": 200.5}, {"paths": True},
                                        {"antithetic": "no"}, {"antithetic": 1},
                                        {"format": "json"}, {"seed": None},
                                        {"config": "other.json"}, "{not json", "[1, 2]"])
    def test_ill_typed_config_exits_2(self, tmp_path, capsys, config):
        assert self.sim(tmp_path / "out", config) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_string_value_parses_like_its_flag(self, tmp_path):
        assert self.sim(tmp_path / "flag", None, "--paths", "20") == 0
        assert self.sim(tmp_path / "cfg", {"paths": "20"}) == 0
        assert (tmp_path / "flag" / "ensemble.csv").read_bytes() == \
            (tmp_path / "cfg" / "ensemble.csv").read_bytes()
        configs = [json.loads((tmp_path / d / "manifest.json").read_text())["configuration"]
                   for d in ("flag", "cfg")]
        for c in configs:
            c.pop("output_dir")
        assert configs[0] == configs[1] and configs[0]["paths"] == 20

    def test_switch_takes_json_booleans(self, tmp_path):
        def antithetic(out):
            return json.loads((out / "manifest.json").read_text())["configuration"]["antithetic"]

        assert self.sim(tmp_path / "on", {"antithetic": True}) == 0
        assert antithetic(tmp_path / "on") is True
        assert self.sim(tmp_path / "off", {"antithetic": False}, "--antithetic") == 0
        assert antithetic(tmp_path / "off") is False
        assert self.sim(tmp_path / "plain") == 0
        assert (tmp_path / "off" / "ensemble.csv").read_bytes() == \
            (tmp_path / "plain" / "ensemble.csv").read_bytes()

    def test_unknown_flag_rejected(self, tmp_path):
        assert run(tmp_path, "family", "--kind", "horizon", "--T", "1.0",
                   "--bogus", "3") == 2

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        # main() reuses one parser: a run after a --config run must not see
        # the config's values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "chirality": -1}))
        base = ("density", "--kind", "constant-skew", "--alpha", "1.0", "--t", "0.5,1.0",
                "--x=-2:2:0.25")
        runs = {"config": (*base, "--config", str(cfg)), "plain": base}
        src = Path(cli.__file__).resolve().parents[1]
        for name, argv in runs.items():
            assert main([*argv, "--output-dir", str(tmp_path / "same" / name)]) == 0
            subprocess.run([sys.executable, "-m", "skewdiff.cli", *argv,
                            "--output-dir", str(tmp_path / "fresh" / name)],
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                           capture_output=True, timeout=120)
        for name in runs:
            same, fresh = tmp_path / "same" / name, tmp_path / "fresh" / name
            names = sorted(f.name for f in same.iterdir() if f.name != "manifest.json")
            assert names == ["density.csv", "density_summary.json"]
            assert names == sorted(f.name for f in fresh.iterdir() if f.name != "manifest.json")
            for f in names:
                assert (same / f).read_bytes() == (fresh / f).read_bytes(), (name, f)
        assert (tmp_path / "same" / "config" / "density.csv").read_bytes() != \
            (tmp_path / "same" / "plain" / "density.csv").read_bytes()


class TestOtherCommands:
    def test_censor_quick(self, tmp_path):
        code = run(tmp_path, "censor", "--t-end", "1.0", "--steps", "100",
                   "--paths", "8000", "--check-t", "0.5", "--seed", "2")
        assert code == 0
        res = json.loads((tmp_path / "censor_results.json").read_text())
        chk = res["checks"][0]
        assert abs(chk["survivor_fraction"] - 0.5) < 0.05
        assert chk["ks"] <= chk["threshold"]

    def test_mixture_quick(self, tmp_path):
        code = run(tmp_path, "mixture", "--kind", "horizon", "--T", "1.0",
                   "--t-end", "1.0", "--steps", "400", "--paths", "20000",
                   "--record-stride", "400", "--seed", "3")
        assert code == 0
        res = json.loads((tmp_path / "mixture_results.json").read_text())
        assert res["terminal_ks"] <= res["threshold"]
        assert res["p_plus"] == 0.5

    def test_ou_quick(self, tmp_path):
        code = run(tmp_path, "ou", "--mode", "htransform", "--lam", "1.0",
                   "--t-end", "0.5", "--steps", "250", "--paths", "20000",
                   "--record-stride", "250", "--seed", "4")
        assert code == 0
        res = json.loads((tmp_path / "ou_results.json").read_text())
        assert res["terminal_ks"] <= res["threshold"]

    @pytest.mark.parametrize("argv", [
        ("--mode", "htransform", "--lam", "1", "--x0", "12"),
        ("--mode", "sknoise", "--lam", "1", "--T", "2", "--x0", "30")],
        ids=["htransform", "sknoise"])
    def test_ou_reference_holds_the_law_far_from_the_origin(self, tmp_path, argv):
        # the law's mass lies past a window of fixed width: these runs read
        # KS 0.917 and 0.131 against 0.0180 when the reference cdf was cut
        # off at 10 + |x0| + 3e^{lam t} and at +-12
        assert run(tmp_path, "ou", *argv, "--t-end", "1", "--steps", "1000",
                   "--paths", "8192", "--seed", "3") == 0
        res = json.loads((tmp_path / "ou_results.json").read_text())
        assert res["terminal_ks"] <= res["threshold"]

    def test_fokker_planck_quick(self, tmp_path):
        code = run(tmp_path, "fokker-planck", "--kind", "constant-skew",
                   "--alpha", "1.0", "--t-end", "0.5", "--x-min", "-7",
                   "--x-max", "7", "--n-x", "281", "--n-t", "200")
        assert code == 0
        summary = json.loads((tmp_path / "kfe_summary.json").read_text())
        assert abs(summary["mass"][-1] - 1.0) < 1e-6

    def test_validate_quick(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--suite", "quick", "--seed", "1")
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL CHECKS PASSED" in out
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) > 15


def _float_cells(path, header):
    lines = path.read_text().splitlines()
    assert lines[0] == header
    # float() rejects NumPy scalar reprs such as np.float64(0.5)
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


class TestArtifactFormat:
    def test_tables_hold_plain_floats(self, tmp_path):
        assert run(tmp_path, "family", "--kind", "constant-skew", "--alpha", "1.0",
                   "--table-t", "0.5,1.0,2.5") == 0
        rows = _float_cells(tmp_path / "family_table.csv", "t,psi,alpha")
        assert [r[0] for r in rows] == [0.5, 1.0, 2.5]
        assert run(tmp_path, "censor", "--t-end", "1.0", "--steps", "50",
                   "--paths", "4000", "--check-t", "0.5", "--seed", "2") == 0
        kde = sorted(tmp_path.glob("kde_t*.csv"))
        assert len(kde) == 1
        rows = _float_cells(kde[0], "x,density")
        assert len(rows) > 10 and all(len(r) == 2 for r in rows)

    def test_quick_report_is_pinned(self, tmp_path):
        # sha256 recorded while the martingale ensemble still ran its
        # 300 steps to t = 1
        assert main(["validate", "--suite", "quick", "--seed", "3",
                     "--output-dir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "validation_report.json").read_bytes()).hexdigest() \
            == "d808fcbca9960195ef9ee12d1dda46e1db005f730e78cf2fbd1abf624f66bc8f"

    def test_validation_report_identical_across_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["validate", "--suite", "quick", "--seed", "3",
                         "--output-dir", str(out)]) == 0
        assert (a / "validation_report.json").read_bytes() == \
            (b / "validation_report.json").read_bytes()
        assert "wall_time_s" in json.loads((a / "manifest.json").read_text())


class TestThreadEnv:
    @pytest.mark.parametrize("env,flag,expected", [
        (None, None, len(os.sched_getaffinity(0))), (None, "1", 1), ("1", None, 1),
        ("1", "2", 1)])
    def test_manifest_records_threads(self, tmp_path, monkeypatch, env, flag, expected):
        if env is None:
            monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)
        else:
            monkeypatch.setenv("SKEWDIFF_THREADS", env)
        threads = () if flag is None else ("--threads", flag)
        assert run(tmp_path, "simulate", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t-end", "0.5", "--steps", "10", "--paths", "8", *threads) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["threads"] == expected

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_setting_is_schema_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("SKEWDIFF_THREADS", value)
        code = run(tmp_path, "simulate", "--kind", "constant-skew", "--alpha", "1.0",
                   "--t-end", "0.5", "--steps", "10", "--paths", "8")
        assert code == 2
        assert not (tmp_path / "diagnostics.json").exists()


FUZZ_BASE = {
    "simulate": ("simulate", "--kind", "constant-skew", "--alpha", "1.0",
                 "--t-end", "0.5", "--steps", "8", "--paths", "8"),
    "density": ("density", "--kind", "constant-skew", "--alpha", "1.0",
                "--t", "1.0", "--x", "0:1:0.5"),
    "fokker-planck": ("fokker-planck", "--kind", "constant-skew", "--alpha", "1.0",
                      "--t-end", "0.5", "--x-min", "-6", "--x-max", "6",
                      "--n-x", "64", "--n-t", "64"),
    "mixture": ("mixture", "--kind", "horizon", "--T", "1", "--t-end", "0.5",
                "--steps", "8", "--paths", "128"),
    "ou": ("ou", "--mode", "sknoise", "--lam", "1", "--T", "2", "--t-end", "0.5",
           "--steps", "8", "--paths", "128"),
    # censor's posterior check needs 1000 survivors
    "censor": ("censor", "--t-end", "0.5", "--steps", "8", "--paths", "4096",
               "--check-t", "0.25"),
    "validate": ("validate", "--suite", "quick"),
}
# a command that runs no check never exits 1
FUZZ_CHECKS_NOTHING = {"fokker-planck"}
# each validate case runs a whole suite, and its only keys are seed and suite
FUZZ_EXAMPLES = {"validate": 10}
FUZZ_STRINGS = ("", "abc", "1.0", "-1", "0.5,1.0", "1.0,x", "-1:1:0.5", "0:1:0",
                "1:0:0.5", "a:b:c", "0:1", "nan:1:0.5", "horizon", "constant-skew",
                "ou-htransform", "censored", "binary", "json")


def _flag_actions(command):
    """The parser actions of `command`'s flags by dest, except --output-dir,
    which only says where files go, and --config."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "output_dir", "config")}


def _typed_configs(command):
    """Up to three keys, each with a value its flag can take: one of its
    choices, a JSON boolean for a switch, an int, a float, or a string for a
    text flag.  An int stays at or below the larger of 64 and its base value,
    so no case runs more paths or steps than its base or 64."""
    base = vars(cli.build_parser().parse_args(list(FUZZ_BASE[command])))
    values = {}
    for dest, action in _flag_actions(command).items():
        if action.choices is not None:
            values[dest] = st.sampled_from(list(action.choices))
        elif action.nargs == 0:
            values[dest] = st.booleans()
        elif action.type is int:
            values[dest] = st.integers(-2, max(64, base[dest] or 0))
        elif action.type is float:
            values[dest] = st.floats(-4.0, 4.0)
        else:
            values[dest] = st.sampled_from(FUZZ_STRINGS)
    keys = st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: values[k] for k in ks}))


def _ill_typed_configs(command):
    """A typed config plus one key that no command knows, or one value that
    its flag cannot take: null, a list or an object, a boolean for a flag
    that is not a switch, a number or string for a switch."""
    actions = _flag_actions(command)

    def bad_value(dest):
        if actions[dest].nargs == 0:
            return st.integers(0, 3) | st.sampled_from(FUZZ_STRINGS)
        return st.none() | st.booleans() | st.lists(st.integers(0, 3), max_size=2) \
            | st.just({"a": 1})

    bad = st.tuples(st.just("no_such_flag"), st.integers(-2, 64)) | st.sampled_from(
        sorted(actions)).flatmap(lambda k: st.tuples(st.just(k), bad_value(k)))
    return st.tuples(_typed_configs(command), bad).map(
        lambda pair: {**pair[0], pair[1][0]: pair[1][1]})


def _fuzz_main(argv, out):
    """main() on `argv`, writing into `out`, with its output swallowed: every
    draw gets a documented exit code, and an exit 2 writes no diagnostics."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--output-dir", str(out)])
    assert code in (0, 1, 2, 3)
    assert not (code == 2 and (out / "diagnostics.json").exists())
    return code


def _run_config(command, config):
    """The exit code of FUZZ_BASE[command] with `config` as its --config file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        return _fuzz_main([*FUZZ_BASE[command], "--config", str(cfg)], Path(tmp) / "out")


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_config_never_raises(self, command):
        @settings(max_examples=FUZZ_EXAMPLES.get(command, 100), derandomize=True,
                  deadline=None, database=None)
        @given(config=_typed_configs(command))
        def check(config):
            code = _run_config(command, config)
            assert not (code == 1 and command in FUZZ_CHECKS_NOTHING)

        check()

    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_ill_typed_config_exits_2(self, command):
        @settings(max_examples=20, derandomize=True, deadline=None, database=None)
        @given(config=_ill_typed_configs(command))
        def check(config):
            assert _run_config(command, config) == 2

        check()


# finite floats plus the edges a flag can reach: zero, the largest finite
# magnitudes, infinities and nan
FLAG_VALUES = st.one_of(
    st.sampled_from([0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False))


def _flag(name, value):
    # --name=value, so a negative value is not read as an option
    return f"--{name}={value!r}"


def _times(draw):
    return ",".join(repr(t) for t in draw(st.lists(FLAG_VALUES, min_size=1, max_size=3)))


@st.composite
def _family_argv(draw):
    kind = draw(st.sampled_from(sorted(cli.FAMILY_KINDS)))
    param = cli.FAMILY_KINDS[kind][1][0]
    return ["family", "--kind", kind, _flag(param, draw(FLAG_VALUES)),
            f"--table-t={_times(draw)}"]


@st.composite
def _density_argv(draw):
    kinds = {**cli.DRIFT_KINDS, **cli.DENSITY_KINDS}
    kind = draw(st.sampled_from(sorted(kinds)))
    params = [f for f in kinds[kind][1] if f not in ("chirality", "x0")]
    return ["density", "--kind", kind, *(_flag(f, draw(FLAG_VALUES)) for f in params),
            _flag("x0", draw(FLAG_VALUES)), f"--t={_times(draw)}", "--x=-5:1:0.5"]


# FUZZ_BASE's runs, at its path and step sizes, each with the number flags
# it reads; a draw sets one or two of them
RUN_FLAGS = {
    "mixture": (FUZZ_BASE["mixture"], ("T", "x0", "t-end", "epsilon", "clamp")),
    "ou-sknoise": (FUZZ_BASE["ou"], ("lam", "T", "x0", "t-end", "epsilon", "clamp")),
    "ou-htransform": (("ou", "--mode", "htransform", "--lam", "1", "--t-end", "0.5",
                       "--steps", "8", "--paths", "128"),
                      ("lam", "x0", "t-end", "epsilon", "clamp")),
    "censor": (FUZZ_BASE["censor"], ("t-end", "bandwidth")),
    "censor-constant": ((*FUZZ_BASE["censor"], "--rho-kind", "constant", "--rho", "0.5"),
                        ("rho", "t-end", "bandwidth")),
}


@st.composite
def _run_argv(draw):
    base, flags = RUN_FLAGS[draw(st.sampled_from(sorted(RUN_FLAGS)))]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=2, unique=True))
    # a number in (0, 4], where a run's flags mostly lie, or any number
    values = {f: draw(st.floats(0.0, 4.0, exclude_min=True) | FLAG_VALUES) for f in chosen}
    argv = [*base, *(_flag(f, v) for f, v in values.items())]
    if base[0] == "censor":
        # any check times, or the recorded midpoint of the run
        argv.append(f"--check-t={_times(draw)}" if draw(st.booleans())
                    else _flag("check-t", values.get("t-end", 0.5) / 2))
    return argv


class TestFlagFuzz:
    """Any number in a command's flags gets a documented exit code."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(argv=st.one_of(_family_argv(), _density_argv()))
    # inputs that once overflowed or wrote non-finite cells
    @example(argv=["density", "--kind", "ou-htransform", "--lam=1.0", "--t=1e308",
                   "--x=-5:1:0.5"])
    @example(argv=["family", "--kind", "constant-skew", "--alpha=1.0", "--table-t=-1.0"])
    @example(argv=["density", "--kind", "ou-noise-marginal", "--lam=1.0", "--T=inf",
                   "--x0=1e+308", "--t=0.125", "--x=-5:1:0.5"])
    def test_flags_get_their_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            code = _fuzz_main(argv, out)
            assert code != 1
            if code == 0:
                table = {"family": ("family_table.csv", "t,psi,alpha"),
                         "density": ("density.csv", "x,t,q")}[argv[0]]
                assert np.all(np.isfinite(_float_cells(out / table[0], table[1])))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(argv=_run_argv())
    def test_run_flags_get_their_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            _fuzz_main(argv, Path(tmp))

    # each case runs the quick suite
    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(-2**64, 2**64) | FLAG_VALUES)
    def test_validate_seed_gets_its_exit_code(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            _fuzz_main(["validate", "--suite", "quick", _flag("seed", seed)], Path(tmp))
