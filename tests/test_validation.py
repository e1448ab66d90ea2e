"""KS/KL machinery, martingale means, drift-energy identity, mass audits."""
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skewdiff import (DriftSpec, SimConfig, TimeGrid, ValidationReport,
                      cdf_from_pdf, constant_skew_family, girsanov_energy,
                      girsanov_kl_gap, horizon_family, ks_statistic,
                      ks_threshold, martingale_mean, normalization_audit,
                      path_kl_telescoped, simulate, std_normal_cdf)
from skewdiff.io import write_json

ZERO = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))


class TestKsStatistic:
    def test_calibration_under_the_null(self):
        rng = np.random.default_rng(101)
        n = 20000
        s = rng.standard_normal(n)
        assert ks_statistic(s, std_normal_cdf) < 1.63 / math.sqrt(n)

    def test_constant_samples(self):
        s = np.zeros(500)
        assert ks_statistic(s, std_normal_cdf) >= 0.5

    def test_shifted_reference(self):
        rng = np.random.default_rng(103)
        n = 100000
        s = rng.standard_normal(n)
        d = ks_statistic(s, lambda x: std_normal_cdf(x - 0.5))
        # sup gap between the two cdfs is 2*Phi(0.25) - 1
        assert abs(d - 0.1974126513658474) < 0.01

    def test_rejects_nan_and_short_input(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([0.0, np.nan] * 100), std_normal_cdf)
        with pytest.raises(ValueError):
            ks_statistic(np.zeros(50), std_normal_cdf)

    def test_threshold_value(self):
        assert_allclose(ks_threshold(200000), 0.00364, atol=2e-5)


class TestCdfFromPdf:
    def test_gaussian(self):
        f = cdf_from_pdf(lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                         -10, 10)
        xs = np.linspace(-3, 3, 13)
        assert np.max(np.abs(f(xs) - std_normal_cdf(xs))) < 1e-7
        assert abs(f.total_mass - 1.0) < 1e-8


class TestMartingaleMean:
    def test_unit_h(self):
        ens = simulate(ZERO, 0.0, TimeGrid(0.0, 1.0, 100),
                       SimConfig(n_paths=500, seed=107, record_stride=25))
        rows = martingale_mean(lambda x, t: np.ones_like(x), ens, 0.0,
                               checkpoints=[0.25, 0.5, 0.75])
        for _, mean, se in rows:
            assert mean == 1.0 and se == 0.0

    def test_horizon_h_on_brownian_base(self):
        T, x0 = 1.0, 0.3
        n = 50000
        ens = simulate(ZERO, x0, TimeGrid(0.0, T, 300),
                       SimConfig(n_paths=n, seed=109, record_stride=75))

        def h(x, t):
            return std_normal_cdf(x / math.sqrt(T - t))

        rows = martingale_mean(h, ens, x0, checkpoints=[0.25, 0.5, 0.75])
        for _, mean, se in rows:
            assert abs(mean - 1.0) < 3 * se


@pytest.fixture(scope="module")
def skew_run():
    fam = horizon_family(1.0, +1)
    drift = DriftSpec(family=fam)
    ens = simulate(drift, 0.0, TimeGrid(0.0, 0.8, 400),
                   SimConfig(n_paths=20000, seed=113))
    return fam, ens


class TestDriftEnergyIdentity:

    def test_energy_positive_and_kl_close(self, skew_run):
        fam, ens = skew_run
        energy, se_e = girsanov_energy(fam, ens)
        kl, se_k = path_kl_telescoped(fam, ens, 0.0)
        assert energy > 0
        gap, se_gap = girsanov_kl_gap(fam, ens, 0.0)
        assert abs(gap) < 3 * se_gap
        assert abs((kl - energy) - gap) < 1e-12

    def test_zero_drift_energy(self):
        fam = constant_skew_family(1e-12, +1)
        ens = simulate(ZERO, 0.0, TimeGrid(0.0, 1.0, 50),
                       SimConfig(n_paths=200, seed=127, record_stride=5))
        energy, _ = girsanov_energy(fam, ens)
        assert energy < 1e-20

    def test_longer_window_more_energy(self):
        # the quadratic energy accumulates monotonically in the window length
        fam = horizon_family(1.0, +1)
        drift = DriftSpec(family=fam)
        energies = []
        for frac in (0.4, 0.8):
            ens = simulate(drift, 0.0, TimeGrid(0.0, frac, 200),
                           SimConfig(n_paths=5000, seed=131))
            energies.append(girsanov_energy(fam, ens)[0])
        assert energies[1] > energies[0]

    def test_energy_is_horizon_scale_free(self):
        # (s, x) -> (T s, sqrt(T) x) self-similarity makes the energy over a
        # fixed fraction of the horizon independent of T
        energies = []
        for T in (1.0, 2.0):
            fam = horizon_family(T, +1)
            drift = DriftSpec(family=fam)
            ens = simulate(drift, 0.0, TimeGrid(0.0, 0.8 * T, 200),
                           SimConfig(n_paths=5000, seed=131))
            energies.append(girsanov_energy(fam, ens)[0])
        assert abs(energies[1] - energies[0]) < 1e-12


class TestNormalizationAudit:
    def test_constant_skew_audit(self):
        fam = constant_skew_family(1.0, +1)
        report = normalization_audit(fam, x0_list=(-2.0, 0.0, 1.5), t_list=(1.0,))
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert any("unshifted-deviates" in n for n in names)

    def test_report_serialization(self, tmp_path):
        report = ValidationReport(seed=7)
        report.add("demo", 0.5, 1.0)
        out = report.to_dict()
        assert out["all_passed"] is True
        assert out["checks"][0]["name"] == "demo"
        # validate writes the report through the one JSON writer
        write_json(tmp_path / "report.json", out)
        assert json.loads((tmp_path / "report.json").read_text()) == out
