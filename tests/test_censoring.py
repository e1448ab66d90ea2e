"""Truncated-Gaussian means and the selection-model drift identities."""
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from skewdiff import cli
from skewdiff import (SimConfig, TimeGrid, TruncatedNormalSpec,
                      censored_posterior, constant_correlation_family,
                      constant_skew_family, horizon_family,
                      posterior_from_censored_sim, simulate_bivariate_censoring,
                      truncated_normal_mean, verify_ou_selection,
                      verify_selection_representation)
from skewdiff.validation import cdf_from_pdf, ks_statistic, ks_threshold


def truncated_mean_oracle(mean, std, threshold, side):
    pdf = lambda z: math.exp(-0.5 * ((z - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
    lo, hi = (threshold, mean + 15 * std) if side == "above" else (mean - 15 * std, threshold)
    mass = quad(pdf, lo, hi, epsabs=1e-14, limit=300)[0]
    first = quad(lambda z: z * pdf(z), lo, hi, epsabs=1e-14, limit=300)[0]
    return first / mass


class TestTruncatedNormalMean:
    def test_vacuous_truncation(self):
        spec = TruncatedNormalSpec(mean=1.3, std=0.7, threshold=-1e8, side="above")
        assert_allclose(truncated_normal_mean(spec), 1.3, rtol=1e-12)

    def test_standard_half(self):
        spec = TruncatedNormalSpec(mean=0.0, std=1.0, threshold=0.0, side="above")
        oracle = truncated_mean_oracle(0.0, 1.0, 0.0, "above")
        assert_allclose(oracle, math.sqrt(2 / math.pi), rtol=1e-11)
        assert_allclose(truncated_normal_mean(spec), oracle, rtol=1e-11)

    def test_mirror_symmetry(self):
        for mu, a in ((0.4, 1.0), (-1.0, 0.3)):
            below = truncated_normal_mean(
                TruncatedNormalSpec(mean=mu, std=1.2, threshold=a, side="below"))
            above = truncated_normal_mean(
                TruncatedNormalSpec(mean=-mu, std=1.2, threshold=-a, side="above"))
            assert_allclose(below, -above, rtol=1e-13)

    @pytest.mark.parametrize("mean,std,thr,side", [
        (0.0, 1.0, 1.7, "above"), (2.0, 0.5, 1.0, "below"),
        (-1.0, 2.0, -4.0, "above"), (0.3, 1.0, 3.0, "below"),
    ])
    def test_against_quadrature(self, mean, std, thr, side):
        spec = TruncatedNormalSpec(mean=mean, std=std, threshold=thr, side=side)
        assert_allclose(truncated_normal_mean(spec),
                        truncated_mean_oracle(mean, std, thr, side), rtol=1e-9)

    def test_deep_tail_finite(self):
        spec = TruncatedNormalSpec(mean=0.0, std=1.0, threshold=38.0, side="above")
        val = truncated_normal_mean(spec)
        assert math.isfinite(val) and val > 38.0


class TestSelectionIdentity:
    @pytest.mark.parametrize("family,t_span", [
        (horizon_family(1.0, +1), (0.05, 0.9)),
        (constant_skew_family(1.0, +1), (0.05, 3.0)),
        (constant_skew_family(2.0, -1), (0.05, 3.0)),
        (constant_correlation_family(0.5, +1), (0.05, 3.0)),
    ])
    def test_lattice_identity(self, family, t_span):
        worst = 0.0
        for t in np.linspace(*t_span, 21):
            for x in np.linspace(-3, 3, 21):
                _, _, diff = verify_selection_representation(family, float(x), float(t))
                worst = max(worst, diff)
        assert worst < 1e-12

    def test_origin_value(self):
        fam = constant_skew_family(1.0, +1)
        t = 0.7
        direct, via, _ = verify_selection_representation(fam, 0.0, t)
        expect = float(fam.psi(t)) * 1.0 * math.sqrt(2 / math.pi)
        assert_allclose(direct, expect, rtol=1e-13)
        assert_allclose(via, expect, rtol=1e-13)

    def test_shifted_identity(self):
        fam = constant_skew_family(1.5, +1)
        _, _, diff = verify_selection_representation(fam, 0.8, 0.5, shift=1.2)
        assert diff < 1e-12


class TestOuSelection:
    def test_identity_lattice(self):
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            for chir in (+1, -1):
                for x in np.linspace(-3, 3, 21):
                    _, _, diff = verify_ou_selection(lam, float(x), chir)
                    worst = max(worst, diff)
        assert worst < 1e-10

    def test_origin_drift_vs_quadrature(self):
        lam = 1.0
        denominator = quad(lambda s: math.exp(-lam * s * s), -30, 0.0,
                           epsabs=1e-14, limit=300)[0]
        oracle = 1.0 / denominator   # exp(0) over the half-line Gaussian mass
        assert_allclose(oracle, 2 / math.sqrt(math.pi), rtol=1e-11)
        direct, _, _ = verify_ou_selection(lam, 0.0, +1)
        assert_allclose(direct, oracle, rtol=1e-11)

    def test_mirror_antisymmetry(self):
        for x in (0.3, 1.1, -2.0):
            d_plus, _, _ = verify_ou_selection(1.0, x, +1)
            d_minus, _, _ = verify_ou_selection(1.0, -x, -1)
            assert_allclose(d_minus, -d_plus, rtol=1e-12)

    def test_unweighted_reading_fails(self):
        # the single censored mean with variance 2/lam does not match the drift
        gaps = []
        for x in (-2.0, -0.5, 0.7):
            direct, _, _ = verify_ou_selection(1.0, x, +1)
            censored = truncated_normal_mean(TruncatedNormalSpec(
                mean=-x, std=math.sqrt(2.0), threshold=0.0, side="below"))
            gaps.append(abs(direct + censored))
        assert max(gaps) > 1e-2


@pytest.fixture(scope="module")
def uncorrelated_run():
    grid = TimeGrid(0.0, 1.0, 200)
    cfg = SimConfig(n_paths=30000, seed=53, record_stride=50)
    return simulate_bivariate_censoring(0.0, grid, cfg)


class TestCensoredPosteriorFromSim:

    def test_survivor_fraction(self, uncorrelated_run):
        ex, ey = uncorrelated_run
        _, _, frac, n_surv = posterior_from_censored_sim(ex, ey, t_index=4)
        assert abs(frac - 0.5) < 3.0 / (2.0 * math.sqrt(ex.n_paths))
        assert n_surv > 1000

    def test_uninformative_censoring(self, uncorrelated_run):
        ex, ey = uncorrelated_run
        xg, dens, _, n_surv = posterior_from_censored_sim(ex, ey, t_index=4)
        # KDE mass is one and its cdf stays near the Gaussian reference
        assert abs(np.trapezoid(dens, xg) - 1.0) < 1e-3
        t = float(ex.times[4])
        ref = cdf_from_pdf(lambda v: censored_posterior(v, t, 0.0),
                           xg[0] - 2, xg[-1] + 2)
        kde_cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(xg))])
        gap = float(np.max(np.abs(kde_cdf - ref(xg))))
        assert gap < 2.0 * ks_threshold(n_surv)

    def test_survivor_samples_ks(self, uncorrelated_run):
        ex, ey = uncorrelated_run
        t = float(ex.times[4])
        keep = ey.values[:, 4] >= 0
        surv = ex.values[:, 4][keep]
        ref = cdf_from_pdf(lambda v: censored_posterior(v, t, 0.0), -6, 6)
        assert ks_statistic(surv, ref) < ks_threshold(len(surv))

    def test_too_few_survivors_rejected(self, uncorrelated_run):
        ex, ey = uncorrelated_run
        small_x = type(ex)(grid=ex.grid, values=ex.values[:500], seed=ex.seed,
                           record_stride=ex.record_stride)
        small_y = type(ey)(grid=ey.grid, values=ey.values[:500], seed=ey.seed,
                           record_stride=ey.record_stride)
        with pytest.raises(ValueError):
            posterior_from_censored_sim(small_x, small_y, t_index=4)

    @pytest.mark.parametrize("bandwidth", [2.8576853923635173e-252, 1e306])
    def test_a_kde_without_mass_is_refused(self, uncorrelated_run, bandwidth):
        # every kernel weight underflows, or the normalization overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="no finite positive mass"):
                posterior_from_censored_sim(*uncorrelated_run, t_index=4,
                                            bandwidth=bandwidth)

    @pytest.mark.parametrize("n_paths", [2000, 8000])
    def test_binned_smoother_matches_direct_sum(self, uncorrelated_run, n_paths):
        # about 1k and 4k survivors, against the plain Gaussian kernel sum
        ex, ey = (type(e)(grid=e.grid, values=e.values[:n_paths], seed=e.seed,
                          record_stride=e.record_stride) for e in uncorrelated_run)
        xg, dens, _, n_surv = posterior_from_censored_sim(ex, ey, t_index=4)
        sel = ex.values[:, 4][ey.values[:, 4] >= 0]
        bw = 1.06 * np.std(sel, ddof=1) * n_surv ** -0.2
        z = (xg[:, None] - sel[None, :]) / bw
        direct = np.exp(-0.5 * z * z).sum(axis=1) / (n_surv * bw * math.sqrt(2 * math.pi))
        assert np.max(np.abs(dens - direct)) <= 5e-4 * direct.max()

    @pytest.mark.parametrize("n_paths,digest", [
        (2000, "3dffffe6a9356215a07b88c979efa3100de89fa02d9c0b009bdb98b1eb740507"),
        (8000, "1b907fd5a6bc8c814e12095970144b924cded12413c5ffa06d6f48689e3921cd"),
    ])
    def test_matches_recorded_digest(self, uncorrelated_run, n_paths, digest):
        # sha256 of the (x_grid, density) bytes at about 1k and 4k survivors,
        # recorded while the kernel matrix was built whole
        ex, ey = (type(e)(grid=e.grid, values=e.values[:n_paths], seed=e.seed,
                          record_stride=e.record_stride) for e in uncorrelated_run)
        xg, dens, _, _ = posterior_from_censored_sim(ex, ey, t_index=4)
        h = hashlib.sha256(np.ascontiguousarray(xg, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(dens, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    def test_positive_correlation_shifts_survivors_right(self):
        grid = TimeGrid(0.0, 1.0, 200)
        cfg = SimConfig(n_paths=20000, seed=59, record_stride=200)
        ex, ey = simulate_bivariate_censoring(0.6, grid, cfg)
        keep = ey.values[:, -1] >= 0
        assert ex.values[:, -1][keep].mean() > 0.1

    def test_estimate_converges_with_more_paths(self):
        grid = TimeGrid(0.0, 1.0, 100)
        rho = 0.6
        ref = cdf_from_pdf(lambda v: censored_posterior(v, 1.0, rho), -6, 6)
        ks_by_n = []
        for n in (4000, 32000):
            ex, ey = simulate_bivariate_censoring(
                rho, grid, SimConfig(n_paths=n, seed=61, record_stride=100))
            keep = ey.values[:, -1] >= 0
            ks_by_n.append(ks_statistic(ex.values[:, -1][keep], ref))
        assert ks_by_n[1] < ks_by_n[0]


# sha256 of each artifact of a `censor` run, recorded while the pair was
# still integrated to --t-end.  The first run's checks sit at
# 0.30000000000000004 and 0.6000000000000001, where a grid cut at the last
# check would move dt; the second's last check is --t-end
CENSOR_PINS = {
    "ramp-cut-grid-times": (
        ("--t-end", "1", "--steps", "300", "--paths", "8200", "--record-stride", "30",
         "--check-t", "0.3,0.6", "--seed", "5"),
        {"censor_results.json":
            "3e75eef273e5cf0a64552ca12aee987b070386757814630a384acfa6b78f9f4c",
         "kde_t3.csv": "f70cb561618356ca87120997db5f5fbb13a94ab5da281bfd8c88ceaf68fabd2b",
         "kde_t6.csv": "682b807fe4b199b323c95038bfb63febcb421b90cccb3eb6175dff12948c2a2a"}),
    "constant-to-t-end": (
        ("--t-end", "1", "--steps", "200", "--paths", "8192", "--record-stride", "50",
         "--check-t", "0.25,1", "--rho-kind", "constant", "--rho", "0.4", "--seed", "7"),
        {"censor_results.json":
            "8b449cb8af5c557d67a27dfdc8b4b7986382d1420b6f3860bb9ea0f4e822f806",
         "kde_t1.csv": "f60dad430b751432413bbcae8639c390c9f39e74f1cb236a2da881e9e8aef9b4",
         "kde_t4.csv": "5d8d5d06f41a5a4dd0ff91cfa107402235b321a8990e6c3a4d4f51424a96ecaf"}),
}


class TestCensorCommand:
    @pytest.mark.parametrize("case", sorted(CENSOR_PINS))
    def test_artifacts_are_pinned(self, tmp_path, case):
        argv, digests = CENSOR_PINS[case]
        assert cli.main(["censor", *argv, "--output-dir", str(tmp_path)]) == 0
        names = sorted(f.name for f in tmp_path.iterdir() if f.name != "manifest.json")
        assert names == sorted(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_pair_stops_at_the_last_check(self, tmp_path, monkeypatch):
        runs = []

        def spy(*args, **kwargs):
            pair = simulate_bivariate_censoring(*args, **kwargs)
            runs.append(pair)
            return pair
        monkeypatch.setattr(cli, "simulate_bivariate_censoring", spy)
        assert cli.main(["censor", "--t-end", "1", "--steps", "200", "--paths", "4000",
                         "--record-stride", "50", "--check-t", "0.5,0.25",
                         "--output-dir", str(tmp_path)]) in (0, 1)
        (ex, ey), = runs
        # columns for t = 0, 0.25 and 0.5: the steps past t = 0.5 never ran
        assert ex.values.shape == ey.values.shape == (4000, 3)
        assert ex.times.tolist() == [0.0, 0.25, 0.5]

    def test_a_degenerate_kde_exits_3(self, tmp_path):
        # at this bandwidth every density once read 0.0 at exit 0, and an
        # overflow warning escaped
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["censor", "--t-end", "0.5", "--steps", "8", "--paths", "4096",
                             "--check-t", "0.25", "--bandwidth", "2.8576853923635173e-252",
                             "--output-dir", str(tmp_path)])
        assert code == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["type"] == "FloatingPointError"
        assert "no finite positive mass" in diag["error"]
        assert not (tmp_path / "kde_t4.csv").exists()
