"""DriftSpec.law and the image map Y = shift + sigma * X."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from skewdiff import cli
from skewdiff import (DriftSpec, OuSkewSpec, SimConfig, TimeGrid, constant_correlation_family,
                      constant_skew_family, horizon_family, ks_statistic,
                      ks_threshold, simulate)
from skewdiff.densities import (density_mass, family_tpd_unshifted,
                                ou_htransform_tpd_raw)
from skewdiff.dists import esn_moments
from skewdiff.validation import cdf_from_pdf


def _drift(kind, sigma=1.0, shift=0.0):
    if kind == "horizon":
        return DriftSpec(family=horizon_family(1.0, -1), diffusion_scale=sigma)
    if kind == "ou_htransform":
        return DriftSpec(ou=OuSkewSpec(1.0, 1), shift=shift,
                         diffusion_scale=sigma)
    return DriftSpec(family=constant_skew_family(1.5, +1), shift=shift,
                     diffusion_scale=sigma)


class TestImageMap:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["constant_skew", "horizon", "ou_htransform"])
    def test_sigma_two_is_twice_the_unit_ensemble(self, kind, threads):
        # scaling by a power of two is exact, so Y = 2X holds bit for bit
        grid = TimeGrid(0.0, 0.5, 100)
        cfg = SimConfig(n_paths=8200, seed=11, record_stride=10, n_threads=threads)
        x = simulate(_drift(kind), 0.1, grid, cfg)
        y = simulate(_drift(kind, sigma=2.0), 0.2, grid, cfg)
        assert x.clamp_events == 0
        assert np.array_equal(y.values, 2.0 * x.values)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clamp_scales_with_sigma(self, threads):
        # the clamp bounds X's increment: clamping Y's at 0.3 whatever sigma
        # gave 427 events at sigma = 1 and 3514 at sigma = 2
        grid = TimeGrid(0.0, 1.0, 20, 1e-4)
        cfg = SimConfig(n_paths=8192, seed=3, drift_clamp=0.3, n_threads=threads)
        fam = horizon_family(1.0)
        x = simulate(DriftSpec(family=fam), 0.0, grid, cfg)
        y = simulate(DriftSpec(family=fam, diffusion_scale=2.0), 0.0, grid, cfg)
        assert x.clamp_events == y.clamp_events == 427
        assert np.array_equal(y.values, 2.0 * x.values)

    @pytest.mark.parametrize("sigma", [0.7, 1.5, 3.0])
    def test_other_sigma_matches_to_roundoff(self, sigma):
        # measured: max |Y - sigma X| is 1.3e-15 of max |sigma X| at 100 steps
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(n_paths=8200, seed=11, record_stride=10)
        x = simulate(_drift("constant_skew"), 0.0, grid, cfg).values
        y = simulate(_drift("constant_skew", sigma=sigma), 0.0, grid, cfg).values
        assert np.max(np.abs(y - sigma * x)) <= 1e-13 * np.max(np.abs(sigma * x))


class TestLawKs:
    # 1e5 paths and 1000 steps to t = 0.5: the terminal KS against the
    # scaled closed form at sigma != 1
    @pytest.mark.parametrize("drift,x0", [
        (DriftSpec(family=constant_skew_family(1.0), shift=0.7, diffusion_scale=1.5), 0.7),
        (DriftSpec(family=horizon_family(1.0), diffusion_scale=3.0), 0.4),
        (DriftSpec(ou=OuSkewSpec(1.0, 1), diffusion_scale=2.0), 0.0),
        (DriftSpec(family=horizon_family(1.0), shift=0.5), 0.3),
        (DriftSpec(family=horizon_family(1.0), shift=0.5), -0.4),
    ], ids=["constant_skew", "horizon", "ou_htransform", "horizon_shift_x0=0.3",
            "horizon_shift_x0=-0.4"])
    def test_terminal_ks(self, drift, x0):
        n, t = 100_000, 0.5
        ens = simulate(drift, x0, TimeGrid(0.0, t, 1000),
                       SimConfig(n_paths=n, seed=1, record_stride=1000))
        term = ens.values[:, -1]
        law = drift.law(x0)
        pad = 8 * drift.diffusion_scale * math.sqrt(t)
        ref = cdf_from_pdf(lambda v: law.pdf(v, t), term.min() - pad, term.max() + pad)
        assert ks_statistic(term, ref) <= ks_threshold(n)


class TestLawTable:
    def test_which_starts_have_a_law(self):
        fam = _drift("constant_skew", shift=0.5)
        assert fam.law(0.5) is not None
        assert fam.law(0.0) is None and fam.law(0.5, t0=0.1) is None
        assert _drift("horizon").law(0.3, t0=0.2) is not None
        assert _drift("ou_htransform").law(-1.0, t0=0.5) is not None
        assert DriftSpec(mu_fn=lambda x, t: x).law(0.0) is None

    def test_time_free_ou_law_depends_on_elapsed_time(self):
        d = _drift("ou_htransform", sigma=1.5, shift=0.2)
        ys = np.linspace(-4, 6, 41)
        assert_allclose(d.law(0.6, t0=0.3).pdf(ys, 1.0), d.law(0.6).pdf(ys, 0.7), rtol=1e-14)

    def test_constant_correlation_law_is_the_censored_posterior(self):
        from skewdiff.densities import censored_posterior
        ys = np.linspace(-5, 5, 101)
        for c in (0.3, 0.6, 0.9):
            law = DriftSpec(family=constant_correlation_family(c)).law(0.0)
            for t in (0.25, 1.0, 3.0):
                assert_allclose(law.pdf(ys, t), censored_posterior(ys, t, c), rtol=1.5e-14)


def _reference_cdf(law, t, raw_pdf, n=2_000_001):
    """The trapezoid cdf of `raw_pdf` on n nodes over the law's mean +- 30 sd."""
    mean, var = esn_moments(law.unit(t))
    center, half = law.shift + law.sigma * mean, 30 * law.sigma * math.sqrt(var)
    xs = np.linspace(center - half, center + half, n)
    q = raw_pdf(xs)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(xs))])
    return xs, c / c[-1]


class TestLawCdf:
    # Law.cdf is a 20001-node trapezoid over mean +- 12 sd; the references
    # integrate the ratio forms, not the ESN maps, on 2e6 nodes over +- 30 sd.
    # Measured worst gaps: 1.0e-6 for the OU law (lam 2, x0 -5, t 2) and
    # 4.5e-7 for the horizon kernel (at t = 0.999)
    @pytest.mark.parametrize("x0", [-10.0, -5.0, -3.0, 0.4, 12.0])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_ou_htransform(self, lam, x0):
        # x0 = -10 at lam = 2 and t = 2 puts the normaliser at Phi(-20)
        for chirality in (1, -1):
            law = DriftSpec(ou=OuSkewSpec(lam, chirality)).law(x0)
            for t in (0.01, 0.3, 1.0, 2.0):
                xs, ref = _reference_cdf(
                    law, t, lambda v: ou_htransform_tpd_raw(v, t, lam, x0, chirality))
                gap = np.max(np.abs(law.cdf(t)(xs[::40]) - ref[::40]))
                assert gap <= 2e-6, (chirality, t, gap)

    @pytest.mark.parametrize("x0,t0", [(0.0, 0.0), (0.7, 0.0), (-1.5, 0.5)])
    def test_horizon(self, x0, t0):
        # the horizon family has unit amplitude, so its unshifted two-time
        # kernel is the exact law
        for chirality in (1, -1):
            fam = horizon_family(1.0, chirality)
            law = DriftSpec(family=fam).law(x0, t0)
            for t in (0.6, 0.9, 0.99, 0.999):
                xs, ref = _reference_cdf(
                    law, t, lambda v: family_tpd_unshifted(v, t, fam, x0, t0))
                gap = np.max(np.abs(law.cdf(t)(xs[::40]) - ref[::40]))
                assert gap <= 2e-6, (chirality, t, gap)


_U_SPAN = 15.0


@st.composite
def _scaled_laws(draw):
    kind = draw(st.sampled_from(["constant_skew", "horizon", "ou_htransform"]))
    sigma = draw(st.floats(0.25, 4.0))
    shift = 0.0 if kind == "horizon" else draw(st.floats(-2.0, 2.0))
    # a family has a law only from x0 = shift
    x0 = shift if kind == "constant_skew" else shift + draw(st.floats(-1.0, 1.0))
    t = draw(st.floats(0.05, 0.95))
    return kind, sigma, shift, x0, t


class TestEmptyWindow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_window_without_mass_is_refused(self):
        # a window about 1e300 collapses to one double, so its trapezoid is 0
        law = DriftSpec(family=horizon_family(1.0)).law(1e300)
        with pytest.raises(FloatingPointError, match=r"no finite positive mass on the "
                                                     r"window \[1e\+300, 1e\+300\]"):
            law.cdf(0.5)
        with pytest.raises(FloatingPointError, match="window"):
            cdf_from_pdf(lambda v: np.zeros_like(v), -1.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_mixture_target_without_mass_exits_3(self, tmp_path):
        # the simulation succeeds; its KS target was a 0/0 that read NaN
        assert cli.main(["mixture", "--kind", "horizon", "--T", "1", "--t-end", "0.5",
                         "--steps", "8", "--paths", "128", "--x0", "1e300",
                         "--output-dir", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["type"] == "FloatingPointError"
        assert "no finite positive mass on the window" in diag["error"]


class TestLawProperties:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=_scaled_laws())
    def test_scaled_law_is_the_image_of_the_unit_law(self, case):
        kind, sigma, shift, x0, t = case
        law = _drift(kind, sigma, shift).law(x0)
        u0 = (x0 - shift) / sigma
        unit = _drift(kind).law(u0)
        # the u-window holds the unit law's mass: its mean is at most u0 * e^t
        lo = min(u0, u0 * math.e) - _U_SPAN
        hi = max(u0, u0 * math.e) + _U_SPAN
        ys = shift + sigma * np.linspace(lo, hi, 201)
        assert_allclose(law.pdf(ys, t), unit.pdf((ys - shift) / sigma, t) / sigma,
                        rtol=1e-14, atol=0)
        mass = density_mass(law.pdf, t, lo=shift + sigma * lo, hi=shift + sigma * hi,
                            center=x0)
        assert abs(mass - 1.0) < 1e-8
