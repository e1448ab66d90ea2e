"""Mean-reversion extensions: reversal transform and skew noise."""
import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from skewdiff import (OuSkewSpec, SimConfig, SkewDiffError, TimeGrid, ou_h,
                      ou_h_log, ou_htransform_drift, ou_identity_residual,
                      ou_mixture_probability, repulsive_ou_tpd,
                      simulate_ou_skew_noise, stationary_ou_tpd,
                      std_normal_cdf)


def drift_oracle(x, lam, chir):
    """Literal ratio form by quadrature: lam x +- exp(-lam x^2)/mass."""
    lo = -30.0 / math.sqrt(lam)
    mass = quad(lambda s: math.exp(-lam * s * s), lo, chir * x,
                epsabs=1e-15, limit=300)[0]
    return lam * x + chir * math.exp(-lam * x * x) / mass


class TestReversalDrift:
    def test_origin_value(self):
        for lam in (0.5, 1.0, 2.0):
            spec = OuSkewSpec(lam=lam, chirality=+1)
            assert_allclose(float(ou_htransform_drift(0.0, spec)),
                            2.0 * math.sqrt(lam / math.pi), rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("chir", [+1, -1])
    def test_against_quadrature(self, lam, chir):
        spec = OuSkewSpec(lam=lam, chirality=chir)
        for x in (-2.0, -0.4, 0.0, 0.9, 2.5):
            assert_allclose(float(ou_htransform_drift(x, spec)),
                            drift_oracle(x, lam, chir), rtol=1e-10)

    def test_favored_tail_is_linear(self):
        spec = OuSkewSpec(lam=1.0, chirality=+1)
        x = 50.0
        assert_allclose(float(ou_htransform_drift(x, spec)), 1.0 * x, rtol=1e-12)

    def test_disfavored_tail_restores(self):
        # lam x + 2 lam |x| (1 + O(1/x^2)) = -lam x (1 + O(1/x^2)) for x -> -inf
        spec = OuSkewSpec(lam=1.0, chirality=+1)
        x = -50.0
        val = float(ou_htransform_drift(x, spec))
        assert abs(val / (-1.0 * x) - 1.0) < 1e-3

    def test_time_free_transform_equivalence(self):
        # d/dx log of the raw Gaussian mass, by finite differences of the
        # quadrature, plus lam x reproduces the drift (no explicit time factor)
        lam, chir = 0.8, +1
        h = 1e-6

        def log_mass(x):
            lo = -40.0
            return math.log(quad(lambda s: math.exp(-lam * s * s), lo, x,
                                 epsabs=1e-15, limit=300)[0])

        for x in (-1.0, 0.0, 0.7, 2.0):
            fd = (log_mass(x + h) - log_mass(x - h)) / (2 * h)
            spec = OuSkewSpec(lam=lam, chirality=chir)
            assert_allclose(lam * x + fd, float(ou_htransform_drift(x, spec)),
                            rtol=1e-7)


class TestHarmonicFactor:
    def test_value_at_origin(self):
        spec = OuSkewSpec(lam=1.0, chirality=+1)
        assert_allclose(float(ou_h(0.0, 0.0, spec)), 0.5, rtol=1e-15)

    def test_chirality_sum_identity(self):
        xs = np.linspace(-3, 3, 41)
        for lam in (0.5, 2.0):
            for t in (0.0, 0.7):
                total = (ou_h(xs, t, OuSkewSpec(lam=lam, chirality=+1))
                         + ou_h(xs, t, OuSkewSpec(lam=lam, chirality=-1)))
                expect = np.exp(-lam * t + lam * xs * xs)
                assert_allclose(total, expect, rtol=1e-12)

    def test_overflow_guard(self):
        spec = OuSkewSpec(lam=1.0, chirality=+1)
        with pytest.raises(SkewDiffError):
            ou_h(30.0, 0.0, spec)
        assert np.isfinite(ou_h_log(30.0, 0.0, spec))

    def test_martingale_mean_small_run(self):
        # mean of h(X_t, t)/h(x0, 0) over mean-reverting paths stays at one
        lam, x0 = 1.0, 0.3
        spec = OuSkewSpec(lam=lam, chirality=+1)
        rng = np.random.default_rng(61)
        n, steps, t_end = 40000, 240, 0.24
        dt = t_end / steps
        x = np.full(n, x0)
        for _ in range(steps):
            x += -lam * x * dt + math.sqrt(dt) * rng.standard_normal(n)
        ratio = np.asarray(ou_h(x, t_end, spec)) / float(ou_h(x0, 0.0, spec))
        se = ratio.std(ddof=1) / math.sqrt(n)
        assert abs(ratio.mean() - 1.0) < 3 * se


class TestMixtureProbability:
    def test_symmetric(self):
        assert ou_mixture_probability(1.0, 0.0) == (0.5, 0.5)

    def test_unit_point(self):
        p_minus, p_plus = ou_mixture_probability(1.0, 1.0)
        assert_allclose(p_plus, 0.9213503964748575, rtol=1e-13)
        assert_allclose(p_plus, float(std_normal_cdf(math.sqrt(2.0))), rtol=1e-15)

    def test_far_point(self):
        _, p_plus = ou_mixture_probability(1.0, 50.0)
        assert p_plus == 1.0

    def test_sum_to_one(self):
        for x in (-3.0, 0.2, 7.0):
            pm, pp = ou_mixture_probability(0.7, x)
            assert pm + pp == 1.0


class TestReversalIdentity:
    def test_pointwise_reconstruction(self):
        res = ou_identity_residual(1.0, 0.3, np.linspace(-4, 4, 161),
                                   [0.25, 0.5, 1.0, 2.0])
        assert res < 1e-10

    def test_stationary_law_is_not_the_target(self):
        # the mixture reconstructs the unstable-OU law; the stationary one differs
        lam, x0 = 1.0, 0.3
        xs = np.linspace(-4, 4, 161)
        pm, pp = ou_mixture_probability(lam, x0)
        from skewdiff import ou_htransform_tpd_raw
        mix = (pm * ou_htransform_tpd_raw(xs, 1.0, lam, x0, -1)
               + pp * ou_htransform_tpd_raw(xs, 1.0, lam, x0, +1))
        assert np.max(np.abs(mix - stationary_ou_tpd(xs, 1.0, lam, x0))) > 0.1
        assert np.max(np.abs(mix - repulsive_ou_tpd(xs, 1.0, lam, x0))) < 1e-10


class TestSkewNoiseDriver:
    def test_vanishing_reversal_tracks_the_noise(self):
        lam = 1e-4
        grid = TimeGrid(0.0, 1.0, 400)
        cfg = SimConfig(n_paths=300, seed=67, record_stride=100)
        ens_x, ens_z = simulate_ou_skew_noise(lam, 0.0, 2.0, grid, cfg)
        gap = np.max(np.abs(ens_x.values - ens_z.values))
        bound = lam * 1.0 * np.max(np.abs(ens_x.values)) * 3.0 + 1e-12
        assert gap < bound

    def test_short_time_variance(self):
        grid = TimeGrid(0.0, 0.05, 100)
        cfg = SimConfig(n_paths=40000, seed=71, record_stride=100)
        ens_x, _ = simulate_ou_skew_noise(1.0, 0.0, 2.0, grid, cfg)
        v = ens_x.values[:, -1].var(ddof=1)
        assert abs(v - 0.05) < 0.05 * 0.15

    def test_clamps_counted_on_both_ensembles(self):
        grid = TimeGrid(0.0, 1.0, 40)
        free = simulate_ou_skew_noise(1.0, 0.3, 2.0, grid,
                                      SimConfig(n_paths=200, seed=73, record_stride=8))
        tight = simulate_ou_skew_noise(1.0, 0.3, 2.0, grid,
                                       SimConfig(n_paths=200, seed=73, record_stride=8,
                                                 drift_clamp=1e-3))
        assert free[0].clamp_events == free[1].clamp_events == 0
        assert tight[0].clamp_events == tight[1].clamp_events > 0
        # the clamp holds the skew drift down, so Z ends lower on every path
        assert np.all(tight[1].values[:, -1] < free[1].values[:, -1])

    def test_antithetic_pairs_mirror_the_noise(self):
        grid = TimeGrid(0.0, 1.0, 40)
        _, z = simulate_ou_skew_noise(1.0, 0.0, 2.0, grid,
                                      SimConfig(n_paths=200, seed=79, antithetic=True))
        # from Z=0 the first drift increment is the same on every path
        drift = z.values[0::2, 1] + z.values[1::2, 1]
        assert_allclose(drift, drift[0], rtol=0, atol=1e-15)

    def test_horizon_guard(self):
        grid = TimeGrid(0.0, 2.5, 100)
        with pytest.raises(SkewDiffError):
            simulate_ou_skew_noise(1.0, 0.0, 2.0, grid,
                                   SimConfig(n_paths=10, seed=1, record_stride=100))


def _skew_noise_pinned(seed: int, n_threads: int):
    """8200 paths (two noise blocks), noise horizon T=2 well past t_end=1."""
    return simulate_ou_skew_noise(
        1.0, 0.3, 2.0, TimeGrid(0.0, 1.0, 40),
        SimConfig(n_paths=8200, seed=seed, record_stride=8, n_threads=n_threads))


# sha256 of the (X, Z) values and clamp counts; first recorded while the
# skew-noise driver still ran its own block loop, re-recorded when mills took
# its exp/ndtr branch (every value moved by at most 8.9e-16)
SKEW_NOISE_PINS = {
    5: "1164fef304c97d8e54c0360af53930832b38ec8cb48f8147412f68d4a079409f",
    6: "09dd07e03f27c9bf99981446550cac89144ef2f6f908d7724b2789c98ff10bc7",
}


class TestSkewNoisePinnedBytes:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("seed", sorted(SKEW_NOISE_PINS))
    def test_matches_recorded_digest(self, seed, n_threads):
        ens_x, ens_z = _skew_noise_pinned(seed, n_threads)
        assert ens_x.clamp_events == 0 and ens_z.clamp_events == 0
        h = hashlib.sha256()
        for ens in (ens_x, ens_z):
            h.update(np.ascontiguousarray(ens.values, dtype="<f8").tobytes())
            h.update(str(ens.clamp_events).encode())
        assert h.hexdigest() == SKEW_NOISE_PINS[seed]
