"""Closed-form densities: reductions, masses, semigroup checks."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from skewdiff import (DriftSpec, ExtendedSkewNormalParams, HorizonError,
                      censored_posterior, chapman_kolmogorov_residual,
                      constant_skew_family, constant_skew_tpd, density_grid,
                      drift_value, esn_pdf, family_tpd, family_tpd_unshifted,
                      half_normal_pdf, horizon_family, horizon_tpd,
                      horizon_tpd_two_time, ou_htransform_tpd,
                      ou_htransform_tpd_raw, ou_skew_driven_marginal,
                      restart_tpd, sn_moments)
from skewdiff.densities import _ou_moments, density_mass

SQRT_2PI = math.sqrt(2 * math.pi)


def sn_params(location, scale, shape):
    """The skew-normal law: the extended law at truncation 0."""
    return ExtendedSkewNormalParams(location, scale, shape, 0.0)


def gauss(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


class TestHorizonTpd:
    def test_zero_start_is_skew_normal(self):
        T, t = 1.0, 0.37
        xs = np.linspace(-5, 5, 81)
        shape = math.sqrt(t / (T - t))
        target = esn_pdf(xs, sn_params(0.0, math.sqrt(t), shape))
        assert_allclose(horizon_tpd(xs, t, 0.0, T, +1), target, rtol=1e-13)

    def test_terminal_half_normal_limit(self):
        T = 1.0
        xs = np.linspace(-3, 3, 61)
        close = horizon_tpd(xs, T - 1e-9, 0.0, T, +1)
        target = half_normal_pdf(xs, T, 0.0, +1)
        interior = np.abs(xs) > 0.05   # pointwise limit, excluding the jump
        assert np.max(np.abs(close - target)[interior]) < 1e-3

    def test_mass_preserved_off_origin(self):
        T = 1.0
        mass = density_mass(lambda x, t: horizon_tpd(x, t, 0.7, T, +1), T / 2,
                            center=0.7)
        assert abs(mass - 1.0) < 1e-9

    def test_left_chirality_mirror(self):
        T, t = 2.0, 0.9
        xs = np.linspace(-4, 4, 41)
        assert_allclose(horizon_tpd(xs, t, 0.5, T, -1),
                        horizon_tpd(-xs, t, -0.5, T, +1), rtol=1e-12)

    def test_time_domain_guard(self):
        with pytest.raises(HorizonError):
            horizon_tpd(0.0, 1.0, 0.0, 1.0, +1)

    @pytest.mark.parametrize("chirality", [1, -1])
    @pytest.mark.parametrize("t_prev,t,x_prev", [(0.0, 0.5, 0.0), (0.2, 0.8, 0.7),
                                                 (0.5, 0.99, -1.2)])
    def test_two_time_kernel_matches_the_ratio_form(self, t_prev, t, x_prev, chirality):
        # the ESN form against Gaussian(x_prev, t - t_prev) times
        # Phi(alpha_t x) / Phi(alpha_prev x_prev), written out term by term
        xs = np.linspace(-8, 10, 1801)
        ref = family_tpd_unshifted(xs, t, horizon_family(1.0, chirality), x_prev, t_prev)
        keep = ref > 1e-250
        assert_allclose(horizon_tpd_two_time(xs, t, x_prev, t_prev, 1.0, chirality)[keep],
                        ref[keep], rtol=1e-12, atol=0)


class TestConstantSkewTpd:
    def test_zero_skew_gaussian(self):
        xs = np.linspace(-4, 4, 41)
        assert_allclose(constant_skew_tpd(xs, 0.7, 0.0, +1), gauss(xs, 0, 0.7),
                        rtol=1e-13)

    def test_mirror(self):
        xs = np.linspace(-4, 4, 41)
        assert_allclose(constant_skew_tpd(xs, 1.0, 1.0, +1),
                        constant_skew_tpd(-xs, 1.0, 1.0, -1), rtol=1e-14)

    def test_grid_skewness_matches_moments(self):
        t, alpha = 1.0, 1.0
        grid = density_grid(lambda x, s: constant_skew_tpd(x, s, alpha, +1),
                            np.linspace(-10, 11, 40001), [t])
        mass, mean, var, skew = grid.moments()[0]
        m_ref, v_ref, s_ref = sn_moments(sn_params(0.0, math.sqrt(t),
                                                          alpha * math.sqrt(t)))
        assert abs(mass - 1.0) < 1e-9
        assert abs(mean - m_ref) < 1e-7
        assert abs(var - v_ref) < 1e-7
        assert abs(skew - s_ref) < 1e-6

    def test_dirac_initial_condition(self):
        # mass in a fixed window around the origin tends to one as t -> 0
        def near_mass(t):
            val, _ = quad(lambda x: constant_skew_tpd(x, t, 1.0, +1),
                          -0.1, 0.1, points=[0.0], epsabs=1e-12, limit=200)
            return val

        masses = [near_mass(t) for t in (1e-2, 1e-3, 1e-4)]
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] > 1.0 - 1e-8


class TestFamilyTpd:
    def test_matches_constant_skew_form(self):
        fam = constant_skew_family(1.3, +1)
        xs = np.linspace(-4, 5, 51)
        assert_allclose(family_tpd(xs, 0.8, fam, 0.0),
                        constant_skew_tpd(xs, 0.8, 1.3, +1), rtol=1e-13)

    def test_matches_horizon_form_at_origin(self):
        fam = horizon_family(1.0, +1)
        xs = np.linspace(-3, 3, 31)
        assert_allclose(family_tpd(xs, 0.4, fam, 0.0),
                        horizon_tpd(xs, 0.4, 0.0, 1.0, +1), rtol=1e-12)

    def test_shifted_mass_is_one(self):
        fam = constant_skew_family(1.0, +1)
        for x0 in (-2.0, 1.5):
            mass = density_mass(lambda x, t: family_tpd(x, t, fam, x0), 1.0,
                                center=x0)
            assert abs(mass - 1.0) < 1e-9

    def test_unshifted_mass_deviates(self):
        fam = constant_skew_family(1.0, +1)
        mass = density_mass(lambda x, t: family_tpd_unshifted(x, t, fam, 1.5), 1.0,
                            center=1.5)
        assert abs(mass - 1.0) > 1e-3

    def test_unshifted_mass_at_origin_is_one(self):
        fam = constant_skew_family(1.0, +1)
        mass = density_mass(lambda x, t: family_tpd_unshifted(x, t, fam, 0.0), 1.0)
        assert abs(mass - 1.0) < 1e-9

    def test_unshifted_horizon_family_keeps_mass(self):
        # unit amplitude: the unshifted kernel is the exact law and stays normalized
        fam = horizon_family(1.0, +1)
        mass = density_mass(lambda x, t: family_tpd_unshifted(x, t, fam, 1.5), 0.5,
                            center=1.5)
        assert abs(mass - 1.0) < 1e-9


class TestCensoredPosterior:
    def test_uninformative_when_uncorrelated(self):
        xs = np.linspace(-4, 4, 41)
        assert_allclose(censored_posterior(xs, 0.7, 0.0), gauss(xs, 0, 0.7),
                        rtol=1e-13)

    def test_ramp_correlation_matches_horizon_law(self):
        T = 1.0
        xs = np.linspace(-4, 4, 81)
        for t in (0.25, 0.5, 0.75):
            rho = math.sqrt(t / T)
            assert_allclose(censored_posterior(xs, t, rho),
                            horizon_tpd(xs, t, 0.0, T, +1), rtol=1e-12)

    def test_mass(self):
        mass = density_mass(lambda x, t: censored_posterior(x, t, 0.6), 0.9)
        assert abs(mass - 1.0) < 1e-9

    def test_degenerate_correlation_rejected(self):
        with pytest.raises(ValueError):
            censored_posterior(0.0, 1.0, 1.0)


class TestOuReversalTpd:
    def test_matches_raw_ratio_form(self):
        xs = np.linspace(-6, 8, 101)
        for chir in (+1, -1):
            for t in (0.25, 1.0, 2.5):
                esn = ou_htransform_tpd(xs, t, 1.0, 0.4, chir)
                raw = ou_htransform_tpd_raw(xs, t, 1.0, 0.4, chir)
                assert np.max(np.abs(esn - raw)) < 1e-12

    def test_zero_start_is_skew_normal(self):
        lam, t = 0.7, 0.9
        xs = np.linspace(-6, 6, 61)
        s2 = (math.exp(2 * lam * t) - 1) / (2 * lam)
        shape = math.sqrt(math.exp(2 * lam * t) - 1)
        target = esn_pdf(xs, sn_params(0.0, math.sqrt(s2), shape))
        assert_allclose(ou_htransform_tpd(xs, t, lam, 0.0, +1), target, rtol=1e-12)

    def test_small_rate_approaches_brownian(self):
        lam, t, x0 = 1e-6, 0.8, 0.5
        xs = np.linspace(-4, 5, 61)
        q = ou_htransform_tpd(xs, t, lam, x0, +1)
        # at vanishing reversal the law tends to the Brownian kernel
        assert np.max(np.abs(q - gauss(xs, x0, t))) < 1e-2
        q2 = ou_htransform_tpd(xs, t, 1e-4, x0, +1)
        assert np.max(np.abs(q2 - gauss(xs, x0, t))) > np.max(np.abs(q - gauss(xs, x0, t)))

    def test_mass(self):
        for chir in (+1, -1):
            center = 0.4 * math.e
            mass = density_mass(lambda x, t: ou_htransform_tpd(x, t, 1.0, 0.4, chir),
                                1.0, lo=center - 25.0, hi=center + 25.0, center=center)
            assert abs(mass - 1.0) < 1e-9


class TestOuMoments:
    @pytest.mark.parametrize("rate,t,mean,var", [
        # 40 digits from mpmath at the doubles given, x0 = 1.3; at small
        # |rate| t the variance (exp(2 rate t) - 1)/(2 rate) cancels
        (-1e-6, 0.8, "1.299998960000416044297941477111970519931",
         "0.7999993600003413776056789356577235069665"),
        (-1e-4, 1.9, "1.299753023463513998321386441727025574336",
         "1.899639045722322874657565554617043174283"),
    ])
    def test_small_rate_against_frozen_values(self, rate, t, mean, var):
        m, v = _ou_moments(t, rate, 1.3)
        assert_allclose(m, float(mean), rtol=1e-14, atol=0)
        assert_allclose(v, float(var), rtol=1e-14, atol=0)


class TestSkewNoiseMarginal:
    def test_small_rate_matches_horizon_law(self):
        T = 2.0
        xs = np.linspace(-5, 5, 201)
        for t in (0.5, 1.0, 1.5):
            m = ou_skew_driven_marginal(xs, t, 1e-4, 0.0, T)
            target = horizon_tpd(xs, t, 0.0, T, +1)
            assert np.max(np.abs(m - target)) < 1e-3

    def test_mass(self):
        mass = density_mass(lambda x, t: ou_skew_driven_marginal(x, t, 1.0, 0.4, 2.0),
                            1.0)
        assert abs(mass - 1.0) < 1e-8

    def test_center_value_formula(self):
        # at x = m and x0 = 0 the cdf factor is exactly 1/2 of its range
        lam, t, T = 1.0, 1.0, 2.0
        s2 = (1 - math.exp(-2 * lam * t)) / (2 * lam)
        expect = 1.0 / math.sqrt(2 * math.pi * s2)
        assert_allclose(float(ou_skew_driven_marginal(0.0, t, lam, 0.0, T)),
                        expect, rtol=1e-13)


class TestChapmanKolmogorov:
    def test_brownian_kernel_exact(self):
        def tpd(x, t, xp, tp):
            return gauss(np.asarray(x, dtype=float), xp, t - tp)

        res = chapman_kolmogorov_residual(tpd, 0.0, 0.2, 0.5, 0.8,
                                          np.linspace(-2, 2, 5))
        assert res < 1e-10

    def test_horizon_kernel_is_semigroup(self):
        def tpd(x, t, xp, tp):
            return horizon_tpd_two_time(x, t, xp, tp, T=1.0, chirality=+1)

        res = chapman_kolmogorov_residual(tpd, 0.7, 0.2, 0.5, 0.8,
                                          np.linspace(-2, 2, 5))
        assert res < 1e-8

    def test_restart_kernel_fails(self):
        fam = constant_skew_family(1.0, +1)

        def naive(x, t, xp, tp):
            return restart_tpd(x, t, xp, tp, fam)

        res = chapman_kolmogorov_residual(naive, 1.5, 0.2, 0.5, 0.8,
                                          np.linspace(-2, 2, 5))
        assert res > 1e-3


class TestForwardEquationResiduals:
    def test_horizon_density_solves_forward_equation(self):
        from skewdiff import forward_residual
        T = 1.0
        fam = horizon_family(T, +1)
        spec = DriftSpec(family=fam)
        res = forward_residual(lambda x, t: horizon_tpd(x, t, 0.0, T, +1),
                               lambda x, t: drift_value(spec, x, t),
                               np.linspace(-3, 3, 25), np.linspace(0.2, 0.8, 7))
        assert res < 1e-6

    def test_constant_skew_density_needs_amplitude(self):
        from skewdiff import forward_residual
        fam = constant_skew_family(1.0, +1)
        spec = DriftSpec(family=fam)
        xs = np.linspace(-3, 3, 25)
        ts = np.linspace(0.3, 2.0, 7)
        res = forward_residual(lambda x, t: constant_skew_tpd(x, t, 1.0, +1),
                               lambda x, t: drift_value(spec, x, t), xs, ts)
        assert res < 1e-6
        # negative control: unit amplitude in place of the decaying one
        unit = DriftSpec(mu_fn=lambda x, t: drift_value(spec, x, t) / float(fam.psi(t)))
        res_bad = forward_residual(lambda x, t: constant_skew_tpd(x, t, 1.0, +1),
                                   lambda x, t: unit.mu(x, t), xs, ts)
        assert res_bad > 1e-3


class TestDensityGridBookkeeping:
    def test_mass_recorded(self):
        grid = density_grid(lambda x, t: constant_skew_tpd(x, t, 1.0, +1),
                            np.linspace(-9, 10, 2001), [0.5, 1.0])
        assert_allclose(grid.mass_per_t, 1.0, atol=1e-8)

    def test_shape_validation(self):
        from skewdiff import DensityGrid
        with pytest.raises(ValueError):
            DensityGrid(x_nodes=np.arange(4.0), t_nodes=np.arange(2.0),
                        values=np.zeros((3, 4)))

    def test_moments_match_the_per_slice_loop_bit_for_bit(self):
        from skewdiff import DensityGrid

        def per_slice(grid):
            # the reference: three trapezoids per time slice
            x, out = grid.x_nodes, []
            for row, mass in zip(grid.values, grid.mass_per_t):
                mean = np.trapezoid(row * x, x) / mass
                var = np.trapezoid(row * (x - mean) ** 2, x) / mass
                m3 = np.trapezoid(row * (x - mean) ** 3, x) / mass
                out.append((float(mass), float(mean), float(var), float(m3 / var**1.5)))
            return out

        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-6.0, 9.0, 733))
        grids = [density_grid(lambda x, t: constant_skew_tpd(x, t, 1.5, -1),
                              np.linspace(-9, 10, 2001), [0.1, 0.5, 1.0, 3.0]),
                 DensityGrid(x, np.arange(5.0), rng.exponential(size=(5, 733))),
                 DensityGrid(x[:3], np.arange(0.0), np.empty((0, 3)))]
        for grid in grids:
            assert grid.moments() == per_slice(grid)
