"""Special functions and the skew-normal family vs quadrature oracles."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import skewnorm

from skewdiff import (ExtendedSkewNormalParams, SkewNormalParams, esn_pdf,
                      half_normal_pdf, log_mills, mills, raw_gauss_integral,
                      sn_moments, sn_pdf, std_normal_cdf)

SQRT_2PI = math.sqrt(2 * math.pi)


def gauss_pdf(x):
    return math.exp(-0.5 * x * x) / SQRT_2PI


def cdf_oracle(x):
    # 30-digit quadrature of the Gaussian pdf over (-inf, x]
    with mpmath.workdps(30):
        val = mpmath.quad(lambda s: mpmath.exp(-s * s / 2), [-mpmath.inf, x])
        return float(val / mpmath.sqrt(2 * mpmath.pi))


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_total_mass_limit(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-40.0) < 1e-300

    def test_against_quadrature(self):
        # oracle: quadrature of the pdf; frozen value for x = 1
        assert_allclose(cdf_oracle(1.0), 0.8413447460685429, rtol=1e-13)
        for x in (-3.0, -1.0, -0.3, 0.7, 1.0, 2.5):
            assert_allclose(std_normal_cdf(x), cdf_oracle(x), rtol=1e-14)

    def test_monotone(self):
        xs = np.linspace(-10, 10, 401)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0)


class TestLogMills:
    def test_at_zero_vs_quadrature(self):
        # phi(0)/Phi(0) = 2*phi(0) = sqrt(2/pi); frozen from the oracle
        oracle = math.log(gauss_pdf(0.0) / cdf_oracle(0.0))
        assert_allclose(oracle, -0.22579135264472738, rtol=1e-13)
        assert_allclose(log_mills(0.0), oracle, rtol=1e-14)

    def test_left_tail_asymptote(self):
        # phi/Phi ~ -x as x -> -inf
        for x in (-50.0, -200.0, -1e4):
            assert abs(log_mills(x) - math.log(-x)) < 1.0 / x**2 * 2

    def test_deep_tail_against_series(self):
        # asymptotic series of the ratio at x = -30: x/(1 - 1/x^2 + 3/x^4 - ...)
        x = 30.0
        series = x / (1 - 1 / x**2 + 3 / x**4 - 15 / x**6 + 105 / x**8)
        assert abs(log_mills(-x) - math.log(series)) < 1e-10

    def test_matches_naive_ratio_in_bulk(self):
        for x in (-5.0, -1.0, 0.0, 1.0, 3.0):
            naive = math.log(gauss_pdf(x) / cdf_oracle(x))
            assert_allclose(log_mills(x), naive, rtol=1e-12)

    def test_monotone_decreasing_and_bounds(self):
        xs = np.linspace(-40, 8, 301)
        lm = log_mills(xs)
        assert np.all(np.diff(lm) < 0)
        assert np.all(np.exp(lm) > np.maximum(0.0, -xs))

    def test_finite_everywhere(self):
        xs = np.array([-1e6, -40.0, 0.0, 35.0, 100.0])
        assert np.all(np.isfinite(log_mills(xs)))

    def test_continuous_across_the_branch_at_8(self):
        below, above = log_mills(8.0), log_mills(np.nextafter(8.0, 9.0))
        # the true step over one ulp is about -8 * 1.8e-15
        assert abs(above - below) < 1e-13

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(x=st.floats(6.0, 10.0))
    def test_both_branches_agree_near_8(self, x):
        # mills is one erfcx evaluation with no branch
        assert abs(log_mills(x) - math.log(mills(x))) < 1e-13


class TestMills:
    def test_non_increasing_on_a_dense_grid(self):
        xs = np.linspace(-40.0, 38.0, 2_000_001)
        assert np.all(np.diff(mills(xs)) <= 0)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(a=st.floats(-40.0, 38.0), b=st.floats(-40.0, 38.0))
    def test_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert mills(lo) >= mills(hi)


class TestSkewNormalPdf:
    def test_zero_shape_is_gaussian(self):
        p = SkewNormalParams(0.0, 1.0, 0.0)
        xs = np.linspace(-5, 5, 41)
        assert_allclose(sn_pdf(xs, p), np.exp(-xs**2 / 2) / SQRT_2PI, rtol=1e-14)

    def test_value_at_origin_any_shape(self):
        for shape in (-7.0, -1.0, 0.5, 4.0):
            p = SkewNormalParams(0.0, 1.0, shape)
            assert_allclose(sn_pdf(0.0, p), 1.0 / SQRT_2PI, rtol=1e-14)

    @pytest.mark.parametrize("shape", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_unit_mass(self, shape):
        p = SkewNormalParams(0.3, 1.7, shape)
        mass, _ = quad(lambda x: sn_pdf(x, p), 0.3 - 12 * 1.7, 0.3 + 12 * 1.7,
                       epsabs=1e-12, limit=200)
        assert abs(mass - 1.0) < 1e-10

    def test_chirality_mirror(self):
        xs = np.linspace(-4, 4, 31)
        a = sn_pdf(xs, SkewNormalParams(0.0, 1.3, 2.0))
        b = sn_pdf(-xs, SkewNormalParams(0.0, 1.3, -2.0))
        assert_allclose(a, b, rtol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("loc,scale,shape", [
        (0.0, 1.0, 1.0), (0.3, 1.7, 2.5), (-1.2, 0.6, 7.0), (2.0, 3.0, 0.5)])
    def test_matches_scipy_skewnorm(self, loc, scale, shape, sign):
        # independent code; below 1e-250 its own tail loses relative accuracy
        xs = np.linspace(-8, 10, 1801)
        ref = skewnorm.pdf(xs, sign * shape, loc=loc, scale=scale)
        keep = ref > 1e-250
        for q in (sn_pdf(xs, SkewNormalParams(loc, scale, sign * shape)),
                  esn_pdf(xs, ExtendedSkewNormalParams(loc, scale, sign * shape, 0.0))):
            assert_allclose(q[keep], ref[keep], rtol=1e-12, atol=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            SkewNormalParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SkewNormalParams(0.0, -1.0, 1.0)


class TestSkewNormalMoments:
    def test_zero_shape(self):
        assert sn_moments(SkewNormalParams(0.7, 2.0, 0.0)) == (0.7, 4.0, 0.0)

    def test_half_normal_limit(self):
        mean, _, _ = sn_moments(SkewNormalParams(0.0, 1.0, 1e9))
        assert_allclose(mean, math.sqrt(2 / math.pi), rtol=1e-9)

    def test_unit_shape_mean_vs_quadrature(self):
        p = SkewNormalParams(0.0, 1.0, 1.0)
        oracle, _ = quad(lambda x: x * sn_pdf(x, p), -12, 12, epsabs=1e-14, limit=200)
        assert_allclose(oracle, 0.5641895835477566, rtol=1e-12)
        assert_allclose(sn_moments(p)[0], oracle, atol=1e-12)

    @pytest.mark.parametrize("shape", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_all_moments_vs_quadrature(self, shape):
        p = SkewNormalParams(0.4, 1.2, shape)
        lo, hi = 0.4 - 15 * 1.2, 0.4 + 15 * 1.2
        m0 = quad(lambda x: sn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0]
        m1 = quad(lambda x: x * sn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        m2 = quad(lambda x: (x - m1) ** 2 * sn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        m3 = quad(lambda x: (x - m1) ** 3 * sn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        mean, var, skew = sn_moments(p)
        assert abs(mean - m1) < 1e-8
        assert abs(var - m2) < 1e-8
        assert abs(skew - m3 / m2**1.5) < 1e-8


class TestExtendedSkewNormal:
    def test_zero_truncation_reduces_to_sn(self):
        xs = np.linspace(-6, 6, 61)
        esn = esn_pdf(xs, ExtendedSkewNormalParams(0.2, 1.1, 1.5, 0.0))
        sn = sn_pdf(xs, SkewNormalParams(0.2, 1.1, 1.5))
        assert_allclose(esn, sn, rtol=1e-14)

    def test_zero_shape_is_gaussian(self):
        xs = np.linspace(-5, 5, 41)
        p = ExtendedSkewNormalParams(0.0, 1.0, 0.0, 2.7)
        assert_allclose(esn_pdf(xs, p), np.exp(-xs**2 / 2) / SQRT_2PI, rtol=1e-13)

    @pytest.mark.parametrize("trunc", [-2.0, 0.5, 3.0])
    def test_unit_mass(self, trunc):
        p = ExtendedSkewNormalParams(0.0, 1.0, 2.0, trunc)
        mass, _ = quad(lambda x: esn_pdf(x, p), -14, 14, epsabs=1e-12, limit=300)
        assert abs(mass - 1.0) < 1e-9


class TestHalfNormal:
    def test_unit_mass_on_support(self):
        mass, _ = quad(lambda x: half_normal_pdf(x, 2.0, 0.5, +1), 0.5, 0.5 + 20,
                       epsabs=1e-12, limit=200)
        assert abs(mass - 1.0) < 1e-10

    def test_zero_off_support(self):
        assert half_normal_pdf(-0.1, 1.0, 0.0, +1) == 0.0
        assert half_normal_pdf(0.1, 1.0, 0.0, -1) == 0.0

    def test_mode_value(self):
        v = 1.7
        assert_allclose(half_normal_pdf(0.0, v, 0.0, +1),
                        math.sqrt(2 / (math.pi * v)), rtol=1e-14)


class TestRawGaussIntegral:
    def test_half_mass(self):
        assert_allclose(raw_gauss_integral(0.0), SQRT_2PI / 2, rtol=1e-15)

    def test_full_mass(self):
        assert_allclose(raw_gauss_integral(40.0), SQRT_2PI, rtol=1e-15)

    def test_at_one(self):
        assert_allclose(raw_gauss_integral(1.0), SQRT_2PI * 0.8413447460685429,
                        rtol=1e-13)

    def test_prefactor_equality(self):
        # 1/(pi sqrt(t)) * raw integral == 2/sqrt(2 pi t) * cdf, algebraically
        t = 0.37
        x = 1.234
        lhs = raw_gauss_integral(x) / (math.pi * math.sqrt(t))
        rhs = 2.0 / math.sqrt(2 * math.pi * t) * std_normal_cdf(x)
        assert_allclose(lhs, rhs, rtol=1e-15)
