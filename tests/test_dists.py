"""Special functions and the skew-normal family vs quadrature oracles."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import skewnorm

from skewdiff import (ExtendedSkewNormalParams, esn_moments, esn_pdf,
                      half_normal_pdf, mills, sn_moments, std_normal_cdf)
from scipy.special import erfcx, ndtr

from skewdiff.dists import LOG_SQRT_2PI, MILLS_CUTOFF, esn_logpdf

SQRT_2PI = math.sqrt(2 * math.pi)


def sn_params(location, scale, shape):
    """The skew-normal law: the extended law at truncation 0."""
    return ExtendedSkewNormalParams(location, scale, shape, 0.0)


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


# phi(x)/Phi(x) to 40 digits (mpmath npdf/ncdf at 60 digits), where the
# value is a normal double; -5.000000000000001 is the double just below
# MILLS_CUTOFF = -5, so both branches are sampled next to the cutoff
MILLS_40_DIGITS = [
    (-40.0, "4.002496884720726372324487099536973575337e+1"),
    (-30.0, "3.003325966743367703707112410001225147464e+1"),
    (-20.0, "2.004975306852785054221402330872098860445e+1"),
    (-12.0, "1.208221417525428432981885083374623476208e+1"),
    (-8.0, "8.121368112236112680653520238905514653862"),
    (-6.5, "6.647301361190490691266412500790156790572"),
    (-5.5, "5.67141031389730562274961999674866329777"),
    (-5.000000000000001, "5.186503967125842974754661034075267793455"),
    (-5.0, "5.186503967125842115616508962005236720272"),
    (-4.5, "4.704319844827732403970005458622953541428"),
    (-3.0, "3.283098654930436506928092226812199827258"),
    (-2.0, "2.37321553282284086729903269082653501241"),
    (-1.0, "1.525135276160981209089090536390578713307"),
    (-0.5, "1.141077770368064480883882973261128518292"),
    (0.0, "7.978845608028653558798921198687637369517e-1"),
    (0.5, "5.09160433837033485827186132137527721971e-1"),
    (1.0, "2.875999709391783612286701273852172145023e-1"),
    (2.0, "5.524786267898995910230097255552393403623e-2"),
    (3.5, "8.728857536547359970182953910634401888311e-4"),
    (5.0, "1.486719940904905712441744119460570914237e-6"),
    (8.0, "5.052271083536895430948106737152236509669e-15"),
    (10.0, "7.6945986267064193463390922117524926457e-23"),
    (15.0, "5.530709549844416159161768220380836368684e-50"),
    (20.0, "5.520948362159763189582735682787000953833e-88"),
    (25.0, "7.653929736419392659649689886516383303972e-137"),
    (30.0, "1.47364613487854751904949326604507448706e-196"),
    (35.0, "3.940396277136024330690949355011546094956e-267"),
    (37.5, "1.72823373228410522075079284035982653234e-306"),
]


def _mills_rtol(x):
    """Twice the largest relative error measured at the table's points in
    x's range: the erfcx branch below the cutoff (1.7e-16), the exp/ndtr
    branch up to 8 (2.8e-15, at -5), and beyond, where the rounding of
    x^2 in the exponent grows (3.7e-14, at 37.5)."""
    if x < MILLS_CUTOFF:
        return 3.4e-16
    return 5.7e-15 if x <= 8.0 else 7.4e-14


class TestMills:
    def test_table_matches_mpmath(self):
        with mpmath.workdps(60):
            for x, ref in MILLS_40_DIGITS:
                exact = mpmath.npdf(x) / mpmath.ncdf(x)
                assert abs(exact / mpmath.mpf(ref) - 1) < mpmath.mpf("1e-39")

    @pytest.mark.parametrize("x,ref", MILLS_40_DIGITS)
    def test_relative_error(self, x, ref):
        with mpmath.workdps(40):
            ref = mpmath.mpf(ref)
            for got in (mills(x), mills(np.array([x]))[0]):
                assert float(abs(mpmath.mpf(float(got)) / ref - 1)) <= _mills_rtol(x)

    def test_continuous_across_the_cutoff(self):
        below = np.nextafter(MILLS_CUTOFF, -np.inf)
        at, under = mills(MILLS_CUTOFF), mills(below)
        # the true step is +1.7e-16 relative; the exp/ndtr branch's own
        # error at -5 (2.8e-15) makes the measured jump -2.7e-15
        assert abs(under - at) <= 5.5e-15 * at
        assert_allclose(mills(np.array([below, MILLS_CUTOFF])), [under, at], rtol=0)

    @pytest.mark.parametrize("x", [0.3, -7.0, np.float64(0.3), np.array(-7.0), 2,
                                   np.array([1.5])[0]])
    def test_scalar_is_a_python_float(self, x):
        assert type(mills(x)) is float

    def test_scalar_matches_array_bits(self):
        xs = np.array([x for x, _ in MILLS_40_DIGITS] + [-1e6, 38.6, 40.0, 1e6])
        assert np.array_equal(mills(xs), [mills(float(x)) for x in xs])

    def test_no_runtime_warning(self):
        xs = np.concatenate([np.linspace(-1e6, 1e6, 200_001),
                             [-1e3, -39.0, -38.5, -5.0, 38.6, 40.0, 1e3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = mills(xs)
            for x in (-1e6, -39.0, 38.6, 1e6, np.float64(1e200)):
                mills(x)
        assert np.all(np.isfinite(m)) and np.all(m >= 0)
        assert m[0] > 1e6 and m[-1] == 0.0

    def test_non_increasing_on_a_dense_grid(self):
        xs = np.linspace(-40.0, 38.0, 2_000_001)
        assert np.all(np.diff(mills(xs)) <= 0)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(a=st.floats(-40.0, 38.0), b=st.floats(-40.0, 38.0))
    def test_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert mills(lo) >= mills(hi)


def _mills_one_pass(x):
    """mills' array form as one pass over every element: clipped to
    [MILLS_CUTOFF, 40], exp/ndtr on all of it, then the tail overwritten
    with the erfcx branch."""
    x = np.asarray(x, dtype=float)
    u = np.maximum(x, MILLS_CUTOFF)
    np.minimum(u, 40.0, out=u)
    q = u * u
    q *= -0.5
    q -= LOG_SQRT_2PI
    np.exp(q, out=q)
    q /= ndtr(u, out=u)
    if x.size and not x.min() >= MILLS_CUTOFF:
        tail = x < MILLS_CUTOFF
        q[tail] = math.sqrt(2 / math.pi) / erfcx(-x[tail] / math.sqrt(2))
    return q


# tail and body elements, the specials, and the doubles around both ends
# of the exp/ndtr branch's clip
_MILLS_ELEMENTS = st.one_of(
    st.floats(-60.0, 60.0),
    st.floats(-5.0000001, -4.9999999),
    st.floats(39.9999, 40.0001),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, MILLS_CUTOFF,
                     float(np.nextafter(MILLS_CUTOFF, -np.inf)),
                     float(np.nextafter(MILLS_CUTOFF, np.inf)), 40.0,
                     float(np.nextafter(40.0, np.inf)), -1e300, 1e300]))


class TestMillsSplit:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                     max_side=12),
                        elements=_MILLS_ELEMENTS))
    def test_matches_the_one_pass_form_bit_for_bit(self, x):
        got = mills(x)
        # the reference divides by erfcx(inf) = 0 at -inf, giving its limit inf
        with np.errstate(divide="ignore"):
            want = _mills_one_pass(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_minus_infinity_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mills(float("-inf")) == math.inf
            got = mills(np.array([-np.inf, 0.0]))
        assert got[0] == math.inf and got[1] == mills(0.0)

    def test_mixed_rows_match_the_one_pass_form(self):
        # a 2-D block as the solver passes it: tail and body in every row
        x = np.multiply.outer(np.array([-2.0, 0.5, 3.0]), np.linspace(-10, 10, 1001))
        x[1, 7] = math.nan
        assert mills(x).tobytes() == _mills_one_pass(x).tobytes()


class TestSkewNormalPdf:
    def test_zero_shape_is_gaussian(self):
        p = sn_params(0.0, 1.0, 0.0)
        xs = np.linspace(-5, 5, 41)
        assert_allclose(esn_pdf(xs, p), np.exp(-xs**2 / 2) / SQRT_2PI, rtol=1e-14)

    def test_value_at_origin_any_shape(self):
        for shape in (-7.0, -1.0, 0.5, 4.0):
            p = sn_params(0.0, 1.0, shape)
            assert_allclose(esn_pdf(0.0, p), 1.0 / SQRT_2PI, rtol=1e-14)

    @pytest.mark.parametrize("shape", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_unit_mass(self, shape):
        p = sn_params(0.3, 1.7, shape)
        mass, _ = quad(lambda x: esn_pdf(x, p), 0.3 - 12 * 1.7, 0.3 + 12 * 1.7,
                       epsabs=1e-12, limit=200)
        assert abs(mass - 1.0) < 1e-10

    def test_chirality_mirror(self):
        xs = np.linspace(-4, 4, 31)
        a = esn_pdf(xs, sn_params(0.0, 1.3, 2.0))
        b = esn_pdf(-xs, sn_params(0.0, 1.3, -2.0))
        assert_allclose(a, b, rtol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("loc,scale,shape", [
        (0.0, 1.0, 1.0), (0.3, 1.7, 2.5), (-1.2, 0.6, 7.0), (2.0, 3.0, 0.5)])
    def test_matches_scipy_skewnorm(self, loc, scale, shape, sign):
        # independent code; below 1e-250 its own tail loses relative accuracy
        xs = np.linspace(-8, 10, 1801)
        ref = skewnorm.pdf(xs, sign * shape, loc=loc, scale=scale)
        keep = ref > 1e-250
        q = esn_pdf(xs, sn_params(loc, scale, sign * shape))
        assert_allclose(q[keep], ref[keep], rtol=1e-12, atol=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            sn_params(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sn_params(0.0, -1.0, 1.0)


class TestSkewNormalMoments:
    def test_zero_shape(self):
        assert sn_moments(sn_params(0.7, 2.0, 0.0)) == (0.7, 4.0, 0.0)

    def test_rejects_nonzero_truncation(self):
        with pytest.raises(ValueError):
            sn_moments(ExtendedSkewNormalParams(0.0, 1.0, 1.0, 0.5))

    def test_half_normal_limit(self):
        mean, _, _ = sn_moments(sn_params(0.0, 1.0, 1e9))
        assert_allclose(mean, math.sqrt(2 / math.pi), rtol=1e-9)

    def test_unit_shape_mean_vs_quadrature(self):
        p = sn_params(0.0, 1.0, 1.0)
        oracle, _ = quad(lambda x: x * esn_pdf(x, p), -12, 12, epsabs=1e-14, limit=200)
        assert_allclose(oracle, 0.5641895835477566, rtol=1e-12)
        assert_allclose(sn_moments(p)[0], oracle, atol=1e-12)

    @pytest.mark.parametrize("shape", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_all_moments_vs_quadrature(self, shape):
        p = sn_params(0.4, 1.2, shape)
        lo, hi = 0.4 - 15 * 1.2, 0.4 + 15 * 1.2
        m0 = quad(lambda x: esn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0]
        m1 = quad(lambda x: x * esn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        m2 = quad(lambda x: (x - m1) ** 2 * esn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        m3 = quad(lambda x: (x - m1) ** 3 * esn_pdf(x, p), lo, hi, epsabs=1e-13, limit=300)[0] / m0
        mean, var, skew = sn_moments(p)
        assert abs(mean - m1) < 1e-8
        assert abs(var - m2) < 1e-8
        assert abs(skew - m3 / m2**1.5) < 1e-8


class TestExtendedSkewNormal:
    def test_zero_truncation_reduces_to_sn(self):
        xs = np.linspace(-6, 6, 61)
        esn = esn_pdf(xs, ExtendedSkewNormalParams(0.2, 1.1, 1.5, 0.0))
        z = (xs - 0.2) / 1.1
        sn = 2.0 / 1.1 * np.exp(-z * z / 2) / SQRT_2PI * std_normal_cdf(1.5 * z)
        assert_allclose(esn, sn, rtol=1e-14)

    def test_zero_shape_is_gaussian(self):
        xs = np.linspace(-5, 5, 41)
        p = ExtendedSkewNormalParams(0.0, 1.0, 0.0, 2.7)
        assert_allclose(esn_pdf(xs, p), np.exp(-xs**2 / 2) / SQRT_2PI, rtol=1e-13)

    def test_zero_shape_far_from_its_location_is_zero(self):
        # z = (x - location)/scale overflows to -inf, where 0 * z would be nan
        p = ExtendedSkewNormalParams(8.8e307, 0.33, 0.0, 0.0)
        with np.errstate(over="ignore"):
            assert esn_pdf(-5.0, p) == 0.0
            assert np.array_equal(esn_pdf(np.array([-5.0, -6.0]), p), [0.0, 0.0])

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(xs=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4),
           loc=st.floats(-1e150, 1e150), scale=st.floats(1e-3, 1e3),
           trunc=st.floats(-50.0, 50.0))
    def test_zero_shape_keeps_its_bits_at_finite_z(self, xs, loc, scale, trunc):
        # the form before shape 0 took the truncation itself
        p = ExtendedSkewNormalParams(loc, scale, 0.0, trunc)
        z = (np.array(xs) - loc) / scale
        old = (-math.log(scale) + (-0.5 * z * z - LOG_SQRT_2PI)
               + log_ndtr(trunc + 0.0 * z) - log_ndtr(trunc / math.sqrt(1.0 + 0.0 * 0.0)))
        assert esn_logpdf(np.array(xs), p).tobytes() == old.tobytes()
        for x, want in zip(xs, old):
            assert np.float64(esn_logpdf(x, p)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("trunc", [-2.0, 0.5, 3.0])
    def test_unit_mass(self, trunc):
        p = ExtendedSkewNormalParams(0.0, 1.0, 2.0, trunc)
        mass, _ = quad(lambda x: esn_pdf(x, p), -14, 14, epsabs=1e-12, limit=300)
        assert abs(mass - 1.0) < 1e-9

    @pytest.mark.parametrize("shape", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("trunc", [-20.0, -6.0, 0.0, 3.0])
    def test_moments_vs_quadrature(self, trunc, shape):
        # a 800001-node trapezoid over location +- 40 scale: at truncation
        # -20 and shape 1 the mass sits about 10 scales off the location
        p = ExtendedSkewNormalParams(0.3, 1.7, shape, trunc)
        xs = np.linspace(0.3 - 40 * 1.7, 0.3 + 40 * 1.7, 800_001)
        q = esn_pdf(xs, p)
        m0 = np.trapezoid(q, xs)
        m1 = np.trapezoid(xs * q, xs) / m0
        m2 = np.trapezoid((xs - m1) ** 2 * q, xs) / m0
        mean, var = esn_moments(p)
        # measured: 8.4e-15 scales for the mean, 3.2e-13 relative for the variance
        assert abs(m0 - 1.0) < 1e-12
        assert abs(mean - m1) < 1e-12 * 1.7
        assert abs(var - m2) < 1e-12 * var


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
