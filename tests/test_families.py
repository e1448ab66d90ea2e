"""Drift-family system: closed forms, the quadrature solver, drift values."""
import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from skewdiff import (DriftSpec, HorizonError, OuSkewSpec, SchemaError, amplitude_from_family,
                      constant_correlation_family, constant_skew_family,
                      drift_value, family_from_amplitude,
                      family_from_descriptor, horizon_family, mills,
                      ode_residual)
from skewdiff import families
from skewdiff.families import drift_spec_from_descriptor

SQRT_2_OVER_PI = math.sqrt(2 / math.pi)


class TestHorizonFamily:
    def test_alpha_closed_form(self):
        fam = horizon_family(10.0, +1)
        assert_allclose(float(fam.alpha(9.0)), 1.0, rtol=1e-15)

    def test_alpha_diverges_at_horizon(self):
        fam = horizon_family(1.0, +1)
        assert float(fam.alpha(1.0 - 1e-12)) > 1e5

    def test_unit_amplitude(self):
        fam = horizon_family(5.0, +1)
        ts = np.linspace(0.0, 4.99, 23)
        assert_allclose(fam.psi(ts), 1.0)

    def test_horizon_exact(self):
        assert horizon_family(3.5, -1).validity_horizon == 3.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            horizon_family(0.0, +1)


class TestConstantSkewFamily:
    def test_amplitude_at_zero(self):
        fam = constant_skew_family(1.0, +1)
        assert float(fam.psi(0.0)) == 1.0

    def test_amplitude_at_one(self):
        fam = constant_skew_family(1.0, +1)
        assert_allclose(float(fam.psi(1.0)), 0.75, rtol=1e-15)

    def test_amplitude_late_limit(self):
        fam = constant_skew_family(2.0, +1)
        assert_allclose(float(fam.psi(1e9)), 0.5, atol=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_amplitude_where_a2t_overflows(self):
        # (2 + a2 t) / (2 (1 + a2 t)) is inf / inf there; its limit is 1/2
        for alpha, t in ((1e200, 1.0), (2.0, 1e308)):
            fam = constant_skew_family(alpha, +1)
            assert fam.psi(t) == 0.5
            assert np.array_equal(fam.psi(np.array([t, 0.5 * t])), [0.5, 0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_amplitude_where_a2_overflows(self):
        # a2 itself is inf above alpha ~ 1.34e154; capped at the largest
        # double, a2 * 0 is 0, so psi(0) is 1 rather than inf * 0 = nan
        fam = constant_skew_family(1e200, +1)
        assert fam.psi(0.0) == 1.0
        assert fam.psi(1.0) == 0.5
        assert np.array_equal(fam.psi(np.array([0.0, 1.0])), [1.0, 0.5])
        assert np.array_equal(fam.psi(np.array([[0.0], [2.0]])), [[1.0], [0.5]])

    def test_amplitude_bits_where_a2t_is_finite(self):
        a2 = 2.0 * 2.0
        ts = np.concatenate([[0.0], np.geomspace(1e-300, 4e307, 97)])
        raw = 0.5 * (2.0 + a2 * ts) / (1.0 + a2 * ts)
        fam = constant_skew_family(2.0, +1)
        assert np.array_equal(fam.psi(ts), raw)
        assert all(fam.psi(float(t)) == r for t, r in zip(ts, raw))

    def test_infinite_horizon(self):
        assert constant_skew_family(1.0, +1).validity_horizon == math.inf

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constant_skew_family(-1.0, +1)


class TestConstantCorrelationFamily:
    def test_zero_correlation_is_brownian(self):
        fam = constant_correlation_family(0.0, +1)
        assert_allclose(fam.alpha(np.array([0.3, 1.0, 7.0])), 0.0)

    def test_half_amplitude(self):
        fam = constant_correlation_family(0.5, +1)
        assert_allclose(fam.psi(np.array([0.1, 2.0])), 0.5)

    def test_unit_alpha_at_unit_time(self):
        # C/sqrt(1 - C^2) = 1 at C = 1/sqrt(2)
        fam = constant_correlation_family(1 / math.sqrt(2), +1)
        assert_allclose(float(fam.alpha(1.0)), 1.0, rtol=1e-14)

    def test_rejects_unit_correlation(self):
        with pytest.raises(ValueError):
            constant_correlation_family(1.0, +1)


class TestAmplitudeSolver:
    def test_recovers_horizon_family(self):
        T = 1.0
        num = family_from_amplitude(lambda t: 1.0, 1 / math.sqrt(T), +1,
                                    np.linspace(0.01, 0.995, 60))
        fam = horizon_family(T, +1)
        ts = np.linspace(0.01, 0.99, 120)
        assert np.max(np.abs(num.alpha(ts) - fam.alpha(ts))) < 1e-10

    def test_recovers_constant_skew(self):
        a = 1.0
        fam = constant_skew_family(a, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), a, +1,
                                    np.linspace(0.01, 5.0, 60))
        ts = np.linspace(0.01, 4.95, 120)
        assert np.max(np.abs(num.alpha(ts) - a)) < 1e-8

    def test_recovers_constant_correlation(self):
        C = 0.6
        fam = constant_correlation_family(C, +1)
        num = family_from_amplitude(lambda t: 0.5, C, +1, np.linspace(0.01, 5.0, 60))
        ts = np.linspace(0.02, 4.9, 120)
        assert np.max(np.abs(num.alpha(ts) - fam.alpha(ts))) < 1e-10

    def test_horizon_detection(self):
        num = family_from_amplitude(lambda t: 1.0, 1.0, +1,
                                    np.linspace(0.01, 0.995, 50))
        assert_allclose(num.validity_horizon, 1.0, atol=1e-9)

    def test_amplitude_round_trip(self):
        a = 1.3
        fam = constant_skew_family(a, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), a, +1,
                                    np.linspace(0.01, 5.0, 60))
        ts = np.linspace(0.05, 4.5, 80)
        back = amplitude_from_family(num, ts)
        assert np.max(np.abs(back - fam.psi(ts))) < 1e-8

    def test_rejects_negative_constant(self):
        with pytest.raises(ValueError):
            family_from_amplitude(lambda t: 1.0, -0.5, +1, np.linspace(0.01, 1, 10))

    def test_evaluation_beyond_horizon_raises(self):
        num = family_from_amplitude(lambda t: 1.0, 2.0, +1,
                                    np.linspace(0.001, 0.9, 40))
        # horizon at 1/C^2 = 0.25
        assert_allclose(num.validity_horizon, 0.25, atol=1e-10)
        with pytest.raises(HorizonError):
            num.alpha(0.3)


class TestEvolutionEquation:
    @pytest.mark.parametrize("fam,span", [
        (horizon_family(1.0, +1), (0.05, 0.8)),
        (horizon_family(2.0, -1), (0.1, 1.6)),
        (constant_skew_family(1.0, +1), (0.05, 4.0)),
        (constant_skew_family(2.5, -1), (0.05, 4.0)),
        (constant_correlation_family(0.7, +1), (0.05, 4.0)),
    ])
    def test_closed_families_satisfy_ode(self, fam, span):
        ts = np.linspace(*span, 50)
        assert np.max(np.abs(ode_residual(fam, ts))) < 1e-6

    def test_numeric_family_satisfies_ode(self):
        fam = constant_skew_family(1.0, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), 1.0, +1,
                                    np.linspace(0.01, 5.0, 60))
        ts = np.linspace(0.05, 4.5, 50)
        assert np.max(np.abs(ode_residual(num, ts))) < 1e-6


class TestDriftValue:
    def test_horizon_drift_at_origin(self):
        fam = horizon_family(10.0, +1)
        spec = DriftSpec(family=fam)
        for t in (0.5, 5.0, 9.0):
            expect = float(fam.psi(t)) * float(fam.alpha(t)) * SQRT_2_OVER_PI
            assert_allclose(float(drift_value(spec, 0.0, t)), expect, rtol=1e-13)

    def test_mirror_antisymmetry(self):
        plus = DriftSpec(family=constant_skew_family(1.5, +1))
        minus = DriftSpec(family=constant_skew_family(1.5, -1))
        xs = np.linspace(-6, 6, 41)
        assert_allclose(drift_value(minus, xs, 0.7), -drift_value(plus, -xs, 0.7),
                        rtol=1e-13)

    def test_linear_restoring_asymptote(self):
        fam = constant_skew_family(1.0, +1)
        spec = DriftSpec(family=fam)
        t = 1.0
        x = -60.0
        target = -float(fam.psi(t)) * 1.0**2 * x
        assert abs(float(drift_value(spec, x, t)) / target - 1.0) < 1e-3

    def test_finite_on_wide_lattice(self):
        fam = horizon_family(1.0, +1)
        spec = DriftSpec(family=fam)
        xs = np.linspace(-50, 50, 101)
        for t in (0.1, 0.5, 0.9, 0.999):
            assert np.all(np.isfinite(drift_value(spec, xs, t)))

    def test_horizon_violation_raises(self):
        spec = DriftSpec(family=horizon_family(1.0, +1))
        with pytest.raises(HorizonError):
            drift_value(spec, 0.0, 1.0)

    def test_shift_applied_for_horizon_kind(self):
        # the h-transform by Phi(alpha_t (x - shift)) is still space-time
        # harmonic for Brownian motion, so the horizon drift takes a shift
        fam = horizon_family(1.0, +1)
        spec = DriftSpec(family=fam, shift=2.0)
        xs = np.linspace(-3, 3, 13)
        assert_allclose(drift_value(spec, xs + 2.0, 0.8),
                        drift_value(DriftSpec(family=fam), xs, 0.8), rtol=1e-14)

    def test_shift_applied_for_horizon_family_of_any_kind(self):
        # a descriptor's "general" kind names the drift of whatever family it holds
        spec = drift_spec_from_descriptor({"kind": "general", "shift": 1.5,
                                           "family": horizon_family(1.0).descriptor()})
        assert (spec.kind, spec.shift) == ("horizon", 1.5)

    def test_shift_applied_for_general_kind(self):
        fam = constant_skew_family(1.0, +1)
        spec = drift_spec_from_descriptor({"kind": "general", "shift": 1.5,
                                           "family": fam.descriptor()})
        assert spec.kind == "constant_skew"
        base = DriftSpec(family=fam, shift=0.0)
        xs = np.linspace(-3, 3, 13)
        assert_allclose(drift_value(spec, xs + 1.5, 0.8), drift_value(base, xs, 0.8),
                        rtol=1e-14)

    def test_diffusion_scale(self):
        # Y = shift + sigma X: the drift is sigma * mu((y - shift) / sigma)
        fam = constant_skew_family(1.0, +1)
        sigma, shift = 2.0, 0.3
        spec = DriftSpec(family=fam, shift=shift, diffusion_scale=sigma)
        t, x = 0.5, 0.9
        expect = sigma * float(fam.psi(t)) * 1.0 * float(mills(1.0 * (x - shift) / sigma))
        assert_allclose(float(drift_value(spec, x, t)), expect, rtol=1e-14)
        ou = DriftSpec(ou=OuSkewSpec(1.0, -1), diffusion_scale=sigma)
        unit = DriftSpec(ou=OuSkewSpec(1.0, -1))
        assert_allclose(drift_value(ou, x, t), sigma * drift_value(unit, x / sigma, t),
                        rtol=1e-14)

    def test_derived_kind(self):
        assert DriftSpec(family=horizon_family(1.0)).kind == "horizon"
        assert DriftSpec(ou=OuSkewSpec(1.0, 1)).kind == "ou_htransform"
        assert DriftSpec(mu_fn=lambda x, t: x).kind == "custom"
        # an explicit kind is only a check against the definition
        assert DriftSpec(kind="horizon", family=horizon_family(1.0)).kind == "horizon"
        for bad in (lambda: DriftSpec(kind="general", family=horizon_family(1.0)),
                    lambda: DriftSpec(kind="custom"), lambda: DriftSpec()):
            with pytest.raises(SchemaError):
                bad()
        with pytest.raises(SchemaError):
            drift_spec_from_descriptor({"kind": "horizon",
                                        "family": constant_skew_family(1.0).descriptor()})

    def test_time_free_is_derived(self, monkeypatch):
        ou = DriftSpec(ou=OuSkewSpec(1.0, -1))
        assert ou.time_free
        assert not DriftSpec(family=constant_skew_family(1.0)).time_free
        assert not DriftSpec(mu_fn=lambda x, t: x).time_free
        with pytest.raises(AttributeError):
            ou.time_free = False
        with pytest.raises(TypeError):
            DriftSpec(mu_fn=lambda x, t: x, time_free=True)
        # the rate was checked once, when the OuSkewSpec was built; evaluation
        # builds nothing
        monkeypatch.setattr(families, "OuSkewSpec", None)
        assert drift_value(ou, 0.5, 0.1) == drift_value(ou, 0.5, 7.0)

    @pytest.mark.parametrize("kwargs", [
        dict(family=constant_skew_family(1.0), mu_fn=lambda x, t: x),
        dict(family=constant_skew_family(1.0), ou=OuSkewSpec(1.0, 1)),
        dict(mu_fn=lambda x, t: x, ou=OuSkewSpec(1.0, 1)),
        dict(mu_fn=lambda x, t: x, shift=0.5)],
        ids=["family+mu_fn", "family+ou", "mu_fn+ou", "mu_fn+shift"])
    def test_exactly_one_drift_source(self, kwargs):
        # a second source was dropped without a word
        with pytest.raises(SchemaError):
            DriftSpec(**kwargs)

    def test_custom_drift(self):
        spec = DriftSpec(mu_fn=lambda x, t: -2.0 * x)
        assert_allclose(drift_value(spec, np.array([1.0, -3.0]), 0.1),
                        np.array([-2.0, 6.0]))


# each closed-form family with the times it is evaluated at: the horizon
# family below its horizon, the constant-correlation family from 1e-6 on,
# since its skewness diverges at the origin
SCALAR_CASES = {
    "horizon+": (horizon_family(1.5, +1), st.floats(0.0, 1.5, exclude_max=True)),
    "horizon-": (horizon_family(0.8, -1), st.floats(0.0, 0.8, exclude_max=True)),
    "constant_skew+": (constant_skew_family(1.3, +1), st.floats(0.0, 100.0)),
    "constant_skew-": (constant_skew_family(0.4, -1), st.floats(0.0, 100.0)),
    "constant_correlation+": (constant_correlation_family(0.6, +1),
                              st.floats(1e-6, 100.0)),
    "constant_correlation-": (constant_correlation_family(0.3, -1),
                              st.floats(1e-6, 100.0)),
}
# one number as a Python float, a NumPy float, a 0-d and a 1-element array
SCALAR_FORMS = (float, np.float64, np.array, lambda v: np.array([v]))


def _bits(v):
    return np.asarray(v, dtype=float).reshape(-1).view(np.int64)


class TestScalarCalls:
    """A scalar takes the float path, an array the NumPy one: same bits."""

    @pytest.mark.parametrize("case", sorted(SCALAR_CASES))
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_closed_forms_match_array_elements(self, case, data):
        fam, times = SCALAR_CASES[case]
        ts = data.draw(st.lists(times, min_size=1, max_size=6))
        for name in ("psi", "alpha", "alpha_dot"):
            fn = getattr(fam, name)
            whole = np.broadcast_to(fn(np.array(ts)), (len(ts),))
            for i, t in enumerate(ts):
                for form in SCALAR_FORMS:
                    assert np.array_equal(_bits(fn(form(t))), _bits(whole[i])), (name, form, t)

    @pytest.mark.parametrize("case", sorted(SCALAR_CASES))
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_drift_value_matches_array_elements(self, case, data):
        fam, times = SCALAR_CASES[case]
        t = data.draw(times)
        xs = data.draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6))
        for spec in (DriftSpec(family=fam),
                     DriftSpec(family=fam, shift=0.3, diffusion_scale=1.7)):
            whole = drift_value(spec, np.array(xs), t)
            for i, x in enumerate(xs):
                for x_form in SCALAR_FORMS:
                    for t_form in SCALAR_FORMS[:3]:
                        got = drift_value(spec, x_form(x), t_form(t))
                        assert np.array_equal(_bits(got), _bits(whole[i])), (x_form, t_form, x)


@functools.cache
def _general_family(chirality):
    # psi = 1/2 gives Lambda = 0.6/sqrt(t): no horizon, evaluable on [1e-4, 1.2]
    return family_from_amplitude(lambda t: 0.5, 0.6, chirality, np.linspace(0.01, 1.2, 40))


# drift kind -> (spec for a chirality and sigma, the times it is evaluated at)
ROW_CASES = {
    "horizon": (lambda c, sigma: DriftSpec(family=horizon_family(1.5, c), shift=0.4,
                                           diffusion_scale=sigma),
                st.floats(0.0, 1.5, exclude_max=True)),
    "constant_skew": (lambda c, sigma: DriftSpec(family=constant_skew_family(1.3, c),
                                                 diffusion_scale=sigma),
                      st.floats(0.0, 100.0)),
    "constant_correlation": (
        lambda c, sigma: DriftSpec(family=constant_correlation_family(0.6, c),
                                   diffusion_scale=sigma),
        st.floats(1e-6, 100.0)),
    "general": (lambda c, sigma: DriftSpec(family=_general_family(c), diffusion_scale=sigma),
                st.floats(1e-4, 1.2)),
    "ou_htransform": (lambda c, sigma: DriftSpec(ou=OuSkewSpec(1.3, c),
                                                 diffusion_scale=sigma),
                      st.floats(0.0, 100.0)),
}


class TestTimeRows:
    """An array of times gives one row per time, each with the bits of the
    call at that one time."""

    @pytest.mark.parametrize("chirality", [1, -1])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_rows_match_scalar_calls(self, case, chirality, data):
        make, times = ROW_CASES[case]
        spec = make(chirality, data.draw(st.sampled_from([0.7, 1.0, 2.0])))
        ts = data.draw(st.lists(times, min_size=1, max_size=8))
        # a repeated time shares its mills row with the first
        ts = np.array(ts + ts[:data.draw(st.integers(0, 2))])
        xs = np.array(data.draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6)))
        rows = drift_value(spec, xs, ts)
        assert rows.shape == (len(ts), len(xs))
        for j, t in enumerate(ts):
            assert np.array_equal(_bits(rows[j]), _bits(drift_value(spec, xs, t))), (j, t)

    def test_custom_drift_sees_one_float_time(self):
        seen = []

        def mu(x, t):
            seen.append(type(t))
            return np.sin(3.0 * t) - 0.5 * x

        xs = np.linspace(-2.0, 2.0, 5)
        ts = np.array([0.1, 0.2, 0.7])
        rows = drift_value(DriftSpec(mu_fn=mu), xs, ts)
        assert seen == [float] * 3
        for j, t in enumerate(ts):
            assert np.array_equal(_bits(rows[j]), _bits(mu(xs, float(t))))

    def test_a_time_past_the_horizon_raises(self):
        spec = DriftSpec(family=horizon_family(1.0, +1))
        with pytest.raises(HorizonError):
            drift_value(spec, np.zeros(3), np.array([0.5, 1.0]))

    def test_an_overflowing_product_is_its_limit(self):
        # without a RuntimeWarning (an error in this suite), at one time and
        # in rows: alpha * x overflows to +-inf, where mills is 0 or inf
        spec = DriftSpec(family=horizon_family(0.25, +1))
        xs = np.array([1e308, -1e308, 0.0])
        one = drift_value(spec, xs, 0.125)
        assert one[0] == 0.0 and one[1] == math.inf and np.isfinite(one[2])
        assert np.array_equal(drift_value(spec, xs, np.array([0.0, 0.125]))[1], one)
        # a coefficient that overflows meets a mills of 0: a drift of nan,
        # which its caller refuses
        wide = DriftSpec(family=constant_skew_family(1e308), diffusion_scale=4.0)
        assert np.isnan(drift_value(wide, np.ones(2), 0.5)).all()
        assert np.isnan(drift_value(wide, np.ones(2), np.array([0.5, 1.0]))).all()


class TestReflection:
    """The opposite chirality's drift is the reflection -mu(-x, t) bit for
    bit, taken about 0: shifted by s, it is the opposite chirality shifted
    by -s.  simulate_mixture runs its -1 paths on this reflection."""

    @pytest.mark.parametrize("chirality", [1, -1])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_opposite_chirality_is_the_reflection(self, case, chirality, data):
        make, times = ROW_CASES[case]
        sigma = data.draw(st.sampled_from([0.7, 1.0, 2.0]))
        shift = data.draw(st.sampled_from([0.0, 0.4]))
        spec = dataclasses.replace(make(chirality, sigma), shift=shift)
        opposite = dataclasses.replace(make(-chirality, sigma), shift=-shift)
        xs = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0]) | st.floats(-40.0, 40.0), min_size=1, max_size=6)))
        ts = data.draw(st.lists(times, min_size=1, max_size=4))
        # one float time, and a 1-D array of them (the solver's rows)
        for t in (ts[0], np.array(ts)):
            assert np.array_equal(_bits(drift_value(opposite, xs, t)),
                                  _bits(-drift_value(spec, -xs, t))), (t, xs)


class TestConstructorErrors:
    @pytest.mark.parametrize("build", [
        lambda: horizon_family(-1.0),
        lambda: constant_skew_family(0.0),
        lambda: constant_correlation_family(1.0),
        lambda: horizon_family(1.0, 0),
        lambda: family_from_amplitude(lambda t: 1.0, -0.5, +1, np.linspace(0.01, 1, 10)),
        lambda: family_from_amplitude(lambda t: 1.0, 0.5, +1, [0.5]),
        lambda: family_from_amplitude(lambda t: 1.0, 0.5, +1, [0.0, 1.0]),
        lambda: OuSkewSpec(math.inf),
    ])
    def test_bad_parameter_is_schema_error(self, build):
        with pytest.raises(SchemaError):
            build()


class TestSerialization:
    @pytest.mark.parametrize("fam", [
        horizon_family(2.0, -1),
        constant_skew_family(1.7, +1),
        constant_correlation_family(0.4, +1),
    ])
    def test_descriptor_round_trip(self, fam):
        back = family_from_descriptor(fam.descriptor())
        ts = np.linspace(0.1, 1.5, 9)
        assert_allclose(back.alpha(ts), fam.alpha(ts), rtol=1e-12)
        assert_allclose(back.psi(ts), fam.psi(ts), rtol=1e-12)
        assert back.validity_horizon == fam.validity_horizon

    @pytest.mark.parametrize("fam", [horizon_family(2.0, -1), constant_skew_family(1.7)])
    def test_bare_family_descriptor_is_its_drift(self, fam):
        spec = drift_spec_from_descriptor(fam.descriptor())
        assert spec.kind == fam.kind and spec.shift == 0.0
        base = DriftSpec(family=fam)
        xs = np.linspace(-3, 3, 13)
        assert_allclose(drift_value(spec, xs, 0.8), drift_value(base, xs, 0.8), rtol=1e-12)
        back = drift_spec_from_descriptor(base.descriptor())
        assert_allclose(drift_value(back, xs, 0.8), drift_value(base, xs, 0.8), rtol=1e-12)

    def test_numeric_descriptor_round_trip(self):
        fam = constant_skew_family(1.0, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), 1.0, +1,
                                    np.linspace(0.01, 3.0, 40))
        back = family_from_descriptor(num.descriptor())
        ts = np.linspace(0.05, 2.9, 15)
        assert np.max(np.abs(back.alpha(ts) - num.alpha(ts))) < 1e-6

    def test_suite_constant_skew_solve_survives_its_descriptor(self):
        # the suite's solve of the constant-skew family, rebuilt from JSON by
        # the log-growth table; measured: alpha is off by 1.8e-12 in memory
        # and 4.2e-9 rebuilt, psi by 0 and 8.5e-8
        fam = constant_skew_family(1.0, +1)
        num = family_from_amplitude(lambda t: float(fam.psi(t)), 1.0, +1,
                                    np.linspace(0.01, 5.0, 60))
        back = family_from_descriptor(json.loads(json.dumps(num.descriptor())))
        assert back.descriptor() == num.descriptor()
        ts = np.linspace(0.01, 4.95, 120)
        assert np.max(np.abs(back.alpha(ts) - 1.0)) < 1e-8
        assert np.max(np.abs(back.psi(ts) - fam.psi(ts))) < 2e-7
        assert back.validity_horizon == num.validity_horizon == math.inf

    # the sha256 of drift_value at t = 0.8, at t = [0.1, 0.8], and the law's
    # pdf at t = 0.9 from (0.5, 0.2), as the OU drift evaluated them when
    # its rate and side were a {"lam", "chirality"} dict
    OU_DRIFT_PINS = {
        1: "2204f978a68df44260f965bb210ef0378b372a0747fe497c369df574d1c10e66",
        -1: "bfcceab1540a1f4c1fa969538b015cb18675587f0c1f42f0028560a9258de899",
    }

    @pytest.mark.parametrize("chirality", [1, -1])
    def test_ou_drift_descriptor_round_trip(self, chirality):
        spec = DriftSpec(ou=OuSkewSpec(0.7, chirality), shift=0.3,
                         diffusion_scale=1.7)
        # the descriptor format predates the typed field: an old file loads
        text = ('{"kind": "ou_htransform", "shift": 0.3, "sigma": 1.7, '
                f'"parameters": {{"lam": 0.7, "chirality": {chirality}}}}}')
        assert json.dumps(spec.descriptor()) == text
        back = drift_spec_from_descriptor(json.loads(text))
        assert (back.kind, back.shift, back.diffusion_scale, back.ou) == \
            ("ou_htransform", 0.3, 1.7, OuSkewSpec(0.7, chirality))
        assert back.time_free is spec.time_free is True
        xs = np.linspace(-4.0, 4.0, 33)
        ts = np.array([0.1, 0.8])
        for d in (spec, back):
            h = hashlib.sha256()
            h.update(drift_value(d, xs, 0.8).tobytes())
            h.update(drift_value(d, xs, ts).tobytes())
            h.update(d.law(0.5, 0.2).pdf(xs, 0.9).tobytes())
            assert h.hexdigest() == self.OU_DRIFT_PINS[chirality]
