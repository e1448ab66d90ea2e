"""Forward solver accuracy, conservation, and backward-equation residuals."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skewdiff import (DriftSpec, FpConfig, PdeInstabilityError, TimeGrid,
                      brownian_h_residual, constant_skew_family,
                      constant_skew_tpd, horizon_family, horizon_tpd,
                      ou_h_residual, solve_kfe)

ZERO = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))


def l1(a, b, x):
    return float(np.trapezoid(np.abs(a - b), x))


def heat_solution(x, t, width):
    v = t + width * width
    return np.exp(-x**2 / (2 * v)) / math.sqrt(2 * math.pi * v)


class TestForwardSolver:
    def test_heat_kernel(self):
        cfg = FpConfig(x_min=-10, x_max=10, n_x=801, n_t=400)
        sol = solve_kfe(ZERO, 0.0, TimeGrid(0.0, 1.0, 400), cfg)
        ref = heat_solution(sol.x_nodes, 1.0, cfg.mollifier_width())
        assert l1(sol.values[-1], ref, sol.x_nodes) < 1e-4

    def test_second_order_in_space(self):
        errs = []
        for n_x in (401, 801):
            cfg = FpConfig(x_min=-10, x_max=10, n_x=n_x, n_t=1600,
                           init_width=0.08)
            sol = solve_kfe(ZERO, 0.0, TimeGrid(0.0, 1.0, 1600), cfg)
            ref = heat_solution(sol.x_nodes, 1.0, 0.08)
            errs.append(l1(sol.values[-1], ref, sol.x_nodes))
        assert errs[0] / errs[1] >= 3.5

    def test_linear_drift_vs_ou_law(self):
        lam, x0 = 1.0, 1.0
        drift = DriftSpec(mu_fn=lambda x, t: -lam * x)
        cfg = FpConfig(x_min=-8, x_max=9, n_x=1201, n_t=2000)
        sol = solve_kfe(drift, x0, TimeGrid(0.0, 1.0, 2000), cfg)
        w = cfg.mollifier_width()
        m = x0 * math.exp(-lam)
        v = (1 - math.exp(-2 * lam)) / (2 * lam) + w * w * math.exp(-2 * lam)
        ref = np.exp(-(sol.x_nodes - m) ** 2 / (2 * v)) / math.sqrt(2 * math.pi * v)
        assert l1(sol.values[-1], ref, sol.x_nodes) < 5e-4

    def test_constant_skew_drift_vs_closed_form(self):
        fam = constant_skew_family(1.0, +1)
        drift = DriftSpec(family=fam)
        cfg = FpConfig(x_min=-9, x_max=10, n_x=1201, n_t=2000)
        sol = solve_kfe(drift, 0.0, TimeGrid(0.0, 1.0, 2000), cfg)
        ref = constant_skew_tpd(sol.x_nodes, 1.0, 1.0, +1)
        assert l1(sol.values[-1], ref, sol.x_nodes) < 5e-3

    def test_horizon_drift_consistency(self):
        T = 1.0
        drift = DriftSpec(family=horizon_family(T, +1))
        cfg = FpConfig(x_min=-9, x_max=10, n_x=1201, n_t=1600)
        sol = solve_kfe(drift, 0.0, TimeGrid(0.0, 0.8 * T, 1600), cfg)
        ref = horizon_tpd(sol.x_nodes, 0.8 * T, 0.0, T, +1)
        assert l1(sol.values[-1], ref, sol.x_nodes) < 5e-3

    def test_mass_and_positivity(self):
        cfg = FpConfig(x_min=-9, x_max=10, n_x=801, n_t=500)
        fam = constant_skew_family(1.0, +1)
        sol = solve_kfe(DriftSpec(family=fam), 0.0,
                        TimeGrid(0.0, 1.0, 500), cfg)
        assert np.all(sol.values >= -1e-10)
        dx = sol.x_nodes[1] - sol.x_nodes[0]
        masses = sol.values.sum(axis=1) * dx
        assert np.max(np.abs(masses - 1.0)) < 1e-8

    def test_strong_drift_upwinding_stays_stable(self):
        # cell Peclet 2.5 everywhere: upwinded faces with the damped implicit
        # scheme form a monotone system, so the solution stays positive and
        # conservative even though the advection is violent
        drift = DriftSpec(mu_fn=lambda x, t: np.full_like(x, 50.0))
        cfg = FpConfig(x_min=-6, x_max=6, n_x=241, n_t=800, theta=1.0)
        sol = solve_kfe(drift, -3.0, TimeGrid(0.0, 0.5, 800), cfg)
        assert np.all(sol.values >= -1e-12)
        dx = sol.x_nodes[1] - sol.x_nodes[0]
        assert abs(sol.values[-1].sum() * dx - 1.0) < 1e-8

    def test_instability_detection(self):
        # explicit stepping far beyond the diffusion stability limit
        cfg = FpConfig(x_min=-5, x_max=5, n_x=501, n_t=64, theta=0.0)
        with pytest.raises(PdeInstabilityError) as err:
            solve_kfe(ZERO, 0.0, TimeGrid(0.0, 1.0, 64), cfg)
        assert "step" in err.value.diagnostics

    def test_x0_outside_domain_rejected(self):
        cfg = FpConfig(x_min=-1, x_max=1, n_x=101, n_t=64)
        with pytest.raises(ValueError):
            solve_kfe(ZERO, 5.0, TimeGrid(0.0, 1.0, 64), cfg)


class TestBrownianBackwardResidual:
    def test_exact_family(self):
        fam = horizon_family(1.0, +1)
        res = brownian_h_residual(fam, np.linspace(-3, 3, 101),
                                  np.linspace(0.01, 0.9, 101))
        assert res < 1e-12

    def test_perturbed_family_fails(self):
        fam = horizon_family(1.0, +1)
        res = brownian_h_residual(fam, np.linspace(-3, 3, 101),
                                  np.linspace(0.01, 0.9, 101), alpha_scale=1.01)
        assert res > 1e-3

    def test_origin_row_exactly_zero(self):
        fam = horizon_family(1.0, +1)
        res = brownian_h_residual(fam, np.array([0.0]), np.linspace(0.01, 0.9, 11))
        assert res == 0.0

    def test_wrong_family_kind_rejected(self):
        with pytest.raises(ValueError):
            brownian_h_residual(constant_skew_family(1.0, +1),
                                np.array([0.0]), np.array([0.5]))


class TestOuBackwardResidual:
    def test_exact(self):
        res = ou_h_residual(1.0, +1, np.linspace(-3, 3, 101),
                            np.linspace(0.0, 2.0, 101))
        assert res < 1e-10

    def test_dropped_time_factor_fails(self):
        res = ou_h_residual(1.0, +1, np.linspace(-3, 3, 101),
                            np.linspace(0.0, 2.0, 101), drop_time_factor=True)
        assert res > 1e-2

    def test_chirality_mirror(self):
        xg = np.linspace(-3, 3, 101)
        tg = np.linspace(0.0, 2.0, 101)
        assert_allclose(ou_h_residual(1.0, +1, xg, tg),
                        ou_h_residual(1.0, -1, xg, tg), atol=1e-13)
