"""Forward solver accuracy, conservation, and backward-equation residuals."""
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skewdiff import (DriftSpec, FpConfig, HorizonError, OuSkewSpec, PdeInstabilityError,
                      SchemaError, TimeGrid, brownian_h_residual, constant_skew_family,
                      constant_skew_tpd, family_from_amplitude, horizon_family,
                      horizon_tpd, ou_h_residual, ou_htransform_drift, solve_kfe)
from skewdiff import cli, families, fokker_planck

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

    @pytest.mark.parametrize("x0", [0.3, -0.4])
    def test_shifted_horizon_drift_vs_law(self, x0):
        # measured L1 gaps: 1.1e-3 from 0.3 and 8.8e-4 from -0.4, where the
        # unshifted kernel's pdf lies 0.55 and 0.24 away
        drift = DriftSpec(family=horizon_family(1.0, +1), shift=0.5)
        cfg = FpConfig(x_min=-9, x_max=10, n_x=1201, n_t=1600)
        sol = solve_kfe(drift, x0, TimeGrid(0.0, 0.8, 1600), cfg)
        ref = drift.law(x0).pdf(sol.x_nodes, 0.8)
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

    def test_step_count_mismatch_rejected(self):
        # the grid's step count and cfg.n_t must agree; neither is dropped
        cfg = FpConfig(x_min=-5, x_max=5, n_x=101, n_t=64)
        with pytest.raises(SchemaError, match="65 steps"):
            solve_kfe(ZERO, 0.0, TimeGrid(0.0, 1.0, 65), cfg)


def _pinned_solve(case: str):
    """Solves of 100 steps, so that any batch of steps that does not divide
    100 ends mid-run; every step is a stored slice."""
    grid = TimeGrid(0.0, 1.0, 100)
    x0, lo, hi, n_x, theta = 0.0, -8.0, 10.0, 201, 0.5
    skew = DriftSpec(family=constant_skew_family(1.0, +1))
    if case == "constant_skew":
        drift = skew
    elif case == "ou_htransform":
        drift, lo, hi = DriftSpec(ou=OuSkewSpec(1.0, 1)), -6.0, 12.0
    elif case == "horizon_eps":
        # theta = 1: Crank-Nicolson fails its positivity check near the
        # horizon on this grid
        drift, lo, hi, theta = DriftSpec(family=horizon_family(1.0, +1)), -6.0, 6.0, 1.0
        grid = TimeGrid(0.0, 1.0, 100, terminal_cutoff_epsilon=0.01)
    elif case == "general":
        drift = DriftSpec(family=family_from_amplitude(
            lambda t: 0.5, 0.6, +1, np.linspace(0.01, 1.2, 40)))
        grid = TimeGrid(0.1, 1.0, 100)
    elif case == "sigma2":
        drift = DriftSpec(family=constant_skew_family(1.0, +1), diffusion_scale=2.0)
        lo, hi = -14.0, 18.0
    elif case == "custom":
        drift, x0 = DriftSpec(mu_fn=lambda x, t: np.sin(3.0 * t) - 0.5 * x), 0.5
    elif case == "upwind":
        # cell Peclet above 2 beyond |x| = 5, below 1 inside: half the faces
        # are upwinded
        drift = DriftSpec(mu_fn=lambda x, t: np.where(np.abs(x) > 5.0, -20.0 * np.sign(x),
                                                      -0.5 * x) + np.sin(3.0 * t))
        x0, lo, hi, n_x = 0.5, -10.0, 10.0, 81
    else:
        drift, n_x = skew, 121
        theta = {"theta0": 0.0, "theta05": 0.5, "theta1": 1.0}[case]
    return solve_kfe(drift, x0, grid, FpConfig(x_min=lo, x_max=hi, n_x=n_x, n_t=100,
                                               theta=theta))


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# sha256 of each solve's (values, t_nodes); first recorded while every step
# built its own bands and called scipy.linalg.solve_banded, re-recorded when
# mills took its exp/ndtr branch (every value moved by at most 8.9e-16; the
# custom drift calls no mills and never changed)
KFE_PINS = {
    "constant_skew": "96a546532c97381833a55a7222f9ae6887e0d2687b836edaff77819ec5a1d1c6",
    "ou_htransform": "1607de0207dea003d3999524db7e69c294ded8050ca67bf137a99337c34a5e08",
    "horizon_eps": "459f9468b65e8fcde56e667d1beb54c4444fe1c5130e98a663e49465e9bb8b02",
    "general": "d1717d6eb3bace610f7efe7e41a4b10b213419bd7d58e09900391c80a44bf4a3",
    "sigma2": "52117cf7485cc9f2e031b0ff98351c736e83bde0cf5a183463372b6b2de27f6c",
    "custom": "7b63cc3a2eca74c479b2a5e61295603a6bbd7b8a9fd3b0c5064c6c53d719139a",
    # recorded before the bands took a shortcut where no face is upwinded
    "upwind": "5258413cfa9e5aed956336deb696b7c3b29d9895b3aad379f862e1782223a769",
    "theta0": "46d3670dd5f4d8d7781a5145256a22f075d17aa8552d306cad68aa6f120e1a08",
    "theta05": "14bc913104b3dae2ff8c095a8b5f3441e522fbe2a0e2bde2ebc9f57cf0f11e23",
    "theta1": "517dc4406d8466a98cc37034881063dbe62dfd18a936385f37ea3d389a14f6c9",
}

# a small time-dependent CLI solve: 450 steps, every second one stored;
# re-recorded when mills took its exp/ndtr branch (the CSV's values moved by
# at most 3.9e-16)
FP_CLI = ("fokker-planck", "--kind", "constant-skew", "--alpha", "1", "--t-end", "0.5",
          "--x-min", "-6", "--x-max", "6", "--n-x", "101", "--n-t", "450")
FP_CLI_PINS = {
    "kfe_solution.csv": "adf8590c349eddbc0c9bc8474c204670952fb073667ada6e67893e6f048d5d4c",
    "kfe_summary.json": "2309529d5d1cbf78b5e01fa46f5e6a0fc4adc6e51a224ff92cb276db2c1befd0",
}

# the Crank-Nicolson horizon solve that fails near T whatever the cutoff;
# its diagnostics were re-recorded when mills took its exp/ndtr branch
# (min_value moved by 1.4e-24 and mass from 1.0000000000000002 to 1.0)
FP_HORIZON = ("fokker-planck", "--kind", "horizon", "--T", "1", "--t-end", "1",
              "--x-min", "-6", "--x-max", "6", "--n-x", "201", "--n-t", "100")
FP_HORIZON_DIAGNOSTICS_SHA256 = \
    "bf3cb181d0af1355380a752c7c30fa2a27504ce4a633df678dde7ed2eb8fee83"


# past the horizon: the drift raises at step 50, after step 43's instability
FP_PAST_HORIZON = ("fokker-planck", "--kind", "horizon", "--T", "1", "--t-end", "2",
                   "--x-min", "-6", "--x-max", "6", "--n-x", "201", "--n-t", "100")


def _nan_from_003():
    return DriftSpec(mu_fn=lambda x, t: x * 0.0 + (np.nan if t >= 0.03 else 1.0))


class TestPinnedBytes:
    @pytest.mark.parametrize("case", sorted(KFE_PINS))
    def test_matches_recorded_digest(self, case):
        sol = _pinned_solve(case)
        assert _sha256(sol.values, sol.t_nodes) == KFE_PINS[case]

    def test_cli_artifacts(self, tmp_path):
        assert cli.main([*FP_CLI, "--output-dir", str(tmp_path)]) == 0
        for name, digest in FP_CLI_PINS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_non_finite_drift_is_value_error(self):
        cfg = FpConfig(x_min=-5, x_max=5, n_x=101, n_t=100)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_kfe(_nan_from_003(), 0.0, TimeGrid(0.0, 1.0, 100), cfg)

    def test_non_finite_drift_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_drift_from_args", lambda args: _nan_from_003())
        code = cli.main(["fokker-planck", "--t-end", "1", "--x-min", "-5", "--x-max", "5",
                         "--n-x", "101", "--n-t", "100", "--output-dir", str(tmp_path)])
        assert code == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag == {"error": "array must not contain infs or NaNs", "type": "ValueError"}

    def test_crank_nicolson_horizon_instability_exits_3(self, tmp_path, capsys):
        assert cli.main([*FP_HORIZON, "--output-dir", str(tmp_path)]) == 3
        assert "instability at step 90" in capsys.readouterr().err
        diag = (tmp_path / "diagnostics.json").read_bytes()
        assert json.loads(diag)["diagnostics"]["step"] == 90
        assert hashlib.sha256(diag).hexdigest() == FP_HORIZON_DIAGNOSTICS_SHA256

    @pytest.mark.parametrize("theta,error", [("0.5", "PdeInstabilityError"),
                                             ("1", "HorizonError")])
    def test_first_failure_in_step_order(self, tmp_path, theta, error):
        assert cli.main([*FP_PAST_HORIZON, "--theta", theta,
                         "--output-dir", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["type"] == error
        if error == "PdeInstabilityError":
            assert diag["diagnostics"]["step"] == 43


class TestBatchedDrift:
    """One drift call per batch of steps, failures as if step by step."""

    @pytest.mark.parametrize("case,calls", [("constant_skew", 4), ("horizon_eps", 4),
                                            ("general", 4), ("custom", 4),
                                            ("ou_htransform", 1)])
    def test_drift_calls_per_solve(self, monkeypatch, case, calls):
        # 100 steps make ceil(100 / 32) = 4 batches; the time-free drift is
        # evaluated once
        seen = []
        drift_value = families.drift_value

        def counting(spec, x, t):
            seen.append(np.size(t))
            return drift_value(spec, x, t)

        monkeypatch.setattr(families, "drift_value", counting)
        sol = _pinned_solve(case)
        assert len(seen) == calls
        if case != "ou_htransform":
            assert seen == [32, 32, 32, 4]
        assert _sha256(sol.values, sol.t_nodes) == KFE_PINS[case]

    @pytest.mark.parametrize("kind,t_bad,step", [("custom", 0.64, 32), ("custom", 0.9, 45),
                                                 ("horizon", 1.28, 64), ("horizon", 1.0, 50)])
    def test_raising_drift_fails_at_its_step(self, tmp_path, monkeypatch, kind, t_bad, step):
        # the drift raises from t_bad on, first at the midpoint of `step`
        # (dt = 0.02): steps 32 and 64 open a batch, 45 and 50 sit inside
        # one; one step per batch is the step-by-step reference.  A horizon
        # family checks the latest time of a batch, the custom drift each
        # time in turn.
        argv = ["fokker-planck", "--t-end", "2", "--x-min", "-6", "--x-max", "6",
                "--n-x", "101", "--n-t", "100", "--theta", "1"]
        if kind == "horizon":
            argv += ["--kind", "horizon", "--T", str(t_bad), "--epsilon", "0"]
        else:
            def mu(x, t):
                if t >= t_bad:
                    raise HorizonError(f"no drift at t={t!r}")
                return np.sin(3.0 * t) - 0.5 * x
            monkeypatch.setattr(cli, "_drift_from_args", lambda args: DriftSpec(mu_fn=mu))
        diags = []
        for chunk in (fokker_planck._STEP_CHUNK, 1):
            monkeypatch.setattr(fokker_planck, "_STEP_CHUNK", chunk)
            out = tmp_path / str(chunk)
            assert cli.main([*argv, "--output-dir", str(out)]) == 3
            diags.append((out / "diagnostics.json").read_bytes())
        assert diags[0] == diags[1]
        diag = json.loads(diags[0])
        assert diag["type"] == "HorizonError"
        assert f"t={(step + 0.5) * 0.02!r}" in diag["error"]

    @pytest.mark.parametrize("t_bad,steps", [(0.64, 32), (0.9, 45)])
    def test_nan_drift_fails_at_its_step(self, monkeypatch, t_bad, steps):
        # the drift turns NaN, without raising, from t_bad on: first at the
        # midpoint of step 32, which opens a batch, or of step 45 inside one;
        # every earlier step forms its right-hand side before the non-finite
        # matrix is reported, in batches or one step at a time
        drift = DriftSpec(mu_fn=lambda x, t: x * 0.0 + (np.nan if t >= t_bad else 1.0))
        calls = []
        matvec = fokker_planck._banded_matvec
        monkeypatch.setattr(fokker_planck, "_banded_matvec",
                            lambda ab, v: calls.append(None) or matvec(ab, v))
        cfg = FpConfig(x_min=-6, x_max=6, n_x=101, n_t=100, theta=1.0)
        for chunk in (32, 1):
            monkeypatch.setattr(fokker_planck, "_STEP_CHUNK", chunk)
            calls.clear()
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_kfe(drift, 0.0, TimeGrid(0.0, 2.0, 100), cfg)
            assert len(calls) == steps

    @pytest.mark.parametrize("drift", [ZERO, DriftSpec(ou=OuSkewSpec(1.0, 1))],
                             ids=["time_dependent", "time_free"])
    @pytest.mark.parametrize("band,error", [(64.0, np.linalg.LinAlgError),
                                            (np.inf, ValueError)])
    def test_bad_matrix_raises(self, monkeypatch, drift, band, error):
        def bands(mu_face, dx, diff):
            ab = np.zeros((*mu_face.shape[:-1], 3, mu_face.shape[-1] + 1))
            ab[..., 1, :] = band
            return ab

        # at theta 1 and dt = 1/64, a main band of 64 zeroes every lhs entry
        monkeypatch.setattr(fokker_planck, "_operator_bands", bands)
        cfg = FpConfig(x_min=-6, x_max=6, n_x=101, n_t=64, theta=1.0)
        match = "singular matrix" if band == 64.0 else "infs or NaNs"
        with pytest.raises(error, match=match):
            solve_kfe(drift, 0.0, TimeGrid(0.0, 1.0, 64), cfg)

    def test_raising_time_free_drift_is_reported(self, tmp_path, monkeypatch):
        # the OU h-transform drift is evaluated once; when that call raises,
        # its own exception reaches the caller and the CLI's diagnostics
        def raising(x, spec):
            raise FloatingPointError("overflow in the h-transform drift")

        monkeypatch.setattr(families, "ou_htransform_drift", raising)
        cfg = FpConfig(x_min=-6, x_max=6, n_x=101, n_t=64)
        with pytest.raises(FloatingPointError, match="h-transform drift"):
            solve_kfe(DriftSpec(ou=OuSkewSpec(1.0, 1)), 0.0,
                      TimeGrid(0.0, 1.0, 64), cfg)
        out = tmp_path / "out"
        assert cli.main(["fokker-planck", "--kind", "ou-htransform", "--lam", "1",
                         "--t-end", "1", "--x-min", "-6", "--x-max", "6", "--n-x", "101",
                         "--n-t", "64", "--output-dir", str(out)]) == 3
        assert json.loads((out / "diagnostics.json").read_bytes())["type"] == "FloatingPointError"


@pytest.mark.parametrize("lam,chirality,theta", [(1.0, +1, 0.5), (0.7, -1, 1.0)])
def test_factor_once_gives_the_per_step_bits(lam, chirality, theta):
    # DriftSpec(ou=...) is time-free: its one matrix is factored once
    # (dgttrf) and solved at each step (dgttrs).  The same drift as a mu_fn
    # is not, and each step calls dgtsv.
    ou = OuSkewSpec(lam=lam, chirality=chirality)
    once = DriftSpec(ou=ou)
    per_step = DriftSpec(mu_fn=lambda x, t: ou_htransform_drift(x, ou))
    assert once.time_free and not per_step.time_free
    cfg = FpConfig(x_min=-10, x_max=10, n_x=401, n_t=200, theta=theta)
    grid = TimeGrid(0.0, 1.0, 200)
    a, b = (solve_kfe(d, 0.0, grid, cfg) for d in (once, per_step))
    assert np.array_equal(a.t_nodes, b.t_nodes)
    assert np.array_equal(a.values, b.values)


class TestBrownianBackwardResidual:
    def test_exact_family(self):
        res = brownian_h_residual(1.0, +1, np.linspace(-3, 3, 101),
                                  np.linspace(0.01, 0.9, 101))
        assert res < 1e-12

    def test_perturbed_family_fails(self):
        res = brownian_h_residual(1.0, +1, np.linspace(-3, 3, 101),
                                  np.linspace(0.01, 0.9, 101), alpha_scale=1.01)
        assert res > 1e-3

    def test_origin_row_exactly_zero(self):
        res = brownian_h_residual(1.0, +1, np.array([0.0]), np.linspace(0.01, 0.9, 11))
        assert res == 0.0

    @pytest.mark.parametrize("T,chirality", [(-1.0, +1), (math.inf, +1), (1.0, 0)])
    def test_bad_horizon_or_side_rejected(self, T, chirality):
        with pytest.raises(SchemaError):
            brownian_h_residual(T, chirality, np.array([0.0]), np.array([0.5]))

    def test_times_past_the_horizon_rejected(self):
        with pytest.raises(ValueError, match="below the horizon"):
            brownian_h_residual(1.0, -1, np.array([0.0]), np.array([0.5, 1.0]))


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
