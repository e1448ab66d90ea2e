"""Simulation engine: reproducibility, laws, mixtures, censoring driver."""
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skewdiff import cli
from skewdiff import (DriftSpec, ExtendedSkewNormalParams, HorizonError, OuSkewSpec,
                      SchemaError, SimConfig, SimulationError,
                      TimeGrid, constant_correlation_family, constant_skew_family,
                      horizon_family, mixture_probability, simulate,
                      simulate_bivariate_censoring, simulate_mixture,
                      sn_moments)

ZERO_DRIFT = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))


def skew_drift(alpha=1.0, chirality=1):
    return DriftSpec(family=constant_skew_family(alpha, chirality))


class TestTimeGrid:
    def test_dt(self):
        g = TimeGrid(0.0, 1.0, 100, terminal_cutoff_epsilon=0.2)
        assert_allclose(g.dt, 0.008)
        assert len(g.times()) == 101
        assert_allclose(g.times()[-1], 0.8)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 10, terminal_cutoff_epsilon=1.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_t_end_that_is_not_finite(self, t_end):
        with pytest.raises(SchemaError, match="t_end must be finite"):
            TimeGrid(0.0, t_end, 8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        # dt was inf and times() inf * 0: a non-finite path at exit 3
        ("ou", "--mode", "htransform", "--lam", "1", "--t-end", "inf", "--steps", "8",
         "--paths", "128"),
        # exit 2 only through the --check-t message
        ("censor", "--t-end", "inf", "--steps", "8", "--paths", "4096")],
        ids=["ou", "censor"])
    def test_an_infinite_t_end_exits_2(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 2
        assert "t_end must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestReproducibility:
    def test_bitwise_same_seed(self):
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(n_paths=2000, seed=9, record_stride=20)
        a = simulate(skew_drift(), 0.0, grid, cfg)
        b = simulate(skew_drift(), 0.0, grid, cfg)
        assert np.array_equal(a.values, b.values)

    def test_bitwise_across_thread_counts(self):
        grid = TimeGrid(0.0, 0.5, 50)
        # force several blocks so scheduling could matter
        a = simulate(ZERO_DRIFT, 0.0, grid,
                     SimConfig(n_paths=20000, seed=3, record_stride=25, n_threads=1))
        b = simulate(ZERO_DRIFT, 0.0, grid,
                     SimConfig(n_paths=20000, seed=3, record_stride=25, n_threads=4))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", ["plain", "antithetic", "mixture"])
    def test_partial_last_block_across_thread_counts(self, kind, monkeypatch):
        # 50000 paths: six full blocks and a partial one, split into runs of
        # uneven block counts on 2, 3 and 4 threads
        monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)
        grid = TimeGrid(0.0, 0.5, 20)

        def run(n_threads):
            cfg = SimConfig(n_paths=50000, seed=7, record_stride=10, n_threads=n_threads,
                            antithetic=kind == "antithetic")
            if kind == "mixture":
                return simulate_mixture(skew_drift(1.0, +1), 0.4, 0.1, grid, cfg)
            return simulate(skew_drift(1.0, +1), 0.1, grid, cfg)

        ref = run(1)
        for n_threads in (2, 3, 4):
            ens = run(n_threads)
            assert np.array_equal(ens.values, ref.values)
            assert ens.clamp_events == ref.clamp_events

    def test_runs_balance_paths(self):
        from skewdiff.sde import _BLOCK_SIZE, _runs
        assert _runs(50000, 2) == [(0, 3), (3, 7)]
        assert _runs(8200, 2) == [(0, 1), (1, 2)]
        for n_paths in (1, 8192, 8193, 50000, 100000):
            n_blocks = -(-n_paths // _BLOCK_SIZE)
            for workers in range(1, n_blocks + 1):
                runs = _runs(n_paths, workers)
                assert len(runs) == workers
                assert runs[0][0] == 0 and runs[-1][1] == n_blocks
                assert all(b0 < b1 for b0, b1 in runs)
                assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))

    def test_seed_changes_output(self):
        grid = TimeGrid(0.0, 0.5, 50)
        a = simulate(ZERO_DRIFT, 0.0, grid, SimConfig(n_paths=100, seed=1))
        b = simulate(ZERO_DRIFT, 0.0, grid, SimConfig(n_paths=100, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_initial_condition_column(self):
        grid = TimeGrid(0.0, 1.0, 40)
        ens = simulate(ZERO_DRIFT, 1.7, grid, SimConfig(n_paths=50, seed=5, record_stride=8))
        assert np.all(ens.values[:, 0] == 1.7)


class TestBrownianLaw:
    def test_terminal_moments(self):
        n = 40000
        t_end = 1.3
        ens = simulate(ZERO_DRIFT, 0.0, TimeGrid(0.0, t_end, 130),
                       SimConfig(n_paths=n, seed=11, record_stride=130))
        term = ens.values[:, -1]
        assert abs(term.mean()) < 3 * math.sqrt(t_end / n)
        assert abs(term.var(ddof=1) - t_end) < 3 * math.sqrt(2.0 / n) * t_end

    def test_halving_dt_within_mc_error(self):
        n = 100000
        coarse = simulate(ZERO_DRIFT, 0.0, TimeGrid(0.0, 1.0, 50),
                          SimConfig(n_paths=n, seed=21, record_stride=50))
        fine = simulate(ZERO_DRIFT, 0.0, TimeGrid(0.0, 1.0, 100),
                        SimConfig(n_paths=n, seed=22, record_stride=100))
        se_mean = math.sqrt(2.0 / n)
        tc, tf = coarse.values[:, -1], fine.values[:, -1]
        assert abs(tc.mean() - tf.mean()) < 3 * se_mean
        assert abs(tc.var(ddof=1) - tf.var(ddof=1)) < 3 * math.sqrt(2) * math.sqrt(2.0 / n)


class TestSkewLaw:
    def test_constant_skew_terminal_mean(self):
        n = 50000
        ens = simulate(skew_drift(1.0), 0.0, TimeGrid(0.0, 1.0, 500),
                       SimConfig(n_paths=n, seed=13, record_stride=500))
        mean, var, _ = sn_moments(ExtendedSkewNormalParams(0.0, 1.0, 1.0, 0.0))
        se = math.sqrt(var / n)
        assert abs(ens.values[:, -1].mean() - mean) < 3 * se

    def test_horizon_terminal_negative_fraction(self):
        T, eps = 1.0, 1e-4
        n = 20000
        drift = DriftSpec(family=horizon_family(T, +1))
        ens = simulate(drift, 0.0, TimeGrid(0.0, T, 2000, terminal_cutoff_epsilon=eps),
                       SimConfig(n_paths=n, seed=17, record_stride=2000))
        assert np.mean(ens.values[:, -1] < 0) < 0.02


class TestSafeguards:
    def test_no_clamps_for_moderate_skew(self):
        ens = simulate(skew_drift(2.0), 0.0, TimeGrid(0.0, 1.0, 1000),
                       SimConfig(n_paths=2000, seed=19, drift_clamp=10.0,
                                 record_stride=1000))
        assert ens.clamp_events == 0

    def test_clamp_counting(self):
        stiff = DriftSpec(mu_fn=lambda x, t: np.full_like(x, 500.0))
        ens = simulate(stiff, 0.0, TimeGrid(0.0, 1.0, 10),
                       SimConfig(n_paths=7, seed=1, drift_clamp=1.0, record_stride=10))
        assert ens.clamp_events == 70
        # every increment clamped at 1.0 plus noise
        assert np.all(ens.values[:, -1] < 10.0 + 20.0)

    def test_nan_detection(self):
        bad = DriftSpec(mu_fn=lambda x, t: x * np.nan)
        with pytest.raises(SimulationError) as err:
            simulate(bad, 0.0, TimeGrid(0.0, 1.0, 10), SimConfig(n_paths=3, seed=1,
                                                                 record_stride=10))
        assert err.value.path_index is not None
        assert err.value.step_index is not None

    def test_nan_names_its_step(self):
        # the drift turns NaN at t = 0.03, grid index 3, so the state at
        # index 4 is the first non-finite one, inside the first draw chunk
        bad = DriftSpec(mu_fn=lambda x, t: x + (np.nan if t > 0.025 else 0.0))
        with pytest.raises(SimulationError) as err:
            simulate(bad, 0.0, TimeGrid(0.0, 1.0, 100),
                     SimConfig(n_paths=9000, seed=1, record_stride=100))
        assert (err.value.path_index, err.value.step_index) == (0, 4)
        assert "step 4" in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("run", [
        lambda drift, grid, cfg: simulate(drift, 0.0, grid, cfg),
        lambda drift, grid, cfg: simulate_mixture(drift, 0.5, 0.0, grid, cfg)],
        ids=["simulate", "mixture"])
    def test_singular_start_is_a_schema_error(self, run):
        # the coefficient psi * alpha is infinite at t = 0: this warned
        # "invalid value encountered in multiply", then failed at step 1
        drift = DriftSpec(family=constant_correlation_family(0.5))
        with pytest.raises(SchemaError, match="t=0.0; pass a positive t_start"):
            run(drift, TimeGrid(0.0, 1.0, 10), SimConfig(n_paths=4, seed=1, record_stride=10))

    def test_mixture_checks_the_start_of_each_label_drawn(self):
        # the OU h-transform drift is finite at 1e308 and infinite at -1e308,
        # where the reflected paths' drift is evaluated
        drift = DriftSpec(ou=OuSkewSpec(1.0))
        grid, cfg = TimeGrid(0.0, 0.125, 10), SimConfig(n_paths=64, seed=1, record_stride=10)
        assert np.isfinite(simulate_mixture(drift, 1.0, 1e308, grid, cfg).values).all()
        with pytest.raises(SchemaError, match=r"ou_htransform drift is not finite at x0=1e\+308"):
            simulate_mixture(drift, 0.5, 1e308, grid, cfg)

    def test_horizon_guard(self):
        drift = DriftSpec(family=horizon_family(1.0, +1))
        with pytest.raises(HorizonError):
            simulate(drift, 0.0, TimeGrid(0.0, 1.5, 100), SimConfig(n_paths=2, seed=1,
                                                                    record_stride=100))

    def test_every_state_component_checked(self):
        from skewdiff.sde import _integrate

        def step(states, zs, k):
            x, y = states
            return (x + zs[0], y + (np.nan if k == 2 else 0.0)), 0

        with pytest.raises(SimulationError) as err:
            _integrate(lambda lo, hi: step, (0.0, 0.0), TimeGrid(0.0, 1.0, 10),
                       SimConfig(n_paths=3, seed=1))
        assert err.value.path_index == 0

    def test_one_ensemble_per_component(self):
        # each carries the run's grid, seed, stride and total clamp events
        from skewdiff.sde import _integrate
        grid, cfg = TimeGrid(0.0, 1.0, 10), SimConfig(n_paths=3, seed=5, record_stride=5)

        def step(states, zs, k):
            x, y = states
            return (x + zs[0], y + 1.0), 2

        ens = _integrate(lambda lo, hi: step, (0.0, 1.0), grid, cfg)
        assert len(ens) == 2
        for e in ens:
            assert (e.grid, e.seed, e.record_stride, e.clamp_events) == (grid, 5, 5, 20)
            assert e.labels is None and e.values.shape == (3, 3)
        assert np.array_equal(ens[1].values, np.tile([1.0, 6.0, 11.0], (3, 1)))

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    @pytest.mark.parametrize("detect", ["state", "drift"])
    def test_lowest_failing_block_is_reported(self, detect, n_threads, monkeypatch):
        # path 8195 (block 1) turns NaN on step 10, path 3 (block 0) on step
        # 60: block 0's error comes first, at its own first detection (the
        # state check at 64, or the clamp check of that step's increment),
        # however the two blocks share threads
        from skewdiff.sde import _clamp, _integrate
        monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)

        def step_for(lo, hi):
            paths = np.arange(lo, hi)

            def step(states, zs, k):
                x, = states
                poison = np.where(((paths == 3) & (k == 59)) | ((paths == 8195) & (k == 9)),
                                  np.nan, 0.0)
                if detect == "drift":
                    poison, _ = _clamp(poison, 10.0, k, lo)
                return (x + poison + zs[0],), 0
            return step

        with pytest.raises(SimulationError) as err:
            _integrate(step_for, (0.0,), TimeGrid(0.0, 1.0, 100),
                       SimConfig(n_paths=16384, seed=1, n_threads=n_threads))
        expect = {"state": (3, 64), "drift": (3, 60)}[detect]
        assert (err.value.path_index, err.value.step_index) == expect

    def test_record_stride_must_divide_steps(self):
        with pytest.raises(SchemaError):
            simulate(skew_drift(), 0.0, TimeGrid(0.0, 1.0, 10),
                     SimConfig(n_paths=2, seed=1, record_stride=3))


class TestMirrorAndAntithetic:
    def test_mirror_law_exact_negation(self):
        # an antithetic pair's second path is driven by the first one's
        # negated noise, so the mirrored drift carries it onto the negation
        grid = TimeGrid(0.0, 1.0, 200)
        cfg = SimConfig(n_paths=500, seed=23, record_stride=40, antithetic=True)
        plus = simulate(skew_drift(1.0, +1), 0.0, grid, cfg)
        minus = simulate(skew_drift(1.0, -1), 0.0, grid, cfg)
        assert np.array_equal(plus.values[0::2], -minus.values[1::2])
        assert np.array_equal(plus.values[1::2], -minus.values[0::2])

    def test_antithetic_pairs_negate_for_zero_drift(self):
        ens = simulate(ZERO_DRIFT, 0.0, TimeGrid(0.0, 1.0, 50),
                       SimConfig(n_paths=64, seed=29, antithetic=True,
                                 record_stride=10))
        assert np.array_equal(ens.values[0::2], -ens.values[1::2])

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=7, seed=1, antithetic=True)


class TestBivariateCensoring:
    def test_identity_correlation_copies_paths(self):
        x, y = simulate_bivariate_censoring(1.0, TimeGrid(0.0, 1.0, 100),
                                            SimConfig(n_paths=200, seed=31,
                                                      record_stride=20))
        assert np.array_equal(x.values, y.values)

    def test_zero_correlation_independent(self):
        n = 50000
        x, y = simulate_bivariate_censoring(0.0, TimeGrid(0.0, 1.0, 200),
                                            SimConfig(n_paths=n, seed=37,
                                                      record_stride=200))
        xt, yt = x.values[:, -1], y.values[:, -1]
        corr = np.corrcoef(xt, yt)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_ramp_correlation_variances(self):
        n = 50000
        T = 1.0
        x, y = simulate_bivariate_censoring(lambda t: math.sqrt(t / T),
                                            TimeGrid(0.0, T, 400),
                                            SimConfig(n_paths=n, seed=41,
                                                      record_stride=100))
        for j, t in enumerate(x.times):
            if t == 0:
                continue
            assert abs(x.values[:, j].var(ddof=1) - t) < 4 * math.sqrt(2.0 / n) * t
            assert abs(y.values[:, j].var(ddof=1) - t) < 4 * math.sqrt(2.0 / n) * t

    def test_antithetic_and_flip_negate_the_pair(self):
        # an antithetic run keeps the even paths' noise and flips it for the
        # odd ones, which are then the negated even paths of a plain run
        grid = TimeGrid(0.0, 1.0, 40)
        rho = lambda t: math.sqrt(t)
        base = simulate_bivariate_censoring(rho, grid, SimConfig(n_paths=200, seed=43))
        anti = simulate_bivariate_censoring(rho, grid, SimConfig(n_paths=200, seed=43,
                                                                 antithetic=True))
        for b, a in zip(base, anti):
            assert np.array_equal(a.values[0::2], b.values[0::2])
            assert np.array_equal(a.values[1::2], -b.values[0::2])

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            simulate_bivariate_censoring(1.5, TimeGrid(0.0, 1.0, 10),
                                         SimConfig(n_paths=2, seed=1, record_stride=10))

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_cut_run_holds_the_whole_run_columns(self, n_threads):
        # 8200 paths, two noise blocks; 70 steps end inside the third
        # 32-step noise chunk
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(n_paths=8200, seed=47, record_stride=10, n_threads=n_threads)
        rho = lambda t: math.sqrt(t)
        whole = simulate_bivariate_censoring(rho, grid, cfg)
        cut = simulate_bivariate_censoring(rho, grid, cfg, n_steps=70)
        for w, c in zip(whole, cut):
            assert c.values.shape == (8200, 8)
            assert c.values.tobytes() == w.values[:, :8].tobytes()
            assert len(c.times) == c.values.shape[1]
            assert c.times.tobytes() == w.times[:8].tobytes()
            assert c.grid == grid and c.at_time(0.7) is not None
            with pytest.raises(ValueError, match="not a recorded time"):
                c.at_time(0.8)

    def test_cut_run_checks_rho_on_the_whole_grid(self):
        rho = lambda t: 1.5 if t > 0.75 else 0.5
        with pytest.raises(SchemaError):
            simulate_bivariate_censoring(rho, TimeGrid(0.0, 1.0, 100),
                                         SimConfig(n_paths=2, seed=1, record_stride=10),
                                         n_steps=50)

    @pytest.mark.parametrize("n_steps", [0, 55, 110])
    def test_cut_run_length_is_checked(self, n_steps):
        with pytest.raises(SchemaError, match="multiple of record_stride"):
            simulate_bivariate_censoring(0.5, TimeGrid(0.0, 1.0, 100),
                                         SimConfig(n_paths=2, seed=1, record_stride=10),
                                         n_steps=n_steps)


class TestMixture:
    def test_degenerate_mixture_matches_plain(self):
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(n_paths=300, seed=43, record_stride=20)
        mixed = simulate_mixture(skew_drift(1.0, +1), 1.0, 0.0, grid, cfg)
        plain = simulate(skew_drift(1.0, +1), 0.0, grid, cfg)
        assert np.array_equal(mixed.values, plain.values)
        assert np.all(mixed.labels == 1)

    def test_labels_recorded_and_distributed(self):
        grid = TimeGrid(0.0, 0.5, 50)
        ens = simulate_mixture(skew_drift(), 0.25, 0.0, grid,
                               SimConfig(n_paths=20000, seed=47, record_stride=50))
        frac = np.mean(ens.labels > 0)
        assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 20000)

    def test_minus_labels_follow_the_opposite_chirality(self):
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(n_paths=300, seed=43, record_stride=20)
        mixed = simulate_mixture(skew_drift(1.0, +1), 0.0, 0.0, grid, cfg)
        plain = simulate(skew_drift(1.0, -1), 0.0, grid, cfg)
        assert np.array_equal(mixed.values, plain.values)
        assert np.all(mixed.labels == -1)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_one_drift_call_per_step_per_worker(self, n_threads, monkeypatch):
        # a drift that returns its argument: the reflection -(-x) is x on
        # every path, so the mixture is the plain run, and the engine must
        # not write into the array the drift returned
        monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)
        calls = []

        def identity(x, t):
            calls.append(x.size)
            return x

        drift = DriftSpec(mu_fn=identity)
        grid = TimeGrid(0.0, 0.5, 20)
        cfg = SimConfig(n_paths=10000, seed=11, record_stride=5, n_threads=n_threads)
        mixed = simulate_mixture(drift, 0.5, 0.3, grid, cfg)
        assert sorted(calls) == sorted([8192] * 20 + [1808] * 20 if n_threads == 2
                                       else [10000] * 20)
        assert np.array_equal(mixed.values, simulate(drift, 0.3, grid, cfg).values)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            simulate_mixture(skew_drift(), 1.5, 0.0, TimeGrid(0.0, 1.0, 10),
                             SimConfig(n_paths=2, seed=1, record_stride=10))


def _mixture_digest(ens) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ens.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ens.labels, dtype="<i1").tobytes())
    h.update(str(ens.clamp_events).encode())
    return h.hexdigest()


def _pinned_mixture(case: str, n_threads: int):
    """8200 paths: one full noise block of 8192 and a short second one."""
    if case == "horizon_clamp":
        return simulate_mixture(
            DriftSpec(family=horizon_family(1.0, +1)), 0.5, 0.0,
            TimeGrid(0.0, 1.0, 40, terminal_cutoff_epsilon=1e-4),
            SimConfig(n_paths=8200, seed=29, record_stride=8, drift_clamp=0.2,
                      n_threads=n_threads))
    grid = TimeGrid(0.0, 0.5, 10)
    cfg = SimConfig(n_paths=8200, seed=23, record_stride=5, n_threads=n_threads,
                    antithetic=case == "antithetic")
    if case == "flip_noise":
        # the mixture from 0.2 under negated noise: the negation of the one
        # from -0.2 that labels chirality -1 as +1 and follows its
        # reflection, chirality +1, under -1, bit for bit
        ens = simulate_mixture(skew_drift(1.0, -1), 0.3, -0.2, grid, cfg)
        return dataclasses.replace(ens, values=-ens.values)
    p_plus = {"p0": 0.0, "p05": 0.5, "p1": 1.0, "antithetic": 0.5}[case]
    return simulate_mixture(skew_drift(1.0, +1), p_plus, 0.2, grid, cfg)


# sha256 of (values, labels, clamp_events); first recorded when the mixture
# branch still evaluated both drifts on every path, re-recorded when mills
# took its exp/ndtr branch (every value moved by at most 1.1e-15)
MIXTURE_PINS = {
    "p0": "e28506dfad927bdedd236c44249ef54e45c7b091e912e5baac7d3cad0653de15",
    "p05": "3129bb8f38229741a33eefe8627c684b086ba4e5df608a378f66c9a72e1376c2",
    "p1": "1689c0b98d38dd3e3e038dd01f53859a5d78ad8daa44f4c11c125a1957199b54",
    "antithetic": "7e9793a375ec87c15cecd01aae53e9436682be4f3143b7b8825cc5a7641533a5",
    "flip_noise": "ba7633157c654f8866f9b17625d3e275101473b979bbd501aaf73d8db928bbba",
    "horizon_clamp": "194aab2d46bf2aa5cbd36f2db920b647f0612ff8b456a3e7551ef3e849ad94ed",
}


class TestMixturePinnedBytes:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("case", sorted(MIXTURE_PINS))
    def test_matches_recorded_digest(self, case, n_threads):
        ens = _pinned_mixture(case, n_threads)
        assert _mixture_digest(ens) == MIXTURE_PINS[case]

    def test_clamp_case_clamps(self):
        assert _pinned_mixture("horizon_clamp", 1).clamp_events > 0


def _ensembles_digest(*ensembles) -> str:
    h = hashlib.sha256()
    for ens in ensembles:
        h.update(np.ascontiguousarray(ens.values, dtype="<f8").tobytes())
        h.update(str(ens.clamp_events).encode())
    return h.hexdigest()


def _pinned_simulation(case: str, seed: int, n_threads: int):
    """8200 paths (two noise blocks) through `simulate` or the censoring pair."""
    if case == "bivariate_sqrt_rho":
        return simulate_bivariate_censoring(
            lambda t: math.sqrt(t), TimeGrid(0.0, 1.0, 40),
            SimConfig(n_paths=8200, seed=seed, record_stride=8, n_threads=n_threads))
    if case == "horizon_clamp":
        return (simulate(DriftSpec(family=horizon_family(1.0, +1)), 0.0,
                         TimeGrid(0.0, 1.0, 40, terminal_cutoff_epsilon=1e-4),
                         SimConfig(n_paths=8200, seed=seed, record_stride=8,
                                   drift_clamp=0.2, n_threads=n_threads)),)
    if case == "bivariate_100_steps":
        return simulate_bivariate_censoring(
            lambda t: math.sqrt(t), TimeGrid(0.0, 1.0, 100),
            SimConfig(n_paths=8200, seed=seed, record_stride=10, n_threads=n_threads))
    if case == "constant_skew_100_steps":
        return (simulate(skew_drift(1.0, +1), 0.2, TimeGrid(0.0, 1.0, 100),
                         SimConfig(n_paths=8200, seed=seed, record_stride=10,
                                   n_threads=n_threads)),)
    ens = simulate(skew_drift(1.0, +1), 0.2, TimeGrid(0.0, 0.5, 10),
                   SimConfig(n_paths=8200, seed=seed, record_stride=5,
                             n_threads=n_threads, antithetic=case == "antithetic_flip"))
    if case == "antithetic_flip":
        # antithetic pairs under negated noise: each pair's two paths swapped
        swapped = ens.values.reshape(-1, 2, ens.values.shape[1])[:, ::-1]
        ens = dataclasses.replace(ens, values=swapped.reshape(ens.values.shape))
    return (ens,)


# sha256 of each ensemble's (values, clamp_events); first recorded while each
# simulator still ran its own block loop.  The drift cases were re-recorded
# when mills took its exp/ndtr branch (every value moved by at most 8.9e-16);
# the bivariate cases call no drift and never changed
SIMULATION_PINS = {
    ("constant_skew", 5):
        "7ac9a1142d882c59e14b42cb750ae692de3a9e87133992af07bc96ddf7cd7181",
    ("constant_skew", 6):
        "fcec34544d0401f7bd146a16e6268fbe40701a559a16057b04a03cb6a6a93312",
    ("horizon_clamp", 5):
        "fe5a0c5d6854d7ce427616ddb60a7902722c461c193f187fdded44833114bdbb",
    ("horizon_clamp", 6):
        "94ca58dd5c0f411db9b13b7760a011478c741c85511d8aba27641201a28bf174",
    ("antithetic_flip", 5):
        "5634e3c4c4b13fe48cb6b290c5767dd9024b16d13e641612f772eee0dd6de561",
    ("antithetic_flip", 6):
        "73e221b34665594f27d79391e5066a06f11296f602373f1c11c864f02b402dfa",
    ("bivariate_sqrt_rho", 5):
        "62c4ddbc4db9f3d00495177aa9a984059821d00ea6c17501d6bd19431975a795",
    ("bivariate_sqrt_rho", 6):
        "6afb91f5f2102e348aa89b1889b1cd90d4f761c805e57610822af31a18a5c4b6",
    # 100 steps, so that any noise draw chunk of 64 steps or fewer ends
    # mid-run; first recorded while the engine drew 512 steps per chunk
    ("constant_skew_100_steps", 5):
        "db1918de715eeea191ba904c21d9239272d29764eae7bcef243f76f4e287df71",
    ("constant_skew_100_steps", 6):
        "e538fec341e55c5bbd22300c3178ea36e4237bee9db9bad36970d20d7b72007b",
    ("bivariate_100_steps", 5):
        "6c2ca62fdd09c0967cf7dad7f615add13e6c07d339adeb49c176780bc4d7c5a3",
    ("bivariate_100_steps", 6):
        "82368efdceae26244fb65e1063b5a51cb8cd6fd2df6084f5e796f8e618d474da",
}


class TestSimulationPinnedBytes:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("case,seed", sorted(SIMULATION_PINS))
    def test_matches_recorded_digest(self, case, seed, n_threads):
        ensembles = _pinned_simulation(case, seed, n_threads)
        assert _ensembles_digest(*ensembles) == SIMULATION_PINS[case, seed]

    def test_clamp_case_clamps(self):
        assert _pinned_simulation("horizon_clamp", 5, 1)[0].clamp_events > 0


class TestMixtureProbability:
    def test_symmetric_at_origin(self):
        assert mixture_probability(0.0, 5.0) == (0.5, 0.5)

    def test_far_start(self):
        p_minus, p_plus = mixture_probability(100.0, 1.0)
        assert p_plus == 1.0
        assert p_minus == 0.0

    def test_one_sd_start(self):
        T = 4.0
        p_minus, p_plus = mixture_probability(math.sqrt(T), T)
        assert_allclose(p_plus, 0.8413447460685429, rtol=1e-13)
        assert_allclose(p_minus + p_plus, 1.0, rtol=0, atol=0)


class TestThreadCap:
    def test_env_variable_caps_workers(self, monkeypatch):
        from skewdiff.sde import thread_count
        monkeypatch.setenv("SKEWDIFF_THREADS", "2")
        assert thread_count() == 2
        assert thread_count(8) == 2
        assert thread_count(1) == 1
        monkeypatch.delenv("SKEWDIFF_THREADS")
        assert thread_count() == len(os.sched_getaffinity(0))
        assert thread_count(6) == 6

    def test_default_without_affinity_call(self, monkeypatch):
        from skewdiff.sde import thread_count
        monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert thread_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert thread_count() == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_env_value_is_schema_error(self, monkeypatch, value):
        from skewdiff.sde import thread_count
        monkeypatch.setenv("SKEWDIFF_THREADS", value)
        with pytest.raises(SchemaError):
            thread_count()
        with pytest.raises(SchemaError):
            thread_count(2)


# runs a script in a fresh interpreter with two pool workers, so a hang
# fails the test at its timeout instead of stopping the suite
def _run_script(code: str, timeout: float = 120.0):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, SKEWDIFF_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestOrderedMap:
    """The shared pool's map: order, failures, memory bound, inline cases."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_in_item_order(self, workers):
        from skewdiff.sde import ordered_map

        def fn(i):
            # later items finish first
            time.sleep(0.002 * (12 - i))
            return i * i

        assert list(ordered_map(fn, range(12), workers)) == [i * i for i in range(12)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failure_reraises_at_its_position(self, workers):
        from skewdiff.sde import ordered_map
        lock, running, finished = threading.Lock(), [0], []

        def fn(i):
            with lock:
                running[0] += 1
            try:
                if i == 3:
                    time.sleep(0.05)
                    raise ValueError("item 3")
                if i == 4:
                    raise KeyError("item 4")     # fails first, but comes later
                time.sleep(0.1 if i > 4 else 0.0)
                return i
            finally:
                with lock:
                    running[0] -= 1
                    finished.append(i)

        got = []
        with pytest.raises(ValueError, match="item 3"):
            for r in ordered_map(fn, range(10), workers):
                got.append(r)
        assert got == [0, 1, 2]
        # no task of the call is still running, and none starts later
        assert running[0] == 0
        done = sorted(finished)
        time.sleep(0.3)
        assert sorted(finished) == done

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_plus_one_items_in_flight(self, workers):
        from skewdiff.sde import ordered_map, thread_count
        lock, started, taken, peak = threading.Lock(), [0], [0], [0]

        def fn(i):
            with lock:
                started[0] += 1
                peak[0] = max(peak[0], started[0] - taken[0])
            return i

        for _ in ordered_map(fn, range(40), workers):
            time.sleep(0.002)          # a slow consumer lets the pool run ahead
            with lock:
                taken[0] += 1
        assert peak[0] <= thread_count(workers) + 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tasks_run_under_the_callers_error_state(self, workers):
        from skewdiff.sde import ordered_map

        def square(i):
            return np.float64(1e200) * np.float64(1e200) if i == 2 else float(i)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                list(ordered_map(square, range(4), workers))
        with np.errstate(over="ignore"):
            assert list(ordered_map(square, range(4), workers)) == [0.0, 1.0, math.inf, 3.0]

    @pytest.mark.parametrize("env", [None, "1"])
    def test_one_worker_runs_inline(self, env, monkeypatch):
        from skewdiff import sde
        if env is None:
            monkeypatch.delenv("SKEWDIFF_THREADS", raising=False)
        else:
            monkeypatch.setenv("SKEWDIFF_THREADS", env)
        pool = sde._pool
        caller = threading.get_ident()
        threads = list(sde.ordered_map(lambda i: threading.get_ident(), range(5),
                                       1 if env is None else 3))
        assert threads == [caller] * 5
        assert sde._pool is pool

    def test_import_and_one_thread_start_no_thread_and_build_no_pool(self):
        out = _run_script(
            "import os, threading, numpy as np\n"
            "os.environ['SKEWDIFF_THREADS'] = '1'\n"
            "import skewdiff.cli\n"
            "from skewdiff import sde, DensityGrid, DriftSpec, SimConfig, TimeGrid\n"
            "from skewdiff.io import density_grid_to_csv\n"
            "assert threading.active_count() == 1 and sde._pool is None\n"
            "zero = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))\n"
            "sde.simulate(zero, 0.0, TimeGrid(0.0, 1.0, 10), SimConfig(n_paths=20000, seed=1,"
            " n_threads=3))\n"
            "x = np.linspace(0, 1, 1001)\n"
            "import tempfile, pathlib\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    density_grid_to_csv(DensityGrid(x, np.arange(40.0), np.ones((40, 1001))),"
            " pathlib.Path(d) / 'd.csv')\n"
            "print(threading.active_count(), sde._pool)\n")
        assert out.split() == ["1", "None"]

    def test_a_call_from_a_pool_task_runs_inline(self):
        out = _run_script(
            "import threading\n"
            "from skewdiff.sde import ordered_map\n"
            "def inner(i):\n"
            "    return threading.get_ident()\n"
            "def outer(i):\n"
            "    me = threading.get_ident()\n"
            "    return all(t == me for t in ordered_map(inner, range(6), 2))\n"
            "print(all(ordered_map(outer, range(6), 2)))\n", timeout=60)
        assert out.split() == ["True"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_builds_a_fresh_pool(self):
        out = _run_script(
            "import os, tempfile, pathlib, numpy as np\n"
            "from skewdiff import sde, DensityGrid, DriftSpec, SimConfig, TimeGrid\n"
            "from skewdiff.io import density_grid_to_csv\n"
            "zero = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))\n"
            "cfg = SimConfig(n_paths=20000, seed=1, n_threads=2)\n"
            "grid = DensityGrid(np.linspace(0, 1, 1001), np.arange(40.0),"
            " np.random.default_rng(1).random((40, 1001)))\n"
            "d = pathlib.Path(tempfile.mkdtemp())\n"
            "def work(tag):\n"
            "    density_grid_to_csv(grid, d / f'{tag}.csv')\n"
            "    return sde.simulate(zero, 0.0, TimeGrid(0.0, 1.0, 10), cfg).values\n"
            "ref = work('parent')\n"
            "parent_pool = sde._pool\n"
            "assert parent_pool is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = sde._pool is None\n"
            "    ok = ok and np.array_equal(work('child'), ref)\n"
            "    ok = ok and sde._pool is not None and sde._pool is not parent_pool\n"
            "    ok = ok and (d / 'child.csv').read_bytes() == (d / 'parent.csv').read_bytes()\n"
            "    os._exit(0 if ok else 1)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status))\n", timeout=60)
        assert out.split() == ["0"]
