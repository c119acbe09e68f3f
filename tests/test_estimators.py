import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qkfmag.config import load_preset
from qkfmag.core import (INFINITE, SCAN_BLOCK, PhysicalParams, TimeGrid, collapse_rate, make_grid,
                         with_spin)
from qkfmag.dynamics import conditional_variance, simulate_trajectory, step_coefficients
from qkfmag.estimators import (
    _linear_recurrence,
    detection_threshold_asymptotic,
    kalman_schedule,
    riccati_analytic,
    riccati_integrate,
    shotnoise_limit,
    write_threshold_csv,
)
from qkfmag.rng import substream

from information_oracle import information
from joseph_oracle import joseph_covariance, kalman_step
from kalman_oracle import list_recurrence, reference_schedule, run_kalman
from line_fit_oracle import regression_estimate


def params(**kw):
    base = dict(j_total=4e6, gamma=2 * math.pi * 1e6, b_true=1e-6, meas_strength=1e5,
                efficiency=1.0, prior_b_variance=1e-8, t_total=2e-3)
    base.update(kw)
    return PhysicalParams(**base)


def toy(**kw):
    base = dict(j_total=50.0, gamma=1.3, b_true=0.01, meas_strength=2.0,
                efficiency=0.8, prior_b_variance=0.7, t_total=3.0)
    base.update(kw)
    return PhysicalParams(**base)


def riccati_ode_oracle(p, ts):
    """Direct stiff integration of the covariance flow (independent route)."""
    lam = collapse_rate(p)
    k = 4.0 * p.meas_strength * p.efficiency

    def rhs(t, y):
        v11, v12, v22 = y
        s = (p.j_total / 2.0) / (1.0 + lam * t)
        a = p.gamma * p.j_total * math.exp(-p.meas_strength * t / 2.0)
        return [2.0 * (-k * s * v11 + a * v12) - k * v11 * v11,
                -k * s * v12 + a * v22 - k * v11 * v12,
                -k * v12 * v12]

    sol = solve_ivp(rhs, (0.0, ts[-1]), [0.0, 0.0, p.prior_b_variance], t_eval=ts,
                    rtol=1e-12, atol=1e-20, method="LSODA")
    assert sol.success
    return sol.y


def continuous_gain(p, t, v11, v12):
    """Oracle: the continuous-time gain D^-2 (B + V C^T) = 4 M eta (var + v11, v12)."""
    k = 4.0 * p.meas_strength * p.efficiency
    return k * (conditional_variance(p, t) + v11), k * v12


def one_step(p, t0, dt, v11, v12, v22):
    """``kalman_step`` over [t0, t0 + dt] from the covariance (v11, v12, v22)."""
    phi12, g = step_coefficients(p, np.array([t0, t0 + dt]))
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    return kalman_step(float(phi12[0]), float(g[0]), d, dt, v11, v12, v22)


class TestSystemMatrices:
    """The step coefficients reduce to the continuous filter matrices."""

    def test_b_entry_equals_conditional_variance(self):
        # B = (var, 0): the step's correlated-noise term g d is sqrt(var(t0) var(t1))
        p = toy()
        d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
        for t in (0.0, 0.3, 2.2):
            for dt in (0.5, 1e-9):
                _, g = step_coefficients(p, np.array([t, t + dt]))
                assert g[0] * d == pytest.approx(
                    math.sqrt(conditional_variance(p, t) * conditional_variance(p, t + dt)),
                    rel=1e-14)
            assert g[0] * d == pytest.approx(conditional_variance(p, t), rel=1e-6)

    def test_structure(self):
        # A[0, 1] = gamma J e^{-Mt/2}; phi12 is its exact integral over the step
        p = toy()
        phi12, _ = step_coefficients(p, np.array([0.5, 0.5 + 1e-6]))
        assert phi12[0] / 1e-6 == pytest.approx(
            p.gamma * p.j_total * math.exp(-p.meas_strength * 0.25), rel=1e-6)
        phi12, _ = step_coefficients(p, np.array([0.5, 1.5]))
        m = p.meas_strength
        assert phi12[0] == pytest.approx(
            p.gamma * p.j_total * (2.0 / m) * (math.exp(-m * 0.25) - math.exp(-m * 0.75)),
            rel=1e-14)


class TestKalmanInit:
    def test_finite_prior(self):
        p = params(t_total=1e-6)
        grid = make_grid(p)
        sched = kalman_schedule(p, grid)
        assert (sched.r[0], sched.v22[0]) == (0.0, 1e-8)
        trace = run_kalman(p, simulate_trajectory(p, grid, substream(1, 0)), sched)
        assert trace.jz_tilde[0] == trace.b_tilde[0] == 0.0

    def test_zero_prior_pins_estimate(self):
        p = toy(prior_b_variance=0.0, b_true=0.0)
        grid = make_grid(p, dt=0.01)
        rec = simulate_trajectory(p, grid, substream(3, 0))
        trace = run_kalman(p, rec)
        np.testing.assert_array_equal(trace.b_tilde, np.zeros(len(trace.times)))
        np.testing.assert_array_equal(trace.v22, np.zeros(len(trace.times)))

    def test_infinite_prior_becomes_finite(self):
        p = params(prior_b_variance=INFINITE, t_total=1e-6)
        grid = make_grid(p)
        rec = simulate_trajectory(p, grid, substream(11, 0))
        trace = run_kalman(p, rec)
        assert math.isinf(trace.v22[0])
        assert np.all(np.isfinite(trace.v22[2:]))

    def test_infinite_prior_agrees_with_large_prior(self):
        # at production scale the data overwhelm a 1e6 G^2 prior within steps
        p_inf = params(prior_b_variance=INFINITE, t_total=3e-7)
        p_big = params(prior_b_variance=1e6, t_total=3e-7)
        grid = make_grid(p_inf)
        rec_inf = simulate_trajectory(p_inf, grid, substream(4, 0))
        rec_big = simulate_trajectory(p_big, grid, substream(4, 0))
        np.testing.assert_array_equal(rec_inf.d_xi, rec_big.d_xi)
        tr_inf = run_kalman(p_inf, rec_inf)
        tr_big = run_kalman(p_big, rec_big)
        # 10 steps into the uniform region
        k = int(np.searchsorted(grid.times, grid.prefix[-1])) + 10
        assert tr_inf.v22[k] == pytest.approx(tr_big.v22[k], rel=1e-6)
        assert tr_inf.b_tilde[k] == pytest.approx(tr_big.b_tilde[k], rel=1e-6)


class TestKalmanStep:
    def test_zero_innovation_drifts_only(self):
        # two informative increments (v12 = 0 at t = 0, so the first leaves
        # b = 0), then records that run_kalman's own estimate predicts
        # exactly: b holds, jz moves by phi12 b ~ (A x)_1 dt
        p = toy(t_total=1e-3)
        grid = make_grid(p, dt=1e-4)
        rec = simulate_trajectory(p, grid, substream(5, 0))
        sched = kalman_schedule(p, grid)
        dts = np.diff(grid.times)
        d_xi = np.zeros(len(dts))
        d_xi[:2] = 0.05
        for k in range(2, len(d_xi)):
            jz = run_kalman(p, rec._replace(d_xi=d_xi), sched).jz_tilde[k]
            d_xi[k] = jz * dts[k]
        trace = run_kalman(p, rec._replace(d_xi=d_xi), sched)
        b = trace.b_tilde[2]
        assert b != 0.0
        # b = v22 * (a fixed sum): it holds to rounding
        np.testing.assert_allclose(trace.b_tilde[2:], b, rtol=1e-15)
        a01 = p.gamma * p.j_total * np.exp(-p.meas_strength * grid.times[2:-1] / 2.0)
        np.testing.assert_allclose(np.diff(trace.jz_tilde[2:]), a01 * b * dts[2:], rtol=1e-3)

    def test_gain_formula_at_t0(self):
        p = params()
        g = continuous_gain(p, 0.0, 0.0, 0.0)
        expected = 2 * p.meas_strength * p.efficiency * p.j_total
        assert g[0] == pytest.approx(expected, rel=1e-12)
        assert g[1] == 0.0
        k1, k2, *_ = one_step(p, 0.0, 1e-20, 0.0, 0.0, p.prior_b_variance)
        assert k1 == pytest.approx(expected, rel=1e-6)
        assert k2 == 0.0

    def test_step_gain_converges_to_continuous_gain(self):
        p = toy()
        v11, v12, v22 = 0.3, 0.05, 0.6
        g_cont = continuous_gain(p, 0.1, v11, v12)
        est = [one_step(p, 0.1, dt, v11, v12, v22)[:2] for dt in (1e-3, 1e-4, 1e-5, 1e-6)]
        for i, dt in enumerate((1e-3, 1e-4, 1e-5, 1e-6)):
            rel = abs(est[i][1] / g_cont[1] - 1)
            assert rel < 5.0 * dt / 1e-3 * 0.05 + 1e-6
        assert est[-1][0] == pytest.approx(g_cont[0], rel=1e-4)
        assert est[-1][1] == pytest.approx(g_cont[1], rel=1e-4)

    def test_schedule_overflow_raises(self, monkeypatch):
        # a gain that drives r past the float range, injected into the production schedule
        import qkfmag.estimators as est

        p = toy()
        grid = make_grid(p, dt=5e-3)
        exact = est.step_coefficients

        def huge_gain(p, times):
            phi12, g = exact(p, times)
            g[40:] *= 1e40
            return phi12, g

        monkeypatch.setattr(est, "step_coefficients", huge_gain)
        with pytest.raises(OverflowError, match="gain schedule overflowed"):
            kalman_schedule(p, grid)
        monkeypatch.setattr(est, "step_coefficients", exact)
        kalman_schedule(p, grid)

    def test_schedule_overflow_at_huge_j(self):
        # r^2 leaves the float range at any step once J is this large
        p = toy(j_total=1e200)
        with pytest.raises(OverflowError, match="j_total or gamma is too large"):
            kalman_schedule(p, TimeGrid.uniform(1e-3, 10))

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "scaling", "oracle"])
    @pytest.mark.parametrize("prior", ["preset", "infinite"])
    def test_schedule_guard_silent_on_presets(self, preset, prior):
        cfg = load_preset(preset)
        p = cfg.params
        if prior == "infinite":
            p = dataclasses.replace(p, prior_b_variance=INFINITE)
        sched = kalman_schedule(p, cfg.make_grid())
        assert np.all(np.isfinite(sched.r))
        assert np.all(np.diff(sched.data) >= 0.0) and np.all(sched.v22 >= 0.0)

    def test_rank_one_matches_joseph_on_fig2(self):
        # the rank-one schedule against the 2x2 Joseph recursion it replaces
        cfg = load_preset("fig2")
        p = cfg.params
        sched = kalman_schedule(p, cfg.make_grid())
        _, v12, v22 = joseph_covariance(p, sched.times)
        np.testing.assert_allclose(sched.v22, v22, rtol=1e-12)
        np.testing.assert_allclose(sched.r, v12 / v22, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=1e-6, max_value=1e-2))
    @settings(max_examples=60, deadline=None)
    def test_covariance_stays_psd_and_b_variance_monotone(self, t0, dt):
        p = toy()
        _, _, n11, n12, n22 = one_step(p, t0, dt, 0.0, 0.0, p.prior_b_variance)
        assert n11 >= 0 and n22 >= 0
        assert n11 * n22 - n12 ** 2 >= -1e-12 * (n11 + n22) ** 2
        assert n22 <= p.prior_b_variance + 1e-30

    def test_schedule_v22_never_increases(self):
        p = toy()
        grid = make_grid(p, dt=5e-3)
        sched = kalman_schedule(p, grid)
        assert np.all(np.diff(sched.v22) <= 1e-30)

    def test_run_kalman_matches_stepwise_api(self):
        # run_kalman against a loop of single steps, each with its own
        # step_coefficients call and the update jz' = jz + phi12 b + k1 inn
        p = toy()
        grid = make_grid(p, dt=0.05)
        rec = simulate_trajectory(p, grid, substream(21, 0))
        trace = run_kalman(p, rec)
        jz, b, v = 0.0, 0.0, (0.0, 0.0, p.prior_b_variance)
        d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
        times = grid.times
        for k in range(len(times) - 1):
            dt = times[k + 1] - times[k]
            phi12, g = step_coefficients(p, times[k:k + 2])
            k1, k2, *v = kalman_step(float(phi12[0]), float(g[0]), d, dt, *v)
            inn = rec.d_xi[k] - jz * dt
            jz, b = jz + phi12[0] * b + k1 * inn, b + k2 * inn
        assert b == pytest.approx(trace.b_tilde[-1], rel=1e-9)
        assert v[2] == pytest.approx(trace.v22[-1], rel=1e-9)


class TestBlockedSchedule:
    """The schedule's recurrence runs in blocks of SCAN_BLOCK steps; it must equal
    the one-list, whole-grid form bit for bit."""

    @staticmethod
    def check(p, grid):
        got, want = kalman_schedule(p, grid), reference_schedule(p, grid)
        for name in ("phi12", "g", "k1", "r", "data", "v22"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.d == want.d

    @pytest.mark.parametrize("prior", ["preset", "infinite"])
    def test_fig2(self, prior):
        cfg = load_preset("fig2")
        p = cfg.params if prior == "preset" else dataclasses.replace(cfg.params,
                                                                     prior_b_variance=INFINITE)
        grid = cfg.make_grid()
        assert grid.n_intervals % SCAN_BLOCK != 0
        self.check(p, grid)

    @pytest.mark.parametrize("j", load_preset("scaling").scaling.j_values)
    def test_scaling_preset(self, j):
        cfg = load_preset("scaling")
        p = dataclasses.replace(with_spin(cfg.params, j), t_total=cfg.scaling.t_check)
        self.check(p, make_grid(p))

    # under one block, just under and at two, and four and a tail
    @pytest.mark.parametrize("n_steps", [1, 2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK,
                                         4 * SCAN_BLOCK + 5])
    def test_block_boundaries(self, n_steps):
        p = toy()
        self.check(p, TimeGrid.uniform(p.t_total / n_steps, n_steps))

    def test_g_is_step_coefficients_g(self):
        # the plan reads g off the schedule instead of calling step_coefficients again
        cfg = load_preset("fig2")
        grid = cfg.make_grid()
        got = kalman_schedule(cfg.params, grid)
        phi12, g = step_coefficients(cfg.params, grid.times)
        assert got.g.tobytes() == g.tobytes() and got.phi12.tobytes() == phi12.tobytes()
        assert got.k1.tobytes() == (g / got.d).tobytes()

    def test_recurrence_with_sign_changes(self):
        rng = np.random.default_rng(3)
        a, u = rng.uniform(-1.5, 1.5, 3 * SCAN_BLOCK + 7), rng.normal(size=3 * SCAN_BLOCK + 7)
        assert _linear_recurrence(a, u).tobytes() == list_recurrence(a, u).tobytes()
        assert _linear_recurrence(a[:0], u[:0]).tolist() == [0.0]


class TestRiccatiIntegrate:
    def test_matches_direct_ode_at_tame_parameters(self):
        p = toy(b_true=0.0)
        ts = np.geomspace(1e-3, 3.0, 24)
        _, _, v22o = riccati_ode_oracle(p, ts)
        np.testing.assert_allclose(riccati_integrate(p, ts).v22, v22o, rtol=1e-7)

    @pytest.mark.parametrize("kw", [{}, {"efficiency": 0.5}, {"efficiency": 0.1},
                                    {"j_total": 1e4, "meas_strength": 50.0, "t_total": 0.5}],
                             ids=["fig2", "fig2-eta0.5", "fig2-eta0.1", "J1e4-M50"])
    def test_matches_information_integral(self, kw):
        # the closed-form information against a 40-digit quadrature of its integral,
        # with and without a prior
        pytest.importorskip("mpmath")
        p = params(**kw)
        ts = np.geomspace(1e-6 * p.t_total, p.t_total, 25)
        info = information(p, ts)
        for prior in (p.prior_b_variance, INFINITE):
            got = riccati_integrate(dataclasses.replace(p, prior_b_variance=prior), ts).v22
            np.testing.assert_allclose(got, 1.0 / (1.0 / prior + info), rtol=1e-13)

    def test_field_independent(self):
        ts = np.geomspace(1e-6, 2e-3, 12)
        a = riccati_integrate(params(b_true=0.0), ts)
        b = riccati_integrate(params(b_true=1e-6), ts)
        np.testing.assert_array_equal(a.v22, b.v22)

    def test_zero_prior_is_fixed_point(self):
        ts = np.geomspace(1e-6, 2e-3, 8)
        sol = riccati_integrate(params(prior_b_variance=0.0), ts)
        np.testing.assert_array_equal(sol.v22, np.zeros(len(ts)))

    @pytest.mark.parametrize("m", [1e-150, 1e-200])
    def test_underflowing_m_t_keeps_the_prior(self, m):
        # M t ~ 1e-300 and below: the information is 0, not NaN, and nothing warns
        p = toy(meas_strength=m, t_total=m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = riccati_integrate(p, np.array([0.0, 1e-3 * m, m]))
        assert sol.v22.tolist() == [p.prior_b_variance] * 3

    def test_finite_below_the_information_overflow(self):
        # fig2 at J = 1e96, just below where (4 gamma J)^2 eta den leaves float64: v22,
        # ~1e-200, is the 40-digit information's
        pytest.importorskip("mpmath")
        p = params(j_total=1e96)
        ts = np.geomspace(1e-6 * p.t_total, p.t_total, 25)
        got = riccati_integrate(p, ts).v22
        assert np.all(got > 0)
        np.testing.assert_allclose(got, 1.0 / (1.0 / p.prior_b_variance + information(p, ts)),
                                   rtol=1e-13)

    @pytest.mark.parametrize("j_total", [1e98, 1e150])
    def test_overflowing_information_raises(self, j_total):
        # a numpy product overflows at 1e98, the float square (4 gamma J)^2 at 1e150: one
        # OverflowError either way, not v22 = 0 and a RuntimeWarning (an error under pytest)
        with pytest.raises(OverflowError, match="field information overflowed"):
            riccati_integrate(params(j_total=j_total), np.geomspace(1e-6, 2e-3, 25))

    def test_information_additivity(self):
        # 1/v22(t) - 1/prior is the same for any prior (exact for this model)
        ts = np.geomspace(1e-7, 1e-3, 10)
        i1 = 1.0 / riccati_integrate(params(prior_b_variance=1e-8), ts).v22 - 1e8
        i2 = 1.0 / riccati_integrate(params(prior_b_variance=INFINITE), ts).v22
        np.testing.assert_allclose(i1, i2, rtol=1e-6)

    def test_monotone_threshold(self):
        ts = np.geomspace(1e-8, 2e-3, 200)
        sol = riccati_integrate(params(prior_b_variance=INFINITE), ts)
        assert np.all(np.diff(np.sqrt(sol.v22)) < 0)

    def test_grid_input_and_t0(self):
        p = toy()
        grid = make_grid(p, dt=0.1)
        sol = riccati_integrate(p, grid.times)
        assert sol.times[0] == 0.0
        assert sol.v22[0] == p.prior_b_variance


class TestRiccatiAnalytic:
    def test_small_time_divergence(self):
        p = params(prior_b_variance=INFINITE)
        small = riccati_analytic(p, 1e-12)
        smaller = riccati_analytic(p, 1e-13)
        assert smaller > small > riccati_analytic(p, 1e-10)

    def test_finite_where_v22_overflows(self):
        # why the threshold keeps its own closed form, not sqrt(v22) with an infinite
        # prior: v22 ~ 1/gamma^2 leaves float64 from gamma ~ 1e-150, while the closed
        # form divides by gamma outside the square root and stays in range
        ts = np.geomspace(5e-7, 0.05, 151)
        overflowed = 0
        for gamma in np.geomspace(1e-140, 1e-300, 17):
            p = toy(j_total=100.0, gamma=gamma, meas_strength=50.0, t_total=0.05,
                    prior_b_variance=INFINITE)
            with np.errstate(over="ignore", divide="ignore"):
                lost = ~np.isfinite(riccati_integrate(p, ts).v22)
            overflowed += lost.sum()
            delta_b = riccati_analytic(p, ts)
            assert np.all(np.isfinite(delta_b[lost])) and np.all(delta_b > 0), gamma
        assert overflowed > 0

    def test_rejects_non_positive_time(self):
        with pytest.raises(ValueError):
            riccati_analytic(params(), 0.0)

    def test_matches_extended_precision(self):
        # the unsplit closed form in 60 digits, over both sides of the
        # series crossover (measured worst 1.8e-15)
        mpmath = pytest.importorskip("mpmath")

        def closed_form(p, t):
            with mpmath.workdps(60):
                j, m, eta = (mpmath.mpf(v) for v in (p.j_total, p.meas_strength, p.efficiency))
                x = m * mpmath.mpf(t)
                den = (-(2 * eta * j * (x + 4) + 1) * mpmath.exp(-x)
                       + 4 * mpmath.exp(-x / 2) * (4 * eta * j + 1)
                       + x + 2 * eta * j * (x - 4) - 3)
                return float(m / (4 * mpmath.mpf(p.gamma) * j)
                             * mpmath.sqrt((1 + 2 * eta * j * x) / den) / mpmath.sqrt(eta))

        for j, eta in ((1.0, 1.0), (4e6, 1.0), (1e9, 0.3)):
            p = params(j_total=j, efficiency=eta, prior_b_variance=INFINITE)
            ts = np.concatenate([np.geomspace(1e-11, 3e-3, 40), np.linspace(1e-5, 2.5e-5, 31)])
            want = np.array([closed_form(p, t) for t in ts])
            np.testing.assert_allclose(riccati_analytic(p, ts), want, rtol=1e-14)

    @pytest.mark.parametrize("eta", [0.9, 0.5, 0.1])
    def test_matches_quadrature_below_unit_efficiency(self, eta):
        # the efficiency enters the information, 1/v22, as a global factor eta:
        # criterion 1's tolerance holds at every eta, not only at eta = 1
        pytest.importorskip("mpmath")
        p = params(efficiency=eta, prior_b_variance=INFINITE)
        ts = np.geomspace(1e-8, 2e-3, 40)
        np.testing.assert_allclose(riccati_analytic(p, ts), 1.0 / np.sqrt(information(p, ts)),
                                   rtol=1e-6)

    def test_value_at_one_ms(self):
        # frozen by direct evaluation; the Bloch vector is long dead at Mt = 100,
        # so the threshold has saturated near M/(4 gamma J)
        v = riccati_analytic(params(), 1e-3)
        assert v == pytest.approx(1.0152301464613621e-09, rel=1e-12)
        floor = params().meas_strength / (4 * params().gamma * params().j_total)
        assert v == pytest.approx(floor * 1.0206, rel=1e-3)

    def test_asymptotic_consistency_window(self):
        # |asymptotic/closed-form - 1| <= 0.05 from 100/(JM) up to ~0.15/M
        # (the closed form saturates for Mt ~ O(1); 21% gap by t = 1/M)
        p = params()
        jm = p.j_total * p.meas_strength
        for t in np.geomspace(100.0 / jm, 0.15 / p.meas_strength, 25):
            r = detection_threshold_asymptotic(p, t) / riccati_analytic(p, t)
            assert abs(r - 1.0) <= 0.05, t

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.1, 0.02])
    def test_asymptotic_window_below_unit_efficiency(self, eta):
        # the limit needs 2 eta J M t >> 1: the window starts at 100/(eta J M)
        checked = 0
        for j in (4e6, 1e5, 1e3):
            p = params(j_total=j, efficiency=eta, prior_b_variance=INFINITE)
            lo, hi = 100.0 / (eta * j * p.meas_strength), 0.15 / p.meas_strength
            if lo > hi:  # no window at this eta J
                continue
            ts = np.geomspace(lo, hi, 25)
            r = detection_threshold_asymptotic(p, ts) / riccati_analytic(p, ts)
            assert np.all(np.abs(r - 1.0) <= 0.05), (j, ts[np.argmax(np.abs(r - 1.0))])
            checked += 1
        assert checked >= 2

    def test_ratio_approaches_one_at_100_over_jm(self):
        p = params()
        t = 100.0 / (p.j_total * p.meas_strength)
        r = detection_threshold_asymptotic(p, t) / riccati_analytic(p, t)
        assert abs(r - 1.0) < 0.01


class TestAsymptoticThreshold:
    def test_plug_in_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = detection_threshold_asymptotic(params(), 1e-3)
        assert v == pytest.approx(6.8916e-12, rel=1e-4)

    def test_doubling_j_halves_threshold(self):
        p1, p2 = params(), params(j_total=8e6)
        assert detection_threshold_asymptotic(p2, 1e-3) == pytest.approx(
            detection_threshold_asymptotic(p1, 1e-3) / 2.0, rel=1e-12)

    def test_time_power_law(self):
        p = params()
        r = detection_threshold_asymptotic(p, 1e-3) / detection_threshold_asymptotic(p, 8e-3)
        assert r == pytest.approx(8.0 ** 1.5, rel=1e-12)

    def test_validity_warning(self):
        p = params()
        with pytest.warns(UserWarning, match="outside validity"):
            detection_threshold_asymptotic(p, 1.0 / (p.j_total * p.meas_strength))
        # at eta < 1 the limit needs 2 eta J M t >> 1: the warning reaches 10/(eta J M)
        p = params(efficiency=0.1)
        jm = p.j_total * p.meas_strength
        with pytest.warns(UserWarning, match="outside validity"):
            detection_threshold_asymptotic(p, 50.0 / jm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detection_threshold_asymptotic(p, 101.0 / jm)


class TestShotnoise:
    def test_plug_in_value(self):
        # 1/(gamma sqrt(J * (2/M) * t_tot)) at the production set, t_tot = 1 ms
        v = shotnoise_limit(params(), 1e-3)
        assert v == pytest.approx(5.626977e-07, rel=1e-6)

    def test_quadrupling_time_halves(self):
        p = params()
        assert shotnoise_limit(p, 4e-3) == pytest.approx(shotnoise_limit(p, 1e-3) / 2, rel=1e-12)

    def test_quadrupling_j_halves(self):
        assert shotnoise_limit(params(j_total=1.6e7), 1e-3) == pytest.approx(
            shotnoise_limit(params(), 1e-3) / 2, rel=1e-12)

    def test_takes_the_axis(self):
        # an array of times gives each time's float, bit for bit, as math.sqrt rounds
        p = params()
        ts = np.geomspace(1e-8, 2e-3, 101)
        want = [1.0 / (p.gamma * math.sqrt(p.j_total * (2.0 / p.meas_strength) * t)) for t in ts]
        assert shotnoise_limit(p, ts).tolist() == [shotnoise_limit(p, t) for t in ts] == want
        with pytest.raises(ValueError):
            shotnoise_limit(p, np.array([1e-3, 0.0]))


class TestThresholdTable:
    def test_refuses_unknown_source_and_nonpositive_delta_b(self):
        times, buf = np.array([1e-3, 2e-3]), io.BytesIO()
        with pytest.raises(ValueError, match="unknown source"):
            write_threshold_csv(times, {"nope": np.ones(2)}, buf)
        with pytest.raises(ValueError, match="positive"):
            write_threshold_csv(times, {"shotnoise": np.array([1.0, -1.0])}, buf)
        with pytest.raises(ValueError, match="positive"):
            write_threshold_csv(times, {"asymptotic": np.ones(2), "riccati_numeric": np.zeros(2)},
                                buf)
        assert buf.getvalue() == b""  # refused before a row is written


class TestRegression:
    def _record_with_rates(self, p, grid, rate_fn):
        """Noiseless record whose per-step rate integrates rate_fn exactly."""
        times = grid.times
        dts = np.diff(times)
        mids = 0.5 * (times[:-1] + times[1:])
        rec = simulate_trajectory(p, grid, substream(0, 0), zero_noise=True)
        return rec._replace(d_xi=rate_fn(mids) * dts)

    @pytest.mark.filterwarnings("ignore:omega_L")
    def test_exact_linear_rate_recovers_field(self):
        p = toy(b_true=0.37)
        grid = make_grid(p, dt=0.01)
        rec = self._record_with_rates(p, grid, lambda t: p.gamma * p.b_true * p.j_total * t)
        est = regression_estimate(rec, p, t_end=0.2)
        assert est == pytest.approx(p.b_true, rel=1e-10)

    def test_constant_offset_absorbed_by_intercept(self):
        p = toy()
        grid = make_grid(p, dt=0.01)
        rec = self._record_with_rates(p, grid, lambda t: 7.7 * np.ones_like(t))
        est = regression_estimate(rec, p, t_end=0.2)
        assert est == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    def test_matches_binned_rate_slope(self):
        # on a uniform grid every step is one bin of the plain rate fit: the
        # dt weights are all equal, and the fit is the unweighted slope of the
        # per-step rates against the step midpoints
        p = toy()
        grid = make_grid(p, dt=1e-3)
        assert grid.prefix.size == 0
        times = grid.times
        for seed in range(3):
            rec = simulate_trajectory(p, grid, substream(5, seed))
            for t_end in np.geomspace(times[5], p.t_total, 6):
                n_end = int(np.searchsorted(times, t_end * (1 + 1e-12), side="right") - 1)
                rates = rec.d_xi[:n_end] / np.diff(times[:n_end + 1])
                x = 0.5 * (times[:n_end] + times[1:n_end + 1])
                xc = x - x.mean()
                want = float(np.dot(xc, rates) / np.dot(xc, xc)) / (p.gamma * p.j_total)
                assert regression_estimate(rec, p, t_end) == pytest.approx(want, rel=1e-12)

    def test_too_few_points(self):
        p = toy(t_total=3.0)
        grid = TimeGrid.uniform(0.01, 300)
        rec = simulate_trajectory(p, grid, substream(0, 1))
        with pytest.raises(ValueError, match="at least 3 points"):
            regression_estimate(rec, p, t_end=0.015)

    def test_bloch_decay_warning(self):
        p = toy()
        grid = make_grid(p, dt=0.01)
        rec = simulate_trajectory(p, grid, substream(0, 2))
        with pytest.warns(UserWarning, match="Bloch decay"):
            regression_estimate(rec, p, t_end=1.0)

    def test_t_end_beyond_record(self):
        p = toy()
        grid = make_grid(p, dt=0.01)
        rec = simulate_trajectory(p, grid, substream(0, 3))
        with pytest.raises(ValueError, match="exceeds"):
            regression_estimate(rec, p, t_end=10.0)
