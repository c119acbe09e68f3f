import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkfmag.config import load_preset
from qkfmag.core import SCAN_BLOCK, PhysicalParams, TimeGrid, make_grid
from qkfmag.dynamics import (
    RecordStream,
    TrajectoryRecord,
    bloch_length,
    conditional_variance,
    lowpass_filter,
    reconstruct_noise,
    simulate_trajectory,
    step_coefficients,
)
from qkfmag.rng import substream

from kalman_oracle import whole_step_coefficients


def params(**kw):
    base = dict(j_total=100.0, gamma=1.5, b_true=0.01, meas_strength=50.0,
                efficiency=0.8, prior_b_variance=0.05, t_total=0.5)
    base.update(kw)
    return PhysicalParams(**base)


def csv_text(record) -> str:
    buf = io.BytesIO()
    record.to_csv(buf)
    return buf.getvalue().decode("ascii")


param_strategy = st.builds(
    params,
    j_total=st.floats(min_value=0.5, max_value=1e7),
    meas_strength=st.floats(min_value=1e-2, max_value=1e6),
    efficiency=st.floats(min_value=1e-3, max_value=1.0),
)


class TestConditionalVariance:
    def test_initial_value_is_projection_noise(self):
        p = params(j_total=7.0)
        assert conditional_variance(p, 0.0) == pytest.approx(3.5, rel=1e-14)

    def test_against_rk4_oracle(self):
        # independent route: integrate dv/dt = -4 M eta v^2 with RK4
        p = params(j_total=4.0, meas_strength=1.0, efficiency=1.0)
        v = p.j_total / 2.0
        n, h = 20000, 1.0 / 20000

        def f(v):
            return -4.0 * p.meas_strength * p.efficiency * v * v

        for _ in range(n):
            k1 = f(v)
            k2 = f(v + 0.5 * h * k1)
            k3 = f(v + 0.5 * h * k2)
            k4 = f(v + h * k3)
            v += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert conditional_variance(p, 1.0) == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert v == pytest.approx(conditional_variance(p, 1.0), abs=1e-10)

    def test_zero_efficiency_freezes_variance(self):
        p = params(efficiency=1e-30)  # eta -> 0 limit
        for t in (0.0, 0.5, 5.0):
            assert conditional_variance(p, t) == pytest.approx(p.j_total / 2.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            conditional_variance(params(), -0.1)

    @given(param_strategy, st.floats(min_value=1e-9, max_value=1e3),
           st.floats(min_value=1.01, max_value=10.0))
    def test_monotone_decreasing(self, p, t, factor):
        from qkfmag.core import collapse_rate
        v0 = conditional_variance(p, t)
        v1 = conditional_variance(p, t * factor)
        assert v1 <= v0
        lam = collapse_rate(p)
        # strict whenever the increment is resolvable in float64
        if lam * t * (factor - 1.0) / (1.0 + lam * t) ** 2 > 1e-12 * (1.0 + lam * t):
            assert v1 < v0

    @given(param_strategy, st.floats(min_value=0.0, max_value=1e3))
    def test_bounded_by_projection_noise(self, p, t):
        v = conditional_variance(p, t)
        assert 0.0 < v <= p.j_total / 2.0


class TestStepMean:
    def test_no_field_no_noise_is_fixed_point(self):
        p = params(b_true=0.0)
        rec = simulate_trajectory(p, make_grid(p, dt=1e-3), substream(0, 0), zero_noise=True)
        np.testing.assert_array_equal(rec.mean_jz, 0.0)

    def test_drift_only_larmor_ramp(self):
        # M -> 0: mean grows like gamma*B*J*t
        p = params(meas_strength=1e-9, efficiency=1.0, b_true=0.02, t_total=0.2)
        rec = simulate_trajectory(p, make_grid(p, dt=1e-3), substream(0, 0), zero_noise=True)
        assert len(rec.times) == 201
        assert rec.mean_jz[-1] == pytest.approx(p.gamma * p.b_true * p.j_total * p.t_total,
                                                rel=1e-6)

    def test_ensemble_variance_matches_ito_isometry(self):
        # Var[mean(t)] = J/2 * lam t / (1 + lam t), lam = 2 eta M J
        p = params(b_true=0.0, j_total=20.0, meas_strength=2.0, efficiency=0.7, t_total=1.0)
        grid = make_grid(p, dt=5e-3)
        n_seeds = 1500
        finals = np.empty(n_seeds)
        for i in range(n_seeds):
            finals[i] = simulate_trajectory(p, grid, substream(314, i)).mean_jz[-1]
        lam = 2 * p.efficiency * p.meas_strength * p.j_total
        expected = (p.j_total / 2.0) * lam * p.t_total / (1.0 + lam * p.t_total)
        rel_3sigma = 3.0 * math.sqrt(2.0 / (n_seeds - 1))
        assert abs(finals.var() / expected - 1.0) < rel_3sigma

    def test_ensemble_drift_check(self):
        # E[mean(t)] = gamma B J (2/M)(1 - e^{-Mt/2}); exact per-step averaging
        p = params(b_true=0.05, meas_strength=8.0, t_total=0.25)
        grid = make_grid(p, dt=1e-3)
        n_seeds = 400
        finals = np.empty(n_seeds)
        for i in range(n_seeds):
            finals[i] = simulate_trajectory(p, grid, substream(2718, i)).mean_jz[-1]
        m = p.meas_strength
        expected = p.gamma * p.b_true * p.j_total * (2.0 / m) * (1.0 - math.exp(-m * p.t_total / 2.0))
        sem = finals.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(finals.mean() - expected) < 3.5 * sem


class TestPhotocurrent:
    """The record relation d_xi = m dt + dW / (2 sqrt(M eta)), y = 2 eta sqrt(M) d_xi / dt."""

    def test_zero_mean_zero_noise(self):
        p = params(b_true=0.0)
        rec = simulate_trajectory(p, make_grid(p, dt=1e-3), substream(0, 0), zero_noise=True)
        np.testing.assert_array_equal(rec.y, 0.0)
        np.testing.assert_array_equal(rec.d_xi, 0.0)

    def test_direct_substitution(self):
        p = params(efficiency=1.0, meas_strength=4.0)
        rec = simulate_trajectory(p, make_grid(p, dt=1e-2), substream(0, 0), zero_noise=True)
        dts = np.diff(rec.times)
        assert rec.mean_jz[-1] > 0.0
        np.testing.assert_allclose(rec.d_xi, rec.mean_jz[:-1] * dts, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(rec.y, 4.0 * rec.mean_jz[:-1], rtol=1e-14, atol=0.0)

    def test_moments(self):
        p = params(meas_strength=5.0, efficiency=0.6, b_true=0.0)
        dt = 1e-2
        rec = simulate_trajectory(p, TimeGrid.uniform(dt, 40000), substream(11, 0))
        resid = rec.d_xi - rec.mean_jz[:-1] * dt
        assert resid.mean() == pytest.approx(0.0, abs=4 * resid.std() / 200)
        expected_var = dt / (4 * p.meas_strength * p.efficiency)
        assert resid.var() == pytest.approx(expected_var, rel=0.05)


class TestBlockedLoops:
    """The record runs in blocks of SCAN_BLOCK steps: the mean as one running sum
    per block, the low-pass as a Python-float loop.  Both must equal their
    per-element loops bit for bit."""

    N_STEPS = 4 * SCAN_BLOCK + 5

    def test_mean_matches_per_step_loop(self):
        p = params()
        grid = TimeGrid.uniform(p.t_total / self.N_STEPS, self.N_STEPS)
        rec = simulate_trajectory(p, grid, substream(4, 1))
        drift, g = step_coefficients(p, grid.times)
        drift *= p.b_true
        g_sqdt = g * np.sqrt(np.diff(grid.times))
        z = substream(4, 1).generator().standard_normal(self.N_STEPS)
        mean = np.empty(self.N_STEPS + 1)
        mean[0] = m = 0.0
        for k in range(self.N_STEPS):
            m = m + drift[k] + g_sqdt[k] * z[k]
            mean[k + 1] = m
        assert rec.mean_jz.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_record_matches_whole_grid_expressions(self, zero_noise):
        # the record's other arrays, filled block by block, against one
        # expression each over the whole grid; a log prefix varies the steps
        p = params()
        grid = TimeGrid(p.t_total / self.N_STEPS, self.N_STEPS - 20,
                        prefix=np.geomspace(1e-7, 1e-5, 20))
        rec = simulate_trajectory(p, grid, substream(4, 1), zero_noise=zero_noise)
        times = grid.times
        dts = np.diff(times)
        sq = np.sqrt(dts)
        z = (np.zeros(self.N_STEPS) if zero_noise
             else substream(4, 1).generator().standard_normal(self.N_STEPS))
        d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
        d_xi = rec.mean_jz[:-1] * dts + d * sq * z
        want = {"d_xi": d_xi,
                "y": d_xi * (2.0 * p.efficiency * math.sqrt(p.meas_strength)) / dts,
                "noise": sq * z,
                "var_jz": conditional_variance(p, times),
                "bloch": bloch_length(p, times)}
        for name, w in want.items():
            assert getattr(rec, name).tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("n", [0, 1, 2 * SCAN_BLOCK, N_STEPS])
    def test_lowpass_matches_per_sample_loop(self, n):
        y = np.random.default_rng(5).normal(size=n)
        alpha = 1.0 - math.exp(-2.0 * math.pi * 30.0 * 1e-3)
        want = np.empty(n)
        acc = 0.0
        for k, v in enumerate(y):
            acc += alpha * (v - acc)
            want[k] = acc
        assert lowpass_filter(y, dt=1e-3, cutoff_hz=30.0).tobytes() == want.tobytes()


class TestRecordStream:
    """The record kept as each block's start: its blocks and each block regenerated
    from its start are the whole record's, bit for bit."""

    N_STEPS = 2 * SCAN_BLOCK + 5

    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_rows_match_the_whole_record(self, zero_noise):
        p = params()
        grid = TimeGrid(p.t_total / self.N_STEPS, self.N_STEPS - 20,
                        prefix=np.geomspace(1e-7, 1e-5, 20))
        rec = simulate_trajectory(p, grid, substream(4, 1), zero_noise=zero_noise)
        n, n_pref = grid.n_intervals, 20
        filtered = lowpass_filter(rec.y[n_pref:], grid.dt, math.sqrt(p.j_total) / p.t_total)
        stream = RecordStream(p, grid, substream(4, 1), zero_noise=zero_noise)
        blocks = list(stream.blocks())
        assert len(stream.starts) == len(blocks) == 3
        for j, block in enumerate(blocks):
            s, e = j * SCAN_BLOCK, min((j + 1) * SCAN_BLOCK, n)
            again, y_filtered = stream.block(j)
            for name, whole in zip(TrajectoryRecord._fields, rec):
                want = whole[s:e + 1] if len(whole) == n + 1 else whole[s:e]
                assert getattr(block, name).tobytes() == want.tobytes(), (j, name)
                assert getattr(again, name).tobytes() == want.tobytes(), (j, name)
            assert y_filtered.tobytes() == filtered[max(s - n_pref, 0):e - n_pref].tobytes(), j

    @pytest.mark.parametrize("split", [1, SCAN_BLOCK - 1, SCAN_BLOCK + 3])
    def test_lowpass_runs_on_from_its_start_value(self, split):
        y = np.random.default_rng(3).normal(size=2 * SCAN_BLOCK + 7)
        whole = lowpass_filter(y, dt=1e-3, cutoff_hz=30.0)
        head = lowpass_filter(y[:split], dt=1e-3, cutoff_hz=30.0)
        tail = lowpass_filter(y[split:], dt=1e-3, cutoff_hz=30.0, start=float(head[-1]))
        assert np.concatenate([head, tail]).tobytes() == whole.tobytes()


class TestSimulateTrajectory:
    def test_same_seed_bit_identical(self):
        p = params()
        grid = make_grid(p, dt=2e-3)
        a = simulate_trajectory(p, grid, substream(7, 3))
        b = simulate_trajectory(p, grid, substream(7, 3))
        assert a.mean_jz.tobytes() == b.mean_jz.tobytes()
        assert a.d_xi.tobytes() == b.d_xi.tobytes()
        assert csv_text(a) == csv_text(b)

    def test_var_matches_closed_form(self):
        p = params()
        grid = make_grid(p, dt=2e-3)
        rec = simulate_trajectory(p, grid, substream(7, 0))
        np.testing.assert_array_equal(rec.var_jz, conditional_variance(p, grid.times))
        np.testing.assert_allclose(rec.bloch, bloch_length(p, grid.times), rtol=1e-14)

    def test_record_consistency_inverts_noise(self):
        p = params()
        grid = make_grid(p, dt=1e-3)
        rec = simulate_trajectory(p, grid, substream(123, 5))
        np.testing.assert_allclose(reconstruct_noise(rec, p), rec.noise,
                                   rtol=1e-10, atol=1e-16)

    def test_fig1_record_in_bounded_memory(self):
        # the six record arrays and one block's temporaries: the whole-grid
        # expressions peaked at 12.06 grid-length float64 arrays.  The record's
        # times column is the grid's times, formed on first use: in the lazy set-up
        cfg = load_preset("fig1")
        p, grid = cfg.params, cfg.make_grid()
        simulate_trajectory(p, TimeGrid.uniform(p.t_total / 10, 10), substream(5, 0))  # lazy set-up
        assert len(grid.times) == grid.n_intervals + 1
        tracemalloc.start()
        try:
            rec = simulate_trajectory(p, grid, substream(5, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 8 * len(grid.times)
        # inverting the record forms its one result array in place (3 arrays before)
        tracemalloc.start()
        try:
            dw = reconstruct_noise(rec, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dw.nbytes <= peak < 1.1 * 8 * len(grid.times)

    def test_late_time_offset_variance_is_projection_noise(self):
        # B=0: the localized offsets are distributed with variance J/2
        p = params(b_true=0.0, j_total=50.0, meas_strength=10.0, efficiency=1.0, t_total=1.0)
        grid = make_grid(p, dt=2e-3)
        n_seeds = 1200
        offsets = np.empty(n_seeds)
        for i in range(n_seeds):
            offsets[i] = simulate_trajectory(p, grid, substream(555, i)).mean_jz[-1]
        lam_t = 2 * p.efficiency * p.meas_strength * p.j_total * p.t_total
        assert lam_t > 500  # offsets have effectively frozen
        rel_3sigma = 3.0 * math.sqrt(2.0 / (n_seeds - 1))
        assert abs(offsets.var() / (p.j_total / 2.0) - 1.0) < rel_3sigma + (1.0 / lam_t)

    def test_small_angle_warning(self):
        p = params(b_true=10.0, t_total=0.5)  # omega_L t = 7.5
        with pytest.warns(UserWarning, match="small-angle"):
            simulate_trajectory(p, make_grid(p, dt=5e-2), substream(0, 0))

    def test_zero_noise_gives_pure_drift(self):
        p = params(b_true=0.03)
        grid = make_grid(p, dt=1e-3)
        rec = simulate_trajectory(p, grid, substream(9, 9), zero_noise=True)
        m = p.meas_strength
        expected = (p.gamma * p.b_true * p.j_total * (2.0 / m)
                    * (1.0 - np.exp(-m * grid.times / 2.0)))
        np.testing.assert_allclose(rec.mean_jz, expected, rtol=1e-9, atol=1e-12)

    def test_csv_round_trip_columns(self):
        p = params()
        grid = TimeGrid.uniform(0.05, 4)
        rec = simulate_trajectory(p, grid, substream(1, 1))
        text = csv_text(rec)
        header = text.splitlines()[0]
        assert header == "t,mean_jz,var_jz,bloch_length,y,d_xi"
        assert len(text.splitlines()) == 6  # header + 5 grid points

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_record_consistency_property(self, seed, stream):
        p = params(t_total=0.05)
        grid = make_grid(p, dt=5e-3)
        rec = simulate_trajectory(p, grid, substream(seed, stream))
        dts = np.diff(rec.times)
        lhs = rec.d_xi
        rhs = rec.mean_jz[:-1] * dts + rec.noise / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-18)


class TestStepCoefficients:
    def test_exact_increment_variance_on_coarse_grid(self):
        # even when a step swallows most of the collapse, g^2 dt is exact
        p = params(j_total=4e6, gamma=2 * math.pi * 1e6, b_true=1e-6,
                   meas_strength=1e5, efficiency=1.0, prior_b_variance=1e-8, t_total=2e-3)
        times = np.array([0.0, 1e-8, 2e-8])
        _, g = step_coefficients(p, times)
        dts = np.diff(times)
        v = conditional_variance(p, times)
        np.testing.assert_allclose(g * g * dts, v[:-1] - v[1:], rtol=1e-12)

    @pytest.mark.parametrize("m, dt", [(1e-9, 1e-3), (1e-5, 1e-3), (50.0, 1e-3), (1e5, 1e-8),
                                       (1e5, 1e-3)])
    def test_phi12_matches_50_digit_reference(self, m, dt):
        # phi12 = gamma J (2/M) (exp(-M t0/2) - exp(-M t1/2)) on the float grid
        # points, evaluated in 50 digits: no cancellation however small M dt is.
        # Rounding M t / 2 alone costs eps M t / 2 relative, hence the tolerance.
        mpmath = pytest.importorskip("mpmath")
        p = params(meas_strength=m)
        times = np.concatenate([dt * np.arange(6), [0.37, 0.37 + dt]])
        phi12, _ = step_coefficients(p, times)
        with mpmath.workdps(50):
            half = mpmath.mpf(m) / 2
            want = [mpmath.mpf(p.gamma) * mpmath.mpf(p.j_total) / half
                    * (mpmath.exp(-half * mpmath.mpf(a)) - mpmath.exp(-half * mpmath.mpf(b)))
                    for a, b in zip(times[:-1].tolist(), times[1:].tolist())]
            want = np.array([float(w) for w in want])
        rtol = 4e-15 * (1.0 + m * times[1:] / 2.0)
        assert np.all(np.abs(phi12 - want) <= rtol * want)

    # under one block, just under and at two, and four and a tail
    @pytest.mark.parametrize("n_steps", [1, 2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK,
                                         4 * SCAN_BLOCK + 5])
    def test_blocks_match_whole_grid_formula(self, n_steps):
        p = params()
        times = p.t_total * (np.arange(n_steps + 1) / n_steps) ** 2  # non-uniform steps
        got, want = step_coefficients(p, times), whole_step_coefficients(p, times)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_fig1_grid_matches_whole_grid_formula(self):
        # the memory bound is the passes': no command hands it more than one block
        cfg = load_preset("fig1")
        times = cfg.make_grid().times
        got, want = step_coefficients(cfg.params, times), whole_step_coefficients(cfg.params, times)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestLowpass:
    def test_dc_gain_unity(self):
        y = np.full(2000, 2.5)
        out = lowpass_filter(y, dt=1e-3, cutoff_hz=30.0)
        assert out[-1] == pytest.approx(2.5, rel=1e-6)

    def test_impulse_response_time_constant(self):
        dt, fc = 1e-4, 40.0
        y = np.zeros(4000)
        y[0] = 1.0
        out = lowpass_filter(y, dt=dt, cutoff_hz=fc)
        tau = 1.0 / (2 * math.pi * fc)
        k = 1200
        expected_ratio = math.exp(-k * dt / tau)
        assert out[k] / out[0] == pytest.approx(expected_ratio, rel=1e-9)

    def test_white_noise_variance_reduction(self):
        dt, fc = 1e-4, 50.0
        rng = np.random.default_rng(3)
        y = rng.normal(0.0, 1.0, 400000)
        out = lowpass_filter(y, dt=dt, cutoff_hz=fc)
        factor = out[2000:].var() / y.var()
        assert factor == pytest.approx(math.pi * fc * dt, rel=0.10)

    def test_record_stream_cutoff(self):
        # the display cutoff sqrt(J)/t_total Hz
        p = params(j_total=400.0, t_total=0.5)
        assert RecordStream(p, make_grid(p, dt=1e-3), substream(0, 0)).cutoff_hz == 40.0

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            lowpass_filter(np.ones(4), dt=0.1, cutoff_hz=0.0)
