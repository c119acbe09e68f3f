import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qkfmag import sme_oracle
from qkfmag.config import load_preset
from qkfmag.core import PhysicalParams, TimeGrid
from qkfmag.dynamics import simulate_trajectory
from qkfmag.rng import substream
from qkfmag.sme_oracle import (
    MEAN_DEVIATION_FRAC,
    build_spin_operators,
    coherent_populations,
    coherent_spin_state_x,
    compare_to_gaussian,
    dephasing_rate_errors,
    recommended_dt,
    sme_step,
)

from sme_measures import CLOSED_FORM_TOL, check_density, closed_form_compare, \
    closed_form_moments, deviation_mismatch, dense_step, oracle_moments, positivity_tolerance, \
    rms_var_frac


def small_params(j, m=1.0, eta=1.0, b=0.0, t_total=0.1):
    return PhysicalParams(j_total=j, gamma=1.0, b_true=b, meas_strength=m,
                          efficiency=eta, prior_b_variance=1.0, t_total=t_total)


def oracle_grid(p):
    dt = recommended_dt(p, p.j_total)
    n = int(math.ceil(p.t_total / dt))
    return TimeGrid.uniform(p.t_total / n, n)


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        ops = build_spin_operators(0.5)
        np.testing.assert_allclose(ops.jz, np.diag([0.5, -0.5]), atol=1e-15)
        np.testing.assert_allclose(ops.jx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)
        np.testing.assert_allclose(ops.jy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-15)

    def test_spin_one_matrices(self):
        ops = build_spin_operators(1.0)
        np.testing.assert_allclose(np.diag(ops.jz), [1.0, 0.0, -1.0], atol=1e-15)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(ops.jx, np.array([[0, s, 0], [s, 0, s], [0, s, 0]]),
                                   atol=1e-14)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 5.0, 10.0])
    def test_commutator_and_casimir(self, j):
        ops = build_spin_operators(j)
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx
        np.testing.assert_allclose(comm, 1j * ops.jz, atol=1e-12)
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(ops.dim), atol=1e-12)

    def test_non_half_integer_rejected(self):
        with pytest.raises(ValueError):
            build_spin_operators(0.7)
        with pytest.raises(ValueError):
            build_spin_operators(-1.0)


class TestCoherentState:
    def test_spin_half_state(self):
        ops = build_spin_operators(0.5)
        rho = check_density(coherent_spin_state_x(ops))
        # (|up> + |down>)/sqrt(2): all entries 1/2
        np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)
        mean, var = oracle_moments(rho, ops)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 7.5, 15.0])
    def test_projection_noise_is_half_j(self, j):
        ops = build_spin_operators(j)
        rho = coherent_spin_state_x(ops)
        mean, var = oracle_moments(rho, ops)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(j / 2.0, abs=1e-10)

    def test_polarization_j2(self):
        ops = build_spin_operators(2.0)
        rho = coherent_spin_state_x(ops)
        jx_mean = float(np.real(np.trace(rho @ ops.jx)))
        assert jx_mean == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("j", [0.5, 3.5, 10.0, 20.0])
    def test_is_the_top_eigenstate_of_jx(self, j):
        ops = build_spin_operators(j)
        rho = check_density(coherent_spin_state_x(ops))
        np.testing.assert_allclose(ops.jx @ rho, j * rho, atol=1e-13)

    def test_diagonal_is_the_binomial_within_an_ulp(self):
        # the closed form's populations against the exact rationals C(2J, J - m) / 4^J;
        # the matrix and the B = 0 comparison's prior read one vector
        for two_j in range(1, 41):
            pops = coherent_spin_state_x(build_spin_operators(two_j / 2.0)).diagonal()
            assert not pops.imag.any() and pops.real.sum() == 1.0
            assert np.array_equal(pops.real, coherent_populations(two_j + 1))
            for k, got in enumerate(pops.real.tolist()):
                exact = Fraction(math.comb(two_j, k), 2**two_j)
                assert abs(Fraction(got) - exact) <= math.ulp(float(exact)), (two_j, k)


class TestSmeStep:
    def test_identity_map_without_generators(self):
        p = small_params(2.0, m=1e-300, eta=1.0, b=0.0)
        ops = build_spin_operators(2.0)
        rho = coherent_spin_state_x(ops)
        new = sme_step(rho, ops, p, dt=1e-3, dW=0.0)
        np.testing.assert_allclose(new, rho, atol=1e-14)

    def test_trace_free_increment(self):
        p = small_params(3.0, m=2.0, eta=0.9, b=0.5)
        ops = build_spin_operators(3.0)
        rho = coherent_spin_state_x(ops)
        new = sme_step(rho, ops, p, dt=1e-4, dW=0.02, renormalize=False)
        assert abs(np.trace(new).real - 1.0) < 1e-12

    def test_field_precesses_like_the_gaussian_model(self):
        # no noise, small angle (gamma B T = 0.05): d<Jz>/dt = +gamma B <Jx>, the
        # Gaussian model's drift B phi12.  The bound, 2e-3 relative, was fixed
        # before running: it covers the second-order angle term (gamma B T)^2 / 6
        # ~ 4e-4 and the Euler step's O(M dt)
        p = small_params(10.0, m=1.0, eta=1e-300, b=0.5, t_total=0.1)
        grid = oracle_grid(p)
        ops = build_spin_operators(10.0)
        rho = coherent_spin_state_x(ops)
        for dt in np.diff(grid.times).tolist():
            rho = sme_step(rho, ops, p, dt, 0.0)
        want = simulate_trajectory(p, grid, substream(0, 0), zero_noise=True).mean_jz[-1]
        assert want > 0.48
        assert oracle_moments(rho, ops)[0] == pytest.approx(want, rel=2e-3)

    def test_invariants_along_noisy_run(self):
        # Hermiticity/trace to 1e-12 per step; positivity to the scheme's
        # intrinsic floor (pure-state zero eigenvalues fluctuate at O(M J dt/2))
        p = small_params(4.0, m=1.0, eta=1.0)
        ops = build_spin_operators(4.0)
        dt = recommended_dt(p, 4.0)
        rng = np.random.default_rng(5)
        rho = coherent_spin_state_x(ops)
        tol = positivity_tolerance(p, dt)
        for k in range(500):
            rho = sme_step(rho, ops, p, dt, rng.normal(0, math.sqrt(dt)))
            if k % 25 == 0:
                check_density(rho, positivity_tol=tol)
        check_density(rho, positivity_tol=tol)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_field_free_step_keeps_a_hermitian_state_exactly(self, renormalize):
        # at B = 0 the step scales r elementwise by exactly symmetric real
        # matrices and is not Hermitized: from an exactly Hermitian state with
        # complex coherences, each output equals its conjugate transpose
        # entry for entry (a zero's sign aside)
        p = small_params(4.0, m=1.0, eta=0.9)
        ops = build_spin_operators(4.0)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        rho = 0.5 * (rho + rho.conj().T)
        assert np.array_equal(rho, rho.conj().T) and np.abs(rho.imag).max() > 0.01
        dt = recommended_dt(p, 4.0)
        for dW in rng.normal(0.0, math.sqrt(dt), 50).tolist():
            rho = sme_step(rho, ops, p, dt, dW, renormalize=renormalize)
            assert np.array_equal(rho, rho.conj().T)

    def test_dephasing_law_exact_solution(self):
        # eta = 0, B = 0: |rho_mm'(t)| = |rho_mm'(0)| exp(-M (m-m')^2 t / 2)
        errs = dephasing_rate_errors(small_params(2.0, m=1.5))
        assert np.max(errs) < 0.01

    def test_dephasing_within_one_percent_up_to_j5(self):
        for j in (1.0, 3.0, 5.0):
            errs = dephasing_rate_errors(small_params(j))
            assert np.max(errs) < 0.01, f"J={j}"

    @pytest.mark.parametrize("j", [1.0, 3.0, 5.0])
    @pytest.mark.parametrize("m", [1.0, 1.5])
    def test_dephasing_errors_are_the_dense_loops(self, monkeypatch, j, m):
        # the dW = 0 steps skip the record term, which adds only zeros
        p = small_params(j, m=m)
        errs = dephasing_rate_errors(p)
        monkeypatch.setattr(sme_oracle, "sme_step", dense_step)
        assert np.array_equal(errs, dephasing_rate_errors(p))


class TestOracleMoments:
    def test_jz_eigenstate(self):
        ops = build_spin_operators(2.0)
        rho = np.zeros((5, 5), dtype=complex)
        rho[1, 1] = 1.0  # m = +1
        mean, var = oracle_moments(rho, ops)
        assert mean == pytest.approx(1.0, abs=1e-14)
        assert var == pytest.approx(0.0, abs=1e-14)


class TestCompareToGaussian:
    def test_j10_matched_noise_within_threshold(self):
        p = small_params(10.0)
        dev = compare_to_gaussian(p, oracle_grid(p), substream(20260810, 0))
        assert dev.max_mean_frac() <= MEAN_DEVIATION_FRAC

    def test_spin_half_gaussian_model_fails(self):
        # once localization sets in (lam*t >> 1), the two-level state pins to
        # +-1/2 while the Gaussian mean is an unconstrained offset: order-one
        # pathwise disagreement in units of sqrt(J/2)
        p = small_params(0.5, t_total=3.0)
        dev = compare_to_gaussian(p, oracle_grid(p), substream(20260810, 1))
        assert dev.max_mean_frac() > 0.3

    def test_eta_zero_field_zero_means_agree_exactly(self):
        p = small_params(3.0, eta=1e-300)
        grid = oracle_grid(p)
        dev = compare_to_gaussian(p, grid, substream(1, 2))
        assert np.max(dev.d_mean) < 1e-10

    def test_agreement_improves_with_j(self):
        # normalized rms variance gap, averaged over fixed seeds, decreases in J
        scores = []
        for j in (2.0, 5.0, 10.0, 20.0):
            p = small_params(j)
            grid = oracle_grid(p)
            vals = [rms_var_frac(compare_to_gaussian(p, grid, substream(100 + s, 0)))
                    for s in range(3)]
            scores.append(np.mean(vals))
        assert all(a > b for a, b in zip(scores, scores[1:])), scores

    @pytest.mark.parametrize("j, eta, log_prefix, seed, t_total", [
        (0.5, 1.0, False, 23, 3.0),
        (0.5, 0.3, True, 158, 1.0),
        (2.0, 0.3, True, 158, 0.1),
        (2.0, 1e-300, False, 23, 0.1),
        (10.0, 1.0, False, 23, 0.1),
        (10.0, 0.3, True, 158, 0.05),
        (10.0, 1e-300, True, 5, 0.05),
        (20.0, 1.0, True, 23, 0.01),
        (20.0, 0.3, False, 158, 0.01),
    ])
    def test_is_the_log_sum_exp_reference(self, j, eta, log_prefix, seed, t_total):
        # the blocked closed form against the per-point fsum reference on the
        # same record, within CLOSED_FORM_TOL
        p = small_params(j, eta=eta, t_total=t_total)
        grid = oracle_grid(p)
        if log_prefix:
            grid = TimeGrid.with_prefix(grid.dt, t_total, grid.dt / 100.0, 1.2)
            assert grid.prefix.size > 0
        dev = compare_to_gaussian(p, grid, substream(seed, 0))
        want = closed_form_compare(p, grid, substream(seed, 0))
        assert np.array_equal(dev.times, want.times)
        assert deviation_mismatch(dev, want) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("j, t_total", [(2.0, 0.1), (5.0, 0.05), (10.0, 0.02)])
    def test_euler_sme_converges_to_the_closed_form(self, j, t_total):
        # the dense Euler SME on one record at recommended_dt, 4x and 16x finer,
        # fed the record as dW_k = 2 sqrt(M eta) (d_xi_k - <Jz>_k dt_k): its mean's
        # largest gap to the closed form at the coarse points shrinks with dt
        p = small_params(j, eta=0.8, t_total=t_total)
        n = int(math.ceil(t_total / recommended_dt(p, j)))
        fine = simulate_trajectory(p, TimeGrid.uniform(t_total / (16 * n), 16 * n),
                                   substream(23, 0))
        want = closed_form_moments(p, fine.times[::16], fine.d_xi.reshape(n, 16).sum(axis=1))[0]
        ops = build_spin_operators(j)
        c = 2.0 * math.sqrt(p.meas_strength * p.efficiency)
        gaps = []
        for per in (1, 4, 16):  # steps per coarse step
            d_xi = fine.d_xi.reshape(n * per, 16 // per).sum(axis=1).tolist()
            dt = t_total / (n * per)
            rho = coherent_spin_state_x(ops)
            gap = 0.0
            for k, dx in enumerate(d_xi, 1):
                rho = sme_step(rho, ops, p, dt, c * (dx - oracle_moments(rho, ops)[0] * dt))
                if k % per == 0:
                    gap = max(gap, abs(oracle_moments(rho, ops)[0] - want[k // per]))
            gaps.append(gap / math.sqrt(j / 2.0))
        assert gaps[0] > gaps[1] > gaps[2], gaps

    def test_rejects_a_field_before_simulating(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("simulated before refusing the field")

        monkeypatch.setattr(sme_oracle, "simulate_trajectory", unreachable)
        p = small_params(2.0, b=0.5)
        with pytest.raises(ValueError, match="b_true = 0"):
            compare_to_gaussian(p, oracle_grid(p), substream(0, 0))

    def test_peak_memory_on_the_oracle_preset(self):
        # the bound is the whole-matrix loop's measured peak (561,621 bytes,
        # all of it in the record's simulation) plus 1.5% for the interpreter's
        # own objects: the loop may keep no array of steps x (2J+1) populations,
        # nor a list of the record's floats (+34 kB)
        oc = load_preset("oracle").oracle
        p = small_params(oc.j_small, t_total=oc.mt_max)
        grid = oracle_grid(p)
        compare_to_gaussian(p, grid, substream(5, 0))  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            compare_to_gaussian(p, grid, substream(5, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_intervals == 4410
        assert peak < 570_000

    def test_rejects_large_j(self):
        p = small_params(40.0)
        with pytest.raises(ValueError, match="j_total <= 20"):
            compare_to_gaussian(p, oracle_grid(p), substream(0, 0))

    def test_csv_schema(self):
        import io
        p = small_params(2.0, t_total=0.01)
        dev = compare_to_gaussian(p, oracle_grid(p), substream(3, 3))
        buf = io.BytesIO()
        dev.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == b"t,d_mean,d_var"
