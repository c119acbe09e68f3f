import io
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkfmag
from qkfmag.config import load_preset
from qkfmag.core import INFINITE, PhysicalParams, TimeGrid, make_grid
from qkfmag.dynamics import simulate_trajectory
from qkfmag.estimators import kalman_schedule, regression_estimate, run_kalman
from qkfmag.montecarlo import (
    EnsembleSpec,
    _build_plan,
    checkpoints_for_times,
    log_checkpoints,
    run_ensemble,
    scaling_study,
    substream,
)

FIG2 = dict(j_total=4e6, gamma=2 * math.pi * 1e6, b_true=1e-6, meas_strength=1e5,
            efficiency=1.0, prior_b_variance=1e-8, t_total=2e-3)


def toy(**kw):
    base = dict(j_total=100.0, gamma=1.5, b_true=0.01, meas_strength=50.0,
                efficiency=0.8, prior_b_variance=0.05, t_total=0.5)
    base.update(kw)
    return PhysicalParams(**base)


def toy_spec(n_traj=64, seed=7, **kw):
    p = toy(**kw)
    grid = make_grid(p, dt=1e-3)
    cps = checkpoints_for_times(grid, [0.1, 0.5])
    return EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=seed,
                        checkpoints=cps)


def convergence_spec(n_traj):
    """Fig-2 physics over [0, 0.5/M] at B = 0 with no prior: a log-prefix grid
    of 563 steps, the information form, and checkpoints off the shared bin
    edges (the acceptance ``convergence_run`` shape)."""
    p = PhysicalParams(**dict(FIG2, b_true=0.0, prior_b_variance=INFINITE, t_total=0.5e-5))
    grid = make_grid(p)
    jm = p.j_total * p.meas_strength
    wanted = np.concatenate([[1.0 / jm], np.geomspace(10.0 / jm, p.t_total, 12)])
    cps = checkpoints_for_times(grid, wanted, require_bin_edges=False)
    return EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=20260810, checkpoints=cps)


def oracle_mse(spec):
    """Per-checkpoint MSE of simulate_trajectory + run_kalman / regression_estimate."""
    p, grid, cps = spec.params, spec.grid, spec.checkpoints
    sched = kalman_schedule(p, grid)
    err = {name: np.zeros((len(cps), spec.n_traj)) for name in spec.estimators}
    for i in range(spec.n_traj):
        rec = simulate_trajectory(p, grid, substream(spec.master_seed, i))
        trace = run_kalman(p, rec, sched)
        for c, idx in enumerate(cps):
            if "qkf" in err:
                err["qkf"][c, i] = (trace.b_tilde[idx] - p.b_true) ** 2
            if "regression" in err:
                err["regression"][c, i] = (regression_estimate(rec, p, grid.times[idx])
                                           - p.b_true) ** 2
    return {name: e.mean(axis=1) for name, e in err.items()}


def csv_text(stats):
    buf = io.StringIO()
    stats.to_csv(buf)
    return buf.getvalue()


class TestSpecValidation:
    def test_needs_two_trajectories(self):
        p = toy()
        grid = make_grid(p, dt=1e-2)
        with pytest.raises(ValueError, match="n_traj"):
            EnsembleSpec(params=p, grid=grid, n_traj=1, master_seed=0, checkpoints=(1,))

    def test_unknown_estimator(self):
        p = toy()
        grid = make_grid(p, dt=1e-2)
        with pytest.raises(ValueError, match="unknown estimators"):
            EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0,
                         estimators=("qkf", "mystery"), checkpoints=(1,))

    def test_checkpoints_in_range_and_sorted(self):
        p = toy()
        grid = make_grid(p, dt=1e-2)
        n = len(grid.times)
        with pytest.raises(ValueError, match="checkpoints"):
            EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, checkpoints=(n + 5,))
        with pytest.raises(ValueError, match="checkpoints"):
            EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, checkpoints=(5, 3))


class TestSubstream:
    def test_injectivity_spot_check(self):
        seen = {substream(9, i).generator().standard_normal(4).tobytes() for i in range(64)}
        assert len(seen) == 64

    def test_pure_function(self):
        a = substream(123, 45)
        b = substream(123, 45)
        assert a == b
        np.testing.assert_array_equal(a.generator().standard_normal(16),
                                      b.generator().standard_normal(16))


class TestRunEnsemble:
    def test_deterministic(self):
        spec = toy_spec()
        s1, s2 = run_ensemble(spec), run_ensemble(spec)
        for k in ("qkf", "regression"):
            assert s1.mse[k].tobytes() == s2.mse[k].tobytes()
            assert s1.stderr[k].tobytes() == s2.stderr[k].tobytes()
        buf1, buf2 = io.StringIO(), io.StringIO()
        s1.to_csv(buf1)
        s2.to_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_worker_count_invariance(self):
        spec = toy_spec(n_traj=2200)
        s1 = run_ensemble(spec, workers=1)
        s2 = run_ensemble(spec, workers=3)
        for k in ("qkf", "regression"):
            assert s1.mse[k].tobytes() == s2.mse[k].tobytes()
            assert s1.stderr[k].tobytes() == s2.stderr[k].tobytes()
            assert s1.mean_b[k].tobytes() == s2.mean_b[k].tobytes()

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    def test_matches_reference_path(self):
        # the vectorized engine must agree with simulate + run_kalman +
        # regression_estimate trajectory by trajectory
        spec = toy_spec(n_traj=6)
        stats = run_ensemble(spec)
        ref = oracle_mse(spec)
        np.testing.assert_allclose(stats.mse["qkf"], ref["qkf"], rtol=1e-12)
        np.testing.assert_allclose(stats.mse["regression"], ref["regression"], rtol=1e-9)

    def test_unbiased_at_zero_field(self):
        spec = toy_spec(n_traj=600, b_true=0.0)
        stats = run_ensemble(spec)
        for i in range(len(stats.times)):
            sd_mean = math.sqrt(stats.mse["qkf"][i] / spec.n_traj)
            assert abs(stats.mean_b["qkf"][i]) < 3.5 * sd_mean

    def test_stderr_shrinks_like_sqrt_n(self):
        outs = {}
        for n in (100, 1000, 10000):
            spec = toy_spec(n_traj=n, seed=31)
            outs[n] = run_ensemble(spec).stderr["qkf"][-1]
        r1 = outs[100] / outs[1000]
        r2 = outs[1000] / outs[10000]
        assert 2.0 < r1 < 5.0       # ~ sqrt(10) = 3.16 with sampling slack
        assert 2.3 < r2 < 4.3

    def test_requires_checkpoints(self):
        p = toy()
        grid = make_grid(p, dt=1e-2)
        spec = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, checkpoints=())
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(spec)

    def test_summary_roundtrip(self):
        import json
        stats = run_ensemble(toy_spec(n_traj=8))
        d = stats.summary_dict()
        json.dumps(d)  # serializable
        assert d["n_traj"] == 8
        assert set(d["mse"]) == {"qkf", "regression"}


class TestCheckpointHelpers:
    def test_snap_to_grid(self):
        grid = TimeGrid.uniform(0.1, 10)
        cps = checkpoints_for_times(grid, [0.31, 0.99])
        assert grid.times[cps[0]] == pytest.approx(0.3)
        assert grid.times[cps[1]] == pytest.approx(1.0)

    def test_log_checkpoints_spacing(self):
        grid = TimeGrid.uniform(1e-3, 1000)
        cps = log_checkpoints(grid, 1e-2, per_decade=10)
        assert len(cps) >= 15
        assert cps[-1] == 1000


class TestScalingStudy:
    def test_span_validation(self):
        base = toy_spec(n_traj=4)
        with pytest.raises(ValueError, match="at least 4"):
            scaling_study(base, [1e2, 1e3, 1e4])
        with pytest.raises(ValueError, match="two decades"):
            scaling_study(base, [1e2, 2e2, 4e2, 8e2])

    def test_shotnoise_slope_exact(self):
        base = toy_spec(n_traj=8, b_true=0.0)
        res = scaling_study(base, [10, 100, 1000, 10000], t_check=0.05)
        assert res.shotnoise_slope == pytest.approx(-0.5, abs=1e-12)

    def test_reproducible(self):
        base = toy_spec(n_traj=16, b_true=0.0)
        r1 = scaling_study(base, [10, 100, 1000, 10000], t_check=0.05)
        r2 = scaling_study(base, [10, 100, 1000, 10000], t_check=0.05)
        for k in r1.rms:
            np.testing.assert_array_equal(r1.rms[k], r2.rms[k])
        assert r1.slopes == r2.slopes


class TestStoredRecordRegression:
    """Checkpoints whose bins differ from the shared ones (inside a log
    prefix) get their own line-fit weights, binned as regression_estimate
    bins them."""

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    def test_matches_regression_estimate(self):
        p = toy(j_total=5000.0, b_true=0.0)   # collapse_rate*dt >> 1: prefix grid
        grid = make_grid(p, dt=1e-3)
        assert grid.prefix.size > 0
        lam = 2 * p.efficiency * p.meas_strength * p.j_total
        early = checkpoints_for_times(grid, [20.0 / lam], require_bin_edges=False)
        late = checkpoints_for_times(grid, [0.4])
        cps = tuple(sorted(set(early + late)))
        spec = EnsembleSpec(params=p, grid=grid, n_traj=5, master_seed=3, checkpoints=cps)
        stats = run_ensemble(spec)
        reg = np.zeros((len(cps), spec.n_traj))
        for i in range(spec.n_traj):
            rec = simulate_trajectory(p, grid, substream(3, i))
            for c, idx in enumerate(cps):
                reg[c, i] = (regression_estimate(rec, p, grid.times[idx]) - p.b_true) ** 2
        np.testing.assert_allclose(stats.mse["regression"], reg.mean(axis=1), rtol=1e-9)

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    def test_long_grid_off_edge_checkpoint(self):
        # fig-2 grid, 200,063 steps; checkpoint 3 lies inside the log prefix,
        # off the shared bin edges
        p = PhysicalParams(**FIG2)
        grid = make_grid(p)
        last = len(grid.times) - 1
        lam = 2 * p.efficiency * p.meas_strength * p.j_total
        off_edge = checkpoints_for_times(grid, [20.0 / lam], require_bin_edges=False)[0]
        qkf = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, estimators=("qkf",),
                           checkpoints=(3, off_edge))
        both = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0,
                            checkpoints=(off_edge, last))
        ref_qkf, ref_both = oracle_mse(qkf), oracle_mse(both)
        np.testing.assert_allclose(run_ensemble(qkf).mse["qkf"], ref_qkf["qkf"], rtol=1e-10)
        stats = run_ensemble(both)
        np.testing.assert_allclose(stats.mse["regression"], ref_both["regression"], rtol=1e-9)
        # after 200k steps the stepwise oracle's own rounding is ~1e-9 of the
        # filter error (measured against a long-double replay)
        np.testing.assert_allclose(stats.mse["qkf"], ref_both["qkf"], rtol=1e-8)
        # checkpoint 3 leaves two line-fit bins: the engine, like the oracle, refuses the fit
        rec = simulate_trajectory(p, grid, substream(0, 0))
        with pytest.raises(ValueError, match="at least 3 points"):
            regression_estimate(rec, p, grid.times[3])
        with pytest.raises(ValueError, match="fewer than 3 regression bins"):
            run_ensemble(EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0,
                                      checkpoints=(3,)))


class TestChunkScan:
    """The chunked affine scan against the stepwise oracles and its own invariances."""

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    def test_prefix_infinite_prior_off_edge_matches_oracles(self):
        spec = convergence_spec(n_traj=6)
        assert spec.grid.prefix.size > 0
        stats = run_ensemble(spec)
        ref = oracle_mse(spec)
        np.testing.assert_allclose(stats.mse["qkf"], ref["qkf"], rtol=1e-10)
        np.testing.assert_allclose(stats.mse["regression"], ref["regression"], rtol=1e-9)

    def test_worker_count_byte_identical(self):
        spec = convergence_spec(n_traj=2200)
        s1 = run_ensemble(spec, workers=1)
        s3 = run_ensemble(spec, workers=3)
        assert csv_text(s1) == csv_text(s3)
        for k in s1.estimators:
            for field in ("mse", "stderr", "mean_b"):
                assert getattr(s1, field)[k].tobytes() == getattr(s3, field)[k].tobytes()

    def test_blas_thread_count_byte_identical(self, tmp_path):
        path = tmp_path / "spec.pkl"
        # a 400-step chunk over a 1024-trajectory block: OpenBLAS would split
        # that product between two threads
        spec = toy_spec(n_traj=1100)
        path.write_bytes(pickle.dumps(spec))
        code = ("import pickle, sys; from qkfmag.montecarlo import run_ensemble; "
                f"run_ensemble(pickle.loads(open({str(path)!r}, 'rb').read())).to_csv(sys.stdout)")
        src = str(Path(qkfmag.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count("\n") == 1 + 2 * len(spec.checkpoints)


class TestCovarianceIdentity:
    """No noise drawn: the plan's chunk maps propagate the covariance of the
    state, Sigma <- phi Sigma phi^T + h_t h_t^T, and the filter estimate's
    variance over the noise must equal the schedule's prediction,
    v22 (1 - v22/p0) for a finite prior p0 and v22/shrink for an infinite
    one.  This separates discretization error from Monte Carlo noise."""

    @staticmethod
    def check(spec):
        plan = _build_plan(spec)
        sigma = np.zeros(plan.chunks[0].phi.shape)
        var_b = np.zeros(len(spec.checkpoints))
        for ch in plan.chunks:
            sigma = ch.phi @ sigma @ ch.phi.T + ch.h_t @ ch.h_t.T
            if ch.checkpoint >= 0:
                var_b[ch.checkpoint] = sigma[2, 2]
        sched = kalman_schedule(spec.params, spec.grid)
        cps = list(spec.checkpoints)
        v22 = sched.v22[cps]
        if sched.info_form:
            shrink = sched.shrink[cps]
            got, want = var_b / shrink**2, v22 / shrink
        else:
            got, want = var_b, v22 * (1.0 - v22 / spec.params.prior_b_variance)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_fig2_preset(self):
        cfg = load_preset("fig2")
        grid = cfg.make_grid()
        cps = log_checkpoints(grid, cfg.ensemble.first_checkpoint,
                              cfg.ensemble.checkpoints_per_decade)
        self.check(EnsembleSpec(params=cfg.params, grid=grid, n_traj=2, master_seed=cfg.seed,
                                checkpoints=cps))

    def test_infinite_prior(self):
        self.check(convergence_spec(n_traj=2))
