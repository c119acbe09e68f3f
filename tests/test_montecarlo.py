import dataclasses
import io
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qkfmag
from qkfmag import estimators, montecarlo
from qkfmag.config import load_config, load_preset
from qkfmag.core import INFINITE, PhysicalParams, TimeGrid, make_grid, with_spin
from qkfmag.dynamics import simulate_trajectory, step_coefficients
from qkfmag.estimators import kalman_schedule, riccati_integrate
from qkfmag.montecarlo import (
    EnsembleSpec,
    _build_plan,
    checkpoints_for_times,
    log_checkpoints,
    run_ensemble,
    scaling_study,
)
from qkfmag.rng import substream

from kalman_oracle import run_kalman
from line_fit_oracle import nearest_grid_indices, regression_estimate

FIG2 = dict(j_total=4e6, gamma=2 * math.pi * 1e6, b_true=1e-6, meas_strength=1e5,
            efficiency=1.0, prior_b_variance=1e-8, t_total=2e-3)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def toy(**kw):
    base = dict(j_total=100.0, gamma=1.5, b_true=0.01, meas_strength=50.0,
                efficiency=0.8, prior_b_variance=0.05, t_total=0.5)
    base.update(kw)
    return PhysicalParams(**base)


def toy_spec(n_traj=64, seed=7, dt=1e-3, **kw):
    p = toy(**kw)
    grid = make_grid(p, dt=dt)
    cps = checkpoints_for_times(grid, [0.1, 0.5])
    return EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=seed,
                        checkpoints=cps)


def convergence_spec(n_traj):
    """Fig-2 physics over [0, 0.5/M] at B = 0 with no prior: a log-prefix grid
    of 563 steps, the information form, and checkpoints inside the log
    prefix (the acceptance ``convergence_run`` shape)."""
    p = PhysicalParams(**dict(FIG2, b_true=0.0, prior_b_variance=INFINITE, t_total=0.5e-5))
    grid = make_grid(p)
    jm = p.j_total * p.meas_strength
    wanted = np.concatenate([[1.0 / jm], np.geomspace(10.0 / jm, p.t_total, 12)])
    cps = nearest_grid_indices(grid, wanted)
    return EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=20260810, checkpoints=cps)


def fig2_preset_spec():
    cfg = load_preset("fig2")
    grid = cfg.make_grid()
    cps = log_checkpoints(grid, cfg.ensemble.first_checkpoint,
                          cfg.ensemble.checkpoints_per_decade)
    return EnsembleSpec(params=cfg.params, grid=grid, n_traj=2, master_seed=cfg.seed,
                        checkpoints=cps)


def scaling_preset_spec(j):
    """The grid and single checkpoint scaling_study runs at this J of the scaling preset."""
    cfg = load_preset("scaling")
    t = cfg.scaling.t_check
    p = dataclasses.replace(with_spin(cfg.params, j), t_total=t)
    grid = make_grid(p)
    return EnsembleSpec(params=p, grid=grid, n_traj=2, master_seed=cfg.seed,
                        checkpoints=checkpoints_for_times(grid, [t]))


def planned(spec):
    return spec, _build_plan(spec)


@pytest.fixture(scope="module")
def fig2_plan():
    """The fig2 preset's spec and plan, built once for the tests that patch
    nothing; its arrays are read-only, so no test can change another's data."""
    spec, plan = planned(fig2_preset_spec())
    spec.grid.times.flags.writeable = False
    for seg in plan:
        for field in dataclasses.fields(seg):
            value = getattr(seg, field.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return spec, plan


@pytest.fixture
def spec_and_plan(request):
    """(spec, plan) of a spec factory; ``fig2_preset_spec`` gives the shared ``fig2_plan``."""
    def build(make_spec):
        if make_spec is fig2_preset_spec:
            return request.getfixturevalue("fig2_plan")
        return planned(make_spec())
    return build


@pytest.fixture
def per_step_noise(monkeypatch):
    """Each segment's factor is its per-step noise weights H itself, earlier
    steps first: the engine then draws one normal per step in stream order, as
    the stepwise oracles (simulate_trajectory + run_kalman / regression_estimate)
    do, and must agree with them trajectory by trajectory."""
    monkeypatch.setattr(montecarlo, "_noise_factor", lambda h_t: h_t)


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


def csv_text(stats) -> str:
    buf = io.BytesIO()
    stats.to_csv(buf)
    return buf.getvalue().decode("ascii")


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
        assert csv_text(s1) == csv_text(s2)

    def test_worker_count_invariance(self):
        spec = toy_spec(n_traj=2200)
        s1 = run_ensemble(spec, workers=1)
        s2 = run_ensemble(spec, workers=3)
        for k in ("qkf", "regression"):
            assert s1.mse[k].tobytes() == s2.mse[k].tobytes()
            assert s1.stderr[k].tobytes() == s2.stderr[k].tobytes()
            assert s1.mean_b[k].tobytes() == s2.mean_b[k].tobytes()

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    @pytest.mark.usefixtures("per_step_noise")
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

    def test_zero_prior_reads_zero(self):
        # p0 = 0: the filter never leaves its prior mean, whatever the field
        spec = toy_spec(n_traj=8, prior_b_variance=0.0)
        stats = run_ensemble(spec)
        b = spec.params.b_true
        np.testing.assert_array_equal(stats.mse["qkf"], b * b)
        np.testing.assert_array_equal(stats.mean_b["qkf"], 0.0)
        rec = simulate_trajectory(spec.params, spec.grid, substream(spec.master_seed, 0))
        np.testing.assert_array_equal(run_kalman(spec.params, rec).b_tilde, 0.0)

    def test_requires_checkpoints(self):
        p = toy()
        grid = make_grid(p, dt=1e-2)
        spec = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, checkpoints=())
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(spec)


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


class TestCheckpointSearch:
    """The checkpoint search against its plain form: every grid point is a candidate."""

    def test_checkpoints_match_argmin(self):
        rng = np.random.default_rng(11)
        for grid in (toy_spec().grid, convergence_spec(2).grid,
                     load_config(PERFBENCH / "fig2-identity.json").make_grid(),
                     fig2_preset_spec().grid):
            times = grid.times
            mid = 0.5 * (times[1:] + times[:-1])
            wanted = np.concatenate([rng.uniform(-0.1, 1.2, 40) * grid.t_total,
                                     mid[:40], mid[-5:], times[:10], times[-3:], [0.0]])
            assert checkpoints_for_times(grid, wanted) == nearest_grid_indices(grid, wanted)
            for t in wanted[:10]:
                assert checkpoints_for_times(grid, [t]) == nearest_grid_indices(grid, [t])

    def test_checkpoint_tie_takes_lower_edge(self):
        grid = TimeGrid.uniform(0.25, 8)
        assert checkpoints_for_times(grid, [0.375]) == (1,)
        assert checkpoints_for_times(grid, [0.375, 1.875, 9.0, -1.0]) == (1, 7, 8)
        assert checkpoints_for_times(TimeGrid.uniform(0.25, 1), [0.1, 3.0]) == (1,)


class TestScalingStudy:
    def test_span_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            scaling_study(toy(), [1e2, 1e3, 1e4], n_traj=4, master_seed=7)
        with pytest.raises(ValueError, match="two decades"):
            scaling_study(toy(), [1e2, 2e2, 4e2, 8e2], n_traj=4, master_seed=7)

    def test_shotnoise_slope_exact(self):
        res = scaling_study(toy(b_true=0.0), [10, 100, 1000, 10000], n_traj=8, master_seed=7,
                            t_check=0.05)
        assert res.shotnoise_slope == pytest.approx(-0.5, abs=1e-12)

    def test_reproducible(self):
        args = (toy(b_true=0.0), [10, 100, 1000, 10000])
        r1 = scaling_study(*args, n_traj=16, master_seed=7, t_check=0.05)
        r2 = scaling_study(*args, n_traj=16, master_seed=7, t_check=0.05)
        for k in r1.rms:
            np.testing.assert_array_equal(r1.rms[k], r2.rms[k])
        assert r1.slopes == r2.slopes

    def test_scaling_preset_runs_default_grids(self, monkeypatch):
        # the preset has no grid section: its config grid is make_grid's default
        # at every J, the grid and checkpoint TestCovarianceIdentity checks
        cfg = load_preset("scaling")
        ran = []

        def record(spec, workers=1):
            ran.append(spec)
            return run_ensemble(spec, workers)

        monkeypatch.setattr(montecarlo, "run_ensemble", record)
        scaling_study(cfg.params, cfg.scaling.j_values, n_traj=2, master_seed=cfg.seed,
                      t_check=cfg.scaling.t_check, grid_for=cfg.make_grid)
        assert len(ran) == len(cfg.scaling.j_values)
        for spec, j in zip(ran, cfg.scaling.j_values):
            want = scaling_preset_spec(j)
            assert spec.params == want.params
            assert spec.grid == want.grid
            assert spec.checkpoints == want.checkpoints


class TestStoredRecordRegression:
    """Checkpoints inside a log prefix, where the dt weights differ from step
    to step: the engine's line fit against ``regression_estimate``'s
    weighted fit of the same record."""

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    @pytest.mark.usefixtures("per_step_noise")
    def test_matches_regression_estimate(self):
        p = toy(j_total=5000.0, b_true=0.0)   # collapse_rate*dt >> 1: prefix grid
        grid = make_grid(p, dt=1e-3)
        assert grid.prefix.size > 0
        lam = 2 * p.efficiency * p.meas_strength * p.j_total
        early = nearest_grid_indices(grid, [20.0 / lam])
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
    @pytest.mark.usefixtures("per_step_noise")
    def test_long_grid_log_prefix_checkpoint(self):
        # fig-2 grid, 200,063 steps; checkpoints 2 and 3 lie inside the log prefix
        p = PhysicalParams(**FIG2)
        grid = make_grid(p)
        last = len(grid.times) - 1
        lam = 2 * p.efficiency * p.meas_strength * p.j_total
        early = nearest_grid_indices(grid, [20.0 / lam])[0]
        qkf = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0, estimators=("qkf",),
                           checkpoints=(3, early))
        both = EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0,
                            checkpoints=(early, last))
        ref_qkf, ref_both = oracle_mse(qkf), oracle_mse(both)
        np.testing.assert_allclose(run_ensemble(qkf).mse["qkf"], ref_qkf["qkf"], rtol=1e-10)
        stats = run_ensemble(both)
        np.testing.assert_allclose(stats.mse["regression"], ref_both["regression"], rtol=1e-9)
        # after 200k steps the stepwise oracle's own rounding is ~1e-9 of the
        # filter error (measured against a long-double replay)
        np.testing.assert_allclose(stats.mse["qkf"], ref_both["qkf"], rtol=1e-8)
        # checkpoint 2 leaves the line fit two steps: the engine, like the oracle, refuses it
        rec = simulate_trajectory(p, grid, substream(0, 0))
        with pytest.raises(ValueError, match="at least 3 points"):
            regression_estimate(rec, p, grid.times[2])
        with pytest.raises(ValueError, match="fewer than 3 steps"):
            run_ensemble(EnsembleSpec(params=p, grid=grid, n_traj=4, master_seed=0,
                                      checkpoints=(2,)))


class TestChunkScan:
    """The segment scan against the stepwise oracles and its own invariances."""

    @pytest.mark.filterwarnings("ignore:M \\* t_end")
    @pytest.mark.usefixtures("per_step_noise")
    def test_prefix_infinite_prior_matches_oracles(self):
        spec = convergence_spec(n_traj=6)
        assert spec.grid.prefix.size > 0
        stats = run_ensemble(spec)
        ref = oracle_mse(spec)
        np.testing.assert_allclose(stats.mse["qkf"], ref["qkf"], rtol=1e-10)
        np.testing.assert_allclose(stats.mse["regression"], ref["regression"], rtol=1e-9)

    @pytest.mark.usefixtures("per_step_noise")
    def test_unresolved_prior_scores_nan(self):
        # infinite prior: one step cannot resolve it (no data at grid point 1,
        # since r = 0 at t = 0), and the engine and run_kalman both read NaN there
        spec = dataclasses.replace(convergence_spec(n_traj=3), estimators=("qkf",))
        last = spec.checkpoints[-1]
        spec = dataclasses.replace(spec, checkpoints=(1, last))
        sched = kalman_schedule(spec.params, spec.grid)
        assert sched.data[1] == 0.0 and sched.data[last] > 0.0
        stats = run_ensemble(spec)
        assert np.isnan(stats.mse["qkf"][0]) and np.isnan(stats.mean_b["qkf"][0])
        ref = oracle_mse(spec)["qkf"]
        assert np.isnan(ref[0])
        np.testing.assert_allclose(stats.mse["qkf"][1], ref[1], rtol=1e-10)

    def test_worker_count_byte_identical(self):
        spec = convergence_spec(n_traj=2200)
        s1 = run_ensemble(spec, workers=1)
        s3 = run_ensemble(spec, workers=3)
        assert csv_text(s1) == csv_text(s3)
        for k in s1.estimators:
            for field in ("mse", "stderr", "mean_b"):
                assert getattr(s1, field)[k].tobytes() == getattr(s3, field)[k].tobytes()

    def test_blas_thread_count_byte_identical(self, tmp_path):
        # a 401-step segment over a 1024-trajectory block: OpenBLAS would split
        # that product between two threads; a 4000-step segment of three chunks,
        # two of them full: each chunk refolds the segment's noise factor by a
        # LAPACK QR of an (L + n_col) x n_col matrix
        src = str(Path(qkfmag.__file__).resolve().parents[1])
        for dt, longest in ((1e-3, 401), (1e-4, 4000)):
            spec = toy_spec(n_traj=1100, dt=dt)
            assert max(seg.end - seg.start for seg in _build_plan(spec)) == longest
            path = tmp_path / f"spec-{dt:g}.pkl"
            path.write_bytes(pickle.dumps(spec))
            code = ("import pickle, sys; from qkfmag.montecarlo import run_ensemble; "
                    f"run_ensemble(pickle.loads(open({str(path)!r}, 'rb').read()))"
                    ".to_csv(sys.stdout.buffer)")
            outs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
                run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, timeout=300, check=True)
                outs.append(run.stdout)
            assert outs[0] == outs[1]
            assert outs[0].count("\n") == 1 + 2 * len(spec.checkpoints)


def test_single_worker_run_imports_no_pool_and_no_numpy_ma():
    # start-up cost: no run imports a process pool (~17 ms), the workers are
    # forked, numpy.ma is loaded by np.unique on first use and numpy.polynomial
    # (~5 ms) not at all, and the import builds no float formatter table; a
    # two-worker run reaps every child it forked
    src = str(Path(qkfmag.__file__).resolve().parents[1])
    code = textwrap.dedent("""\
        import os, sys, qkfmag.cli
        from qkfmag.core import PhysicalParams, _format_tables, make_grid
        print(_format_tables.cache_info().currsize)
        from qkfmag.montecarlo import (BLOCK_SIZE, EnsembleSpec, checkpoints_for_times,
                                       run_ensemble)
        p = PhysicalParams(j_total=100.0, gamma=1.5, b_true=0.01, meas_strength=50.0,
                           efficiency=0.8, prior_b_variance=0.05, t_total=0.05)
        grid = make_grid(p, dt=1e-3)
        cps = checkpoints_for_times(grid, [0.02, 0.05])
        for n_traj, workers in ((4, 1), (BLOCK_SIZE + 4, 2)):
            run_ensemble(EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=1,
                                      checkpoints=cps), workers=workers)
            print(sorted({"concurrent.futures.process", "multiprocessing", "numpy.ma",
                          "numpy.polynomial"} & set(sys.modules)))
        try:
            print(os.waitpid(-1, os.WNOHANG))
        except ChildProcessError:
            print("no child")
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    assert run.stdout.split("\n") == ["0", "[]", "[]", "no child", ""]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
class TestForkedWorkers:
    """``run_ensemble``'s blocks on the workers of ``core.forked_map``, forked after the plan:
    failures, interrupts and payloads past a pipe's buffer."""

    def test_failed_worker_raises_and_leaves_no_child(self, monkeypatch, capfd):
        run_block = montecarlo._run_block

        def failing(spec, segments, i0, i1):
            if i0 == montecarlo.BLOCK_SIZE:  # block 1 of 3: worker 1 of 2
                raise FloatingPointError("injected")
            return run_block(spec, segments, i0, i1)

        monkeypatch.setattr(montecarlo, "_run_block", failing)
        with pytest.raises(RuntimeError, match="worker 1 of 2"):
            run_ensemble(toy_spec(n_traj=2 * montecarlo.BLOCK_SIZE + 1), workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "FloatingPointError: injected" in capfd.readouterr().err

    def test_interrupted_parent_kills_and_reaps_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_block", lambda *args: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_ensemble(toy_spec(n_traj=montecarlo.BLOCK_SIZE + 1), workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_payload_larger_than_a_pipe_buffer(self, monkeypatch):
        # 105 blocks of 4: each worker's frames add up to over 64 KiB, at 2 and at 3 workers
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4)
        p = toy()
        grid = make_grid(p, dt=1e-3)
        spec = EnsembleSpec(params=p, grid=grid, n_traj=420, master_seed=3,
                            checkpoints=checkpoints_for_times(grid, np.linspace(0.1, 0.5, 41)))
        assert len(spec.checkpoints) == 41
        assert (420 // 4) // 3 * len(spec.checkpoints) * 3 * 2 * 8 > 64 * 1024
        one = run_ensemble(spec, workers=1)
        for workers in (2, 3):
            many = run_ensemble(spec, workers=workers)
            assert csv_text(many) == csv_text(one)
            for k in one.estimators:
                for field in ("mse", "stderr", "mean_b"):
                    assert getattr(many, field)[k].tobytes() == getattr(one, field)[k].tobytes()


class TestCovarianceIdentity:
    """No noise drawn: the plan's segment maps propagate the covariance of the
    state, Sigma <- phi Sigma phi^T + F F^T, and the filter estimate's
    variance over the noise, v22^2 Sigma_SS, must equal the schedule's
    prediction v22 (1 - v22/p0) (v22 for an infinite prior p0).  This
    separates discretization error from Monte Carlo noise."""

    @staticmethod
    def check(spec, segments):
        sigma = np.zeros(segments[0].phi.shape)
        var_b = []
        for seg in segments:
            sigma = seg.phi @ sigma @ seg.phi.T + seg.factor @ seg.factor.T
            var_b.append(seg.read[0] @ sigma @ seg.read[0])  # the filter's row
        v22 = kalman_schedule(spec.params, spec.grid).v22[list(spec.checkpoints)]
        np.testing.assert_allclose(var_b, v22 * (1.0 - v22 / spec.params.prior_b_variance),
                                   rtol=1e-6)

    def test_fig2_preset(self, fig2_plan):
        self.check(*fig2_plan)

    def test_infinite_prior(self):
        self.check(*planned(convergence_spec(n_traj=2)))

    @pytest.mark.parametrize("j", load_preset("scaling").scaling.j_values)
    def test_scaling_preset(self, j):
        self.check(*planned(scaling_preset_spec(j)))


@pytest.mark.filterwarnings("ignore:M \\* t_end")
class TestMeanIdentity:
    """No noise drawn: the segment maps propagate the mean of the state,
    mu <- phi mu + d, and every estimator's readout of it,
    read @ (unit * mu) + offset,
    must equal that estimator's per-record oracle on the zero-noise record:
    ``run_kalman`` for the filter, ``regression_estimate`` for the line fit.
    The line fit's mean is its Bloch-decay bias, a deterministic curve."""

    @staticmethod
    def check(spec, segments):
        p, times, cps = spec.params, spec.grid.times, list(spec.checkpoints)
        rec = simulate_trajectory(p, spec.grid, substream(spec.master_seed, 0), zero_noise=True)
        mu = np.zeros(segments[0].phi.shape[0])
        got = []
        for seg in segments:
            mu = seg.phi @ mu + seg.d
            got.append(seg.read @ (seg.unit * mu) + seg.offset)
        qkf, line_fit = np.array(got).T
        np.testing.assert_allclose(qkf, run_kalman(p, rec).b_tilde[cps], rtol=1e-9)
        want = [regression_estimate(rec, p, times[c]) for c in cps]
        np.testing.assert_allclose(line_fit, want, rtol=1e-9)
        return line_fit / p.b_true

    def test_fig2_preset(self, fig2_plan):
        bias = self.check(*fig2_plan) - 1.0
        # Bloch decay: a few percent low at the first checkpoint, almost all of B lost at 2 ms
        assert -0.05 < bias[0] < 0.0 and bias[-1] < -0.99

    def test_log_prefix_checkpoints(self):
        # checkpoints inside the log prefix, where the dt weights vary step by step
        spec = convergence_spec(n_traj=2)
        self.check(*planned(dataclasses.replace(
            spec, params=dataclasses.replace(spec.params, b_true=FIG2["b_true"]))))


@pytest.mark.parametrize("spec", [
    pytest.param(fig2_preset_spec, id="fig2"),
    *(pytest.param(lambda j=j: scaling_preset_spec(j), id=f"scaling-J{j:g}")
      for j in load_preset("scaling").scaling.j_values)])
def test_schedule_matches_riccati_at_checkpoints(spec):
    # no noise drawn: the discrete schedule's v22 against the continuous
    # Riccati quadrature, i.e. the discretization error alone
    spec = spec()
    cps = list(spec.checkpoints)
    v22 = kalman_schedule(spec.params, spec.grid).v22[cps]
    want = riccati_integrate(spec.params, spec.grid.times[cps]).v22
    np.testing.assert_allclose(v22, want, rtol=1e-3)


def whole_grid_chunk_maps(spec):
    """(start, end, phi_c, h_t, d_c) of each chunk up to the last checkpoint, from
    slices of whole-grid coefficient arrays; a chunk ends at every checkpoint
    and every multiple of SCAN_BLOCK."""
    p, times, cps = spec.params, spec.grid.times, spec.checkpoints
    n = int(cps[-1])
    sched = kalman_schedule(p, spec.grid)
    dts = np.diff(times[:n + 1])
    sq = np.sqrt(dts)
    _, g = step_coefficients(p, times[:n + 1])
    drift, gsq = p.b_true * sched.phi12[:n], g * sq
    dsq, ssq = sched.d * sq, sched.r[:n] * sq / sched.d
    rec_w = np.vstack([np.ones(n), 0.5 * (times[:n] + times[1:n + 1])])  # (1, x_k)
    bounds = sorted(set(range(0, n, montecarlo.SCAN_BLOCK)) | set(cps))
    for s, e in zip(bounds[:-1], bounds[1:]):
        yield (s, e, *montecarlo._chunk_map(dts[s:e], drift[s:e], gsq[s:e], dsq[s:e], ssq[s:e],
                                            rec_w[:, s:e]))


@pytest.mark.parametrize("spec", [
    pytest.param(fig2_preset_spec, id="fig2"),
    pytest.param(lambda: convergence_spec(n_traj=2), id="convergence"),
    pytest.param(lambda: scaling_preset_spec(1e4), id="scaling-J1e4")])
def test_chunk_maps_match_whole_grid_coefficients(spec, spec_and_plan):
    # each chunk's coefficients, formed from its own slice of the grid, against
    # slices of whole-grid arrays, folded into one map per checkpoint segment
    # from (I, no columns, 0): the same maps bit for bit
    spec, plan = spec_and_plan(spec)
    segments, n_col = iter(plan), plan[0].phi.shape[0]
    empty = np.eye(n_col), np.zeros((n_col, 0)), np.zeros(n_col)
    phi, factor, d = empty
    for s, e, phi_c, h_t, d_c in whole_grid_chunk_maps(spec):
        phi = np.einsum("ij,jk->ik", phi_c, phi)
        factor = montecarlo._noise_factor(np.hstack([np.einsum("ij,jk->ik", phi_c, factor), h_t]))
        d = np.einsum("ij,j->i", phi_c, d) + d_c
        if e in spec.checkpoints:
            seg = next(segments)
            assert seg.end == e
            assert (phi.tobytes(), factor.tobytes(), d.tobytes()) == (
                seg.phi.tobytes(), seg.factor.tobytes(), seg.d.tobytes())
            phi, factor, d = empty
    assert next(segments, None) is None


@pytest.mark.parametrize("spec, n_one", [
    # fig2: the first 40 checkpoints, all inside the first chunk, and 22 later ones
    pytest.param(fig2_preset_spec, 62, id="fig2"),
    pytest.param(lambda: convergence_spec(n_traj=2), 13, id="convergence")])
def test_one_chunk_segments_keep_the_chunk_map(spec, n_one, spec_and_plan):
    # a segment of one chunk is that chunk's own map bit for bit: phi_c, the QR
    # factor of its h_t alone and d_c, as when the plan kept one map per chunk
    spec, plan = spec_and_plan(spec)
    segments = {(seg.start, seg.end): seg for seg in plan}
    one = 0
    for s, e, phi_c, h_t, d_c in whole_grid_chunk_maps(spec):
        if (s, e) in segments:
            seg = segments[s, e]
            assert (seg.phi.tobytes(), seg.factor.tobytes(), seg.d.tobytes()) == (
                phi_c.tobytes(), montecarlo._noise_factor(h_t).tobytes(), d_c.tobytes())
            one += 1
    assert one == n_one


@pytest.mark.parametrize("spec", [
    pytest.param(lambda: toy_spec(n_traj=2, dt=1e-4), id="toy"),
    pytest.param(fig2_preset_spec, id="fig2"),
    pytest.param(lambda: convergence_spec(n_traj=2), id="convergence"),
    pytest.param(lambda: scaling_preset_spec(1e6), id="scaling-J1e6")])
def test_every_entry_ends_at_a_checkpoint(spec, spec_and_plan):
    # one plan entry per checkpoint segment, from the previous checkpoint (or 0)
    spec, segments = spec_and_plan(spec)
    assert [seg.end for seg in segments] == list(spec.checkpoints)
    assert [seg.start for seg in segments] == [0, *spec.checkpoints[:-1]]


class TestStreamedPlan:
    """The plan forms the gain schedule and the line-fit columns one chunk at a
    time; each chunk's slice must be bitwise the whole-grid one."""

    @pytest.mark.parametrize("spec, block, n_chunks", [
        pytest.param(fig2_preset_spec, montecarlo.SCAN_BLOCK, 198, id="fig2"),
        # a uniform grid without a log prefix: a_0 = 1 - k1 dt < 0, and 7-step
        # chunks carry r and the information across 72 chunk boundaries
        pytest.param(lambda: EnsembleSpec(params=toy(), grid=TimeGrid.uniform(1e-3, 500),
                                          n_traj=2, master_seed=7, checkpoints=(100, 500)),
                     7, 73, id="coarse")])
    def test_schedule_slices_match_whole_grid(self, spec, block, n_chunks, monkeypatch):
        spec = spec()
        scheds = []
        whole = montecarlo.kalman_schedule

        def keep(p, times, start):
            scheds.append(whole(p, times, start))
            return scheds[-1]

        lengths = []
        chunk_map = montecarlo._chunk_map

        def keep_chunk(dts, *args):
            lengths.append(len(dts))
            return chunk_map(dts, *args)

        monkeypatch.setattr(montecarlo, "SCAN_BLOCK", block)
        monkeypatch.setattr(montecarlo, "kalman_schedule", keep)
        monkeypatch.setattr(montecarlo, "_chunk_map", keep_chunk)
        _build_plan(spec)
        want = kalman_schedule(spec.params, spec.grid)
        if block == 7:  # the coarse grid: the recurrence changes sign
            assert np.any(want.k1 * np.diff(want.times) > 1.0)
        # the chunks end at the multiples of the block and at the checkpoints
        ends = sorted(set(range(block, spec.checkpoints[-1], block)) | set(spec.checkpoints))
        assert len(scheds) == len(lengths) == len(ends) == n_chunks
        s = 0
        for got, steps, e in zip(scheds, lengths, ends):  # one call per chunk, in scan order
            assert len(got.phi12) == steps == e - s <= block
            assert got.times.tobytes() == want.times[s:e + 1].tobytes()
            for name, sl in (("phi12", slice(s, e)), ("g", slice(s, e)), ("k1", slice(s, e)),
                             ("r", slice(s, e + 1)), ("data", slice(s, e + 1)),
                             ("v22", slice(s, e + 1))):
                assert getattr(got, name).tobytes() == getattr(want, name)[sl].tobytes(), name
            s = e

    def test_overflow_raises_up_to_the_last_checkpoint(self, monkeypatch):
        # the guard runs chunk by chunk, over the steps the scan reaches
        spec = toy_spec(n_traj=2)
        exact = estimators.step_coefficients

        def huge_gain(p, times):
            phi12, g = exact(p, times)
            g[times[:-1] >= 0.3] *= 1e40
            return phi12, g

        monkeypatch.setattr(estimators, "step_coefficients", huge_gain)
        with pytest.raises(OverflowError, match="gain schedule overflowed"):
            run_ensemble(spec)
        run_ensemble(dataclasses.replace(spec, checkpoints=spec.checkpoints[:1]))  # t = 0.1

    @pytest.mark.parametrize("spec", [
        pytest.param(fig2_preset_spec, id="fig2"),
        pytest.param(lambda: convergence_spec(n_traj=2), id="convergence")])
    def test_line_fit_rows_match_whole_grid(self, spec, monkeypatch):
        # each chunk's rows (1, x_k) are bitwise the whole grid's; each
        # checkpoint's readout, from sums run over the chunks, is the whole-grid
        # sums' to rounding
        spec = spec()
        p, times = spec.params, spec.grid.times
        n = spec.checkpoints[-1]
        x = 0.5 * (times[:n] + times[1:n + 1])
        dts = np.diff(times[:n + 1])
        rows = []
        chunk_map = montecarlo._chunk_map

        def keep(*args):
            rows.append(args[-1])
            return chunk_map(*args)

        monkeypatch.setattr(montecarlo, "_chunk_map", keep)
        segments = _build_plan(spec)
        s = 0
        for got in rows:  # one per chunk, in scan order
            e = s + got.shape[1]
            want = np.vstack([np.ones(e - s), x[s:e]])
            assert got.tobytes() == want.tobytes()
            s = e
        assert s == n and len(rows) >= len(segments)
        for seg in segments:
            c = seg.end
            sw, sx, sxx = dts[:c].sum(), (dts * x)[:c].sum(), (dts * x * x)[:c].sum()
            want = np.array([-sx, sw]) / ((sw * sxx - sx * sx) * p.gamma * p.j_total)
            np.testing.assert_allclose(seg.read[1, 2:] * seg.unit[2:], want, rtol=1e-12)


def test_plan_memory_is_bounded_by_a_chunk():
    # The plan keeps no grid-length array of the schedule or of the line
    # fit: each chunk forms its own points of the grid, and the line fit's
    # grid sums run over the chunks.  The bound, one grid-length float64
    # array, was fixed before measuring: the fig2 plan peaked at 21 with
    # whole-grid temporaries, at 9 with the whole schedule and line-fit
    # columns, and at 2 with the whole bin midpoints.  The window also
    # builds the grid and its checkpoints, as ``ensemble`` does: the grid
    # alone was one array when it stored its points.
    _build_plan(fig2_preset_spec())  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        spec = fig2_preset_spec()
        _build_plan(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (spec.grid.n_intervals + 1)
    assert spec.grid._times is None  # the grid's times were never formed


FACTOR_SPECS = [
    pytest.param(fig2_preset_spec, id="fig2"),
    # chunks of a few steps: the factor is narrower than n_col at first
    pytest.param(lambda: convergence_spec(n_traj=2), id="convergence"),
    *(pytest.param(lambda j=j: scaling_preset_spec(j), id=f"scaling-J{j:g}")
      for j in load_preset("scaling").scaling.j_values)]


def assert_same_covariance(f, h):
    # entry (i, j) of F F^T against H H^T to rounding of |h_i| |h_j|: QR is
    # backward stable per column
    cov = h @ h.T
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(f @ f.T - cov) <= 1e-12 * scale)


class TestNoiseFactor:
    """Each checkpoint segment draws one normal per column of its factor F, not
    one per step: F u has the law of the segment's per-step noise H z iff
    F F^T = H H^T."""

    @pytest.mark.parametrize("spec", FACTOR_SPECS)
    def test_factor_covariance_per_chunk(self, spec, monkeypatch):
        # one QR per chunk, of the segment's factor so far propagated over the
        # chunk, then the chunk's own h_t; a segment's last QR is its factor
        pairs, maps = [], []
        factor, chunk_map = montecarlo._noise_factor, montecarlo._chunk_map

        def keep(a):
            pairs.append((a, factor(a)))
            return pairs[-1][1]

        def keep_map(*args):
            maps.append(chunk_map(*args))
            return maps[-1]

        monkeypatch.setattr(montecarlo, "_noise_factor", keep)
        monkeypatch.setattr(montecarlo, "_chunk_map", keep_map)
        segments = iter(_build_plan(spec()))
        assert len(pairs) == len(maps)
        seg, s, width = next(segments), 0, 0  # the chunk's start; the factor's width before it
        for (a, f), (_, h_t, _) in zip(pairs, maps):
            n_col, steps = h_t.shape
            assert a.shape == (n_col, width + steps)
            assert a[:, width:].tobytes() == h_t.tobytes()
            assert f.shape == (n_col, min(a.shape))
            assert_same_covariance(f, a)
            s, width = s + steps, f.shape[1]
            if s == seg.end:
                assert f.tobytes() == seg.factor.tobytes()
                seg, width = next(segments, None), 0
        assert seg is None

    @pytest.mark.parametrize("spec", FACTOR_SPECS)
    def test_segment_factor_covariance(self, spec, monkeypatch, spec_and_plan):
        # H: the segment's per-step noise weights, propagated to its end, read
        # off the plan with the identity factor
        spec, segments = spec_and_plan(spec)
        monkeypatch.setattr(montecarlo, "_noise_factor", lambda h_t: h_t)
        for seg, weights in zip(segments, _build_plan(spec)):
            h = weights.factor
            assert h.shape == (seg.phi.shape[0], seg.end - seg.start)
            assert seg.factor.shape == (h.shape[0], min(h.shape))
            assert_same_covariance(seg.factor, h)

    @pytest.mark.parametrize("spec, want", [
        # the fig2 preset's grid and checkpoints, as in perfbench's fig2-2048
        pytest.param(fig2_preset_spec, 404, id="fig2"),
        *(pytest.param(lambda j=j: scaling_preset_spec(j), 4, id=f"scaling-J{j:g}")
          for j in load_preset("scaling").scaling.j_values)])
    def test_normals_per_segment(self, spec, want, spec_and_plan):
        # sum over the segments of min(steps, n_col): n_col per checkpoint here
        _, segments = spec_and_plan(spec)
        n_col = segments[0].phi.shape[0]
        assert sum(seg.factor.shape[1] for seg in segments) == want == sum(
            min(seg.end - seg.start, n_col) for seg in segments)

    def test_normals_per_trajectory(self, monkeypatch):
        spec = toy_spec(n_traj=3, dt=1e-4)
        segments = _build_plan(spec)
        n_col = segments[0].phi.shape[0]
        want = sum(min(seg.end - seg.start, n_col) for seg in segments)
        assert want == sum(seg.factor.shape[1] for seg in segments) < len(spec.grid.times) - 1
        drawn = []
        fill = montecarlo.fill_normals

        def counting(seed, i0, out):  # each row is its stream's first normals (test_rng)
            drawn.extend(row.size for row in out)
            return fill(seed, i0, out)

        monkeypatch.setattr(montecarlo, "fill_normals", counting)
        montecarlo._run_block(spec, segments, 0, spec.n_traj)
        assert drawn == [want] * spec.n_traj
