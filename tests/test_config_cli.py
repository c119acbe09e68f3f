import contextlib
import copy
import csv
import dataclasses
import errno
import importlib.resources
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkfmag import dynamics, montecarlo
from qkfmag.cli import main
from qkfmag.config import (
    ConfigError,
    EnsembleConfig,
    GridConfig,
    OracleConfig,
    RunConfig,
    ScalingConfig,
    load_config,
    load_preset,
    override,
    parse_config,
)
from qkfmag.core import TimeGrid
from qkfmag.dynamics import lowpass_filter, simulate_trajectory
from qkfmag.estimators import THRESHOLD_SOURCES
from qkfmag.rng import substream

FIG2_DOC = {
    "j_total": 4e6,
    "gamma": 1.0,
    "gamma_convention": "cycles",
    "b_true": 1e-6,
    "meas_strength": 1e5,
    "efficiency": 1.0,
    "prior_b_variance": 1e-8,
    "t_total": 2e-3,
    "seed": 99,
}

TOY_DOC = {
    "j_total": 100.0,
    "gamma": 1.5,
    "gamma_convention": "angular",
    "b_true": 0.01,
    "meas_strength": 50.0,
    "efficiency": 0.8,
    "prior_b_variance": 0.05,
    "t_total": 0.5,
    "grid": {"dt": 2e-3},
    "ensemble": {"n_traj": 64, "checkpoint_times": [0.1, 0.5]},
    "seed": 77,
}


class TestParseConfig:
    def test_fig2_document(self):
        cfg = parse_config(json.dumps(FIG2_DOC))
        assert cfg.params.gamma == pytest.approx(2 * math.pi * 1e6, rel=1e-12)
        assert cfg.params.prior_b_variance == 1e-8
        assert cfg.seed == 99
        assert cfg.gamma_convention == "cycles"

    def test_missing_meas_strength_named(self):
        doc = {k: v for k, v in FIG2_DOC.items() if k != "meas_strength"}
        with pytest.raises(ConfigError, match="meas_strength"):
            parse_config(json.dumps(doc))

    def test_negative_t_total(self):
        doc = dict(FIG2_DOC, t_total=-1.0)
        with pytest.raises(ConfigError, match="t_total"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = dict(FIG2_DOC, tesla_mode=True)
        with pytest.raises(ConfigError, match="tesla_mode"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("section", ["grid", "ensemble", "scaling", "oracle"])
    def test_unknown_nested_key_rejected(self, section):
        doc = dict(FIG2_DOC, **{section: {"dx": 1.0}})
        with pytest.raises(ConfigError, match=rf"{section}: unknown keys \['dx'\]"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key", ["params", "gamma_raw"])
    def test_derived_fields_are_not_document_keys(self, key):
        # RunConfig fields that parsing fills in, not keys a document may set
        doc = dict(FIG2_DOC, **{key: 1.0})
        with pytest.raises(ConfigError, match=rf"top level: unknown keys \['{key}'\]"):
            parse_config(json.dumps(doc))

    def test_defaults_spelled_out_parse_the_same(self):
        # every section field with a value default, written out at that default;
        # a None default has no spelling in the document
        doc = dict(FIG2_DOC)
        for name, cls in (("grid", GridConfig), ("ensemble", EnsembleConfig),
                          ("scaling", ScalingConfig), ("oracle", OracleConfig)):
            doc[name] = {f.name: f.default for f in dataclasses.fields(cls)
                         if f.default is not None}
        spelled = parse_config(json.dumps(doc))
        assert spelled == parse_config(json.dumps(FIG2_DOC))
        assert spelled.ensemble.n_traj == 10_000 and spelled.oracle.j_small == 10.0

    def test_infinite_prior_string(self):
        doc = dict(FIG2_DOC, prior_b_variance="infinite")
        cfg = parse_config(json.dumps(doc))
        assert math.isinf(cfg.params.prior_b_variance)

    def test_angular_convention_passthrough(self):
        doc = dict(FIG2_DOC, gamma_convention="angular", gamma=6.2832e6)
        cfg = parse_config(json.dumps(doc))
        assert cfg.params.gamma == 6.2832e6

    def test_bad_json_reports_location(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{broken")

    def test_override_convention_reconverts(self):
        cfg = parse_config(json.dumps(FIG2_DOC))
        flipped = override(cfg, gamma_convention="angular")
        assert flipped.params.gamma == 1.0  # raw value reinterpreted as angular

    def test_override_seed_and_n_traj(self):
        cfg = parse_config(json.dumps(FIG2_DOC))
        out = override(cfg, seed=5, n_traj=123)
        assert out.seed == 5
        assert out.ensemble.n_traj == 123
        assert out.scaling.n_traj == 123

    @pytest.mark.parametrize("section", ["ensemble", "scaling"])
    @pytest.mark.parametrize("n_traj", [1, 0, -5, 2.5])
    def test_n_traj_below_two_named(self, section, n_traj):
        doc = dict(FIG2_DOC, **{section: {"n_traj": n_traj}})
        with pytest.raises(ConfigError, match=f"{section}.n_traj"):
            parse_config(json.dumps(doc))

    def test_override_n_traj_below_two(self):
        cfg = parse_config(json.dumps(FIG2_DOC))
        with pytest.raises(ConfigError, match="ensemble.n_traj, scaling.n_traj"):
            override(cfg, n_traj=1)


class TestResolvedDict:
    def test_every_config_field_echoed(self):
        cfg = load_preset("scaling")
        echo = cfg.resolved_dict()
        assert set(echo) == {f.name for f in dataclasses.fields(cfg)}
        for name in ("params", "grid", "ensemble", "scaling", "oracle"):
            assert set(echo[name]) == {f.name for f in dataclasses.fields(getattr(cfg, name))}
        json.dumps(echo)


class TestPresets:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "scaling", "oracle"])
    def test_presets_parse(self, name):
        cfg = load_preset(name)
        assert cfg.params.t_total > 0

    def test_fig2_preset_values(self):
        cfg = load_preset("fig2")
        p = cfg.params
        assert p.j_total == 4e6
        assert p.gamma == pytest.approx(2 * math.pi * 1e6, rel=1e-12)
        assert p.b_true == 1e-6
        assert p.meas_strength == 1e5
        assert p.efficiency == 1.0
        assert p.prior_b_variance == 1e-8
        assert cfg.ensemble.n_traj == 10000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            load_preset("fig99")


def _write_cfg(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCliSimulate:
    def test_writes_artifacts_and_passes(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, TOY_DOC)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "trajectory.csv").exists()
        assert (out / "photocurrent_filtered.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["config"]["seed"] == 77
        assert "[PASS] record_consistency" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_cfg(tmp_path, TOY_DOC)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "photocurrent_filtered.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = _write_cfg(tmp_path, TOY_DOC)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "78", "--out", str(tmp_path / "c")])
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                != (tmp_path / "c" / "trajectory.csv").read_bytes())

    def test_zero_noise_linear_ramp(self, tmp_path):
        doc = dict(TOY_DOC, b_true=0.002, meas_strength=0.01, t_total=0.5)
        cfg = _write_cfg(tmp_path, doc)
        rc = main(["simulate", "--config", cfg, "--zero-noise", "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in r.split(",")[:2]] for r in rows])
        t, mean = data[:, 0], data[:, 1]
        p = json.loads(json.dumps(doc))
        # with M ~ 0 the drift is an almost perfect linear ramp gamma*B*J*t
        expected = p["gamma"] * p["b_true"] * p["j_total"] * t
        np.testing.assert_allclose(mean[1:], expected[1:], rtol=2e-3)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the writers are forked")
    def test_parent_holds_no_record(self, tmp_path, monkeypatch):
        # the parent keeps one block at a time and forms no grid-length array, not
        # even the grid's times (one array more when the grid stored them); the
        # forked writers regenerate their rows: the whole record would be 7 arrays
        main(["simulate", "--config", _write_cfg(tmp_path, TOY_DOC), "--workers", "1",
              "--out", str(tmp_path / "warm")])  # lazy set-up, untraced
        doc = dict(TOY_DOC, grid={"dt": 7.8125e-6, "log_prefix": False})
        n_points = 64_001
        task = dynamics._record_task

        def untraced(*args):  # in a forked child, whose allocations are not the parent's
            tracemalloc.stop()
            return task(*args)

        monkeypatch.setattr(dynamics, "SCAN_BLOCK", 1000)  # two frames: ~0.6 arrays
        monkeypatch.setattr(dynamics, "_record_task", untraced)
        argv = ["simulate", "--config", _write_cfg(tmp_path, doc), "--workers", "3",
                "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["n_grid_points"] == n_points
        assert peak < 8 * n_points * 1.5

    BIG_J_DOC = dict(TOY_DOC, t_total=0.05, grid={"dt": 1e-3, "log_prefix": False})

    @pytest.mark.parametrize("j_total", [1e12, 1e16])
    def test_large_j_record_is_consistent(self, tmp_path, capsys, j_total):
        # m dt swamps dW / (2 sqrt(M eta)) in d_xi: the reconstruction's subtraction
        # loses ~3.5e-10 (J = 1e12) and ~3e-6 (1e16) to rounding, past 1e-9 max |dW|
        doc = dict(self.BIG_J_DOC, j_total=j_total)
        assert main(["simulate", "--config", _write_cfg(tmp_path, doc), "--workers", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert "[PASS] record_consistency" in capsys.readouterr().out

    @pytest.mark.parametrize("j_total", [100.0, 1e12])
    def test_perturbed_record_fails(self, tmp_path, monkeypatch, capsys, j_total):
        block = dynamics._record_block

        def perturbed(p, grid, s, m, gen):
            b = block(p, grid, s, m, gen)
            b.noise[17] += 1e-6 * 0.07  # max |dW| is ~0.07 here
            return b

        monkeypatch.setattr(dynamics, "_record_block", perturbed)
        doc = dict(self.BIG_J_DOC, j_total=j_total)
        assert main(["simulate", "--config", _write_cfg(tmp_path, doc), "--workers", "1",
                     "--out", str(tmp_path / "out")]) == 1
        assert "[FAIL] record_consistency" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"j_total\": -1}")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_full_disk_leaves_no_record(self, tmp_path, monkeypatch, capsys):
        # the write fails in this process, after block 0 reached both files
        task = dynamics._record_task

        def full(block, n, n_pref, j):
            if j == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return task(block, n, n_pref, j)

        monkeypatch.setattr(dynamics, "SCAN_BLOCK", 100)
        monkeypatch.setattr(dynamics, "_record_task", full)
        cfg = _write_cfg(tmp_path, dict(TOY_DOC, grid={"dt": 2e-3, "log_prefix": False}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--workers", "1", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert not out.exists()  # made by the command, then emptied: removed


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
class TestCliWorkerFailure:
    """A failed forked worker: exit 3, one error line naming it, no partial CSV, no child."""

    @staticmethod
    def check(rc, out, capfd, command):
        assert rc == 3
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {command} worker 1 of 2 (pid ")
        assert "FloatingPointError: injected" in err  # the child's own traceback
        assert not out.exists()  # made by the command, then emptied: removed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_simulate(self, tmp_path, monkeypatch, capfd):
        task = dynamics._record_task

        def failing(block, n, n_pref, j):
            if j == 1:  # task 1 of 3: worker 1 of 2
                raise FloatingPointError("injected")
            return task(block, n, n_pref, j)

        monkeypatch.setattr(dynamics, "SCAN_BLOCK", 100)
        monkeypatch.setattr(dynamics, "_record_task", failing)
        cfg = _write_cfg(tmp_path, dict(TOY_DOC, grid={"dt": 2e-3, "log_prefix": False}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--workers", "2", "--out", str(out)])
        self.check(rc, out, capfd, "simulate")

    def test_simulate_into_existing_directory(self, tmp_path, monkeypatch, capfd):
        def failing(block, n, n_pref, j):
            raise FloatingPointError("injected")

        monkeypatch.setattr(dynamics, "SCAN_BLOCK", 100)
        monkeypatch.setattr(dynamics, "_record_task", failing)
        cfg = _write_cfg(tmp_path, dict(TOY_DOC, grid={"dt": 2e-3, "log_prefix": False}))
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        rc = main(["simulate", "--config", cfg, "--workers", "2", "--out", str(out)])
        assert rc == 3
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_ensemble(self, tmp_path, monkeypatch, capfd):
        run_block = montecarlo._run_block

        def failing(spec, segments, i0, i1):
            if i0 == montecarlo.BLOCK_SIZE:  # block 1 of 3: worker 1 of 2
                raise FloatingPointError("injected")
            return run_block(spec, segments, i0, i1)

        monkeypatch.setattr(montecarlo, "_run_block", failing)
        doc = dict(TOY_DOC, ensemble={"n_traj": 2 * montecarlo.BLOCK_SIZE + 1,
                                      "checkpoint_times": [0.5]})
        out = tmp_path / "out"
        rc = main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--workers", "2",
                   "--out", str(out)])
        self.check(rc, out, capfd, "ensemble")


def _cli_env(**kw) -> dict:
    """The environment of a fresh CLI process: this source tree, and no BLAS thread setting
    but ``kw``'s (importing ``qkfmag.cli`` here set one in this process)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return {**env, **kw}


class TestCliBlasThreads:
    """The CLI keeps OpenBLAS single-threaded unless the environment says otherwise: the
    commands call no threaded BLAS routine, and a thread pool would make every fork
    multi-threaded."""

    CODE = ("import os, qkfmag.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")

    def test_import_sets_one_thread(self):
        run = subprocess.run([sys.executable, "-c", self.CODE], env=_cli_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.split() == ["1", "1"]

    def test_value_from_the_environment_wins(self):
        run = subprocess.run([sys.executable, "-c", self.CODE],
                             env=_cli_env(OPENBLAS_NUM_THREADS="2"),
                             capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.split()[0] == "2"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
    def test_forked_ensemble_is_single_threaded(self, tmp_path):
        # Python 3.12+ warns at a fork of a multi-threaded process.  The warning
        # is shown, not turned into an error: os.fork drops an error raised
        # from it, and the run would still exit 0.
        doc = dict(TOY_DOC, ensemble={"n_traj": montecarlo.BLOCK_SIZE + 1,
                                      "checkpoint_times": [0.5]})
        run = subprocess.run([sys.executable, "-W", "always:This process:DeprecationWarning",
                              "-m", "qkfmag.cli", "ensemble", "--config", _write_cfg(tmp_path, doc),
                              "--workers", "2", "--out", str(tmp_path / "out")],
                             env=_cli_env(), capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert "multi-threaded" not in run.stderr


class TestCliEnsemble:
    def test_toy_run_passes_and_is_deterministic(self, tmp_path):
        doc = dict(TOY_DOC)
        doc["ensemble"] = {"n_traj": 48, "checkpoint_times": [0.25, 0.5]}
        cfg = _write_cfg(tmp_path, doc)
        rc = main(["ensemble", "--config", cfg, "--out", str(tmp_path / "a")])
        assert rc == 0  # ratio check skipped below n_traj = 1000
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("ensemble.csv", "thresholds.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["command"] == "ensemble"
        assert summary["config"]["params"]["j_total"] == 100.0

    def test_worker_invariance_via_cli(self, tmp_path):
        doc = dict(TOY_DOC)
        doc["ensemble"] = {"n_traj": 2100, "checkpoint_times": [0.5]}
        cfg = _write_cfg(tmp_path, doc)
        main(["ensemble", "--config", cfg, "--workers", "1", "--out", str(tmp_path / "w1")])
        main(["ensemble", "--config", cfg, "--workers", "3", "--out", str(tmp_path / "w3")])
        assert ((tmp_path / "w1" / "ensemble.csv").read_bytes()
                == (tmp_path / "w3" / "ensemble.csv").read_bytes())

    def test_csv_schema(self, tmp_path):
        doc = dict(TOY_DOC)
        doc["ensemble"] = {"n_traj": 16, "checkpoint_times": [0.5]}
        cfg = _write_cfg(tmp_path, doc)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()
        assert lines[0] == "t,estimator,mse,stderr,mean_b,predicted_v22"
        tlines = (tmp_path / "out" / "thresholds.csv").read_text().splitlines()
        assert tlines[0] == "t,delta_b,source"
        sources = {ln.split(",")[2] for ln in tlines[1:]}
        assert sources == {"riccati_numeric", "riccati_analytic", "asymptotic", "shotnoise"}

    def test_threshold_table_over_one_axis(self, tmp_path):
        # the four sources in THRESHOLD_SOURCES order, each over the same t column
        doc = dict(TOY_DOC)
        doc["ensemble"] = {"n_traj": 4, "checkpoint_times": [0.5]}
        cfg = _write_cfg(tmp_path, doc)
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "thresholds.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        axis = len(rows) // len(THRESHOLD_SOURCES)
        assert axis > 1 and len(rows) == axis * len(THRESHOLD_SOURCES)
        for k, source in enumerate(THRESHOLD_SOURCES):
            block = rows[k * axis:(k + 1) * axis]
            assert {r["source"] for r in block} == {source}
            assert [r["t"] for r in block] == [r["t"] for r in rows[:axis]]

    def test_warnings_recorded(self, tmp_path):
        # fig2 physics at J = 1 (valid input): the asymptotic law is outside its
        # validity, t <= 10/(J M) = 1e-4 s, at every threshold time
        doc = dict(FIG2_DOC, j_total=1.0, t_total=2e-5)
        doc["ensemble"] = {"n_traj": 4, "checkpoint_times": [1e-5, 2e-5]}
        cfg = _write_cfg(tmp_path, doc)
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["warnings"]) == 1
        assert "outside validity" in summary["warnings"][0]
        assert summary["skipped_curves"] == []

    def test_threshold_axis_below_short_t_total(self, tmp_path):
        # t_total = 5 ns is below the axis's usual 1e-8 s start: it starts at t_total * 1e-5
        doc = dict(TOY_DOC, meas_strength=1e9, t_total=5e-9)
        del doc["grid"]
        doc["ensemble"] = {"n_traj": 4}
        cfg = _write_cfg(tmp_path, doc)
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "thresholds.csv", newline="", encoding="utf-8") as f:
            t = np.array([float(row[0]) for row in list(csv.reader(f))[1:]])
        assert t.min() == pytest.approx(5e-14, rel=1e-12) and t.max() == 5e-9

    def test_qkf_check_scores_the_exact_fixed_b_mse(self, tmp_path):
        # at 5 ns the prior still dominates (w = v22/p0 near 1): the fixed-B MSE
        # B^2 w^2 + v22 (1 - w) is ~0.002 v22, which a check against v22 failed
        doc = dict(TOY_DOC, meas_strength=1e9, t_total=5e-9)
        del doc["grid"]
        doc["ensemble"] = {"n_traj": 1000}
        out = tmp_path / "out"
        assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        (check,) = json.loads((out / "summary.json").read_text())["checks"]
        assert check["name"] == "qkf_mse_matches_riccati" and check["passed"] is True
        assert "skipped" not in check["detail"]

    def test_unresolved_prior_checkpoints_recorded(self, tmp_path):
        # infinite prior: grid point 1 carries no data information, so the
        # filter is scored NaN at its checkpoint
        doc = dict(TOY_DOC, prior_b_variance="infinite", t_total=0.01, grid={"dt": 1e-5})
        doc["ensemble"] = {"n_traj": 4, "estimators": ["qkf"], "checkpoint_times": [1e-5, 0.01]}
        cfg = _write_cfg(tmp_path, doc)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        nan = [w for w in summary["warnings"] if "NaN" in w]
        assert len(nan) == 1
        assert "[1e-05]" in nan[0]

    def test_zero_exact_mse_checkpoint_not_scored(self, tmp_path):
        # b_true = 0 and gamma 1e-150: at the checkpoint the data have not moved
        # v22 off the prior, so the exact MSE is 0.  The checkpoint is reported as
        # not scored, with no RuntimeWarning (it read "mse/exact in [inf, inf]")
        doc = dict(TOY_DOC, gamma=1e-150, b_true=0.0, t_total=0.05, grid={"dt": 1e-4})
        doc["ensemble"] = {"n_traj": 1024, "estimators": ["qkf"], "checkpoint_times": [5e-4]}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--workers", "1",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        t = summary["checkpoints"]
        (check,) = summary["checks"]
        assert check["passed"] is True
        assert check["detail"].endswith(
            f"not scored at t = {t} (exact mse 0); skipped: no checkpoint scored")
        assert f"qkf exact mse is 0 at t = {t}: b_true = 0, v22 still the prior" \
            in summary["warnings"]

    def test_skipped_closed_form_recorded(self, tmp_path, monkeypatch):
        import qkfmag.cli as cli

        doc = dict(TOY_DOC)
        doc["ensemble"] = {"n_traj": 16, "checkpoint_times": [0.5]}
        cfg = _write_cfg(tmp_path, doc)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "full")])

        def invalid(p, t):
            raise ValueError("denominator <= 0")

        monkeypatch.setattr(cli, "riccati_analytic", invalid)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["skipped_curves"] == [{"source": "riccati_analytic",
                                              "reason": "denominator <= 0"}]
        kept = [ln for ln in (tmp_path / "full" / "thresholds.csv").read_text().splitlines()
                if not ln.endswith(",riccati_analytic")]
        assert (tmp_path / "out" / "thresholds.csv").read_text().splitlines() == kept

    def test_underflowing_m_t_keeps_the_prior(self, tmp_path):
        # M t ~ 1e-300: the information underflows to 0, so v22 stays at the prior,
        # and the closed-form threshold's denominator is 0, so that curve is left out
        doc = dict(TOY_DOC, meas_strength=1e-150, t_total=1e-150, grid={"dt": 1e-153})
        doc["ensemble"] = {"n_traj": 16, "first_checkpoint": 1e-151}
        cfg = _write_cfg(tmp_path, doc)
        assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "ensemble.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert rows and {float(r["predicted_v22"]) for r in rows} == {doc["prior_b_variance"]}
        with open(tmp_path / "out" / "thresholds.csv", newline="", encoding="utf-8") as f:
            curves = list(csv.DictReader(f))
        numeric = {float(r["delta_b"]) for r in curves if r["source"] == "riccati_numeric"}
        assert numeric == {math.sqrt(doc["prior_b_variance"])}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        [skipped] = summary["skipped_curves"]
        assert skipped["source"] == "riccati_analytic"
        assert skipped["reason"].endswith("denominator <= 0")

    @staticmethod
    def _rows(out: Path) -> list:
        with open(out / "ensemble.csv", newline="", encoding="utf-8") as f:
            return list(csv.DictReader(f))

    def test_line_fit_is_independent_of_the_time_unit(self, tmp_path):
        # time scaled by 2^-300 (M and gamma by 2^300): the same experiment, and every
        # step of it scales exactly.  The line fit's determinant, ~t^4 in seconds,
        # underflowed to 0 here, so its rows were NaN; in units of a power of two
        # near each checkpoint they are the unscaled run's, bit for bit
        s = math.ldexp(1.0, -300)
        scaled = dict(TOY_DOC, meas_strength=TOY_DOC["meas_strength"] / s,
                      gamma=TOY_DOC["gamma"] / s, t_total=TOY_DOC["t_total"] * s,
                      grid={"dt": TOY_DOC["grid"]["dt"] * s},
                      ensemble=dict(TOY_DOC["ensemble"], checkpoint_times=[
                          t * s for t in TOY_DOC["ensemble"]["checkpoint_times"]]))
        rows = {}
        for name, doc in (("toy", TOY_DOC), ("scaled", scaled)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert main(["ensemble", "--config", str(path), "--workers", "1",
                         "--out", str(tmp_path / name)]) == 0
            rows[name] = [{k: v for k, v in r.items() if k != "t"}
                          for r in self._rows(tmp_path / name)]
        assert [r["estimator"] for r in rows["toy"]].count("regression") == 2
        assert rows["scaled"] == rows["toy"]

    def test_underflowing_line_fit_gives_finite_estimates(self, tmp_path):
        # M t ~ 1e-300 on a ~1e-151 s grid: the estimates are finite (NaN before), though
        # their mean square, ~1e596 G^2 for the line fit here, overflows float64: its
        # stderr is inf too (NaN before), and the summary names where, with no warning
        doc = dict(TOY_DOC, meas_strength=1e-150, t_total=1e-150, grid={"dt": 1e-153})
        doc["ensemble"] = {"n_traj": 64, "first_checkpoint": 1e-151}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ensemble", "--config", _write_cfg(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == 0
        fit = [r for r in self._rows(tmp_path / "out") if r["estimator"] == "regression"]
        assert fit and all(math.isfinite(float(r["mean_b"])) for r in fit)
        assert all(float(r["mse"]) == float(r["stderr"]) == math.inf for r in fit)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        t = [float(r["t"]) for r in fit]
        assert (f"regression mse overflows float64 at t = {t}: its stderr is inf there"
                in summary["warnings"])
        assert not any(w.startswith("qkf mse overflows") for w in summary["warnings"])

    def test_overflowing_sum_of_fourth_powers_reads_inf(self, tmp_path):
        # each block's sum of e^4 is finite, their sum is not: math.fsum raised, and the
        # run exited 2 as if the schedule had overflowed.  That stderr is inf now, and
        # named in the summary, and the run goes on
        doc = dict(TOY_DOC, meas_strength=3e-39, t_total=3e-39, grid={"dt": 3e-42})
        doc["ensemble"] = {"n_traj": 8192, "first_checkpoint": 3e-40}
        assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--workers", "2",
                     "--out", str(tmp_path / "out")]) == 0
        rows = self._rows(tmp_path / "out")
        over = [r for r in rows if float(r["stderr"]) == math.inf]
        assert over and {r["estimator"] for r in over} == {"regression"}
        assert all(math.isfinite(float(r[c])) for r in rows for c in ("mse", "mean_b"))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        t = [float(r["t"]) for r in over]
        assert f"regression stderr overflows float64 at t = {t}" in summary["warnings"]

    def test_line_fit_readout_past_float64_exits_2(self, tmp_path, capsys):
        # a 1e-160 s grid: even in units of the checkpoint's time the readout
        # overflows, so the run stops with the field to change
        doc = dict(TOY_DOC, meas_strength=1e-160, t_total=1e-160, grid={"dt": 1e-163})
        doc["ensemble"] = {"n_traj": 16, "first_checkpoint": 1e-161}
        out = tmp_path / "out"
        assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble.first_checkpoint: ")
        assert "line fit's readout is not finite" in err
        assert not out.exists()


BAD_CONFIGS = {
    "first_checkpoint": ("ensemble", {"ensemble": {"first_checkpoint": -1e-6}},
                         "ensemble.first_checkpoint"),
    # the threshold time axis would start at or after t_total = 0.5
    "first_checkpoint_at_t_total": ("ensemble", {"ensemble": {"first_checkpoint": 0.5}},
                                    "ensemble.first_checkpoint"),
    "first_checkpoint_after_t_total": ("ensemble", {"ensemble": {"first_checkpoint": 0.9}},
                                       "ensemble.first_checkpoint"),
    # a zero prior leaves nothing to estimate
    "prior_zero": ("ensemble", {"prior_b_variance": 0}, "params.prior_b_variance"),
    "prior_negative": ("simulate", {"prior_b_variance": -0.05}, "params.prior_b_variance"),
    "prior_string": ("simulate", {"prior_b_variance": "none"}, "params.prior_b_variance"),
    "prior_bool": ("oracle-check", {"prior_b_variance": True}, "params.prior_b_variance"),
    "estimators_not_list": ("ensemble", {"ensemble": {"estimators": "qkf"}},
                            "ensemble.estimators"),
    "estimator_unknown": ("ensemble", {"ensemble": {"estimators": ["qkf", "kalman"]}},
                          "ensemble.estimators"),
    "checkpoint_time_string": ("ensemble", {"ensemble": {"checkpoint_times": [0.1, "0.5"]}},
                               "ensemble.checkpoint_times"),
    "mse_window_strings": ("ensemble", {"ensemble": {"mse_ratio_window": ["0.9", "1.1"]}},
                           "ensemble.mse_ratio_window"),
    "j_values_three": ("scaling", {"scaling": {"j_values": [1e4, 1e5, 1e6]}},
                       "scaling.j_values"),
    "j_values_one_decade": ("scaling", {"scaling": {"j_values": [1e4, 2e4, 4e4, 8e4]}},
                            "scaling.j_values"),
    "slope_window_single": ("scaling", {"scaling": {"slope_window": [-1.05]}},
                            "scaling.slope_window"),
    "t_check": ("scaling", {"scaling": {"t_check": 0.0}}, "scaling.t_check"),
    "grid_dt": ("simulate", {"grid": {"dt": -2e-3}}, "grid.dt"),
    "checkpoints_per_decade": ("ensemble", {"ensemble": {"checkpoints_per_decade": -3}},
                               "ensemble.checkpoints_per_decade"),
    "checkpoints_per_decade_zero": ("ensemble", {"ensemble": {"checkpoints_per_decade": 0}},
                                    "ensemble.checkpoints_per_decade"),
    # former config values, now constants in the code that reads them: a config
    # naming one, even at its old value, is refused
    "prefix_ratio": ("simulate", {"grid": {"prefix_ratio": 1.2}},
                     "grid: unknown keys ['prefix_ratio']"),
    "prefix_safety": ("scaling", {"grid": {"prefix_safety": 0.2}},
                      "grid: unknown keys ['prefix_safety']"),
    "lowpass_cutoff": ("simulate", {"lowpass_cutoff_hz": 30.0},
                       "top level: unknown keys ['lowpass_cutoff_hz']"),
    "shotnoise_slope_tol": ("scaling", {"scaling": {"shotnoise_slope_tol": 1e-9}},
                            "scaling: unknown keys ['shotnoise_slope_tol']"),
    "dephasing_j": ("oracle-check", {"oracle": {"dephasing_j": 5}},
                    "oracle: unknown keys ['dephasing_j']"),
    "mean_threshold_frac": ("oracle-check", {"oracle": {"mean_threshold_frac": 0.05}},
                            "oracle: unknown keys ['mean_threshold_frac']"),
    "dephasing_tol": ("oracle-check", {"oracle": {"dephasing_tol": 0.01}},
                      "oracle: unknown keys ['dephasing_tol']"),
}


class TestCliBadInput:
    """Bad input exits 2 with a message naming the field, before any work."""

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_names_field(self, tmp_path, capsys, case):
        command, change, field = BAD_CONFIGS[case]
        cfg = _write_cfg(tmp_path, dict(TOY_DOC, **change))
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        cfg = _write_cfg(tmp_path, TOY_DOC)
        rc = main(["ensemble", "--config", cfg, "--workers", workers,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_n_traj_flag_below_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, TOY_DOC)
        rc = main(["ensemble", "--config", cfg, "--n-traj", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "ensemble.n_traj" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ensemble", "scaling"])
    def test_n_traj_config_below_two(self, tmp_path, capsys, command):
        doc = dict(TOY_DOC, **{command: {"n_traj": 1}})
        cfg = _write_cfg(tmp_path, doc)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{command}.n_traj" in capsys.readouterr().err


class TestCliEarlyCheckpoint:
    """A checkpoint too early for a 3-step line fit is a config error found at run time."""

    def _run(self, tmp_path, capsys, command, doc):
        rc = main([command, "--config", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert "leaves the line fit fewer than 3 steps" in err
        assert not (tmp_path / "out").exists()
        return err

    def early_doc(self, **ensemble):
        doc = dict(_preset_doc("fig2"), j_total=100.0, meas_strength=50.0,
                   gamma_convention="angular", prior_b_variance="infinite", grid={"dt": 1e-5})
        doc["ensemble"] = dict(doc["ensemble"], n_traj=1000, **ensemble)
        return doc

    def test_checkpoint_times_named(self, tmp_path, capsys):
        doc = self.early_doc(checkpoint_times=[1e-5, 0.01])
        err = self._run(tmp_path, capsys, "ensemble", doc)
        assert err.startswith("error: ensemble.checkpoint_times: ")

    def test_first_checkpoint_named(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "ensemble", self.early_doc())  # first_checkpoint 1e-6
        assert err.startswith("error: ensemble.first_checkpoint: ")

    def test_unresolved_prior_checkpoint_not_scored(self, tmp_path):
        # a qkf-only ensemble runs at that checkpoint: the infinite prior is not yet
        # resolved there, so the ratio check leaves it out and names it
        doc = self.early_doc(estimators=["qkf"], checkpoint_times=[1e-5, 0.01])
        out = tmp_path / "out"
        assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        (check,) = json.loads((out / "summary.json").read_text())["checks"]
        assert check["passed"] is True
        assert check["detail"].startswith("mse/exact in [")
        assert "not scored at t = [1e-05]" in check["detail"]
        assert "nan" not in check["detail"] and "skipped" not in check["detail"]

        doc = self.early_doc(estimators=["qkf"], checkpoint_times=[1e-5])
        assert main(["ensemble", "--config", _write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        (check,) = json.loads((out / "summary.json").read_text())["checks"]
        assert check["passed"] is True
        assert check["detail"].endswith("not scored at t = [1e-05]; skipped: no checkpoint scored")

    def test_scaling_t_check_named(self, tmp_path, capsys):
        # two uniform steps up to t_check at every J
        doc = dict(TOY_DOC, b_true=0.0, prior_b_variance="infinite",
                   grid={"dt": 5e-4, "log_prefix": False})
        doc["scaling"] = {"j_values": [10, 100, 1000, 10000], "t_check": 1e-3, "n_traj": 8}
        err = self._run(tmp_path, capsys, "scaling", doc)
        assert err.startswith("error: scaling.t_check: ")


class TestCliScheduleOverflow:
    """A gain schedule or a field information past the float range is bad input found at
    run time: exit 2, not 1, and no traceback."""

    @pytest.mark.parametrize("command", ["ensemble", "scaling"])
    def test_huge_j_exits_2(self, tmp_path, capsys, command):
        doc = dict(TOY_DOC, j_total=1e200)
        doc["scaling"] = {"j_values": [1e197, 1e198, 1e199, 1e200], "t_check": 0.05, "n_traj": 4}
        rc = main([command, "--config", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: params.gamma, ") and err.count("\n") == 1
        assert "gain schedule overflowed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def _information_overflow(self, tmp_path, capsys, command, doc, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", _write_cfg(tmp_path, doc), "--workers", "1",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: params.gamma, {field}, ") and err.count("\n") == 1
        assert "field information overflowed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("j_total", [1e120, 1e150])
    def test_fig2_information_overflow_exits_2(self, tmp_path, capsys, j_total):
        # the schedule holds, but (4 gamma J)^2 eta den of the information overflows: a
        # numpy product at 1e120 (v22 read 0, and the threshold table refused it), the
        # float square at 1e150 (the message was "Numerical result out of range")
        doc = dict(_preset_doc("fig2"), j_total=j_total)
        doc["ensemble"] = dict(doc["ensemble"], n_traj=16)
        self._information_overflow(tmp_path, capsys, "ensemble", doc, "params.j_total")

    def test_threshold_axis_information_overflow_exits_2(self, tmp_path, capsys):
        # the checkpoint at 0.1 stays in range; the threshold axis, out to 0.5, does not
        doc = dict(TOY_DOC, j_total=1e102)
        doc["ensemble"] = dict(TOY_DOC["ensemble"], checkpoint_times=[0.1])
        self._information_overflow(tmp_path, capsys, "ensemble", doc, "params.j_total")

    def test_scaling_information_overflow_exits_2(self, tmp_path, capsys):
        # the qkf rms read 0.0 at every J, and its slope nan
        doc = dict(TOY_DOC, scaling={"j_values": [1e150, 1e151, 1e152, 1e153], "n_traj": 16})
        self._information_overflow(tmp_path, capsys, "scaling", doc, "scaling.j_values")


class TestCliGridPoints:
    """Every command but oracle-check (4,411 points on its preset) reads the points it
    needs through ``TimeGrid.points``: none forms the grid's whole ``times`` array."""

    @pytest.mark.parametrize("command, workers", [("simulate", "1"), ("simulate", "3"),
                                                  ("ensemble", "1"), ("ensemble", "2"),
                                                  ("scaling", "1")])
    def test_no_command_forms_the_grid_times(self, tmp_path, monkeypatch, command, workers):
        def formed(grid):
            raise AssertionError("the grid's times were formed")

        doc = dict(TOY_DOC, ensemble={"n_traj": montecarlo.BLOCK_SIZE + 1,
                                      "checkpoint_times": [0.1, 0.5]},
                   scaling={"j_values": [10, 100, 1000, 10000], "t_check": 0.05, "n_traj": 8,
                            "slope_window": [-5.0, 5.0]})
        assert load_config(_write_cfg(tmp_path, doc)).make_grid().prefix.size  # a log prefix
        monkeypatch.setattr(TimeGrid, "times", property(formed))
        assert main([command, "--config", _write_cfg(tmp_path, doc), "--workers", workers,
                     "--out", str(tmp_path / "out")]) == 0


class TestCliScaling:
    def test_micro_scaling_run(self, tmp_path):
        # infinite prior so the error is data-dominated at every J
        doc = dict(TOY_DOC, b_true=0.0, prior_b_variance="infinite")
        doc["scaling"] = {"j_values": [10, 100, 1000, 10000], "t_check": 0.05,
                         "n_traj": 24, "slope_window": [-1.6, -0.4]}
        del doc["ensemble"]
        cfg = _write_cfg(tmp_path, doc)
        rc = main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "slope_shotnoise" in [c["name"] for c in summary["checks"]]
        shot = [c for c in summary["checks"] if c["name"] == "slope_shotnoise"][0]
        assert shot["passed"] is True
        assert rc == 0
        assert (tmp_path / "out" / "scaling.csv").exists()

    def test_grid_section_reaches_every_j(self, tmp_path):
        doc = dict(TOY_DOC, b_true=0.0)
        doc["scaling"] = {"j_values": [10, 100, 1000, 10000], "t_check": 0.05, "n_traj": 8,
                          "slope_window": [-5.0, 5.0]}
        del doc["ensemble"]
        csvs = []
        for dt in (1e-4, 5e-3):
            out = tmp_path / f"dt{dt:g}"
            main(["scaling", "--config", _write_cfg(tmp_path, dict(doc, grid={"dt": dt})),
                  "--out", str(out)])
            csvs.append((out / "scaling.csv").read_text())
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"]["grid"]["dt"] == dt
        assert csvs[0] != csvs[1]


class TestCliOracleCheck:
    def test_oracle_preset_passes(self, tmp_path):
        rc = main(["oracle-check", "--preset", "oracle", "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        names = {c["name"] for c in summary["checks"]}
        assert names == {"gaussian_mean_agreement", "dephasing_rates"}
        assert summary["passed"] is True
        assert (tmp_path / "out" / "oracle_deviation.csv").exists()

    def test_runs_no_eigensolver(self, tmp_path, monkeypatch):
        # the coherent state is a closed form: no LAPACK call is paged in
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert main(["oracle-check", "--preset", "oracle", "--out", str(tmp_path / "out")]) == 0


ORACLE_FIELDS = [("j_small", -10), ("j_small", 0), ("j_small", 2.3), ("j_small", 40),
                 ("mt_max", -0.1), ("mt_max", 0), ("dephasing_j", -5), ("dephasing_j", 0.3)]
# former oracle values, now constants in sme_oracle: any value of one is refused
# as an unknown key
REMOVED_ORACLE_KEYS = {"dephasing_j"}


class TestCliOracleBounds:
    """Each oracle value that reaches the dense model is checked when the config loads."""

    @pytest.mark.parametrize("key, value", ORACLE_FIELDS)
    def test_bad_value_named(self, tmp_path, capsys, key, value):
        doc = _preset_doc("oracle")
        doc["oracle"][key] = value
        rc = main(["oracle-check", "--config", _write_cfg(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        if key in REMOVED_ORACLE_KEYS:
            assert err == f"error: oracle: unknown keys ['{key}']\n"
        else:
            assert err.startswith(f"error: oracle.{key}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_half_integer_spins_accepted(self):
        doc = _preset_doc("oracle")
        for j_small in (20, 2.5):
            doc["oracle"].update(j_small=j_small, mt_max=0.05)
            oc = parse_config(json.dumps(doc)).oracle
            assert (oc.j_small, oc.mt_max) == (j_small, 0.05)


PARSED_TEXT_COLUMNS = {"estimator", "source"}


class TestCliArtifactsParse:
    """Every artifact of every command is a numeric CSV that ``csv.reader`` reads."""

    def _rows(self, out: Path) -> dict:
        tables = {}
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as f:
                header, *rows = list(csv.reader(f))
            for row in rows:
                assert len(row) == len(header), path.name
                for name, field in zip(header, row):
                    if name not in PARSED_TEXT_COLUMNS and field:
                        float(field)
            tables[path.name] = (header, rows)
        return tables

    def test_every_command(self, tmp_path):
        docs = {"simulate": TOY_DOC, "ensemble": TOY_DOC,
                "scaling": dict(TOY_DOC, scaling={"j_values": [10, 100, 1000, 10000],
                                                  "t_check": 0.05, "n_traj": 8,
                                                  "slope_window": [-5.0, 5.0]}),
                "oracle-check": dict(_preset_doc("oracle"),
                                     oracle={"j_small": 2, "mt_max": 0.05})}
        names = set()
        for command, doc in docs.items():
            out = tmp_path / command
            main([command, "--config", _write_cfg(tmp_path, doc), "--out", str(out)])
            tables = self._rows(out)
            assert tables
            names |= set(tables)
        assert names == {"trajectory.csv", "photocurrent_filtered.csv", "ensemble.csv",
                         "thresholds.csv", "scaling.csv", "oracle_deviation.csv"}

    def test_photocurrent_matches_record(self, tmp_path):
        path = _write_cfg(tmp_path, TOY_DOC)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
        header, rows = self._rows(tmp_path / "out")["photocurrent_filtered.csv"]
        cfg = load_config(path)
        grid = cfg.make_grid()
        record = simulate_trajectory(cfg.params, grid, substream(cfg.seed, 0))
        n_pref = grid.n_intervals - grid.n_steps
        assert n_pref > 0  # the toy grid has a log prefix
        filtered = lowpass_filter(record.y[n_pref:], grid.dt,
                                  math.sqrt(cfg.params.j_total) / cfg.params.t_total)
        assert header == ["t", "y", "y_filtered"]
        assert len(rows) == grid.n_steps
        got = np.array(rows, dtype=float).T
        for col, want in zip(got, (record.times[n_pref:-1], record.y[n_pref:], filtered)):
            assert np.array_equal(col.view(np.int64), want.view(np.int64))  # bit for bit


PRESET_COMMANDS = {"fig1": "simulate", "fig2": "ensemble", "scaling": "scaling",
                   "oracle": "oracle-check"}


def _preset_doc(name: str) -> dict:
    res = importlib.resources.files("qkfmag").joinpath("presets", f"{name}.json")
    return json.loads(res.read_text(encoding="utf-8"))


def _paths(node, prefix=()):
    """Every key or list index in a JSON document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


SWAPPED = ["x", "infinite", True, None, [], {}, [1.0], 7, 0.5]


@st.composite
def mutated_preset(draw):
    """A shipped preset with one to three keys dropped, retyped, negated, NaN or inf."""
    name = draw(st.sampled_from(sorted(PRESET_COMMANDS)))
    doc = _preset_doc(name)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *outer, key = draw(st.sampled_from(paths))
        parent = doc
        for k in outer:
            parent = parent[k]
        how = draw(st.sampled_from(["drop", "swap", "negate", "nan", "inf"]))
        value = parent[key]
        if how == "drop":
            del parent[key]
        elif how == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPPED)))
        elif how == "negate" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = -value
        elif how == "inf":
            parent[key] = draw(st.sampled_from([math.inf, -math.inf]))
        else:
            parent[key] = math.nan
    return name, doc


class TestMutatedPresets:
    @settings(max_examples=150, deadline=None)
    @given(mutated_preset())
    def test_parse_or_config_error(self, case):
        """parse_config returns a RunConfig or raises ConfigError; a rejected
        document makes the CLI exit 2 with a message and no traceback."""
        name, doc = case
        text = json.dumps(doc)
        try:
            assert isinstance(parse_config(text), RunConfig)
            return
        except ConfigError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([PRESET_COMMANDS[name], "--config", str(path),
                           "--out", str(Path(tmp) / "out")])
            assert rc == 2
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
            assert not (Path(tmp) / "out").exists()
