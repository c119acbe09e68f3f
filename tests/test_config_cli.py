import json
import math
from pathlib import Path

import numpy as np
import pytest

from qkfmag.cli import main
from qkfmag.config import ConfigError, load_preset, override, parse_config

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

    def test_unknown_nested_key_rejected(self):
        doc = dict(FIG2_DOC, grid={"dx": 1.0})
        with pytest.raises(ConfigError, match="dx"):
            parse_config(json.dumps(doc))

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"j_total\": -1}")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


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


class TestCliBadInput:
    """Bad input exits 2 with a message naming the field, before any work."""

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


class TestCliOracleCheck:
    def test_oracle_preset_passes(self, tmp_path):
        rc = main(["oracle-check", "--preset", "oracle", "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        names = {c["name"] for c in summary["checks"]}
        assert names == {"gaussian_mean_agreement", "dephasing_rates"}
        assert summary["passed"] is True
        assert (tmp_path / "out" / "oracle_deviation.csv").exists()
