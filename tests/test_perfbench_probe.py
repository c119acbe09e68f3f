"""The benchmark's probe reaches into the program by name and silently skips a
name it cannot find, so a renamed or deleted target would quietly drop a
per-layer metric.  These tests load ``perfbench/probe.py`` as it is, resolve
every name it uses, run each of its counters on what its target returns, and
run its set-up mode on every workload's commands."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qkfmag.core import PhysicalParams, TimeGrid, make_grid
from qkfmag.montecarlo import EnsembleSpec, checkpoints_for_times
from qkfmag.rng import substream

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    cwd = os.getcwd()
    os.chdir(ROOT)  # run.py reads BENCHMARK.json from the working directory
    try:
        spec.loader.exec_module(module)
    finally:
        os.chdir(cwd)
    return module


PATCHES = _load(PROBE).PATCHES
WORKLOADS = _load(ROOT / "perfbench" / "run.py").WORKLOADS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in PATCHES])
def test_patch_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}"
        owner = getattr(owner, part)


def test_every_qkfmag_name_the_probe_reads_exists():
    # ``cli.<name>`` reads and ``from qkfmag.<module> import <name>`` in any function
    tree = ast.parse(PROBE.read_text(encoding="utf-8"))
    wanted = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "cli"):
            wanted.add(("qkfmag.cli", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qkfmag"):
            wanted.update((node.module, alias.name) for alias in node.names)
    assert ("qkfmag.cli", "build_parser") in wanted and ("qkfmag.cli", "main") in wanted
    missing = [f"{m}.{n}" for m, n in sorted(wanted)
               if not hasattr(importlib.import_module(m), n)]
    assert not missing


def _tiny_args() -> dict:
    """Positional arguments for each counted target: a tiny grid and spec."""
    p = PhysicalParams(j_total=100.0, gamma=1.5, b_true=0.01, meas_strength=50.0,
                       efficiency=0.8, prior_b_variance=0.05, t_total=0.05)
    grid = make_grid(p, dt=1e-3)
    spec = EnsembleSpec(params=p, grid=grid, n_traj=2, master_seed=1,
                        checkpoints=checkpoints_for_times(grid, [0.05]))
    dense = dataclasses.replace(p, j_total=2.0, meas_strength=1.0, b_true=0.0, t_total=5e-3)
    return {"make_grid": (p,), "kalman_schedule": (p, grid),
            "riccati_integrate": (p, grid.times[1:]), "run_ensemble": (spec,),
            "compare_to_gaussian": (dense, TimeGrid.uniform(1e-3, 5), substream(1, 0))}


@pytest.mark.parametrize("module, attr, count",
                         [(m, a, c) for m, a, _, c in PATCHES if c is not None],
                         ids=lambda v: getattr(v, "__name__", v))
def test_counter_reads_its_targets_return_value(module, attr, count):
    # a counter reads fields of the real return value, e.g. ``len(sched.k1)``:
    # a renamed field would crash every traced run
    args = _tiny_args()[attr]
    counts = count(args, getattr(importlib.import_module(module), attr)(*args))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {k: v for k, v in counts.items() if k in declared}
    assert metrics and all(isinstance(v, int) and v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_setup_runs_on_workload(tmp_path, workload):
    # the set-up mode calls the program with its signatures (override, make_grid,
    # EnsembleSpec, kalman_schedule, the config's oracle section), which the name
    # checks above do not call: a changed signature would fail every setup_s
    out = tmp_path / "setup.json"
    argv = [sys.executable, str(PROBE), "setup", "--t0", str(time.monotonic_ns()),
            "--out", str(out), "--input", json.dumps(WORKLOADS[workload]["commands"])]
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["traj_steps"] > 0
