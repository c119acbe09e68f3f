"""In-process half of the benchmark: set-up probe, traced CLI replay, block draws.

``run.py`` starts this file as a fresh interpreter and never imports it::

    python3 perfbench/probe.py setup  --t0 NS --out FILE --input JSON
    python3 perfbench/probe.py replay --t0 NS --out FILE --input JSON
    python3 perfbench/probe.py draws  --t0 NS --out FILE --input JSON

``--t0`` is the ``time.monotonic_ns()`` at which the parent spawned this
process (CLOCK_MONOTONIC, shared by all processes), so interpreter start-up
is counted.  Every mode writes one JSON document to ``--out`` when it ends.

* ``setup`` does what the commands do before their first trajectory:
  import ``qkfmag.cli``, load and override the config, build grids,
  checkpoints and gain schedules.  ``--input`` is a JSON list of qkfmag CLI
  argument lists.  It reports when the set-up ended and the work of the
  commands in trajectory-steps.
* ``replay`` runs ``qkfmag.cli.main`` on one argument list (``--input``, a
  JSON list holding it) with spans around the calls into each module's
  public functions.  The spans are recorded by wrapping module attributes
  from here; the program is not changed.  Each ``run_ensemble`` span
  records the block that ``draws`` needs.
* ``draws`` repeats the Philox draws of one ensemble block alone
  (``--input`` is that block, as a ``run_ensemble`` span recorded it), so
  engine self time per block can be derived by subtraction.
"""

from __future__ import annotations

import argparse
import builtins
import dataclasses
import json
import math
import os
import sys
import time

now = time.monotonic_ns

# The ensemble engine draws noise in chunks of this many steps per
# trajectory (montecarlo._run_block's ``noise_chunk``); the derived draw
# replays that access pattern.
NOISE_CHUNK = 8192


class Tracer:
    """Spans kept in memory: [id, parent, name, start_ns, end_ns, attrs].

    ``cost_ns`` sums the time the tracing itself takes in this process:
    wrapping the modules, opening and closing spans, counting, and building
    the document.  Writing the document out at exit is not counted.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self.cost_ns = 0

    def begin(self, name: str, start: int | None = None) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               now() if start is None else start, None, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = now()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            t = now()
            rec = self.begin(name)
            self.cost_ns += now() - t
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
                self.cost_ns += now() - rec[4]
            if count is not None:
                t = now()
                rec[5] = count(args, out)
                self.cost_ns += now() - t
            return out
        return traced

    def dump(self) -> dict:
        t = now()
        spans = [dict(zip(("id", "parent", "name", "start", "end", "attrs"), s))
                 for s in self.spans]
        return {"run_id": self.run_id, "spans": spans,
                "trace_cost_ns": self.cost_ns + now() - t}


class _TracedFile:
    """``with open(...) as f`` on an artifact: one span from open to close."""

    def __init__(self, tracer: Tracer, path, f):
        t = now()
        self._tracer, self._path, self._f = tracer, path, f
        self._rec = tracer.begin("cli.artifact_write")
        tracer.cost_ns += now() - t

    def __enter__(self):
        return self._f

    def __exit__(self, *exc):
        self._f.close()
        self._tracer.end(self._rec)
        self._rec[5] = {"cli.artifact_bytes": os.path.getsize(self._path)}
        self._tracer.cost_ns += now() - self._rec[4]
        return False


# Counters return {per-layer metric name: count}; run.py sums them per metric
# and ignores the other keys.
def _grid_points(args, grid):
    return {"core.grid_points": len(grid.times)}


def _schedule_steps(args, sched):
    return {"estimators.schedule_steps": len(sched.k1)}


def _riccati_points(args, sol):
    return {"estimators.riccati_points": len(sol.times)}


def _oracle_steps(args, dev):
    return {"sme_oracle.steps": len(dev.times) - 1}


def _blocks(args, stats):
    from qkfmag.montecarlo import BLOCK_SIZE
    spec = args[0]
    return {"montecarlo.blocks": math.ceil(spec.n_traj / BLOCK_SIZE),
            "block": {"master_seed": spec.master_seed, "n_traj": min(BLOCK_SIZE, spec.n_traj),
                      "n_steps": len(spec.grid.times) - 1}}


# (module, attribute, span name, counter).  A module attribute is the name a
# caller looks up at call time, so wrapping ``qkfmag.montecarlo.kalman_schedule``
# traces the engine's call into the estimators layer.  Names a later version
# no longer has are skipped; the time then shows as unattributed.
PATCHES = [
    ("qkfmag.cli", "load_preset", "config.load", None),
    ("qkfmag.cli", "load_config", "config.load", None),
    ("qkfmag.cli", "override", "config.load", None),
    ("qkfmag.config", "make_grid", "core.make_grid", _grid_points),
    ("qkfmag.montecarlo", "make_grid", "core.make_grid", _grid_points),
    ("qkfmag.cli", "log_checkpoints", "montecarlo.checkpoints", None),
    ("qkfmag.cli", "checkpoints_for_times", "montecarlo.checkpoints", None),
    ("qkfmag.montecarlo", "checkpoints_for_times", "montecarlo.checkpoints", None),
    ("qkfmag.cli", "run_ensemble", "montecarlo.run_ensemble", _blocks),
    ("qkfmag.montecarlo", "run_ensemble", "montecarlo.run_ensemble", _blocks),
    ("qkfmag.cli", "scaling_study", "montecarlo.scaling_study", None),
    ("qkfmag.montecarlo", "kalman_schedule", "estimators.kalman_schedule", _schedule_steps),
    ("qkfmag.montecarlo", "step_coefficients", "dynamics.step_coefficients", None),
    ("qkfmag.cli", "riccati_integrate", "estimators.riccati_integrate", _riccati_points),
    ("qkfmag.montecarlo", "riccati_integrate", "estimators.riccati_integrate", _riccati_points),
    ("qkfmag.cli", "riccati_analytic", "estimators.riccati_analytic", None),
    ("qkfmag.cli", "simulate_trajectory", "dynamics.simulate_trajectory", None),
    ("qkfmag.sme_oracle", "simulate_trajectory", "dynamics.simulate_trajectory", None),
    ("qkfmag.cli", "lowpass_filter", "dynamics.lowpass_filter", None),
    ("qkfmag.cli", "reconstruct_noise", "dynamics.reconstruct_noise", None),
    ("qkfmag.dynamics", "TrajectoryRecord.to_csv", "dynamics.to_csv", None),
    ("qkfmag.cli", "compare_to_gaussian", "sme_oracle.compare", _oracle_steps),
    ("qkfmag.cli", "dephasing_rate_errors", "sme_oracle.dephasing", None),
]


def install(tracer: Tracer) -> None:
    t = now()
    for module, attr, name, count in PATCHES:
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            continue
        setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf), count))

    def traced_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        return _TracedFile(tracer, file, f) if "w" in mode else f

    sys.modules["qkfmag.cli"].open = traced_open
    tracer.cost_ns += now() - t


def _ensemble_specs(args) -> list:
    """The EnsembleSpecs an ``ensemble`` or ``scaling`` command runs, built as cli.py does."""
    from qkfmag.cli import load_config, load_preset, override
    from qkfmag.core import make_grid, with_spin
    from qkfmag.montecarlo import EnsembleSpec, checkpoints_for_times, log_checkpoints

    cfg = load_config(args.config) if args.config else load_preset(args.preset)
    cfg = override(cfg, seed=args.seed, n_traj=args.n_traj, gamma_convention=args.gamma_convention)
    p = cfg.params
    estimators = tuple(cfg.ensemble.estimators)
    if args.command == "ensemble":
        grid = cfg.make_grid()
        if cfg.ensemble.checkpoint_times:
            cps = checkpoints_for_times(grid, cfg.ensemble.checkpoint_times)
        else:
            t_first = cfg.ensemble.first_checkpoint or p.t_total * 1e-3
            cps = log_checkpoints(grid, t_first, cfg.ensemble.checkpoints_per_decade)
        return [EnsembleSpec(params=p, grid=grid, n_traj=cfg.ensemble.n_traj,
                             master_seed=cfg.seed, estimators=estimators, checkpoints=cps)]
    t_check = cfg.scaling.t_check or p.t_total
    specs = []
    for j in sorted(float(j) for j in cfg.scaling.j_values):
        pj = dataclasses.replace(with_spin(p, j), t_total=t_check)
        grid = make_grid(pj)
        specs.append(EnsembleSpec(params=pj, grid=grid, n_traj=cfg.scaling.n_traj,
                                  master_seed=cfg.seed, estimators=estimators,
                                  checkpoints=checkpoints_for_times(grid, [t_check])))
    return specs


def setup(argvs: list) -> dict:
    """Build everything the commands build before their first trajectory."""
    import qkfmag.cli as cli
    from qkfmag.estimators import kalman_schedule
    from qkfmag.sme_oracle import recommended_dt

    work = 0
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        if args.command in ("ensemble", "scaling"):
            for spec in _ensemble_specs(args):
                kalman_schedule(spec.params, spec.grid)
                work += spec.n_traj * (len(spec.grid.times) - 1)
            continue
        cfg = cli.load_config(args.config) if args.config else cli.load_preset(args.preset)
        cfg = cli.override(cfg, seed=args.seed, n_traj=args.n_traj,
                           gamma_convention=args.gamma_convention)
        if args.command == "simulate":
            work += cfg.make_grid().n_intervals
        else:  # oracle-check, as cmd_oracle_check builds its grid
            oc = cfg.oracle
            p_small = dataclasses.replace(cfg.params, j_total=oc.j_small, meas_strength=1.0,
                                          t_total=oc.mt_max, b_true=0.0)
            cli.validate_params(p_small)
            n = int(math.ceil(p_small.t_total / recommended_dt(p_small, oc.j_small)))
            work += cli.TimeGrid.uniform(p_small.t_total / n, n).n_intervals
    return {"end_ns": now(), "traj_steps": work}


def replay(argvs: list, t0: int) -> dict:
    """Traced ``qkfmag.cli.main`` on one argument list; the root span starts at spawn."""
    (argv,) = argvs
    tracer = Tracer(f"replay-{os.getpid()}")
    root = tracer.begin("replay", start=t0)
    imp = tracer.begin("setup.import", start=t0)
    import qkfmag.cli as cli
    tracer.end(imp)
    install(tracer)
    try:
        rc = cli.main(argv)
    finally:
        tracer.end(root)
    return {"rc": rc, **tracer.dump()}


def draw_block(master_seed: int, n_traj: int, n_steps: int) -> None:
    """The Philox draws of trajectories [0, n_traj) in the engine's chunked order."""
    import numpy as np
    from qkfmag.rng import substream

    gens = [substream(master_seed, i).generator() for i in range(n_traj)]
    for k in range(0, n_steps, NOISE_CHUNK):
        width = min(NOISE_CHUNK, n_steps - k)
        z = np.empty((n_traj, width))
        for i, gen in enumerate(gens):
            z[i] = gen.standard_normal(width)


def draws(block: dict) -> dict:
    """One block's Philox draws alone, in one span."""
    tracer = Tracer(f"draws-{os.getpid()}")
    rec = tracer.begin("rng.normals")
    draw_block(block["master_seed"], block["n_traj"], block["n_steps"])
    tracer.end(rec)
    rec[5] = {"rng.normals": block["n_traj"] * block["n_steps"]}
    return {"rc": 0, **tracer.dump()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "replay", "draws"])
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--input", required=True)
    a = ap.parse_args()
    given = json.loads(a.input)
    if a.mode == "setup":
        doc = setup(given)
    elif a.mode == "replay":
        doc = replay(given, a.t0)
    else:
        doc = draws(given)
    with open(a.out, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return int(doc.get("rc", 0))


if __name__ == "__main__":
    sys.exit(main())
