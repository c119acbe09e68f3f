"""Command-line surface: simulate | ensemble | scaling | oracle-check.

Every command writes CSV artifacts plus a ``summary.json`` sidecar that
echoes the fully resolved configuration and master seed.  Exit code is
0 iff all checks requested by the command pass (1 if one fails; failures
are listed machine-readably in the summary), 2 for bad input or an
unwritable output, and 3 when a forked worker fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

# Before numpy loads: the commands call no threaded BLAS routine, and an
# OpenBLAS thread pool would only spin at start-up and make the process
# multi-threaded when it forks.  A value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, load_preset, override
# validate_params is unused here, but perfbench's probe reads cli.validate_params
from .core import TimeGrid, WorkerError, usable_cpus, validate_params  # noqa: F401
from .dynamics import RecordStream, noise_mismatch
# perfbench's probe wraps these three, though simulate no longer calls them
from .dynamics import lowpass_filter, reconstruct_noise, simulate_trajectory  # noqa: F401
from .estimators import (
    detection_threshold_asymptotic,
    riccati_analytic,
    riccati_integrate,
    shotnoise_limit,
    write_threshold_csv,
)
from .montecarlo import (
    CheckpointError,
    EnsembleSpec,
    checkpoints_for_times,
    log_checkpoints,
    log_times,
    run_ensemble,
    scaling_study,
)
from .rng import substream
from .sme_oracle import (
    DEPHASING_J,
    DEPHASING_TOL,
    MEAN_DEVIATION_FRAC,
    compare_to_gaussian,
    dephasing_rate_errors,
    recommended_dt,
)

# The shot-noise limit is analytic and exactly proportional to J^-1/2, so its
# fitted slope is -0.5 to within the log-log fit's rounding.
SHOTNOISE_SLOPE_TOL = 1e-9


def _write_summary(out_dir: Path, command: str, cfg: RunConfig, checks: list, extra: dict) -> int:
    failures = [c for c in checks if not c["passed"]]
    summary = {
        "command": command,
        "version": __version__,
        "config": cfg.resolved_dict(),
        "checks": checks,
        "failures": [c["name"] for c in failures],
        "passed": not failures,
    }
    summary.update(extra)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['detail']}")
    return 0 if not failures else 1


def cmd_simulate(cfg: RunConfig, out_dir: Path, zero_noise: bool = False,
                 workers: int = 1) -> int:
    """One trajectory: raw record CSV plus low-pass filtered photocurrent CSV.

    One pass over the record's blocks checks it and keeps each block's start;
    the forked writers regenerate their rows from those starts, so no
    grid-length array is held here, not even the grid's times.
    """
    p = cfg.params
    grid = cfg.make_grid()
    record = RecordStream(p, grid, substream(cfg.seed, 0), zero_noise=zero_noise)
    err = excess = scale = 0.0
    for block in record.blocks():
        e, x, s = noise_mismatch(block, p)
        err, excess, scale = max(err, e), max(excess, x), max(scale, s)
    paths = [out_dir / "trajectory.csv", out_dir / "photocurrent_filtered.csv"]
    try:
        with open(paths[0], "wb") as f, open(paths[1], "wb") as pc:
            record.to_csv(f, pc, workers=workers)
    except BaseException:  # a failed worker, a full disk, an interrupt: no truncated record
        for path in paths:
            path.unlink(missing_ok=True)
        raise

    limit = 1e-9 * (scale + 1e-300)  # relative to max |dW|, beyond float64 rounding
    checks = [{
        "name": "record_consistency",
        "passed": bool(excess <= limit),
        "detail": (f"max |reconstructed dW - stored dW| = {err:.3e}, {excess:.3e} beyond "
                   f"its float64 rounding (bound 1e-9 max |dW| = {limit:.3e})"),
    }]
    return _write_summary(out_dir, "simulate", cfg, checks,
                          {"zero_noise": zero_noise, "n_grid_points": grid.n_intervals + 1})


def cmd_ensemble(cfg: RunConfig, out_dir: Path, workers: int = 1) -> int:
    """Ensemble MSE table plus the threshold table: four reference curves over one time axis."""
    p = cfg.params
    grid = cfg.make_grid()
    if cfg.ensemble.checkpoint_times:
        cps = checkpoints_for_times(grid, cfg.ensemble.checkpoint_times)
    else:
        t_first = cfg.ensemble.first_checkpoint or p.t_total * 1e-3
        cps = log_checkpoints(grid, t_first, cfg.ensemble.checkpoints_per_decade)
    spec = EnsembleSpec(params=p, grid=grid, n_traj=cfg.ensemble.n_traj,
                        master_seed=cfg.seed, estimators=tuple(cfg.ensemble.estimators),
                        checkpoints=cps)
    # the threshold axis starts at 1e-8 s or t_total * 1e-5, whichever is later, but below t_total
    t_first = max(1e-8, p.t_total * 1e-5) if p.t_total > 1e-8 else p.t_total * 1e-5
    times = log_times(cfg.ensemble.first_checkpoint or t_first, p.t_total, 30)
    try:
        curves = {"riccati_numeric": np.sqrt(riccati_integrate(p, times).v22)}  # before any block
        stats = run_ensemble(spec, workers=workers)
    except CheckpointError as exc:
        key = "checkpoint_times" if cfg.ensemble.checkpoint_times else "first_checkpoint"
        raise ConfigError(f"ensemble.{key}: {exc}") from exc
    except OverflowError as exc:  # the gain schedule's or the field information's
        raise ConfigError(f"params.gamma, params.j_total, grid.dt: {exc}") from exc
    with open(out_dir / "ensemble.csv", "wb") as f:
        stats.to_csv(f)

    skipped = []
    try:
        curves["riccati_analytic"] = riccati_analytic(p, times)
    except ValueError as exc:  # outside closed-form validity somewhere
        skipped.append({"source": "riccati_analytic", "reason": str(exc)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curves["asymptotic"] = detection_threshold_asymptotic(p, times)
    curves["shotnoise"] = shotnoise_limit(p, times)
    with open(out_dir / "thresholds.csv", "wb") as f:
        write_threshold_csv(times, curves, f)

    checks = []
    notes = [str(w.message) for w in caught]
    for name, mse in stats.mse.items():
        if np.isinf(mse).any():
            notes.append(f"{name} mse overflows float64 at t = "
                         f"{stats.times[np.isinf(mse)].tolist()}: its stderr is inf there")
        over = np.isinf(stats.stderr[name]) & ~np.isinf(mse)
        if over.any():
            notes.append(f"{name} stderr overflows float64 at t = {stats.times[over].tolist()}")
    if "qkf" in stats.estimators:
        lo, hi = cfg.ensemble.mse_ratio_window
        # the exact fixed-B MSE B^2 w^2 + v22 (1 - w), w = v22/p0 the prior's pull (see montecarlo)
        v22 = stats.predicted_v22
        w = 0.0 if math.isinf(p.prior_b_variance) else v22 / p.prior_b_variance
        exact = p.b_true**2 * w * w + v22 * (1.0 - w)
        vanishing = exact == 0.0  # b_true = 0 while v22 is still the prior (w = 1): no ratio
        ratios = np.divide(stats.mse["qkf"], exact, out=np.full_like(v22, np.nan), where=~vanishing)
        # an infinite prior leaves the estimate NaN until the data carry information
        unresolved = np.isnan(ratios) & math.isinf(p.prior_b_variance)
        scored = ratios[~(unresolved | vanishing)]
        # only enforce where the ensemble has resolving power
        enough = stats.n_traj >= 1000
        detail = ((f"mse/exact in [{scored.min():.3f}, {scored.max():.3f}] " if len(scored) else "")
                  + f"(window [{lo}, {hi}], n_traj={stats.n_traj})")
        if unresolved.any():
            t_unresolved = [float(t) for t in stats.times[unresolved]]
            detail += f"; not scored at t = {t_unresolved}"
            notes.append(f"qkf mse is NaN at t = {t_unresolved}: the infinite "
                         f"prior is not yet resolved there (no data information)")
        if vanishing.any():
            t_zero = [float(t) for t in stats.times[vanishing]]
            detail += f"; not scored at t = {t_zero} (exact mse 0)"
            notes.append(f"qkf exact mse is 0 at t = {t_zero}: b_true = 0, v22 still the prior")
        if not (enough and len(scored)):
            detail += "; skipped: " + ("no checkpoint scored" if enough else "n_traj < 1000")
        checks.append({"name": "qkf_mse_matches_riccati", "detail": detail,
                       "passed": not enough or bool(np.all((scored >= lo) & (scored <= hi)))})
    return _write_summary(out_dir, "ensemble", cfg, checks,
                          {"checkpoints": [float(t) for t in stats.times],
                           "warnings": notes,
                           "skipped_curves": skipped})


def cmd_scaling(cfg: RunConfig, out_dir: Path, workers: int = 1) -> int:
    """RMS-vs-J study: per-J errors and fitted log-log slopes."""
    try:
        result = scaling_study(cfg.params, cfg.scaling.j_values, n_traj=cfg.scaling.n_traj,
                               master_seed=cfg.seed, estimators=tuple(cfg.ensemble.estimators),
                               t_check=cfg.scaling.t_check, grid_for=cfg.make_grid,
                               workers=workers)
    except CheckpointError as exc:
        raise ConfigError(f"scaling.t_check: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"params.gamma, scaling.j_values, grid.dt: {exc}") from exc
    with open(out_dir / "scaling.csv", "wb") as f:
        result.to_csv(f)

    lo, hi = cfg.scaling.slope_window
    checks = []
    for name, slope in result.slopes.items():
        checks.append({
            "name": f"slope_{name}",
            "passed": bool(lo <= slope <= hi),
            "detail": f"slope = {slope:.4f}, window [{lo}, {hi}]",
        })
    checks.append({
        "name": "slope_shotnoise",
        "passed": bool(abs(result.shotnoise_slope + 0.5) <= SHOTNOISE_SLOPE_TOL),
        "detail": f"slope = {result.shotnoise_slope:.12f}, expected -0.5 exactly",
    })
    return _write_summary(out_dir, "scaling", cfg, checks, {"slopes": result.summary_dict()})


def cmd_oracle_check(cfg: RunConfig, out_dir: Path) -> int:
    """Quantum-model validation of the Gaussian dynamics at small J.

    Of the config it reads ``oracle.j_small``, ``oracle.mt_max``,
    ``params.efficiency`` and ``seed``: the comparison runs at M = 1 and
    B = 0, the dephasing check at J = ``DEPHASING_J``, and the rest of
    ``params`` is unused.
    """
    oc = cfg.oracle
    p_small = dataclasses.replace(
        cfg.params, j_total=oc.j_small,
        meas_strength=1.0, t_total=oc.mt_max, b_true=0.0,
    )
    dt = recommended_dt(p_small, oc.j_small)
    n = int(math.ceil(p_small.t_total / dt))
    grid = TimeGrid.uniform(p_small.t_total / n, n)
    dev = compare_to_gaussian(p_small, grid, substream(cfg.seed, 0))
    with open(out_dir / "oracle_deviation.csv", "wb") as f:
        dev.to_csv(f)
    mean_frac = dev.max_mean_frac()
    checks = [{
        "name": "gaussian_mean_agreement",
        "passed": bool(mean_frac <= MEAN_DEVIATION_FRAC),
        "detail": (f"max mean deviation = {mean_frac:.4f} x sqrt(J/2) at J={oc.j_small:g} "
                   f"(threshold {MEAN_DEVIATION_FRAC})"),
    }]

    errs = dephasing_rate_errors(dataclasses.replace(p_small, j_total=DEPHASING_J))
    worst = float(np.max(errs))
    checks.append({
        "name": "dephasing_rates",
        "passed": bool(worst <= DEPHASING_TOL),
        "detail": (f"worst off-diagonal rate error = {worst:.5f} at J={DEPHASING_J:g} "
                   f"(tolerance {DEPHASING_TOL})"),
    })
    return _write_summary(out_dir, "oracle-check", cfg, checks,
                          {"mean_deviation_frac": mean_frac, "dephasing_worst": worst})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qkfmag",
                                 description="Continuous-measurement magnetometer simulator "
                                             "and field estimators")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("simulate", "single trajectory + filtered photocurrent"),
                        ("ensemble", "Monte Carlo error statistics vs Riccati prediction"),
                        ("scaling", "RMS error vs J slopes"),
                        ("oracle-check", "small-J quantum validation of the Gaussian model")):
        sp = sub.add_parser(name, help=help_)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=str, help="path to a JSON run configuration")
        src.add_argument("--preset", type=str, choices=["fig1", "fig2", "scaling", "oracle"],
                         help="shipped configuration")
        sp.add_argument("--seed", type=int, default=None, help="override master seed")
        sp.add_argument("--n-traj", type=int, default=None, help="override trajectory count")
        sp.add_argument("--out", type=str, default="out", help="output directory")
        sp.add_argument("--gamma-convention", type=str, choices=["angular", "cycles"],
                        default=None, help="reinterpret the config's gamma value")
        sp.add_argument("--workers", type=int, default=usable_cpus(),
                        help="forked worker processes, read by simulate, ensemble and scaling; "
                             "outputs do not depend on it (default: the CPUs this process "
                             "may use, %(default)s here)")
        if name == "simulate":
            sp.add_argument("--zero-noise", action="store_true",
                            help="debug mode: force dW = 0")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers: expected an integer >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config) if args.config else load_preset(args.preset)
        cfg = override(cfg, seed=args.seed, n_traj=args.n_traj,
                       gamma_convention=args.gamma_convention)
        out_dir = Path(args.out)
        created = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            if args.command == "simulate":
                return cmd_simulate(cfg, out_dir, zero_noise=args.zero_noise,
                                    workers=args.workers)
            if args.command == "ensemble":
                return cmd_ensemble(cfg, out_dir, workers=args.workers)
            if args.command == "scaling":
                return cmd_scaling(cfg, out_dir, workers=args.workers)
            if args.command == "oracle-check":
                return cmd_oracle_check(cfg, out_dir)
        except (ConfigError, OSError, WorkerError):  # the command failed: no empty directory left
            if created and not any(out_dir.iterdir()):
                out_dir.rmdir()
            raise
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {args.command} {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
