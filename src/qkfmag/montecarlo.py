"""Parallel trajectory ensembles and the spin-scaling study.

Trajectories are processed in fixed blocks of 1024, vectorized across
the block; per-block partial sums are reduced in block order with
``math.fsum``.  Block boundaries depend only on the trajectory index,
so results are byte-identical for any worker count or scheduling.

Both estimators consume the identical record per trajectory (paired
design), and the per-trajectory noise comes from counter-based
substreams of the master seed, making ``run_ensemble`` a pure function
of its spec.

Engine.  The model is linear-Gaussian with data-independent gains, so a
trajectory's state obeys an affine recurrence in its unit normals.  The
plan folds each chunk of at most ``CHUNK_STEPS`` steps (every checkpoint
ends one; the scan stops at the last) into one affine map.  A chunk's
noise term h_t z is a Gaussian vector with n_col components and
covariance h_t h_t^T, and the terms of disjoint chunks are independent;
so the plan keeps a factor F with F F^T = h_t h_t^T and at most n_col
columns, and a trajectory draws one normal per column, not per step.
The law of the state at every chunk end, and so at every checkpoint, is
exactly that of the per-step scan.  The maps are applied with
``np.einsum``: a threaded BLAS would split the sums by its thread count,
and results must not depend on it.

The state columns are the true mean m, the filter's one weighted sum of
normals S = sum_k r_k sqrt(dt_k) z_k / d, and the line fit's linear
functionals of the record.  Putting the innovations
d_xi_k - c_k dt_k = r_k dt_k B + d sqrt(dt_k) z_k into the filter's
estimate (see ``estimators``) gives b = v22 (B data + S) =
B (1 - w) + v22 S, with w = 1/(1 + p0 data) the prior's pull, 0 for an
infinite prior.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, TimeGrid, make_grid, validate_params, with_spin
from .dynamics import step_coefficients
from .estimators import (
    bin_edge_indices,
    kalman_schedule,
    line_fit_weights,
    riccati_integrate,
    shotnoise_limit,
)
from .rng import substream

BLOCK_SIZE = 1024
ESTIMATOR_NAMES = ("qkf", "regression")


@dataclass(frozen=True)
class EnsembleSpec:
    """One ensemble run: parameters, grid, size, seed, and checkpoints.

    ``checkpoints`` are grid-point indices at which estimator errors are
    recorded.
    """

    params: PhysicalParams
    grid: TimeGrid
    n_traj: int
    master_seed: int
    estimators: tuple = ESTIMATOR_NAMES
    checkpoints: tuple = ()

    def __post_init__(self):
        validate_params(self.params)
        if self.n_traj < 2:
            raise ValueError("n_traj must be >= 2")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        n_pts = len(self.grid.times)
        if any(not (0 < c < n_pts) for c in self.checkpoints):
            raise ValueError("checkpoints must be grid indices in (0, n_points)")
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ValueError("checkpoints must be strictly increasing")


@dataclass(frozen=True)
class EnsembleStats:
    """Per-checkpoint empirical error statistics, plus the Riccati prediction."""

    times: np.ndarray                  # checkpoint times
    estimators: tuple
    mse: dict                          # name -> array over checkpoints, G^2
    stderr: dict                       # name -> standard error of the mse
    mean_b: dict                       # name -> ensemble mean estimate, G
    predicted_v22: np.ndarray          # Riccati v22 at the checkpoints, G^2
    n_traj: int
    master_seed: int

    def to_csv(self, fobj) -> None:
        w = csv.writer(fobj)
        w.writerow(["t", "estimator", "mse", "stderr", "mean_b", "predicted_v22"])
        for name in self.estimators:
            for i, t in enumerate(self.times):
                w.writerow([repr(float(t)), name, repr(float(self.mse[name][i])),
                            repr(float(self.stderr[name][i])), repr(float(self.mean_b[name][i])),
                            repr(float(self.predicted_v22[i]))])

    def summary_dict(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "master_seed": self.master_seed,
            "checkpoint_times": [float(t) for t in self.times],
            "estimators": list(self.estimators),
            "mse": {k: [float(x) for x in v] for k, v in self.mse.items()},
            "stderr": {k: [float(x) for x in v] for k, v in self.stderr.items()},
            "mean_b": {k: [float(x) for x in v] for k, v in self.mean_b.items()},
            "predicted_v22": [float(x) for x in self.predicted_v22],
        }


CHUNK_STEPS = 2048  # the longest scan chunk: bounds the plan's per-chunk temporaries


@dataclass(frozen=True)
class _Chunk:
    """state(end) = phi state(start) + factor u + d over steps [start, end), u the chunk's normals."""

    start: int
    end: int
    phi: np.ndarray      # (n_col, n_col)
    factor: np.ndarray   # (n_col, width), factor factor^T = h_t h_t^T of the per-step noise
    d: np.ndarray        # (n_col,)
    checkpoint: int      # position of ``end`` in the checkpoint list, or -1


def _noise_factor(h_t: np.ndarray) -> np.ndarray:
    """F with F F^T = h_t h_t^T and min(L, n_col) columns, for h_t of shape (n_col, L).

    F = R^T from h_t^T = Q R: the chunk's noise h_t z has the law of F u
    for unit normals u.
    """
    return np.ascontiguousarray(np.linalg.qr(h_t.T, mode="r").T)


@dataclass(frozen=True)
class _EnginePlan:
    """Chunk maps and checkpoint readouts shared by every trajectory.

    State columns: the true mean m, the filter's weighted sum of normals
    S = sum_k r_k sqrt(dt_k) z_k / d, then linear functionals of the
    record: the line fit's shared sums s_r and s_xr, and one direct
    estimate per checkpoint whose bins are not a prefix of the shared bins.
    """

    times: np.ndarray
    checkpoints: np.ndarray  # grid indices
    chunks: tuple
    v22: np.ndarray          # per checkpoint: b_hat = B (1 - w) + v22 S
    w: np.ndarray            # per checkpoint: the prior's pull 1/(1 + p0 data); 0 if p0 = inf
    reg_read: np.ndarray     # (n_cp, n_col): line-fit estimate = state @ reg_read[i]
    b_true: float


def _line_fit_weights(times: np.ndarray, checkpoints: np.ndarray, gamma_j: float):
    """Per-step record weights of the line-fit columns, (n_col, n_steps), and readout (n_cp, n_col).

    The shared bins are ``bin_edge_indices`` up to the last checkpoint.  A
    checkpoint whose own bins are a prefix of them reads the slope from
    s_r and s_xr; any other gets a column of its ``line_fit_weights``.
    """
    n = int(checkpoints[-1])
    edges = bin_edge_indices(times, n)
    te = times[edges]
    mid = 0.5 * (te[:-1] + te[1:])
    per_bin = np.diff(edges)
    cols = [np.repeat(1.0 / np.diff(te), per_bin), np.repeat(mid / np.diff(te), per_bin)]
    read = np.zeros((len(checkpoints), 2 + len(checkpoints)))
    for i, c in enumerate(checkpoints.tolist()):
        own = bin_edge_indices(times, c)
        nb = len(own) - 1
        if nb < 3:
            raise ValueError(f"checkpoint {c} leaves fewer than 3 regression bins")
        if np.array_equal(own, edges[:nb + 1]):
            sx = mid[:nb].sum()
            denom = (mid[:nb] ** 2).sum() - sx * sx / nb
            read[i, :2] = -sx / nb / denom / gamma_j, 1.0 / denom / gamma_j
            continue
        cols.append(np.zeros(n))
        cols[-1][:c] = line_fit_weights(times, c, gamma_j)
        read[i, len(cols) - 1] = 1.0
    return np.array(cols), read[:, :len(cols)]


def _chunk_maps(bounds: list, dts, drift, gsq, dsq, ssq, rec_w: np.ndarray,
                cp_pos: dict) -> tuple:
    """Affine maps over the chunks [bounds[i], bounds[i+1]).

    Per step, d_xi = m dt + dsq z, m' = m + drift + gsq z with
    drift = B phi12, and S' = S + ssq z: the filter's column has the
    identity map and no drift.  The line-fit columns weigh d_xi; suffix
    sums carry their weight on m_k onto the normals of the chunk's earlier
    steps.  Each chunk keeps the ``_noise_factor`` of its per-step noise
    weights h_t.
    """
    n_col = 2 + len(rec_w)
    chunks = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        w = rec_w[:, s:e]
        wm = w * dts[s:e]  # weight of m_k, since d_xi_k = m_k dt_k + dsq_k z_k
        later = np.zeros_like(wm)  # z_k moves every later m_j: sum of wm[j] over j > k
        later[:, :-1] = np.cumsum(wm[:, :0:-1], axis=1)[:, ::-1]
        h_t = np.vstack([gsq[s:e], ssq[s:e], w * dsq[s:e] + later * gsq[s:e]])
        phi = np.eye(n_col)
        phi[2:, 0] = wm.sum(axis=1)
        drift_before = np.concatenate(([0.0], np.cumsum(drift[s:e - 1])))
        d = np.concatenate(([drift[s:e].sum(), 0.0], (wm * drift_before).sum(axis=1)))
        chunks.append(_Chunk(s, e, phi, _noise_factor(h_t), d, cp_pos.get(e, -1)))
    return tuple(chunks)


def _build_plan(spec: EnsembleSpec) -> _EnginePlan:
    p = spec.params
    times = spec.grid.times
    checkpoints = np.asarray(spec.checkpoints, dtype=int)
    n = int(checkpoints[-1])  # the scan ends at the last checkpoint
    dts = np.diff(times[:n + 1])
    _, g = step_coefficients(p, times[:n + 1])
    sq = np.sqrt(dts)
    schedule = kalman_schedule(p, spec.grid)
    d = schedule.d
    rec_w, read = (_line_fit_weights(times, checkpoints, p.gamma * p.j_total)
                   if "regression" in spec.estimators
                   else (np.empty((0, n)), np.empty((len(checkpoints), 0))))
    bounds = sorted(set(range(0, n, CHUNK_STEPS)) | set(checkpoints.tolist()))
    chunks = _chunk_maps(bounds, dts, p.b_true * schedule.phi12[:n], g * sq, d * sq,
                         schedule.r[:n] * sq / d, rec_w,
                         {c: i for i, c in enumerate(checkpoints.tolist())})
    p0 = p.prior_b_variance
    data = schedule.data[checkpoints]
    # never B/p0: p0 = 0 is valid input
    w = np.zeros(len(data)) if math.isinf(p0) else 1.0 / (1.0 + p0 * data)
    return _EnginePlan(times=times, checkpoints=checkpoints, chunks=chunks,
                       v22=schedule.v22[checkpoints], w=w,
                       reg_read=np.hstack([np.zeros((len(checkpoints), 2)), read]),
                       b_true=p.b_true)


def _run_block(spec: EnsembleSpec, plan: _EnginePlan, i0: int, i1: int) -> dict:
    """Scan trajectories [i0, i1); per estimator, sums of e^2, e^4 and b_hat per checkpoint."""
    out = {name: np.zeros((3, len(plan.checkpoints))) for name in spec.estimators}
    state = np.zeros((i1 - i0, plan.chunks[0].phi.shape[0]))
    # each trajectory's normals for every chunk, in chunk order, in one draw
    u = np.empty((i1 - i0, sum(ch.factor.shape[1] for ch in plan.chunks)))
    for row, i in zip(u, range(i0, i1)):
        substream(spec.master_seed, i).generator().standard_normal(out=row)
    off = 0
    for ch in plan.chunks:
        width = ch.factor.shape[1]
        state = (np.einsum("ij,kj->ik", state, ch.phi)
                 + np.einsum("ij,kj->ik", u[:, off:off + width], ch.factor) + ch.d)
        off += width
        i = ch.checkpoint
        if i < 0:
            continue
        with np.errstate(invalid="ignore"):  # inf * 0 where an infinite prior is unresolved
            qkf = plan.b_true * (1.0 - plan.w[i]) + plan.v22[i] * state[:, 1]
        for name, b_hat in (("qkf", qkf),
                            ("regression", np.einsum("ij,j->i", state, plan.reg_read[i]))):
            if name in out:
                e2 = (b_hat - plan.b_true) ** 2
                out[name][:, i] = e2.sum(), (e2 * e2).sum(), b_hat.sum()
    return out


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Paired-estimator ensemble statistics at the spec's checkpoints.

    Deterministic in ``spec``; independent of ``workers``.
    """
    if len(spec.checkpoints) == 0:
        raise ValueError("spec.checkpoints must be non-empty")
    plan = _build_plan(spec)
    blocks = [(i, min(i + BLOCK_SIZE, spec.n_traj)) for i in range(0, spec.n_traj, BLOCK_SIZE)]
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_block, [spec] * len(blocks), [plan] * len(blocks),
                                     *zip(*blocks)))
    else:
        partials = [_run_block(spec, plan, a, b) for a, b in blocks]

    n = spec.n_traj
    n_cp = len(spec.checkpoints)
    times = plan.times[plan.checkpoints]
    mse, stderr, mean_b = {}, {}, {}
    for name in (e for e in ESTIMATOR_NAMES if e in spec.estimators):
        e2, e4, bs = (np.array([math.fsum(pt[name][r, i] for pt in partials) for i in range(n_cp)])
                      for r in range(3))
        mse[name] = e2 / n
        var_e2 = np.maximum(e4 / n - (e2 / n) ** 2, 0.0)
        stderr[name] = np.sqrt(var_e2 / (n - 1))
        mean_b[name] = bs / n
    predicted = riccati_integrate(spec.params, times).v22
    return EnsembleStats(times=times, estimators=tuple(spec.estimators), mse=mse,
                         stderr=stderr, mean_b=mean_b, predicted_v22=predicted,
                         n_traj=n, master_seed=spec.master_seed)


def checkpoints_for_times(grid: TimeGrid, wanted_times):
    """Grid indices nearest to the wanted times, snapped to regression bin edges.

    On an exact tie the lower edge wins.
    """
    times = grid.times
    edges = bin_edge_indices(times, len(times) - 1)[1:]
    te = times[edges]
    t = np.asarray(wanted_times, dtype=float)
    k = np.clip(np.searchsorted(te, t), 1, len(te) - 1)
    lower = np.abs(te[k - 1] - t) <= np.abs(te[k] - t)
    return tuple(sorted(set(edges[k - lower].tolist())))


def log_times(t_first: float, t_last: float, per_decade: int) -> np.ndarray:
    """At least ``per_decade`` log-spaced times per decade from t_first to t_last."""
    n = max(2, int(math.ceil(per_decade * math.log10(t_last / t_first))) + 1)
    return np.geomspace(t_first, t_last, n)


def log_checkpoints(grid: TimeGrid, t_first: float, per_decade: int = 30):
    """Log-spaced checkpoints from t_first to the end of the grid."""
    return checkpoints_for_times(grid, log_times(t_first, grid.t_total, per_decade))


# ---------------------------------------------------------------------------
# scaling study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingResult:
    """Log-log slope of RMS error vs J, per estimator, at a fixed time."""

    j_values: np.ndarray
    t_check: float
    rms: dict          # estimator -> array over J
    slopes: dict       # estimator -> fitted slope
    shotnoise_rms: np.ndarray
    shotnoise_slope: float

    def to_csv(self, fobj) -> None:
        w = csv.writer(fobj)
        w.writerow(["j_total", "estimator", "rms_error"])
        for name, arr in self.rms.items():
            for j, r in zip(self.j_values, arr):
                w.writerow([repr(float(j)), name, repr(float(r))])
        for j, r in zip(self.j_values, self.shotnoise_rms):
            w.writerow([repr(float(j)), "shotnoise", repr(float(r))])

    def summary_dict(self) -> dict:
        return {
            "t_check": self.t_check,
            "j_values": [float(j) for j in self.j_values],
            "slopes": {k: float(v) for k, v in self.slopes.items()},
            "shotnoise_slope": float(self.shotnoise_slope),
            "rms": {k: [float(x) for x in v] for k, v in self.rms.items()},
            "shotnoise_rms": [float(x) for x in self.shotnoise_rms],
        }


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    lx = np.log10(x)
    ly = np.log10(y)
    lxc = lx - lx.mean()
    return float(np.dot(lxc, ly) / np.dot(lxc, lxc))


def sorted_j_values(j_values) -> np.ndarray:
    """The study's J values, sorted; at least 4, positive, spanning >= 2 decades."""
    j_values = np.asarray(sorted(float(j) for j in j_values))
    if len(j_values) < 4:
        raise ValueError("need at least 4 j_values")
    if not (j_values[0] > 0 and j_values[-1] / j_values[0] >= 100.0):
        raise ValueError("j_values must be positive and span at least two decades")
    return j_values


def scaling_study(params: PhysicalParams, j_values, n_traj: int, master_seed: int,
                  estimators: tuple = ESTIMATOR_NAMES, t_check: float | None = None,
                  grid_for: Callable[[PhysicalParams], TimeGrid] = make_grid,
                  workers: int = 1) -> ScalingResult:
    """RMS-error-vs-J slopes for each estimator at a fixed readout time.

    Requires >= 4 values of J spanning >= 2 decades.  Each J runs
    ``params`` with that J over [0, t_check] (default ``params.t_total``)
    on the grid ``grid_for(p)``, with one checkpoint at t_check; the
    ``scaling`` command passes its config's grid section in ``grid_for``.
    Every J uses the same master seed, so its trajectories draw the same
    unit normals, but each J applies them through its own chunk factors:
    the noise is paired across J only as far as those factors agree.
    """
    j_values = sorted_j_values(j_values)
    if t_check is None:
        t_check = params.t_total
    rms = {name: [] for name in estimators}
    shot = []
    for j in j_values:
        p = replace(with_spin(params, j), t_total=t_check)
        grid = grid_for(p)
        cps = checkpoints_for_times(grid, [t_check])
        spec = EnsembleSpec(params=p, grid=grid, n_traj=n_traj, master_seed=master_seed,
                            estimators=estimators, checkpoints=cps)
        stats = run_ensemble(spec, workers=workers)
        for name in estimators:
            rms[name].append(math.sqrt(stats.mse[name][-1]))
        shot.append(shotnoise_limit(p, t_check))
    rms = {k: np.array(v) for k, v in rms.items()}
    shot = np.array(shot)
    slopes = {k: _loglog_slope(j_values, v) for k, v in rms.items()}
    return ScalingResult(j_values=j_values, t_check=float(t_check), rms=rms, slopes=slopes,
                         shotnoise_rms=shot, shotnoise_slope=_loglog_slope(j_values, shot))
