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
ends one; the scan stops at the last) into one affine map.  Normals are
drawn per trajectory in stream order into a reused buffer, and the maps
are applied with ``np.einsum``: a threaded BLAS would split the sums by
its thread count, and results must not depend on it.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, TimeGrid, make_grid, validate_params, with_spin
from .dynamics import step_coefficients
from .estimators import (
    KalmanSchedule,
    bin_edge_indices,
    kalman_schedule,
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


CHUNK_STEPS = 2048  # normals drawn per trajectory at a time; the longest scan chunk


@dataclass(frozen=True)
class _Chunk:
    """state(end) = phi state(start) + h_t z[start:end] + d over steps [start, end)."""

    start: int
    end: int
    phi: np.ndarray      # (n_col, n_col)
    h_t: np.ndarray      # (n_col, end - start), C-contiguous
    d: np.ndarray        # (n_col,)
    checkpoint: int      # position of ``end`` in the checkpoint list, or -1


@dataclass(frozen=True)
class _EnginePlan:
    """Chunk maps and checkpoint readouts shared by every trajectory.

    State columns: the true mean m, the filter's errors (jz - m, b - B)
    in the schedule's parametrization, then linear functionals of the
    record: the line fit's shared sums s_r and s_xr, and one direct
    estimate per checkpoint whose bins are not a prefix of the shared bins.
    """

    times: np.ndarray
    checkpoints: np.ndarray  # grid indices
    chunks: tuple
    shrink: np.ndarray       # per checkpoint: b_hat = b / shrink (NaN: prior not yet resolved)
    reg_read: np.ndarray     # (n_cp, n_col): line-fit estimate = state @ reg_read[i]
    b_true: float


def _line_fit_weights(times: np.ndarray, checkpoints: np.ndarray, gamma_j: float):
    """Per-step record weights of the line-fit columns, (n_col, n_steps), and readout (n_cp, n_col).

    The shared bins are ``bin_edge_indices`` up to the last checkpoint.  A
    checkpoint whose own bins (``regression_estimate``'s) are a prefix of
    them reads the slope from s_r and s_xr; any other gets a column that
    holds its estimate.
    """
    n = int(checkpoints[-1])
    edges = bin_edge_indices(times, n)
    te = times[edges]
    mid = 0.5 * (te[:-1] + te[1:])
    per_bin = np.diff(edges)
    cols = [np.repeat(1.0 / np.diff(te), per_bin), np.repeat(mid / np.diff(te), per_bin)]
    read = np.zeros((len(checkpoints), 2 + len(checkpoints)))
    wmax = np.maximum.accumulate(np.diff(times[:n + 1]))
    multi = np.nonzero(per_bin > 1)[0]
    for i, c in enumerate(checkpoints.tolist()):
        nb = int(np.searchsorted(edges, c))
        j = multi[multi < nb]
        # its own width is never wider: the shared bins hold iff no
        # multi-step bin below it would close one step early
        shared = edges[nb] == c and np.all(times[edges[j + 1] - 1]
                                           < times[edges[j]] + wmax[c - 1] * (1.0 - 1e-9))
        own = edges[:nb + 1] if shared else bin_edge_indices(times, c)
        if len(own) < 4:
            raise ValueError(f"checkpoint {c} leaves fewer than 3 regression bins")
        if shared:
            sx = mid[:nb].sum()
            denom = (mid[:nb] ** 2).sum() - sx * sx / nb
            read[i, :2] = -sx / nb / denom / gamma_j, 1.0 / denom / gamma_j
            continue
        te_c = times[own]
        xc = 0.5 * (te_c[:-1] + te_c[1:])
        xc = xc - xc.mean()
        cols.append(np.zeros(n))
        cols[-1][:c] = np.repeat(xc / ((xc * xc).sum() * np.diff(te_c) * gamma_j), np.diff(own))
        read[i, len(cols) - 1] = 1.0
    return np.array(cols), read[:, :len(cols)]


def _chunk_maps(bounds: list, dts, drift, gsq, dsq, schedule: KalmanSchedule, b_true: float,
                rec_w: np.ndarray, cp_pos: dict) -> tuple:
    """Affine maps over the chunks [bounds[i], bounds[i+1]).

    Per step, d_xi = m dt + dsq z and m' = m + drift + gsq z.  The filter is
    carried as its errors x = (jz - m, b - B), which the record reaches only
    through the innovation d_xi - jz dt = -x_1 dt + dsq z:

        x' = F x + G z + (phi12 B - drift, 0),
        F = [[1 - k1 dt, phi12], [-k2 dt, 1]],  G = (k1 dsq - gsq, k2 dsq),

    free of the large m that jz and m share.  A backward (adjoint) pass over
    each chunk gives the noise weights F_{e-1} ... F_{k+1} G_k.  The line-fit
    columns weigh d_xi; suffix sums carry their weight on m_k onto the
    normals of the chunk's earlier steps.
    """
    n = len(dts)
    k1, k2, phi12, dtl, gl, dl, drive = (a.tolist() for a in (
        schedule.k1[:n], schedule.k2[:n], schedule.phi12[:n], dts, gsq, dsq,
        schedule.phi12[:n] * b_true - drift))
    h1, h2 = [0.0] * n, [0.0] * n
    filter_maps = []
    for s, e in zip(bounds[-2::-1], bounds[:0:-1]):
        p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
        d1 = d2 = 0.0
        for k in range(e - 1, s - 1, -1):
            a1, a2, dt = k1[k], k2[k], dtl[k]
            g1, g2 = a1 * dl[k] - gl[k], a2 * dl[k]
            h1[k] = p11 * g1 + p12 * g2
            h2[k] = p21 * g1 + p22 * g2
            d1 += p11 * drive[k]
            d2 += p21 * drive[k]
            f11, f21, f12 = 1.0 - a1 * dt, -a2 * dt, phi12[k]
            p11, p12 = p11 * f11 + p12 * f21, p11 * f12 + p12
            p21, p22 = p21 * f11 + p22 * f21, p21 * f12 + p22
        filter_maps.append((((p11, p12), (p21, p22)), (d1, d2)))
    n_col = 3 + len(rec_w)
    chunks = []
    for s, e, (p_x, d_x) in zip(bounds[:-1], bounds[1:], filter_maps[::-1]):
        w = rec_w[:, s:e]
        wm = w * dts[s:e]  # weight of m_k, since d_xi_k = m_k dt_k + dsq_k z_k
        later = np.zeros_like(wm)  # z_k moves every later m_j: sum of wm[j] over j > k
        later[:, :-1] = np.cumsum(wm[:, :0:-1], axis=1)[:, ::-1]
        h_t = np.vstack([gsq[s:e], h1[s:e], h2[s:e], w * dsq[s:e] + later * gsq[s:e]])
        phi = np.eye(n_col)
        phi[1:3, 1:3] = p_x
        phi[3:, 0] = wm.sum(axis=1)
        drift_before = np.concatenate(([0.0], np.cumsum(drift[s:e - 1])))
        d = np.concatenate(([drift[s:e].sum()], d_x, (wm * drift_before).sum(axis=1)))
        chunks.append(_Chunk(s, e, phi, h_t, d, cp_pos.get(e, -1)))
    return tuple(chunks)


def _build_plan(spec: EnsembleSpec) -> _EnginePlan:
    p = spec.params
    times = spec.grid.times
    checkpoints = np.asarray(spec.checkpoints, dtype=int)
    n = int(checkpoints[-1])  # the scan ends at the last checkpoint
    dts = np.diff(times[:n + 1])
    drift, g = step_coefficients(p, times[:n + 1])
    sq = np.sqrt(dts)
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    schedule = kalman_schedule(p, spec.grid)
    rec_w, read = (_line_fit_weights(times, checkpoints, p.gamma * p.j_total)
                   if "regression" in spec.estimators
                   else (np.empty((0, n)), np.empty((len(checkpoints), 0))))
    bounds = sorted(set(range(0, n, CHUNK_STEPS)) | set(checkpoints.tolist()))
    chunks = _chunk_maps(bounds, dts, drift, g * sq, d * sq, schedule, p.b_true, rec_w,
                         {c: i for i, c in enumerate(checkpoints.tolist())})
    shrink = schedule.shrink[checkpoints]
    return _EnginePlan(times=times, checkpoints=checkpoints, chunks=chunks,
                       shrink=np.where(shrink > 0.0, shrink, np.nan),
                       reg_read=np.hstack([np.zeros((len(checkpoints), 3)), read]),
                       b_true=p.b_true)


def _run_block(spec: EnsembleSpec, plan: _EnginePlan, i0: int, i1: int) -> dict:
    """Scan trajectories [i0, i1); per estimator, sums of e^2, e^4 and b_hat per checkpoint."""
    gens = [substream(spec.master_seed, i).generator() for i in range(i0, i1)]
    out = {name: np.zeros((3, len(plan.checkpoints))) for name in spec.estimators}
    n = plan.chunks[-1].end
    state = np.zeros((i1 - i0, plan.chunks[0].phi.shape[0]))
    state[:, 2] = -plan.b_true  # b starts at 0
    buf = np.empty((i1 - i0, min(CHUNK_STEPS, n)))
    for ch in plan.chunks:
        off = ch.start % CHUNK_STEPS
        if off == 0:
            for row, gen in zip(buf, gens):
                gen.standard_normal(out=row[:min(CHUNK_STEPS, n - ch.start)])
        z = buf[:, off:off + ch.end - ch.start]
        state = (np.einsum("ij,kj->ik", state, ch.phi)
                 + np.einsum("ij,kj->ik", z, ch.h_t) + ch.d)
        i = ch.checkpoint
        if i < 0:
            continue
        for name, b_hat in (("qkf", (state[:, 2] + plan.b_true) / plan.shrink[i]),
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


def checkpoints_for_times(grid: TimeGrid, wanted_times, require_bin_edges: bool = True):
    """Grid indices nearest to the wanted times, snapped to regression bin edges."""
    times = grid.times
    n_steps = len(times) - 1
    edges = bin_edge_indices(times, n_steps) if require_bin_edges else np.arange(1, n_steps + 1)
    edges = edges[edges > 0]
    out = []
    for t in wanted_times:
        i = edges[np.argmin(np.abs(times[edges] - t))]
        out.append(int(i))
    return tuple(sorted(set(out)))


def log_checkpoints(grid: TimeGrid, t_first: float, per_decade: int = 30):
    """Log-spaced checkpoints from t_first to the end of the grid."""
    t_last = grid.t_total
    n = max(2, int(math.ceil(per_decade * math.log10(t_last / t_first))) + 1)
    wanted = np.geomspace(t_first, t_last, n)
    return checkpoints_for_times(grid, wanted)


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


def scaling_study(base: EnsembleSpec, j_values, t_check: float | None = None,
                  workers: int = 1) -> ScalingResult:
    """RMS-error-vs-J slopes for each estimator at a fixed readout time.

    Requires >= 4 values of J spanning >= 2 decades.  Each J reuses the
    master seed (paired noise across J reduces slope variance).
    """
    j_values = np.asarray(sorted(float(j) for j in j_values))
    if len(j_values) < 4:
        raise ValueError("need at least 4 j_values")
    if j_values[-1] / j_values[0] < 100.0:
        raise ValueError("j_values must span at least two decades")
    if t_check is None:
        t_check = base.params.t_total
    rms = {name: [] for name in base.estimators}
    shot = []
    for j in j_values:
        p = with_spin(base.params, j)
        p = replace(p, t_total=t_check)
        grid = make_grid(p)
        cps = checkpoints_for_times(grid, [t_check])
        spec = EnsembleSpec(params=p, grid=grid, n_traj=base.n_traj,
                            master_seed=base.master_seed, estimators=base.estimators,
                            checkpoints=cps)
        stats = run_ensemble(spec, workers=workers)
        for name in base.estimators:
            rms[name].append(math.sqrt(stats.mse[name][-1]))
        shot.append(shotnoise_limit(p, t_check))
    rms = {k: np.array(v) for k, v in rms.items()}
    shot = np.array(shot)
    slopes = {k: _loglog_slope(j_values, v) for k, v in rms.items()}
    return ScalingResult(j_values=j_values, t_check=float(t_check), rms=rms, slopes=slopes,
                         shotnoise_rms=shot, shotnoise_slope=_loglog_slope(j_values, shot))
