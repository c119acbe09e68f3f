"""Parallel trajectory ensembles and the spin-scaling study.

Trajectories are processed in fixed blocks of 1024, vectorized across
the block; per-block partial sums are reduced in block order with
``math.fsum``.  Block boundaries depend only on the trajectory index,
so results are byte-identical for any worker count or scheduling.
With several workers, the blocks run through ``core.forked_map`` in
children forked after the plan is built: they inherit it, so nothing is
pickled, and each block's partials come back through a pipe, in block
order.  The children call no BLAS or LAPACK routine, and the CLI keeps
OpenBLAS single-threaded, so its processes fork with one thread.  Without
``os.fork`` the blocks run in the calling process.

Both estimators consume the identical record per trajectory (paired
design), and the per-trajectory noise comes from counter-based
substreams of the master seed (``rng.fill_normals``), making
``run_ensemble`` a pure function of its spec.

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
normals S = sum_k r_k sqrt(dt_k) z_k / d, and the line fit's two record
sums sum d_xi_k and sum x_k d_xi_k.  Both estimators are linear in the
record, so each is one affine readout of the state at its checkpoint:
b_hat = read @ state + offset.  Putting the innovations
d_xi_k - c_k dt_k = r_k dt_k B + d sqrt(dt_k) z_k into the filter's
estimate (see ``estimators``) gives b = v22 (B data + S) =
B (1 - w) + v22 S, with w = 1/(1 + p0 data) the prior's pull, 0 for an
infinite prior: the filter's row is v22 on S, with offset B (1 - w).

The line fit is the paper's linear regression: a least-squares line
alpha + beta t through the record rate, read as b = beta / (gamma J) (the
intercept absorbs the frozen diffusive offset).  Step k gives the rate
d_xi_k / dt_k at its midpoint x_k with weight dt_k, the inverse variance
of that rate: a uniform grid gets the plain fit, and a log prefix's short,
noisy steps count for little.  With Sw, Sx and Sxx the sums of dt_k,
dt_k x_k and dt_k x_k^2 before the checkpoint,
beta = (Sw sum x_k d_xi_k - Sx sum d_xi_k) / (Sw Sxx - Sx^2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import (SCAN_BLOCK, PhysicalParams, TimeGrid, forked_map, make_grid, with_spin,
                   write_csv)
# step_coefficients is unused here, but perfbench's probe wraps montecarlo.step_coefficients
from .dynamics import step_coefficients  # noqa: F401
from .estimators import kalman_schedule, riccati_integrate, shotnoise_limit
from .rng import fill_normals

BLOCK_SIZE = 1024
ESTIMATOR_NAMES = ("qkf", "regression")


class CheckpointError(ValueError):
    """A checkpoint too early for the line fit: fewer than 3 steps before it."""


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

    def to_csv(self, fobj) -> None:
        names = self.estimators
        write_csv(fobj, ["t", "estimator", "mse", "stderr", "mean_b", "predicted_v22"],
                  [np.tile(self.times, len(names)), [n for n in names for _ in self.times],
                   *(np.concatenate([col[n] for n in names])
                     for col in (self.mse, self.stderr, self.mean_b)),
                   np.tile(self.predicted_v22, len(names))])


# ---------------------------------------------------------------------------
# the engine plan and its scan
# ---------------------------------------------------------------------------

# the longest scan chunk: bounds the plan's per-chunk temporaries.  At most
# SCAN_BLOCK, the longest span of whole chunks that one schedule call covers.
CHUNK_STEPS = 2048


@dataclass(frozen=True)
class _Chunk:
    """state(end) = phi state(start) + factor u + d over steps [start, end), u the chunk's normals."""

    start: int
    end: int
    phi: np.ndarray      # (n_col, n_col)
    factor: np.ndarray   # (n_col, width), factor factor^T = h_t h_t^T of the per-step noise
    d: np.ndarray        # (n_col,)
    read: np.ndarray | None = None    # at a checkpoint, (n_est, n_col): b_hat = read @ state
    offset: np.ndarray | None = None  # ... + offset, (n_est,)


def _noise_factor(h_t: np.ndarray) -> np.ndarray:
    """F with F F^T = h_t h_t^T and min(L, n_col) columns, for h_t of shape (n_col, L).

    F = R^T from h_t^T = Q R: the chunk's noise h_t z has the law of F u
    for unit normals u.
    """
    return np.ascontiguousarray(np.linalg.qr(h_t.T, mode="r").T)


def _chunk_map(dts, drift, gsq, dsq, ssq, rec_w: np.ndarray) -> tuple:
    """(phi, factor, d) of the affine map over one chunk, from its per-step coefficients.

    Per step, d_xi = m dt + dsq z, m' = m + drift + gsq z with
    drift = B phi12, and S' = S + ssq z: the filter's column has the
    identity map and no drift.  The line fit's columns, if any, weigh d_xi
    by the rows of ``rec_w``; suffix sums carry their weight on m_k onto the
    normals of the chunk's earlier steps.  The factor is the
    ``_noise_factor`` of the per-step noise weights h_t.
    """
    wm = rec_w * dts  # weight of m_k, since d_xi_k = m_k dt_k + dsq_k z_k
    later = np.zeros_like(wm)  # z_k moves every later m_j: sum of wm[j] over j > k
    later[:, :-1] = np.cumsum(wm[:, :0:-1], axis=1)[:, ::-1]
    h_t = np.vstack([gsq, ssq, rec_w * dsq + later * gsq])
    phi = np.eye(2 + len(rec_w))
    phi[2:, 0] = wm.sum(axis=1)
    drift_before = np.concatenate(([0.0], np.cumsum(drift[:-1])))
    return phi, _noise_factor(h_t), np.concatenate(([drift.sum(), 0.0],
                                                     (wm * drift_before).sum(axis=1)))


def _build_plan(spec: EnsembleSpec) -> tuple:
    """The ``_Chunk``s from grid point 0 to the last checkpoint, in scan order.

    One pass over the chunks.  The gain schedule comes from one
    ``kalman_schedule`` call per span, the whole chunks in at most
    ``SCAN_BLOCK`` steps, started from the previous span's end; each chunk
    slices its phi12, g, r, data and v22 out of its span's arrays, and forms
    its line-fit rows (1, x_k) from its own slice of the grid.  The line
    fit's Sw, Sx and Sxx run on over the chunks, so no grid-length array is
    formed.  A chunk that ends at a checkpoint reads every estimator of the
    spec off the state there, one row each in ``ESTIMATOR_NAMES`` order: the
    filter's row is v22 on S with offset B (1 - w), the line fit's is
    (-Sx, Sw) / ((Sw Sxx - Sx^2) gamma J) on its columns with offset 0.
    """
    p = spec.params
    times = spec.grid.times
    checkpoints = spec.checkpoints
    names = [e for e in ESTIMATOR_NAMES if e in spec.estimators]
    n_fit = 2 if "regression" in names else 0  # the line fit's state columns
    if n_fit and checkpoints[0] < 3:
        c = checkpoints[0]
        raise CheckpointError(f"checkpoint t = {times[c]:g} s (grid point {c}) leaves the "
                              f"line fit fewer than 3 steps")
    bounds = sorted(set(range(0, checkpoints[-1], CHUNK_STEPS)) | set(checkpoints))
    chunks = []
    span_end, start = 0, (0.0, 0.0)
    sw = sx = sxx = 0.0  # sums over the steps so far of dt, dt x and dt x^2
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e > span_end:  # the next span: the whole chunks in at most SCAN_BLOCK steps from s
            span_end = bounds[bisect_right(bounds, s + SCAN_BLOCK) - 1]
            span, span_start = kalman_schedule(p, times[s:span_end + 1], start), s
            start = span.end
        lo, hi = s - span_start, e - span_start  # the chunk's steps within its span
        dts = np.diff(times[s:e + 1])
        sq = np.sqrt(dts)
        x = 0.5 * (times[s:e] + times[s + 1:e + 1])  # the step midpoints
        wx = dts * x
        sw, sx, sxx = sw + dts.sum(), sx + wx.sum(), sxx + (wx * x).sum()  # no BLAS dot
        read = offset = None
        if e in checkpoints:
            read, offset = np.zeros((len(names), 2 + n_fit)), np.zeros(len(names))
            if "qkf" in names:
                p0 = p.prior_b_variance
                # never B/p0: p0 = 0 is valid input
                w = 0.0 if math.isinf(p0) else 1.0 / (1.0 + p0 * span.data[hi])
                read[names.index("qkf"), 1] = span.v22[hi]
                offset[names.index("qkf")] = p.b_true * (1.0 - w)
            if n_fit:
                read[names.index("regression"), 2:] = (
                    np.array([-sx, sw]) / ((sw * sxx - sx * sx) * p.gamma * p.j_total))
        chunks.append(_Chunk(s, e, *_chunk_map(dts, p.b_true * span.phi12[lo:hi],
                                               span.g[lo:hi] * sq, span.d * sq,
                                               span.r[lo:hi] * sq / span.d,
                                               np.vstack([np.ones(e - s), x])[:n_fit]),
                             read, offset))
    return tuple(chunks)


def _run_block(spec: EnsembleSpec, chunks: tuple, i0: int, i1: int) -> np.ndarray:
    """Scan trajectories [i0, i1); (n_cp, 3, n_est): per checkpoint, sums of e^2, e^4 and b_hat."""
    state = np.zeros((i1 - i0, chunks[0].phi.shape[0]))
    # each trajectory's normals for every chunk, in chunk order, in one row
    u = fill_normals(spec.master_seed, i0,
                     np.empty((i1 - i0, sum(ch.factor.shape[1] for ch in chunks))))
    out = []
    off = 0
    for ch in chunks:
        width = ch.factor.shape[1]
        state = (np.einsum("ij,kj->ik", state, ch.phi)
                 + np.einsum("ij,kj->ik", u[:, off:off + width], ch.factor) + ch.d)
        off += width
        if ch.read is None:
            continue
        with np.errstate(invalid="ignore"):  # inf * 0 where an infinite prior is unresolved
            b_hat = np.einsum("ej,ij->ei", ch.read, state) + ch.offset[:, None]
        e2 = (b_hat - spec.params.b_true) ** 2
        out.append((e2.sum(axis=1), (e2 * e2).sum(axis=1), b_hat.sum(axis=1)))
    return np.array(out)


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Paired-estimator ensemble statistics at the spec's checkpoints.

    Deterministic in ``spec``; independent of ``workers``.  The blocks run
    through ``forked_map``: in children forked after the plan is built, or
    in this process with one worker or block, or without ``os.fork``.
    """
    if len(spec.checkpoints) == 0:
        raise ValueError("spec.checkpoints must be non-empty")
    chunks = _build_plan(spec)
    blocks = [(i, min(i + BLOCK_SIZE, spec.n_traj)) for i in range(0, spec.n_traj, BLOCK_SIZE)]
    shape = (len(spec.checkpoints), 3, chunks[-1].read.shape[0])  # one block's partials
    partials = [np.frombuffer(frame).reshape(shape) for frame in forked_map(
        lambda k: _run_block(spec, chunks, *blocks[k]).tobytes(), len(blocks), workers)]

    n = spec.n_traj
    stacked = np.stack(partials).reshape(len(partials), -1)
    e2, e4, bs = np.array([math.fsum(col) for col in stacked.T]).reshape(
        partials[0].shape).transpose(1, 2, 0)  # each (n_est, n_cp)
    names = [e for e in ESTIMATOR_NAMES if e in spec.estimators]
    var_e2 = np.maximum(e4 / n - (e2 / n) ** 2, 0.0)
    times = spec.grid.times[list(spec.checkpoints)]
    predicted = riccati_integrate(spec.params, times).v22
    return EnsembleStats(times=times, estimators=tuple(spec.estimators),
                         mse=dict(zip(names, e2 / n)),
                         stderr=dict(zip(names, np.sqrt(var_e2 / (n - 1)))),
                         mean_b=dict(zip(names, bs / n)), predicted_v22=predicted, n_traj=n)


def checkpoints_for_times(grid: TimeGrid, wanted_times):
    """The sorted distinct grid indices in (0, n] nearest to the wanted times.

    On an exact tie the lower index wins.
    """
    pts = grid.times[1:]
    t = np.asarray(wanted_times, dtype=float)
    hi = np.minimum(np.searchsorted(pts, t), len(pts) - 1)  # pts[hi - 1] < t <= pts[hi] inside
    lo = np.maximum(hi - 1, 0)
    k = np.where(np.abs(pts[lo] - t) <= np.abs(pts[hi] - t), lo, hi)
    return tuple(sorted(set((k + 1).tolist())))


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
        names = [*self.rms, "shotnoise"]
        write_csv(fobj, ["j_total", "estimator", "rms_error"],
                  [np.tile(self.j_values, len(names)), [n for n in names for _ in self.j_values],
                   np.concatenate([*self.rms.values(), self.shotnoise_rms])])

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
