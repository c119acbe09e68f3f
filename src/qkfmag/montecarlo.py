"""Parallel trajectory ensembles and the spin-scaling study.

Trajectories are processed in fixed blocks of 1024, vectorized across
the block; per-block partial sums are reduced in block order with
``math.fsum`` (a sum past float64 reads inf).  Block boundaries depend
only on the trajectory index, so results are byte-identical for any
worker count or scheduling.
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
trajectory's state obeys an affine recurrence in its unit normals, and it
is read only at the checkpoints.  The plan cuts the grid into chunks of
at most ``SCAN_BLOCK`` steps (every checkpoint ends one; the scan stops
at the last), which bound its temporaries; each chunk runs its own gain
schedule, and the plan folds the chunks between consecutive checkpoints
into one affine map per checkpoint segment.  A segment's
noise term is a Gaussian vector with n_col components and covariance
H H^T, H the per-step noise weights propagated to the segment's end, and
the terms of disjoint segments are independent; so the plan keeps a
factor F with F F^T = H H^T and at most n_col columns, refolded by one QR
per chunk, and a trajectory draws one normal per column, not per step.
The law of the state at every checkpoint is exactly that of the per-step
scan.  The maps are formed and applied with ``np.einsum``: a threaded
BLAS would split the sums by its thread count, and results must not
depend on it.

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
beta = (Sw sum x_k d_xi_k - Sx sum d_xi_k) / (Sw Sxx - Sx^2).  The sums
and the row are formed in units of 2^k s, the power of two just above the
checkpoint's time, and the row reads sum x_k d_xi_k in that unit: every
scaling is exact, and the determinant, ~t^4, does not underflow on a
short grid.
"""

from __future__ import annotations

import math
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
        n_pts = self.grid.n_intervals + 1
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

@dataclass(frozen=True)
class _Segment:
    """state(end) = phi state(start) + factor u + d over the checkpoint segment [start, end).

    ``start`` is the previous checkpoint (or 0) and ``end`` a checkpoint; u
    is the segment's normals.
    """

    start: int
    end: int
    phi: np.ndarray      # (n_col, n_col)
    factor: np.ndarray   # (n_col, width), factor factor^T = H H^T of the propagated per-step noise
    d: np.ndarray        # (n_col,)
    read: np.ndarray     # (n_est, n_col): b_hat = read @ (unit * state(end)) + offset
    offset: np.ndarray   # (n_est,)
    unit: np.ndarray     # (n_col,): 1, but 2^-k on the line fit's x column (x in 2^k s)


def _noise_factor(h_t: np.ndarray) -> np.ndarray:
    """F with F F^T = h_t h_t^T and min(L, n_col) columns, for h_t of shape (n_col, L).

    F = R^T from h_t^T = Q R: the noise h_t z has the law of F u for unit
    normals u.
    """
    return np.ascontiguousarray(np.linalg.qr(h_t.T, mode="r").T)


def _chunk_map(dts, drift, gsq, dsq, ssq, rec_w: np.ndarray) -> tuple:
    """(phi, h_t, d) of the affine map over one chunk, from its per-step coefficients.

    Per step, d_xi = m dt + dsq z, m' = m + drift + gsq z with
    drift = B phi12, and S' = S + ssq z: the filter's column has the
    identity map and no drift.  The line fit's columns, if any, weigh d_xi
    by the rows of ``rec_w``; suffix sums carry their weight on m_k onto the
    normals of the chunk's earlier steps.  The chunk's noise is h_t z, with
    h_t the (n_col, steps) per-step noise weights.
    """
    wm = rec_w * dts  # weight of m_k, since d_xi_k = m_k dt_k + dsq_k z_k
    later = np.zeros_like(wm)  # z_k moves every later m_j: sum of wm[j] over j > k
    later[:, :-1] = np.cumsum(wm[:, :0:-1], axis=1)[:, ::-1]
    h_t = np.vstack([gsq, ssq, rec_w * dsq + later * gsq])
    phi = np.eye(2 + len(rec_w))
    phi[2:, 0] = wm.sum(axis=1)
    drift_before = np.concatenate(([0.0], np.cumsum(drift[:-1])))
    return phi, h_t, np.concatenate(([drift.sum(), 0.0], (wm * drift_before).sum(axis=1)))


def _build_plan(spec: EnsembleSpec) -> tuple:
    """One ``_Segment`` per checkpoint, from grid point 0 to the last, in scan order.

    One pass over the chunks.  Each chunk forms its own points of the grid,
    runs ``kalman_schedule`` over its steps, started from the previous
    chunk's end, and forms its line-fit rows (1, x_k) from those points.
    The line fit's Sw, Sx and Sxx run on over the chunks, so no grid-length
    array is formed.  Each chunk's map (phi_c, h_t, d_c) folds into its
    segment's, started from (I, no columns, 0): phi <- phi_c phi,
    d <- phi_c d + d_c, and factor <- ``_noise_factor`` of [phi_c factor, h_t],
    whose columns run in step order.  At a checkpoint the segment becomes a
    ``_Segment`` that reads every estimator of the spec off the state there,
    one row each in ``ESTIMATOR_NAMES`` order: the filter's row is v22 on S
    with offset B (1 - w), the line fit's is (-Sx, Sw) / ((Sw Sxx - Sx^2)
    gamma J) on its columns with offset 0, all in the checkpoint's unit of
    time.  A row that float64 cannot hold even so raises ``CheckpointError``.
    """
    p, grid = spec.params, spec.grid
    checkpoints = spec.checkpoints
    names = [e for e in ESTIMATOR_NAMES if e in spec.estimators]
    n_fit = 2 if "regression" in names else 0  # the line fit's state columns
    if n_fit and checkpoints[0] < 3:
        c = checkpoints[0]
        raise CheckpointError(f"checkpoint t = {float(grid.points(c)):g} s (grid point {c}) "
                              f"leaves the line fit fewer than 3 steps")
    bounds = sorted(set(range(0, checkpoints[-1], SCAN_BLOCK)) | set(checkpoints))
    segments = []
    start = (0.0, 0.0)
    # sums over the steps so far of dt, dt x and dt x^2 in units of 2^k s, 2^k the power of
    # two just above the next checkpoint's time: each scaling is exact, and none underflows
    sw = sx = sxx = 0.0
    k = math.frexp(grid.points(checkpoints[0]))[1]
    empty = np.eye(2 + n_fit), np.zeros((2 + n_fit, 0)), np.zeros(2 + n_fit)
    seg_start, (phi, factor, d) = 0, empty
    for s, e in zip(bounds[:-1], bounds[1:]):
        times = grid.points(np.arange(s, e + 1))
        sched = kalman_schedule(p, times, start)
        start = sched.end
        dts = np.diff(times)
        sq = np.sqrt(dts)
        x = 0.5 * (times[:-1] + times[1:])  # the step midpoints
        dts_k, x_k = dts * math.ldexp(1.0, -k), x * math.ldexp(1.0, -k)
        wx = dts_k * x_k
        sw, sx, sxx = sw + dts_k.sum(), sx + wx.sum(), sxx + (wx * x_k).sum()  # no BLAS dot
        phi_c, h_t, d_c = _chunk_map(dts, p.b_true * sched.phi12, sched.g * sq, sched.d * sq,
                                     sched.r[:-1] * sq / sched.d,
                                     np.vstack([np.ones(e - s), x])[:n_fit])
        phi = np.einsum("ij,jk->ik", phi_c, phi)
        factor = _noise_factor(np.hstack([np.einsum("ij,jk->ik", phi_c, factor), h_t]))
        d = np.einsum("ij,j->i", phi_c, d) + d_c
        if e not in checkpoints:
            continue
        read, offset = np.zeros((len(names), 2 + n_fit)), np.zeros(len(names))
        unit = np.ones(2 + n_fit)
        if "qkf" in names:
            p0 = p.prior_b_variance
            # never B/p0: p0 = 0 is valid input
            w = 0.0 if math.isinf(p0) else 1.0 / (1.0 + p0 * sched.data[-1])
            read[names.index("qkf"), 1] = sched.v22[-1]
            offset[names.index("qkf")] = p.b_true * (1.0 - w)
        if n_fit:  # it reads sum x d_xi with x in units of 2^k s
            unit[3] = math.ldexp(1.0, -k)
            with np.errstate(all="ignore"):  # a row that is not finite is refused below
                row = np.array([-sx, sw]) / ((sw * sxx - sx * sx) * p.gamma * p.j_total
                                             * math.ldexp(1.0, 2 * k))
            if not np.all(np.isfinite(row)):
                raise CheckpointError(f"checkpoint t = {times[-1]:g} s (grid point {e}): the "
                                      f"line fit's readout is not finite in float64")
            read[names.index("regression"), 2:] = row
        segments.append(_Segment(seg_start, e, phi, factor, d, read, offset, unit))
        if len(segments) < len(checkpoints):  # the sums in the next checkpoint's unit
            shift = k - math.frexp(grid.points(checkpoints[len(segments)]))[1]
            k -= shift
            sw, sx, sxx = (math.ldexp(sw, shift), math.ldexp(sx, 2 * shift),
                           math.ldexp(sxx, 3 * shift))
        seg_start, (phi, factor, d) = e, empty
    return tuple(segments)


def _run_block(spec: EnsembleSpec, segments: tuple, i0: int, i1: int) -> np.ndarray:
    """Scan trajectories [i0, i1); (n_cp, 3, n_est): per checkpoint, sums of e^2, e^4 and b_hat."""
    state = np.zeros((i1 - i0, segments[0].phi.shape[0]))
    # each trajectory's normals for every segment, in scan order, in one row
    u = fill_normals(spec.master_seed, i0,
                     np.empty((i1 - i0, sum(seg.factor.shape[1] for seg in segments))))
    out = []
    off = 0
    for seg in segments:
        width = seg.factor.shape[1]
        state = (np.einsum("ij,kj->ik", state, seg.phi)
                 + np.einsum("ij,kj->ik", u[:, off:off + width], seg.factor) + seg.d)
        off += width
        with np.errstate(invalid="ignore"):  # inf * 0 where an infinite prior is unresolved
            b_hat = np.einsum("ej,ij->ei", seg.read, state * seg.unit) + seg.offset[:, None]
        with np.errstate(over="ignore"):  # a mean square past float64 is inf, and named
            e2 = (b_hat - spec.params.b_true) ** 2
            out.append((e2.sum(axis=1), (e2 * e2).sum(axis=1), b_hat.sum(axis=1)))
    return np.array(out)


def _fsum(col: np.ndarray) -> float:
    """``math.fsum`` of ``col``; inf, of the sign of its float sum, where a partial sum
    overflows float64."""
    try:
        return math.fsum(col)
    except OverflowError:
        with np.errstate(over="ignore"):
            return math.copysign(math.inf, col.sum())


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Paired-estimator ensemble statistics at the spec's checkpoints.

    Deterministic in ``spec``; independent of ``workers``.  The blocks run
    through ``forked_map``: in children forked after the plan is built, or
    in this process with one worker or block, or without ``os.fork``.  The
    Riccati prediction comes first, so an overflowing field information
    raises before the plan and any block.
    """
    if len(spec.checkpoints) == 0:
        raise ValueError("spec.checkpoints must be non-empty")
    times = spec.grid.points(list(spec.checkpoints))
    predicted = riccati_integrate(spec.params, times).v22
    segments = _build_plan(spec)
    blocks = [(i, min(i + BLOCK_SIZE, spec.n_traj)) for i in range(0, spec.n_traj, BLOCK_SIZE)]
    shape = (len(spec.checkpoints), 3, segments[-1].read.shape[0])  # one block's partials
    partials = [np.frombuffer(frame).reshape(shape) for frame in forked_map(
        lambda k: _run_block(spec, segments, *blocks[k]).tobytes(), len(blocks), workers)]

    n = spec.n_traj
    stacked = np.stack(partials).reshape(len(partials), -1)
    e2, e4, bs = np.array([_fsum(col) for col in stacked.T]).reshape(
        partials[0].shape).transpose(1, 2, 0)  # each (n_est, n_cp)
    names = [e for e in ESTIMATOR_NAMES if e in spec.estimators]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where e^4 overflowed
        var_e2 = np.where(np.isinf(e4), np.inf, np.maximum(e4 / n - (e2 / n) ** 2, 0.0))
    return EnsembleStats(times=times, estimators=tuple(spec.estimators),
                         mse=dict(zip(names, e2 / n)),
                         stderr=dict(zip(names, np.sqrt(var_e2 / (n - 1)))),
                         mean_b=dict(zip(names, bs / n)), predicted_v22=predicted, n_traj=n)


def checkpoints_for_times(grid: TimeGrid, wanted_times):
    """The sorted distinct grid indices nearest the wanted times (``TimeGrid.nearest``)."""
    return tuple(sorted(set(grid.nearest(wanted_times).tolist())))


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
    unit normals, but each J applies them through its own segment factor:
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
