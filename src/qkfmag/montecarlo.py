"""Parallel trajectory ensembles and the spin-scaling study.

Trajectories are processed in fixed blocks of 1024, vectorized across
the block; per-block partial sums are reduced in block order with
``math.fsum``.  Block boundaries depend only on the trajectory index,
so results are byte-identical for any worker count or scheduling.
With several workers, the blocks run through ``core.forked_map`` in
children forked after the plan is built: they inherit it, so nothing is
pickled, and each block's partials come back through a pipe, in block
order.  The children call no BLAS or LAPACK routine, so a BLAS thread
pool in the parent at fork does not reach them.  Without ``os.fork`` the
blocks run in the calling process.

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
normals S = sum_k r_k sqrt(dt_k) z_k / d, and the line fit's linear
functionals of the record.  Both estimators are linear in the record, so
each is one affine readout of the state at its checkpoint:
b_hat = read @ state + offset.  Putting the innovations
d_xi_k - c_k dt_k = r_k dt_k B + d sqrt(dt_k) z_k into the filter's
estimate (see ``estimators``) gives b = v22 (B data + S) =
B (1 - w) + v22 S, with w = 1/(1 + p0 data) the prior's pull, 0 for an
infinite prior: the filter's row is v22 on S, with offset B (1 - w).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, TimeGrid, forked_map, make_grid, with_spin, write_csv
from .dynamics import step_coefficients
from .estimators import kalman_schedule, riccati_integrate, shotnoise_limit
from .rng import fill_normals

BLOCK_SIZE = 1024
ESTIMATOR_NAMES = ("qkf", "regression")


class CheckpointError(ValueError):
    """A checkpoint too early for the line fit: fewer than 3 bins before it."""


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
# the line fit: one bin rule, one per-step row form, one least-squares readout
# ---------------------------------------------------------------------------

def bin_edge_split(times: np.ndarray, n_end: int) -> tuple:
    """``bin_edge_indices`` as (head, tail): the greedy edges, then every point tail..n_end.

    The width is the largest step in the window, so a uniform grid keeps
    every point and a log prefix is coalesced to uniform-width bins (raw
    per-step rates on a log prefix have noise ~ 1/sqrt(dt) and would
    poison an unweighted fit).  The greedy pass runs only up to the last
    step narrower than the width: every later step is at least the width
    wide, so every later point is an edge.
    """
    step = float(np.max(np.diff(times[:n_end + 1]))) * (1.0 - 1e-9)
    narrow = np.nonzero(times[1:n_end + 1] < times[:n_end] + step)[0]
    last = int(narrow[-1]) + 1 if len(narrow) else 0
    idx = [0]
    for i in range(1, last + 1):
        if times[i] >= times[idx[-1]] + step or i == n_end:
            idx.append(i)
    return np.asarray(idx), last + 1


def bin_edge_indices(times: np.ndarray, n_end: int) -> np.ndarray:
    """Greedy grid indices acting as near-uniform bin edges over [0, t(n_end)].

    See ``bin_edge_split`` for the rule.
    """
    head, tail = bin_edge_split(times, n_end)
    return np.concatenate([head, np.arange(tail, n_end + 1)])


def _edge(split: tuple, k: np.ndarray) -> np.ndarray:
    """The k-th bin edges of a ``bin_edge_split`` (head, tail)."""
    head, tail = split
    return np.where(k < len(head), head[np.minimum(k, len(head) - 1)], tail + k - len(head))


def _line_fit_weights(times: np.ndarray, checkpoints: np.ndarray, gamma_j: float):
    """The line-fit columns as rows(s, e), their per-step record weights over steps [s, e), and
    the readout (n_cp, n_col).

    The shared bins are ``bin_edge_split`` up to the last checkpoint.  A
    checkpoint whose own bins are a prefix of them reads the slope from
    s_r and s_xr; any other gets a column of its ``line_fit_weights``.
    A window's bins depend on its widest step alone: the greedy pass over
    the longest window of one width picks every edge below a shorter
    window's end c, whose bins then end at c.  So one pass per width
    decides every checkpoint.  Both edge lists are (head, tail) forms:
    past their heads they are every grid point, so they agree on all
    their common edges iff they agree on one more than the longer head.
    """
    n = int(checkpoints[-1])
    shared = head, tail = bin_edge_split(times, n)
    widest = np.diff(times[:n + 1])
    widest = np.maximum.accumulate(widest, out=widest)[checkpoints - 1]  # per window
    n_bins = np.zeros(len(checkpoints), dtype=int)
    prefix = np.zeros(len(checkpoints), dtype=bool)
    for width in sorted(set(widest.tolist())):
        at = widest == width
        cps = checkpoints[at]
        own = own_head, own_tail = bin_edge_split(times, int(cps[-1]))
        # the number of edges both lists have
        m = min(len(own_head) + int(cps[-1]) + 1 - own_tail, len(head) + n + 1 - tail)
        k = np.arange(min(m, max(len(own_head), len(head)) + 1))
        same = _edge(own, k) == _edge(shared, k)
        agree = m if same.all() else int(np.argmin(same))  # leading edges in common
        n_bins[at] = np.searchsorted(own_head, cps) + np.maximum(cps - own_tail, 0)
        prefix[at] = (n_bins[at] <= agree) & (_edge(shared, n_bins[at]) == cps)
    for c, nb in zip(checkpoints.tolist(), n_bins.tolist()):
        if nb < 3:
            raise CheckpointError(f"checkpoint t = {times[c]:g} s (grid point {c}) leaves "
                                  f"fewer than 3 regression bins")
    own_cols = [line_fit_weights(times, c, gamma_j) for c in checkpoints[~prefix].tolist()]
    read = np.zeros((len(checkpoints), 2 + len(own_cols)))
    read[np.flatnonzero(~prefix), np.arange(2, read.shape[1])] = 1.0
    te = np.concatenate([times[head], times[tail:n + 1]])
    mid = te[:-1] + te[1:]  # whole: its prefix sums are pairwise, so they do not stream
    mid *= 0.5
    del te
    for i, nb in zip(np.flatnonzero(prefix).tolist(), n_bins[prefix].tolist()):
        sx = mid[:nb].sum()
        denom = (mid[:nb] ** 2).sum() - sx * sx / nb
        read[i, :2] = -sx / nb / denom / gamma_j, 1.0 / denom / gamma_j
    bounds = np.append(head, tail)  # the head's edges and the tail's first

    def rows(s: int, e: int) -> np.ndarray:
        if s >= tail:  # one bin per step
            lo, hi = times[s:e], times[s + 1:e + 1]
        else:
            k = np.arange(s, e)
            j = np.minimum(np.searchsorted(bounds, k, "right") - 1, len(head) - 1)
            lo = times[np.where(k < tail, bounds[j], k)]
            hi = times[np.where(k < tail, bounds[j + 1], k + 1)]
        out = np.zeros((read.shape[1], e - s))
        out[0] = 1.0 / (hi - lo)
        out[1] = 0.5 * (lo + hi) / (hi - lo)
        for row, w in zip(out[2:], own_cols):
            row[:len(w[s:e])] = w[s:e]
        return out

    return rows, read


def line_fit_weights(times: np.ndarray, n_end: int, gamma_j: float) -> np.ndarray:
    """Per-step record weights w of the line-fit estimate w @ d_xi[:n_end].

    Ordinary least squares of the binned record rate against the bin
    midpoints (``bin_edge_indices`` over [0, t(n_end)]), with model
    alpha + beta t; the estimate is beta / (gamma J).  The intercept
    absorbs the frozen diffusive offset.  This is ``_line_fit_weights``
    at the one checkpoint n_end: its rows read by its readout.
    """
    try:
        rows, read = _line_fit_weights(times, np.array([n_end]), gamma_j)
    except CheckpointError as exc:
        raise ValueError("regression needs at least 3 points") from exc
    r = rows(0, n_end)
    return read[0, 0] * r[0] + read[0, 1] * r[1]


# ---------------------------------------------------------------------------
# the engine plan and its scan
# ---------------------------------------------------------------------------

CHUNK_STEPS = 2048  # the longest scan chunk: bounds the plan's per-chunk temporaries


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
    identity map and no drift.  The line-fit columns weigh d_xi by
    ``rec_w``; suffix sums carry their weight on m_k onto the normals of the
    chunk's earlier steps.  The factor is the ``_noise_factor`` of the
    per-step noise weights h_t.
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

    One pass over the chunks: each takes its slice of the gain schedule
    from ``kalman_schedule`` over its own times, started from the previous
    chunk's end, and its line-fit weights from ``_line_fit_weights``'s
    rows, so no grid-length array of either is formed.  A chunk that ends
    at a checkpoint reads every estimator of the spec off the state there,
    one row each in ``ESTIMATOR_NAMES`` order: the filter's row is v22 on
    the S column with offset B (1 - w), the line fit's is its
    ``_line_fit_weights`` readout with offset 0.
    """
    p = spec.params
    times = spec.grid.times
    checkpoints = np.asarray(spec.checkpoints, dtype=int)
    n = int(checkpoints[-1])  # the scan ends at the last checkpoint
    names = [e for e in ESTIMATOR_NAMES if e in spec.estimators]
    rec_w, reg_read = (_line_fit_weights(times, checkpoints, p.gamma * p.j_total)
                       if "regression" in names else (lambda s, e: np.empty((0, e - s)), None))
    n_col = 2 + (0 if reg_read is None else reg_read.shape[1])
    read = np.zeros((len(checkpoints), len(names), n_col))
    offset = np.zeros((len(checkpoints), len(names)))
    if reg_read is not None:
        read[:, names.index("regression"), 2:] = reg_read
    cp_pos = {c: i for i, c in enumerate(checkpoints.tolist())}
    bounds = sorted(set(range(0, n, CHUNK_STEPS)) | set(cp_pos))
    chunks = []
    carry = (0.0, 0.0)
    for s, e in zip(bounds[:-1], bounds[1:]):  # everything from this chunk's slices alone
        sched = kalman_schedule(p, times[s:e + 1], carry)
        carry = sched.end
        dts = np.diff(times[s:e + 1])
        sq = np.sqrt(dts)
        _, g = step_coefficients(p, times[s:e + 1])
        i = cp_pos.get(e)
        if i is not None and "qkf" in names:
            p0 = p.prior_b_variance
            # never B/p0: p0 = 0 is valid input
            w = 0.0 if math.isinf(p0) else 1.0 / (1.0 + p0 * sched.data[-1])
            read[i, names.index("qkf"), 1] = sched.v22[-1]
            offset[i, names.index("qkf")] = p.b_true * (1.0 - w)
        chunks.append(_Chunk(s, e, *_chunk_map(dts, p.b_true * sched.phi12, g * sq, sched.d * sq,
                                               sched.r[:-1] * sq / sched.d, rec_w(s, e)),
                             *(() if i is None else (read[i], offset[i]))))
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
