"""Conditional Gaussian spin trajectories and the homodyne record.

The conditional state of the ensemble is Gaussian: mean <Jz>_c diffuses
and precesses, while the conditional variance <dJz^2> shrinks
deterministically (conditional squeezing) with the exact closed form

    var(t) = (J/2) / (1 + 2 eta M J t).

One Wiener increment per step drives *both* the mean update and the
photocurrent; decorrelating them would destroy the optimality of the
filter built on this record.

Per-step coefficients are evaluated from closed forms over the step
rather than frozen at its left edge: the diffusion amplitude uses the
geometric mean of the endpoint variances, which reproduces the exact
increment variance var(t) - var(t+dt) on any grid (it reduces to the
midpoint value when steps are short), and the precession drift uses the
exact step average of the Bloch decay envelope.
"""

from __future__ import annotations

import math
import warnings
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .core import (
    CSV_BLOCK_ROWS,
    SCAN_BLOCK,
    PhysicalParams,
    TimeGrid,
    collapse_rate,
    csv_fields,
    csv_rows,
    forked_map,
    larmor_frequency,
)
from .rng import SeedSpec


def conditional_variance(p: PhysicalParams, t):
    """Conditional variance <dJz^2>(t); J/2 at t=0, ~1/(4 eta M t) late."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = (p.j_total / 2.0) / (1.0 + collapse_rate(p) * t)
    return float(out) if out.ndim == 0 else out


def bloch_length(p: PhysicalParams, t):
    """Bloch vector length J(t) = J exp(-M t / 2)."""
    t = np.asarray(t, dtype=float)
    out = p.j_total * np.exp(-p.meas_strength * t / 2.0)
    return float(out) if out.ndim == 0 else out


def step_coefficients(p: PhysicalParams, times: np.ndarray):
    """Per-interval coefficients for a grid ``times``: the one step geometry.

    Returns (phi12, g) where, over step k = [t_k, t_{k+1}]:
      phi12[k] = gamma J * avg(exp(-M s/2)) * dt_k   (precession per unit field)
      g[k]     = 2 sqrt(M eta) * sqrt(var(t_k) var(t_{k+1}))  (diffusion amplitude)
    The deterministic mean shift is b_true * phi12, and
    Var(mean increment) = g^2 dt = var(t_k) - var(t_{k+1}) exactly.
    Formed in blocks of ``SCAN_BLOCK`` steps: no grid-length temporaries.
    """
    n = len(times) - 1
    phi12, g = np.empty(n), np.empty(n)
    for s in range(0, n, SCAN_BLOCK):
        e = min(s + SCAN_BLOCK, n)
        t0, t1 = times[s:e], times[s + 1:e + 1]
        dts = t1 - t0
        x = p.meas_strength * dts / 2.0
        # avg of exp(-M s/2) over the step, (e0 - e1) / x, without cancelling e0 - e1
        ebar = np.exp(-p.meas_strength * t0 / 2.0) * -np.expm1(-x) / x
        phi12[s:e] = p.gamma * p.j_total * ebar * dts
        v = conditional_variance(p, times[s:e + 1])
        g[s:e] = 2.0 * math.sqrt(p.meas_strength * p.efficiency) * np.sqrt(v[:-1] * v[1:])
    return phi12, g


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated measurement run.

    ``mean_jz``/``var_jz``/``bloch`` are sampled at the n+1 grid points;
    ``y``, ``d_xi`` and ``noise`` (the dW draws, retained for oracle
    replay) belong to the n intervals.  At every step
    d_xi[k] = mean_jz[k] * dt[k] + dW[k] / (2 sqrt(M eta)).
    """

    grid: TimeGrid
    mean_jz: np.ndarray
    var_jz: np.ndarray
    bloch: np.ndarray
    y: np.ndarray
    d_xi: np.ndarray
    noise: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def to_csv(self, fobj, photocurrent=None, workers: int = 1) -> None:
        """Columns: t, mean_jz, var_jz, bloch_length, y, d_xi (step columns blank on the last row).

        ``photocurrent`` = (fobj2, y_filtered) also writes t, y, y_filtered over
        the last len(y_filtered) steps to fobj2, from the same formatted t and y
        fields.  The rows are formatted in tasks of ``RECORD_TASK_ROWS`` by
        ``forked_map`` on ``workers``; the bytes do not depend on either.
        """
        pc, y_filtered = photocurrent or (None, np.empty(0))
        fobj.write("t,mean_jz,var_jz,bloch_length,y,d_xi\r\n")
        if pc is not None:
            pc.write("t,y,y_filtered\r\n")
        n_tasks = -(-len(self.times) // RECORD_TASK_ROWS)
        # closed on any error here (a full disk, say): that kills and reaps the workers
        with closing(forked_map(lambda j: _record_task(self, y_filtered, j), n_tasks,
                                workers)) as frames:
            for frame in frames:
                view = memoryview(frame)
                split = 8 + int.from_bytes(view[:8], "little")
                fobj.write(str(view[8:split], "ascii"))
                if pc is not None:
                    pc.write(str(view[split:], "ascii"))


RECORD_TASK_ROWS = 8 * CSV_BLOCK_ROWS  # rows of the record per forked task


def _record_task(rec: TrajectoryRecord, y_filtered: np.ndarray, j: int) -> bytes:
    """Rows [j R, (j + 1) R) of ``to_csv``'s files, R = ``RECORD_TASK_ROWS``.

    The trajectory's rows, after their length as 8 bytes, then the
    photocurrent's: its t and y fields are the trajectory's own strings, so
    each float is formatted once.
    """
    n = len(rec.y)
    n_pref = n - len(y_filtered)
    traj, photo = [], []
    end = min((j + 1) * RECORD_TASK_ROWS, n + 1)
    for a in range(j * RECORD_TASK_ROWS, end, CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, end)
        t, y = csv_fields(rec.times, a, b), csv_fields(rec.y, a, b)
        traj.append(csv_rows([t, csv_fields(rec.mean_jz, a, b), csv_fields(rec.var_jz, a, b),
                              csv_fields(rec.bloch, a, b), y, csv_fields(rec.d_xi, a, b)]))
        s, e = max(a, n_pref), min(b, n)
        if s < e:
            photo.append(csv_rows([t[s - a:e - a], y[s - a:e - a],
                                   csv_fields(y_filtered, s - n_pref, e - n_pref)]))
    head = "".join(traj).encode()
    return len(head).to_bytes(8, "little") + head + "".join(photo).encode()


def simulate_trajectory(p: PhysicalParams, grid: TimeGrid, seed: SeedSpec,
                        zero_noise: bool = False) -> TrajectoryRecord:
    """Generate one conditional trajectory and its measurement record.

    Deterministic in (p, grid, seed).  ``zero_noise`` forces dW = 0
    (debug mode: pure drift).  One pass over blocks of ``SCAN_BLOCK`` steps
    fills the record's arrays in place: no grid-length temporaries.  Each
    block draws its normals from the record's one generator, the stream of
    one whole-grid draw.
    """
    wl_t = abs(larmor_frequency(p)) * grid.t_total
    if wl_t > 0.1:
        warnings.warn(f"omega_L * t_total = {wl_t:.3g} > 0.1: small-angle model is marginal",
                      stacklevel=2)
    times = grid.times
    n = len(times) - 1
    gen = None if zero_noise else seed.generator()
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    y_gain = 2.0 * p.efficiency * math.sqrt(p.meas_strength)
    mean, var_jz, bloch = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    y, d_xi, noise = np.empty(n), np.empty(n), np.empty(n)
    mean[0] = m = 0.0
    for s in range(0, n, SCAN_BLOCK):
        e = min(s + SCAN_BLOCK, n)
        t = times[s:e + 1]
        dts = np.diff(t)
        drift, g_sqdt = step_coefficients(p, t)
        drift *= p.b_true
        z = np.zeros(e - s) if gen is None else gen.standard_normal(e - s)
        sq = np.sqrt(dts)
        g_sqdt *= sq
        block = zip(drift.tolist(), g_sqdt.tolist(), z.tolist())  # Python floats
        mean[s + 1:e + 1] = [m := m + dk + gk * zk for dk, gk, zk in block]
        d_xi[s:e] = mean[s:e] * dts + d * sq * z  # the record uses the pre-step mean
        y[s:e] = d_xi[s:e] * y_gain / dts
        noise[s:e] = sq * z
        var_jz[s:e + 1] = conditional_variance(p, t)
        bloch[s:e + 1] = bloch_length(p, t)
    return TrajectoryRecord(grid=grid, mean_jz=mean, var_jz=var_jz, bloch=bloch, y=y,
                            d_xi=d_xi, noise=noise)


def reconstruct_noise(record: TrajectoryRecord, p: PhysicalParams) -> np.ndarray:
    """Invert the record: dW = 2 sqrt(M eta) (d_xi - mean_jz dt), formed in one array."""
    dw = np.diff(record.times)
    np.multiply(record.mean_jz[:-1], dw, out=dw)
    np.subtract(record.d_xi, dw, out=dw)
    dw *= 2.0 * math.sqrt(p.meas_strength * p.efficiency)
    return dw


def lowpass_filter(y: np.ndarray, dt: float, cutoff_hz: float | None = None,
                   params: PhysicalParams | None = None) -> np.ndarray:
    """Causal single-pole IIR low-pass with -3 dB point at ``cutoff_hz``.

    Default cutoff is sqrt(J)/t_total Hz (the display convention
    2*pi*sqrt(J)/t_total, read as rad/s and converted).  Requires a
    uniform sample spacing ``dt``.
    """
    if cutoff_hz is None:
        if params is None:
            raise ValueError("cutoff_hz or params required")
        cutoff_hz = math.sqrt(params.j_total) / params.t_total
    if not cutoff_hz > 0:
        raise ValueError("cutoff must be positive")
    omega = 2.0 * math.pi * cutoff_hz
    alpha = 1.0 - math.exp(-omega * dt)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    acc = 0.0
    for s in range(0, len(y), SCAN_BLOCK):  # Python floats, one block of samples at a time
        out[s:s + SCAN_BLOCK] = [acc := acc + alpha * (v - acc) for v in y[s:s + SCAN_BLOCK].tolist()]
    return out
