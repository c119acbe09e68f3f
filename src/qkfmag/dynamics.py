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

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, TimeGrid, collapse_rate, larmor_frequency, validate_params
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


@dataclass(frozen=True)
class ConditionalState:
    """Gaussian conditional spin state at one instant."""

    t: float
    mean_jz: float
    var_jz: float
    bloch_length: float


def step_coefficients(p: PhysicalParams, times: np.ndarray):
    """Per-interval simulation coefficients for a grid ``times``.

    Returns (drift, g) where, over step k = [t_k, t_{k+1}]:
      drift[k] = gamma B J * avg(exp(-M s/2)) * dt_k   (deterministic mean shift)
      g[k]     = 2 sqrt(M eta) * sqrt(var(t_k) var(t_{k+1}))  (diffusion amplitude)
    so that Var(mean increment) = g^2 dt = var(t_k) - var(t_{k+1}) exactly.
    """
    t0 = times[:-1]
    t1 = times[1:]
    dts = t1 - t0
    m = p.meas_strength
    e0 = np.exp(-m * t0 / 2.0)
    e1 = np.exp(-m * t1 / 2.0)
    with np.errstate(invalid="ignore"):
        ebar = np.where(dts * m > 1e-12, (e0 - e1) * (2.0 / m) / dts, np.sqrt(e0 * e1))
    drift = p.gamma * p.b_true * p.j_total * ebar * dts
    v0 = conditional_variance(p, t0)
    v1 = conditional_variance(p, t1)
    g = 2.0 * math.sqrt(p.meas_strength * p.efficiency) * np.sqrt(v0 * v1)
    return drift, g


def step_mean(state: ConditionalState, p: PhysicalParams, dt: float, dW: float) -> float:
    """One Euler-Maruyama update of the conditional mean."""
    times = np.array([state.t, state.t + dt])
    drift, g = step_coefficients(p, times)
    return state.mean_jz + float(drift[0]) + float(g[0]) * dW


def photocurrent_increment(mean_jz: float, p: PhysicalParams, dt: float, dW: float):
    """Photocurrent sample and record increment for one step.

    y*dt = 2 eta sqrt(M) <Jz>_c dt + sqrt(eta) dW;  d_xi = y*dt / (2 eta sqrt(M)).
    The same ``dW`` must be the one used by :func:`step_mean` for this step.
    """
    root_m = math.sqrt(p.meas_strength)
    y_dt = 2.0 * p.efficiency * root_m * mean_jz * dt + math.sqrt(p.efficiency) * dW
    d_xi = y_dt / (2.0 * p.efficiency * root_m)
    return y_dt / dt, d_xi


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

    def to_csv(self, fobj) -> None:
        """Columns: t, mean_jz, var_jz, bloch_length, y, d_xi (step columns blank on the last row)."""
        w = csv.writer(fobj)
        w.writerow(["t", "mean_jz", "var_jz", "bloch_length", "y", "d_xi"])
        n = len(self.times)
        for k in range(n):
            step = [repr(float(self.y[k])), repr(float(self.d_xi[k]))] if k < n - 1 else ["", ""]
            w.writerow([repr(float(self.times[k])), repr(float(self.mean_jz[k])),
                        repr(float(self.var_jz[k])), repr(float(self.bloch[k]))] + step)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def simulate_trajectory(p: PhysicalParams, grid: TimeGrid, seed: SeedSpec,
                        zero_noise: bool = False) -> TrajectoryRecord:
    """Generate one conditional trajectory and its measurement record.

    Deterministic in (p, grid, seed).  ``zero_noise`` forces dW = 0
    (debug mode: pure drift).
    """
    validate_params(p)
    wl_t = abs(larmor_frequency(p)) * grid.t_total
    if wl_t > 0.1:
        warnings.warn(f"omega_L * t_total = {wl_t:.3g} > 0.1: small-angle model is marginal",
                      stacklevel=2)
    times = grid.times
    n = len(times) - 1
    dts = np.diff(times)
    drift, g = step_coefficients(p, times)
    z = np.zeros(n) if zero_noise else seed.generator().standard_normal(n)
    sq = np.sqrt(dts)
    g_sqdt = g * sq  # diffusion amplitude per unit normal
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    d_sqdt = d * sq

    mean = np.empty(n + 1)
    mean[0] = 0.0
    m = 0.0
    for k in range(n):
        m = m + drift[k] + g_sqdt[k] * z[k]
        mean[k + 1] = m
    d_xi = mean[:-1] * dts + d_sqdt * z  # record uses the pre-step mean
    y = d_xi * (2.0 * p.efficiency * math.sqrt(p.meas_strength)) / dts
    return TrajectoryRecord(
        grid=grid,
        mean_jz=mean,
        var_jz=np.asarray(conditional_variance(p, times)),
        bloch=np.asarray(bloch_length(p, times)),
        y=y,
        d_xi=d_xi,
        noise=sq * z,
    )


def reconstruct_noise(record: TrajectoryRecord, p: PhysicalParams) -> np.ndarray:
    """Invert the record: dW = 2 sqrt(M eta) (d_xi - mean_jz dt)."""
    dts = np.diff(record.times)
    return (record.d_xi - record.mean_jz[:-1] * dts) * (2.0 * math.sqrt(p.meas_strength * p.efficiency))


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
    out = np.empty_like(np.asarray(y, dtype=float))
    acc = 0.0
    for k, v in enumerate(np.asarray(y, dtype=float)):
        acc += alpha * (v - acc)
        out[k] = acc
    return out
