"""The quantum Kalman filter run over one stored record: ``kalman_schedule``'s
gains applied step by step, the per-record reference that the ensemble
engine's filter readout must reproduce trajectory by trajectory.  Shared by
the unit and Monte Carlo tests.

Also the schedule's own reference: the recurrence as one grid-length Python
list and every coefficient over the whole grid at once, which the blocked
``step_coefficients`` and ``kalman_schedule`` must match bit for bit."""

import math
from dataclasses import dataclass

import numpy as np

from qkfmag.dynamics import conditional_variance
from qkfmag.estimators import KalmanSchedule, _linear_recurrence, kalman_schedule


def list_recurrence(a, u):
    """x with x[0] = 0 and x[k+1] = a[k] x[k] + u[k], in one Python list."""
    x = [0.0]
    for ak, uk in zip(a.tolist(), u.tolist()):
        x.append(ak * x[-1] + uk)
    return np.array(x)


def whole_step_coefficients(p, times):
    """``step_coefficients``' (phi12, g), each formed over the whole grid in one expression."""
    t0 = times[:-1]
    t1 = times[1:]
    dts = t1 - t0
    x = p.meas_strength * dts / 2.0
    ebar = np.exp(-p.meas_strength * t0 / 2.0) * -np.expm1(-x) / x
    phi12 = p.gamma * p.j_total * ebar * dts
    v0 = conditional_variance(p, t0)
    v1 = conditional_variance(p, t1)
    g = 2.0 * math.sqrt(p.meas_strength * p.efficiency) * np.sqrt(v0 * v1)
    return phi12, g


def reference_schedule(p, grid) -> KalmanSchedule:
    """``kalman_schedule`` over whole-grid arrays and ``list_recurrence``."""
    times = grid.times
    dts = np.diff(times)
    phi12, g = whole_step_coefficients(p, times)
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    k1 = g / d
    r = list_recurrence(1.0 - k1 * dts, phi12)
    p0 = p.prior_b_variance
    with np.errstate(over="ignore", divide="ignore"):
        info = np.concatenate(([0.0], np.cumsum(r[:-1] ** 2 * dts)))
        data = info / (d * d)
        v22 = 1.0 / data if math.isinf(p0) else p0 / (1.0 + p0 * data)
    return KalmanSchedule(times=times, phi12=phi12, g=g, k1=k1, r=r, data=data, v22=v22, d=d,
                          end=(float(r[-1]), float(info[-1])))


@dataclass(frozen=True)
class KalmanTrace:
    """Filter outputs along a record."""

    times: np.ndarray
    jz_tilde: np.ndarray
    b_tilde: np.ndarray
    v22: np.ndarray


def run_kalman(p, record, schedule: KalmanSchedule | None = None) -> KalmanTrace:
    """Filter one record with the precomputed schedule."""
    if schedule is None:
        schedule = kalman_schedule(p, record.grid)
    times = schedule.times
    if len(times) != len(record.times) or not np.array_equal(times, record.times):
        raise ValueError("schedule grid does not match record grid")
    dts = np.diff(times)
    k1 = schedule.k1
    c = _linear_recurrence(1.0 - k1 * dts, k1 * record.d_xi)
    fit = np.concatenate(([0.0], np.cumsum(schedule.r[:-1] * (record.d_xi - c[:-1] * dts))))
    with np.errstate(invalid="ignore"):  # inf * 0 where an infinite prior is unresolved
        b = schedule.v22 * fit / schedule.d**2
    return KalmanTrace(times=times, jz_tilde=c + schedule.r * b, b_tilde=b, v22=schedule.v22)
