"""The quantum Kalman filter run over one stored record: ``kalman_schedule``'s
gains applied step by step, the per-record reference that the ensemble
engine's filter readout must reproduce trajectory by trajectory.  Shared by
the unit and Monte Carlo tests."""

from dataclasses import dataclass

import numpy as np

from qkfmag.estimators import KalmanSchedule, _linear_recurrence, kalman_schedule


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
