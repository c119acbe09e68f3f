"""The exact discrete Kalman step in generalized Joseph form: the 2x2
covariance recursion that ``kalman_schedule``'s rank-one information form
must reproduce.  Shared by the unit and acceptance tests."""

import math

import numpy as np

from qkfmag.dynamics import step_coefficients


def kalman_step(phi12: float, g: float, d: float, dt: float, v11: float, v12: float, v22: float):
    """Gains (k1, k2) and Joseph-updated covariance (n11, n12, n22) for one interval.

    ``phi12`` and ``g`` are the step's ``step_coefficients`` and ``d`` the
    record noise scale 1/(2 sqrt(M eta)).  Exact conditional update for
    the discrete model
        m' = m + B phi12 + g sqrt(dt) xi
        z  = m dt + d sqrt(dt) xi          (same xi: correlated noise)
    For any gain the error covariance is
        V' = (Phi - K H) V (Phi - K H)^T + Cov(w - K n)
    which is a sum of two PSD terms; with the optimal K used here it is
    the exact posterior covariance.  The estimate update is
    jz' = jz + phi12 b + k1 (d_xi - jz dt), b' = b + k2 (d_xi - jz dt).
    """
    den = dt * v11 + d * d
    k1 = (v11 + phi12 * v12 + g * d) / den
    k2 = v12 / den
    m11 = 1.0 - k1 * dt
    m21 = -k2 * dt
    a11 = m11 * v11 + phi12 * v12
    a12 = m11 * v12 + phi12 * v22
    a21 = m21 * v11 + v12
    a22 = m21 * v12 + v22
    w1 = g - d * k1
    w2 = -d * k2
    n11 = a11 * m11 + a12 * phi12 + dt * w1 * w1
    n12 = a21 * m11 + a22 * phi12 + dt * w1 * w2
    n22 = a21 * m21 + a22 + dt * w2 * w2
    return k1, k2, n11, n12, n22


def joseph_covariance(p, times: np.ndarray):
    """(v11, v12, v22) at every grid point: ``kalman_step`` from (0, 0, prior)."""
    phi12, g = step_coefficients(p, times)
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    v = [(0.0, 0.0, p.prior_b_variance)]
    for ph, gk, dt in zip(phi12.tolist(), g.tolist(), np.diff(times).tolist()):
        v.append(kalman_step(ph, gk, d, dt, *v[-1])[2:])
    return np.array(v).T
