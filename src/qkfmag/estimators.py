"""Field estimators: quantum Kalman filter, the closed-form Riccati covariance, thresholds.

The line-fit baseline is the ensemble engine's, in ``montecarlo``.

State is x = (Jz_tilde, B_tilde) with covariance V.  The continuous-time
filter is

    dx = A x dt + D^-2 (B + V C^T) (dXi - C x dt),

A = [[0, gamma J e^{-Mt/2}], [0, 0]], B = (<dJz^2>, 0)^T, C = (1, 0),
D = 1/(2 sqrt(M eta)); V obeys the matrix Riccati equation

    V' = (A - D^-2 B C) V + V (A - D^-2 B C)^T - D^-2 V C^T C V.

Because the record noise and the mean's diffusion are the *same* Wiener
increment, the additive process-noise term cancels exactly against part
of the gain term, leaving the pure quadratic contraction above (the
printed plus sign on the quadratic term would make the variance grow and
contradicts the closed-form solution; the minus sign is implemented).

Discretization.  On production grids the continuous gain satisfies
gain*dt = 2 eta M J dt >> 1 at t=0, where a literal explicit-Euler step
overflows within a few steps.  The filter is therefore the *exact*
conditional estimate for the discretized model (the simulator's
``step_coefficients``), in which one unit normal z_k drives both the mean
and the record:

    m_{k+1} = m_k + B phi12_k + g_k sqrt(dt_k) z_k,
    d_xi_k  = m_k dt_k + d sqrt(dt_k) z_k.

Given B, the record fixes m exactly: m_k = c_k + r_k B with

    c_{k+1} = a_k c_k + k1_k d_xi_k,   r_{k+1} = a_k r_k + phi12_k,
    a_k = 1 - k1_k dt_k,

k1 = g/d and c_0 = r_0 = 0.  So the covariance is rank one,
V = v22 (r, 1)(r, 1)^T, the discrete twin of the continuous statement in
``riccati_integrate``, and B is a linear regression on the independent
innovations d_xi_k - c_k dt_k = r_k dt_k B + d sqrt(dt_k) z_k.  Its data
information is data_k = sum_{j<k} r_j^2 dt_j / d^2, so

    v22 = p0 / (1 + p0 data),
    b   = v22 sum_{j<k} r_j (d_xi_j - c_j dt_j) / d^2,   jz = c + r b.

All of it reduces to the continuous equations as dt -> 0.  V is PSD by
construction; what can still fail on too coarse a grid is overflow of r
or data, which ``kalman_schedule`` checks.

Infinite prior.  For prior_b_variance = inf the prior information 1/p0 is
zero and v22 = 1/data.  Where data = 0 (grid points 0 and 1, since
r_0 = 0) nothing is known about B yet: v22 is inf and the estimate NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SCAN_BLOCK, PhysicalParams, TimeGrid, t2_bound, write_csv
from .dynamics import step_coefficients

THRESHOLD_SOURCES = ("riccati_numeric", "riccati_analytic", "asymptotic", "shotnoise")


# ---------------------------------------------------------------------------
# the exact discrete filter in rank-one information form
# ---------------------------------------------------------------------------

def _linear_recurrence(a: np.ndarray, u: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """x with x[0] = x0 and x[k+1] = a[k] x[k] + u[k], one float at a time.

    Not a cumprod scan: the product of the a[k] falls to 2e-10 on the fig2
    grid, and a[k] is negative on a grid too coarse for the early collapse.
    The floats pass through Python in blocks of ``SCAN_BLOCK`` steps.
    """
    x = np.empty(len(a) + 1)
    x[0] = xk = x0
    for s in range(0, len(a), SCAN_BLOCK):
        block = zip(a[s:s + SCAN_BLOCK].tolist(), u[s:s + SCAN_BLOCK].tolist())
        x[s + 1:s + 1 + SCAN_BLOCK] = [xk := ak * xk + uk for ak, uk in block]
    return x


@dataclass(frozen=True)
class KalmanSchedule:
    """Deterministic per-step gains and covariance path for a (params, grid) pair.

    The gains do not depend on the data, so one schedule drives any
    number of trajectories.  Per step: ``phi12`` and ``g``, as
    ``step_coefficients`` returns them, and ``k1`` = g/d; per grid point:
    ``r`` (V = v22 (r, 1)(r, 1)^T), the data information
    ``data`` and ``v22``; ``d`` is the record noise scale 1/(2 sqrt(M eta)).
    ``end`` is (r, info) at the last grid point, info = d^2 data the raw
    information sum: the ``start`` of the schedule over the next slice.
    """

    times: np.ndarray
    phi12: np.ndarray
    g: np.ndarray
    k1: np.ndarray
    r: np.ndarray
    data: np.ndarray
    v22: np.ndarray
    d: float
    end: tuple


def kalman_schedule(p: PhysicalParams, grid, start: tuple = (0.0, 0.0)) -> KalmanSchedule:
    """Gains and covariance along the grid; ``OverflowError`` if r or the information overflows.

    ``grid`` is a ``TimeGrid`` or an array of consecutive points of one, and
    ``start`` is (r, info) at its first point.  Started from the previous slice's
    ``end``, a slice's schedule is bitwise that slice of the whole grid's:
    info runs as cumsum([info, ...]), never info + cumsum(...).
    """
    times = grid.times if isinstance(grid, TimeGrid) else grid
    dts = np.diff(times)
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    p0 = p.prior_b_variance
    # overflow raises below, and 1/0 is inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi12, g = step_coefficients(p, times)
        k1 = g / d
        r = _linear_recurrence(1.0 - k1 * dts, phi12, start[0])
        data = np.empty(len(times))  # the raw information sum first, in place
        data[0] = start[1]
        np.square(r[:-1], out=data[1:])
        data[1:] *= dts
        np.cumsum(data, out=data)
        end = (float(r[-1]), float(data[-1]))
        data /= d * d
        v22 = 1.0 / data if math.isinf(p0) else p0 / (1.0 + p0 * data)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(data))):
        raise OverflowError("gain schedule overflowed: j_total or gamma is too large, "
                            "or the grid too coarse for the variance collapse")
    return KalmanSchedule(times=times, phi12=phi12, g=g, k1=k1, r=r, data=data, v22=v22, d=d,
                          end=end)


# ---------------------------------------------------------------------------
# closed forms: the continuous Riccati solution and the thresholds
# ---------------------------------------------------------------------------

# Taylor coefficients of the closed form's denominator parts f1 and f2 (see
# ``riccati_analytic``), highest power first as ``np.polyval`` takes them;
# through x^25 they reach float64 round-off for x < 2
_F1_TAYLOR = np.array([0.0] * 4 + [(-1) ** n * (n - 4 + 8 / 2**n) / math.factorial(n)
                                   for n in range(4, 26)])[::-1]
_F2_TAYLOR = np.array([0.0] * 3 + [(-1) ** n * (4 / 2**n - 1) / math.factorial(n)
                                   for n in range(3, 26)])[::-1]


def _denominator(p: PhysicalParams, x: np.ndarray) -> np.ndarray:
    """2 eta J f1(x) + f2(x) at x = M t, the closed form's denominator."""
    ej = 2 * p.efficiency * p.j_total
    e1, e2 = np.exp(-x), np.exp(-x / 2)
    return np.where(x < 2.0, np.polyval(ej * _F1_TAYLOR + _F2_TAYLOR, np.minimum(x, 2.0)),
                    ej * ((x - 4) - (x + 4) * e1 + 8 * e2) + (x - 3 - e1 + 4 * e2))


@dataclass(frozen=True)
class RiccatiSolution:
    """Deterministic field variance v22(t) of the corrected Riccati flow."""

    times: np.ndarray
    v22: np.ndarray


def riccati_integrate(p: PhysicalParams, times) -> RiccatiSolution:
    """Field variance of the covariance flow at ``times``, an array.

    With perfectly correlated noise the flow preserves
    V = v22 (phi, 1)(phi, 1)^T, and the field information accumulates as

        1/v22(t) = 1/prior + I(t),
        I(t) = 4 M eta gamma^2 J^2 int_0^t [G1/(1+lam s)]^2 ds
             = (4 gamma J / M)^2 eta den / (1 + 2 eta J M t),

    G1 = int_0^s (1 + lam u) e^{-M u / 2} du and den the closed form's
    denominator (``riccati_analytic`` is 1/sqrt(I)).  I is B-free, and
    where M t underflows den, and so I, is 0; ``OverflowError`` where I overflows.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    pos = times[1:] if times[0] == 0.0 else times
    if p.prior_b_variance == 0.0:
        v22 = np.zeros(len(pos))  # fixed point: nothing to learn about B
    else:
        x = p.meas_strength * pos
        # den / M / M: at tiny M, 1/M^2 overflows (and M^2 underflows) where den is 0
        try:
            with np.errstate(over="raise"):
                info = ((4.0 * p.gamma * p.j_total) ** 2 * p.efficiency * _denominator(p, x)
                        / p.meas_strength / p.meas_strength
                        / (1.0 + 2.0 * p.efficiency * p.j_total * x))
        except (OverflowError, FloatingPointError):  # (4 gamma J)^2 eta den overflows first
            raise OverflowError("field information overflowed: j_total or gamma is too large "
                                f"(gamma J = {p.gamma * p.j_total:.3g})") from None
        v22 = 1.0 / (1.0 / p.prior_b_variance + info)  # 1/inf is 0
    if len(pos) < len(times):
        v22 = np.concatenate([[p.prior_b_variance], v22])
    return RiccatiSolution(times=times, v22=v22)


def riccati_analytic(p: PhysicalParams, t):
    """Closed-form detection threshold (infinite prior), G.

    With x = M t the denominator is 2 eta J f1(x) + f2(x), where

        f1 = (x - 4) - (x + 4) e^{-x} + 8 e^{-x/2}  ~ x^4/48,
        f2 = x - 3 - e^{-x} + 4 e^{-x/2}            ~ x^3/12.

    Both cancel exponentially for small x (~19 digits at M t ~ 1e-3), so
    below x = 2 the denominator is summed from their Taylor series, and
    above it from the direct forms (relative error ~4e-15 near x = 2).
    The whole expression carries 1/sqrt(eta), as the information does.

    Raises if the denominator is not positive (outside validity).
    """
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    x = p.meas_strength * ts
    den = _denominator(p, x)
    if np.any(den <= 0):
        tv = float(ts[np.argmax(den <= 0)])
        raise ValueError(f"threshold expression invalid at t={tv!r}: denominator <= 0")
    ej = 2 * p.efficiency * p.j_total
    out = ((p.meas_strength / (4 * p.gamma * p.j_total)) * np.sqrt((1 + ej * x) / den)
           / math.sqrt(p.efficiency))
    return float(out[0]) if scalar else out


def detection_threshold_asymptotic(p: PhysicalParams, t):
    """Threshold law (1/gamma J) sqrt(3/(M eta t^3)).

    It is the 2 eta J M t >> 1, M t << 1 limit of ``riccati_analytic``:
    within 5% of the closed form for 100/(eta J M) <= t <= 0.15/M (3.7% at
    most, at the upper end, for eta from 0.02 to 1).  Past that the Bloch
    vector decays and the closed form saturates near M/(4 gamma J).
    """
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    if np.any(ts <= 10.0 / (p.efficiency * p.j_total * p.meas_strength)):
        warnings.warn("asymptotic threshold evaluated at t <= 10/(eta J M); outside validity",
                      stacklevel=2)
    out = (1.0 / (p.gamma * p.j_total)) * np.sqrt(3.0 / (p.meas_strength * p.efficiency * ts**3))
    return float(out[0]) if scalar else out


def shotnoise_limit(p: PhysicalParams, t):
    """Conventional projection-noise limit 1/(gamma sqrt(J T2 t)), T2 = 2/M, at ``t``,
    a float or an array."""
    if not np.all(np.asarray(t) > 0):
        raise ValueError("t must be positive")
    return 1.0 / (p.gamma * np.sqrt(p.j_total * t2_bound(p) * np.asarray(t, dtype=float)))


def write_threshold_csv(times: np.ndarray, curves: dict, fobj) -> None:
    """The threshold table: each {source: delta_b} of ``curves`` over the one axis ``times``."""
    for source, delta_b in curves.items():
        if source not in THRESHOLD_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        if np.any(np.asarray(delta_b) <= 0):
            raise ValueError(f"{source}: delta_b must be positive")
    write_csv(fobj, ["t", "delta_b", "source"], [np.tile(times, len(curves)),
                                                 np.concatenate(list(curves.values())),
                                                 [s for s in curves for _ in times]])
