"""Field estimators: quantum Kalman filter, Riccati covariance, baselines.

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
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from .core import (SCAN_BLOCK, PhysicalParams, TimeGrid, collapse_rate, t2_bound, validate_params,
                   write_csv)
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
    number of trajectories.  Per step: ``phi12`` and ``k1`` = g/d; per
    grid point: ``r`` (V = v22 (r, 1)(r, 1)^T), the data information
    ``data`` and ``v22``; ``d`` is the record noise scale 1/(2 sqrt(M eta)).
    ``end`` is (r, info) at the last grid point, info = d^2 data the raw
    information sum: the ``start`` of the schedule over the next slice.
    """

    times: np.ndarray
    phi12: np.ndarray
    k1: np.ndarray
    r: np.ndarray
    data: np.ndarray
    v22: np.ndarray
    d: float
    end: tuple


def kalman_schedule(p: PhysicalParams, grid, start: tuple = (0.0, 0.0)) -> KalmanSchedule:
    """Gains and covariance along the grid; raise if r or the information overflows.

    ``grid`` is a ``TimeGrid`` or a slice of its times, and ``start`` is
    (r, info) at its first point.  Started from the previous slice's
    ``end``, a slice's schedule is bitwise that slice of the whole grid's:
    info runs as cumsum([info, ...]), never info + cumsum(...).
    """
    validate_params(p)
    times = grid.times if isinstance(grid, TimeGrid) else grid
    dts = np.diff(times)
    phi12, k1 = np.empty(len(dts)), np.empty(len(dts))
    for s in range(0, len(dts), SCAN_BLOCK):  # no grid-length temporaries of step_coefficients
        e = s + SCAN_BLOCK
        phi12[s:e], k1[s:e] = step_coefficients(p, times[s:e + 1])
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    k1 /= d
    r = _linear_recurrence(1.0 - k1 * dts, phi12, start[0])
    p0 = p.prior_b_variance
    with np.errstate(over="ignore", divide="ignore"):  # overflow raises below; 1/0 is inf
        data = np.empty(len(times))  # the raw information sum first, in place
        data[0] = start[1]
        np.square(r[:-1], out=data[1:])
        data[1:] *= dts
        np.cumsum(data, out=data)
        end = (float(r[-1]), float(data[-1]))
        data /= d * d
        v22 = 1.0 / data if math.isinf(p0) else p0 / (1.0 + p0 * data)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(data))):
        raise RuntimeError("gain schedule overflowed; reduce dt")
    return KalmanSchedule(times=times, phi12=phi12, k1=k1, r=r, data=data, v22=v22, d=d, end=end)


# ---------------------------------------------------------------------------
# Riccati covariance: numerical quadrature route
# ---------------------------------------------------------------------------

def _g1(p: PhysicalParams, t):
    """int_0^t (1 + lam u) e^{-M u / 2} du, elementary."""
    lam = collapse_rate(p)
    m = p.meas_strength
    e = np.exp(-m * t / 2.0)
    return (2.0 / m) * (1.0 - e) + lam * (4.0 / m**2) * (1.0 - (1.0 + m * t / 2.0) * e)


def _info_integrand(p: PhysicalParams, s):
    lam = collapse_rate(p)
    r = _g1(p, s) / (1.0 + lam * s)
    return r * r


_GL_NODES, _GL_WEIGHTS = leggauss(32)


def _panel_integrals(p: PhysicalParams, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return half * (_info_integrand(p, s) @ _GL_WEIGHTS)


def _cumulative_info(p: PhysicalParams, times: np.ndarray) -> np.ndarray:
    """Cumulative int_0^t [G1/(1+lam s)]^2 ds at strictly increasing times > 0."""
    t1 = times[0]
    # startup: integrand ~ s^2 near 0; seed analytically, refine in log space
    t0 = t1 * 1e-14
    seed = t0**3 / 3.0
    edges = np.geomspace(t0, t1, 480)
    first = seed + _panel_integrals(p, edges[:-1], edges[1:]).sum()
    vals = np.empty(len(times))
    vals[0] = first
    if len(times) > 1:
        lo = times[:-1].copy()
        hi = times[1:].copy()
        ratio = hi / lo
        wide = ratio > 1.05
        incs = np.empty(len(lo))
        if np.any(~wide):
            incs[~wide] = _panel_integrals(p, lo[~wide], hi[~wide])
        for i in np.nonzero(wide)[0]:
            sub = np.geomspace(lo[i], hi[i], 2 + int(24 * math.log10(ratio[i])) + 8)
            incs[i] = _panel_integrals(p, sub[:-1], sub[1:]).sum()
        vals[1:] = first + np.cumsum(incs)
    return vals


@dataclass(frozen=True)
class RiccatiSolution:
    """Deterministic covariance path V(t) of the corrected Riccati flow."""

    times: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray

    @property
    def delta_b(self) -> np.ndarray:
        return np.sqrt(self.v22)

    def threshold_curve(self) -> "ThresholdCurve":
        return ThresholdCurve(times=self.times, delta_b=self.delta_b, source="riccati_numeric")


def riccati_integrate(p: PhysicalParams, times) -> RiccatiSolution:
    """Integrate the covariance flow on ``times`` (grid or array).

    Uses the exact linearization of the Riccati equation: with perfectly
    correlated noise the flow preserves V = v22 * (phi, 1)(phi, 1)^T and
    the field information accumulates as the positive quadrature

        1/v22(t) = 1/prior + 4 M eta gamma^2 J^2 int_0^t [G1/(1+lam s)]^2 ds.

    Independent of the closed-form threshold expression; the field term
    of the result is B-free by construction.
    """
    validate_params(p)
    if isinstance(times, TimeGrid):
        times = times.times
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and >= 0")
    has_zero = times[0] == 0.0
    pos = times[1:] if has_zero else times
    lam = collapse_rate(p)
    k = 4.0 * p.meas_strength * p.efficiency
    if len(pos):
        if p.prior_b_variance == 0.0:
            v22p = np.zeros(len(pos))  # fixed point: nothing to learn about B
        else:
            info = k * p.gamma**2 * p.j_total**2 * _cumulative_info(p, pos)
            if math.isinf(p.prior_b_variance):
                v22p = 1.0 / info
            else:
                v22p = 1.0 / (1.0 / p.prior_b_variance + info)
        phi = p.gamma * p.j_total * _g1(p, pos) / (1.0 + lam * pos)
        v12p = phi * v22p
        v11p = phi * v12p
    else:
        v22p = v12p = v11p = np.empty(0)
    if has_zero:
        v0 = p.prior_b_variance
        v22 = np.concatenate([[v0], v22p])
        v12 = np.concatenate([[0.0], v12p])
        v11 = np.concatenate([[0.0], v11p])
    else:
        v22, v12, v11 = v22p, v12p, v11p
    return RiccatiSolution(times=times, v11=v11, v12=v12, v22=v22)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

# Taylor coefficients of the closed form's denominator parts f1 and f2 (see
# ``riccati_analytic``); through x^25 they reach float64 round-off for x < 2
_F1_TAYLOR = np.array([0.0] * 4 + [(-1) ** n * (n - 4 + 8 / 2**n) / math.factorial(n)
                                   for n in range(4, 26)])
_F2_TAYLOR = np.array([0.0] * 3 + [(-1) ** n * (4 / 2**n - 1) / math.factorial(n)
                                   for n in range(3, 26)])


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
    validate_params(p)
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    x = p.meas_strength * ts
    ej = 2 * p.efficiency * p.j_total
    e1, e2 = np.exp(-x), np.exp(-x / 2)
    den = np.where(x < 2.0, polyval(np.minimum(x, 2.0), ej * _F1_TAYLOR + _F2_TAYLOR),
                   ej * ((x - 4) - (x + 4) * e1 + 8 * e2) + (x - 3 - e1 + 4 * e2))
    if np.any(den <= 0):
        tv = float(ts[np.argmax(den <= 0)])
        raise ValueError(f"threshold expression invalid at t={tv!r}: denominator <= 0")
    out = ((p.meas_strength / (4 * p.gamma * p.j_total)) * np.sqrt((1 + ej * x) / den)
           / math.sqrt(p.efficiency))
    return float(out[0]) if scalar else out


def detection_threshold_asymptotic(p: PhysicalParams, t):
    """Threshold law (1/gamma J) sqrt(3/(M eta t^3)).

    It is the J M t >> 1, M t << 1 limit of ``riccati_analytic``: within 5%
    of the closed form for 100/(J M) <= t <= 0.15/M.  Past that the Bloch
    vector decays and the closed form saturates near M/(4 gamma J).
    """
    validate_params(p)
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    if np.any(ts <= 10.0 / (p.j_total * p.meas_strength)):
        warnings.warn("asymptotic threshold evaluated at t <= 10/(J M); outside validity",
                      stacklevel=2)
    out = (1.0 / (p.gamma * p.j_total)) * np.sqrt(3.0 / (p.meas_strength * p.efficiency * ts**3))
    return float(out[0]) if scalar else out


def shotnoise_limit(p: PhysicalParams, t_tot: float) -> float:
    """Conventional projection-noise limit 1/(gamma sqrt(J T2 t_tot)), T2 = 2/M."""
    validate_params(p)
    if not t_tot > 0:
        raise ValueError("t_tot must be positive")
    return 1.0 / (p.gamma * math.sqrt(p.j_total * t2_bound(p) * t_tot))


@dataclass(frozen=True)
class ThresholdCurve:
    times: np.ndarray
    delta_b: np.ndarray
    source: str

    def __post_init__(self):
        if self.source not in THRESHOLD_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if np.any(np.asarray(self.delta_b) <= 0):
            raise ValueError("delta_b must be positive")


def write_threshold_csv(curves, fobj) -> None:
    write_csv(fobj, ["t", "delta_b", "source"],
              [np.concatenate([c.times for c in curves]), np.concatenate([c.delta_b for c in curves]),
               [c.source for c in curves for _ in c.times]])


# ---------------------------------------------------------------------------
# linear-regression baseline
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


def line_fit_weights(times: np.ndarray, n_end: int, gamma_j: float) -> np.ndarray:
    """Per-step record weights w of the line-fit estimate w @ d_xi[:n_end].

    Ordinary least squares of the binned record rate against the bin
    midpoints (``bin_edge_indices`` over [0, t(n_end)]), with model
    alpha + beta t; the estimate is beta / (gamma J).  The intercept
    absorbs the frozen diffusive offset.
    """
    edges = bin_edge_indices(times, n_end)
    if len(edges) < 4:
        raise ValueError("regression needs at least 3 points")
    te = times[edges]
    xc = 0.5 * (te[:-1] + te[1:])
    xc = xc - xc.mean()
    return np.repeat(xc / ((xc * xc).sum() * np.diff(te) * gamma_j), np.diff(edges))
