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
overflows within a few steps.  ``kalman_step`` therefore performs the
*exact* conditional update of the discretized model (the same
discretization the simulator uses): geometric-mean variance coefficient,
finite-step gain denominator, and a generalized Joseph covariance step
that is unconditionally PSD.  All of it reduces to the continuous
equations as dt -> 0.

Infinite prior.  For prior_b_variance = inf the filter runs on a finite
reference prior and removes it algebraically: the data information
I(t) = 1/v22_ref - 1/p_ref is prior-independent, so
b_inf = b_ref / (1 - v22_ref/p_ref) and v22_inf = 1/I.  This is the
information-form limit, exact for the linear-Gaussian model.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import PhysicalParams, TimeGrid, collapse_rate, t2_bound, validate_params
from .dynamics import TrajectoryRecord, conditional_variance, step_coefficients

_REFERENCE_PRIOR = 1.0  # G^2, internal stand-in for an infinite prior

THRESHOLD_SOURCES = ("riccati_numeric", "riccati_analytic", "asymptotic", "shotnoise")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemMatrices:
    """Continuous-time filter matrices at one instant."""

    a: np.ndarray   # 2x2, a[0,1] = gamma J e^{-Mt/2}
    b: np.ndarray   # (var_jz, 0)
    c: np.ndarray   # (1, 0) row
    d: float        # 1/(2 sqrt(M eta))


def system_matrices(p: PhysicalParams, t: float) -> SystemMatrices:
    a = np.zeros((2, 2))
    a[0, 1] = p.gamma * p.j_total * math.exp(-p.meas_strength * t / 2.0)
    b = np.array([conditional_variance(p, t), 0.0])
    c = np.array([1.0, 0.0])
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    return SystemMatrices(a=a, b=b, c=c, d=d)


@dataclass(frozen=True)
class KalmanState:
    """Filter state: estimate pair and its covariance.

    With ``info_form`` set (infinite prior) the stored values are the
    internal reference-prior parametrization, removed as ``run_kalman`` does.
    """

    t: float
    x_tilde: np.ndarray      # (jz_tilde, b_tilde)
    v: np.ndarray            # 2x2 covariance
    info_form: bool = False


def kalman_init(p: PhysicalParams) -> KalmanState:
    """x(0) = 0; V(0) = diag(0, prior), information form for an infinite prior."""
    validate_params(p)
    if math.isinf(p.prior_b_variance):
        return KalmanState(t=0.0, x_tilde=np.zeros(2),
                           v=np.diag([0.0, _REFERENCE_PRIOR]), info_form=True)
    return KalmanState(t=0.0, x_tilde=np.zeros(2),
                       v=np.diag([0.0, p.prior_b_variance]), info_form=False)


def kalman_gain(mats: SystemMatrices, v: np.ndarray) -> np.ndarray:
    """Continuous-time gain G = D^-2 (B + V C^T)."""
    return (mats.b + v @ mats.c) / mats.d**2


# ---------------------------------------------------------------------------
# one exact discrete step (shared by kalman_step, schedules, the MC engine)
# ---------------------------------------------------------------------------

def _step_geometry(p: PhysicalParams, t0: float, t1: float):
    """(phi12, g, d) for the interval [t0, t1]: drift entry, diffusion amp, noise scale."""
    _, g = step_coefficients(p, np.array([t0, t1]))
    dt = t1 - t0
    m = p.meas_strength
    e0, e1 = math.exp(-m * t0 / 2.0), math.exp(-m * t1 / 2.0)
    ebar = (e0 - e1) * (2.0 / m) / dt if m * dt > 1e-12 else math.sqrt(e0 * e1)
    phi12 = p.gamma * p.j_total * ebar * dt
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    return float(phi12), float(g[0]), d


def _kalman_coeffs(phi12: float, g: float, d: float, dt: float, v11: float, v12: float, v22: float):
    """Gain and Joseph-updated covariance for one interval.

    Exact conditional update for the discrete model
        m' = m + phi12/dt' ... m' = m + drift + g sqrt(dt) xi
        z  = m dt + d sqrt(dt) xi          (same xi: correlated noise)
    For any gain the error covariance is
        V' = (Phi - K H) V (Phi - K H)^T + Cov(w - K n)
    which is a sum of two PSD terms; with the optimal K used here it is
    the exact posterior covariance.
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


def kalman_step(state: KalmanState, mats: SystemMatrices, d_xi: float, dt: float,
                params: PhysicalParams | None = None) -> KalmanState:
    """Advance the filter by one record increment.

    With ``params`` the step uses the exact closed-form coefficients over
    [t, t+dt]; without it the coefficients are frozen at ``mats`` (valid
    for small gain*dt).  The innovation is d_xi - Jz_tilde * dt and the
    update limit as dt -> 0 is the continuous gain ``kalman_gain``.
    """
    v11, v12, v22 = float(state.v[0, 0]), float(state.v[0, 1]), float(state.v[1, 1])
    if params is not None:
        phi12, g, d = _step_geometry(params, state.t, state.t + dt)
    else:
        phi12 = float(mats.a[0, 1]) * dt
        g = float(mats.b[0]) / mats.d
        d = mats.d
    k1, k2, n11, n12, n22 = _kalman_coeffs(phi12, g, d, dt, v11, v12, v22)
    inn = d_xi - state.x_tilde[0] * dt
    jz = state.x_tilde[0] + phi12 * state.x_tilde[1] + k1 * inn
    b = state.x_tilde[1] + k2 * inn
    v_new = np.array([[n11, n12], [n12, n22]])
    # achievable determinant accuracy degrades with the step conditioning
    # (the Joseph products cancel at the (1 - K1 dt)^2 scale)
    cond = max(1.0, (k1 * dt) ** 2, phi12 ** 2)
    tol = 1e-12 * cond * max(n11 + n22, 1e-300)
    if n11 < -tol or n22 < -tol or n11 * n22 - n12 * n12 < -tol * max(n11, n22, 1e-300):
        raise RuntimeError("covariance lost positive semidefiniteness; reduce dt")
    return KalmanState(t=state.t + dt, x_tilde=np.array([jz, b]), v=v_new,
                       info_form=state.info_form)


# ---------------------------------------------------------------------------
# precomputed gain schedule + a full filter run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KalmanSchedule:
    """Deterministic per-step gains and covariance path for a (params, grid) pair.

    The gains do not depend on the data, so one schedule drives any
    number of trajectories.  ``shrink`` is the prior-removal factor
    1 - v22/p_ref for an infinite prior (1.0 otherwise).
    """

    times: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    phi12: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray
    shrink: np.ndarray
    info_form: bool

    def effective_v22(self) -> np.ndarray:
        if not self.info_form:
            return self.v22.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.shrink > 0.0, self.v22 / self.shrink, np.inf)
        return out


def kalman_schedule(p: PhysicalParams, grid: TimeGrid) -> KalmanSchedule:
    validate_params(p)
    times = grid.times
    n = len(times) - 1
    dts = np.diff(times)
    drift, g = step_coefficients(p, times)
    if p.b_true != 0.0:
        phi12 = drift / p.b_true
    else:
        m = p.meas_strength
        e = np.exp(-m * times / 2.0)
        with np.errstate(invalid="ignore"):
            ebar = np.where(m * dts > 1e-12, (e[:-1] - e[1:]) * (2.0 / m) / dts,
                            np.sqrt(e[:-1] * e[1:]))
        phi12 = p.gamma * p.j_total * ebar * dts
    d = 1.0 / (2.0 * math.sqrt(p.meas_strength * p.efficiency))
    info_form = math.isinf(p.prior_b_variance)
    prior = _REFERENCE_PRIOR if info_form else p.prior_b_variance

    k1 = np.empty(n)
    k2 = np.empty(n)
    v11 = np.empty(n + 1)
    v12 = np.empty(n + 1)
    v22 = np.empty(n + 1)
    v11[0], v12[0], v22[0] = 0.0, 0.0, prior
    a, b_, c = 0.0, 0.0, prior
    for k in range(n):
        k1[k], k2[k], a, b_, c = _kalman_coeffs(float(phi12[k]), float(g[k]), d,
                                                float(dts[k]), a, b_, c)
        v11[k + 1], v12[k + 1], v22[k + 1] = a, b_, c
    shrink = (1.0 - v22 / _REFERENCE_PRIOR) if info_form else np.ones(n + 1)
    return KalmanSchedule(times=times, k1=k1, k2=k2, phi12=phi12,
                          v11=v11, v12=v12, v22=v22, shrink=shrink, info_form=info_form)


@dataclass(frozen=True)
class KalmanTrace:
    """Filter outputs along a record (physical, prior-removed values)."""

    times: np.ndarray
    jz_tilde: np.ndarray
    b_tilde: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray

    def to_csv(self, fobj) -> None:
        w = csv.writer(fobj)
        w.writerow(["t", "jz_tilde", "b_tilde", "v11", "v12", "v22"])
        for row in zip(self.times, self.jz_tilde, self.b_tilde, self.v11, self.v12, self.v22):
            w.writerow([repr(float(x)) for x in row])


def run_kalman(p: PhysicalParams, record: TrajectoryRecord,
               schedule: KalmanSchedule | None = None) -> KalmanTrace:
    """Filter one record with the precomputed schedule."""
    if schedule is None:
        schedule = kalman_schedule(p, record.grid)
    times = schedule.times
    if len(times) != len(record.times) or not np.array_equal(times, record.times):
        raise ValueError("schedule grid does not match record grid")
    dts = np.diff(times)
    n = len(dts)
    jz = np.empty(n + 1)
    b = np.empty(n + 1)
    jz[0] = b[0] = 0.0
    x, y = 0.0, 0.0
    for k in range(n):
        inn = record.d_xi[k] - x * dts[k]
        x = x + schedule.phi12[k] * y + schedule.k1[k] * inn
        y = y + schedule.k2[k] * inn
        jz[k + 1] = x
        b[k + 1] = y
    if schedule.info_form:
        s = schedule.shrink
        good = s > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            b_eff = np.where(good, b / s, 0.0)
            v22_eff = np.where(good, schedule.v22 / s, np.inf)
            ratio = np.where(schedule.v22 > 0.0, schedule.v12 / schedule.v22, 0.0)
            jz_eff = jz + ratio * (b_eff - b)
            v12_eff = ratio * v22_eff
            v11_eff = (schedule.v11 - schedule.v12 * ratio) + ratio**2 * v22_eff
        return KalmanTrace(times=times, jz_tilde=jz_eff, b_tilde=b_eff,
                           v11=v11_eff, v12=v12_eff, v22=v22_eff)
    return KalmanTrace(times=times, jz_tilde=jz, b_tilde=b,
                       v11=schedule.v11, v12=schedule.v12, v22=schedule.v22)


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

def riccati_analytic(p: PhysicalParams, t):
    """Closed-form detection threshold (infinite prior), G.

    Evaluated in extended precision: the denominator is an
    exponentially-cancelling combination (~19 significant digits lost at
    M t ~ 1e-3) and float64 evaluation returns garbage below t ~ 1e-7 at
    production parameters.  Exact for efficiency = 1; for eta < 1 the
    expression omits an efficiency factor in the noise-floor regime and
    only approximates the true solution.

    Raises if the denominator is not positive (outside validity).
    """
    validate_params(p)
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    with mp.workdps(60):
        j = mp.mpf(p.j_total)
        gam = mp.mpf(p.gamma)
        m = mp.mpf(p.meas_strength)
        eta = mp.mpf(p.efficiency)
        out = np.empty(len(ts))
        for i, tv in enumerate(ts):
            x = m * mp.mpf(tv)
            a = -(2 * eta * j * (x + 4) + 1)
            b = x + 2 * eta * j * (x - 4) - 3
            den = a * mp.e**(-x) + 4 * mp.e**(-x / 2) * (4 * eta * j + 1) + b
            if den <= 0:
                raise ValueError(f"threshold expression invalid at t={tv!r}: denominator <= 0")
            out[i] = float((m / (4 * gam * j)) * mp.sqrt((1 + 2 * eta * j * x) / den))
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
    w = csv.writer(fobj)
    w.writerow(["t", "delta_b", "source"])
    for curve in curves:
        for t, db in zip(curve.times, curve.delta_b):
            w.writerow([repr(float(t)), repr(float(db)), curve.source])


# ---------------------------------------------------------------------------
# linear-regression baseline
# ---------------------------------------------------------------------------

def bin_edge_indices(times: np.ndarray, n_end: int, width: float | None = None) -> np.ndarray:
    """Greedy grid indices acting as near-uniform bin edges over [0, t(n_end)].

    Default width is the largest step in the window, so a uniform grid
    keeps every point and a log prefix is coalesced to uniform-width
    bins (raw per-step rates on a log prefix have noise ~ 1/sqrt(dt) and
    would poison an unweighted fit).
    """
    if width is None:
        width = float(np.max(np.diff(times[:n_end + 1])))
    idx = [0]
    target = times[0] + width * (1.0 - 1e-9)
    for i in range(1, n_end + 1):
        if times[i] >= target:
            idx.append(i)
            target = times[i] + width * (1.0 - 1e-9)
    if idx[-1] != n_end:
        idx.append(n_end)
    return np.asarray(idx)


def binned_rates(times: np.ndarray, d_xi: np.ndarray, n_end: int):
    """(bin midpoints, record rates) over [0, times[n_end]]."""
    edges = bin_edge_indices(times, n_end)
    te = times[edges]
    xi = np.concatenate([[0.0], np.cumsum(d_xi[:n_end])])
    widths = np.diff(te)
    rates = np.diff(xi[edges]) / widths
    mids = 0.5 * (te[:-1] + te[1:])
    return mids, rates


def regression_estimate(record: TrajectoryRecord, p: PhysicalParams, t_end: float) -> float:
    """Field estimate from the slope of a line fit to the record rate.

    Ordinary least squares of d_xi/dt against time over [0, t_end] with
    model alpha + beta t; returns beta / (gamma J).  The intercept
    absorbs the frozen diffusive offset.
    """
    times = record.times
    if t_end > times[-1] * (1.0 + 1e-9):
        raise ValueError("t_end exceeds the record duration")
    if p.meas_strength * t_end > 0.5:
        warnings.warn("M * t_end > 0.5: Bloch decay biases the line-fit estimate",
                      stacklevel=2)
    n_end = int(np.searchsorted(times, t_end * (1.0 + 1e-12), side="right") - 1)
    if n_end < 1:
        raise ValueError("regression needs at least 3 points")
    x, r = binned_rates(times, record.d_xi, n_end)
    if len(x) < 3:
        raise ValueError("regression needs at least 3 points")
    xc = x - x.mean()
    beta = float(np.dot(xc, r) / np.dot(xc, xc))
    return beta / (p.gamma * p.j_total)
