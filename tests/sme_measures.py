"""Test-side measures of the dense SME oracle: the density-matrix invariants,
the positivity floor their check allows, a state's Jz moments, the
variance-gap score of a ``DeviationSeries``, the reference arithmetic of the
B = 0 Euler step, and an independent reference for the closed-form B = 0
state that ``compare_to_gaussian`` reads.  Shared by the unit and acceptance
tests and by CI's oracle-check run."""

import math
from fractions import Fraction

import numpy as np

from qkfmag.dynamics import simulate_trajectory
from qkfmag.sme_oracle import DeviationSeries

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


def check_density(r: np.ndarray, positivity_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """``r`` unchanged iff it is Hermitian, of unit trace and positive within tolerance."""
    if np.max(np.abs(r - r.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(r).real - 1.0) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(r)) < -positivity_tol:
        raise ValueError("density matrix has negative eigenvalues beyond tolerance")
    return r


def positivity_tolerance(p, dt: float) -> float:
    """Intrinsic positivity floor of the first-order scheme for pure states.

    From a pure state the zero eigenvalues fluctuate per step at order
    M (J/2) dt (the leading 2x2 block has determinant ~ (J/2) M (dt - dW^2),
    negative for |dW| > sqrt(dt)); a 30x margin covers extreme draws over
    a full run.
    """
    return 30.0 * p.meas_strength * (p.j_total / 2.0) * dt


def rms_var_frac(dev) -> float:
    """rms variance gap of a ``DeviationSeries`` in units of J/2."""
    return float(np.sqrt(np.mean(dev.d_var**2)) / (dev.j_total / 2.0))


def oracle_moments(rho: np.ndarray, ops):
    """(<Jz>, <dJz^2>) of a density matrix."""
    pops = rho.diagonal().real
    mean = float((ops.m * pops).sum())
    second = float((ops.m * ops.m * pops).sum())
    return mean, second - mean * mean


def dense_step(r: np.ndarray, ops, p, dt: float, dW: float) -> np.ndarray:
    """The B = 0 Euler-Maruyama step on the whole density matrix, its record term
    formed even at dW = 0, then renormalized: the reference arithmetic of
    ``sme_step``, kept apart from it."""
    mz = float((ops.m * r.diagonal().real).sum())
    m = p.meas_strength
    new = r + m * dt * ops.dephase * r \
        + math.sqrt(m * p.efficiency) * dW * (ops.msum * r - 2.0 * mz * r)
    return new / float(new.trace().real)


# Largest difference allowed between ``compare_to_gaussian``'s gaps and the
# reference's, in units of sqrt(J/2) (mean) and J/2 (variance).  Fixed before
# measuring: far above float64 rounding of the closed form, far below the
# 0.05 that the mean check scores.
CLOSED_FORM_TOL = 1e-9


def closed_form_moments(p, times, d_xi):
    """The exact B = 0 (<Jz>, <dJz^2>) lists at every point of a record, one point
    at a time: log C(2J, J - m) - 2J log 2 + 4 M eta m Xi - 2 M eta m^2 t,
    shifted by its largest, then exponentiated and summed with ``math.fsum``.
    Xi, the sum of d_xi over the steps before the point, is summed exactly and
    rounded once."""
    two_j = round(2 * p.j_total)
    ms = [p.j_total - k for k in range(two_j + 1)]
    log_prior = [math.log(math.comb(two_j, k)) - two_j * math.log(2.0) for k in range(two_j + 1)]
    c = 2.0 * p.meas_strength * p.efficiency
    xi = Fraction(0)
    means, variances = [], []
    for k, t in enumerate(np.asarray(times).tolist()):
        x = float(xi)
        logs = [lp + 2.0 * c * m * x - c * m * m * t for lp, m in zip(log_prior, ms)]
        top = max(logs)
        w = [math.exp(v - top) for v in logs]
        z = math.fsum(w)
        mean = math.fsum(wi * m for wi, m in zip(w, ms)) / z
        means.append(mean)
        variances.append(math.fsum(wi * (m - mean) ** 2 for wi, m in zip(w, ms)) / z)
        if k < len(d_xi):
            xi += Fraction(float(d_xi[k]))
    return means, variances


def closed_form_compare(p, grid, seed) -> DeviationSeries:
    """``compare_to_gaussian`` from ``closed_form_moments``: the gaps on the same record."""
    record = simulate_trajectory(p, grid, seed)
    mean, var = closed_form_moments(p, record.times, record.d_xi)
    return DeviationSeries(times=record.times, d_mean=np.abs(mean - record.mean_jz),
                           d_var=np.abs(var - record.var_jz), j_total=p.j_total)


def read_deviation(path, j_total: float) -> DeviationSeries:
    """An ``oracle_deviation.csv`` back as a ``DeviationSeries``."""
    t, d_mean, d_var = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    return DeviationSeries(times=t, d_mean=d_mean, d_var=d_var, j_total=j_total)


def deviation_mismatch(a: DeviationSeries, b: DeviationSeries) -> float:
    """The largest gap difference between two series on one grid, the mean's in units
    of sqrt(J/2) and the variance's in J/2 (inf if the times differ)."""
    if not np.array_equal(a.times, b.times):
        return math.inf
    half = a.j_total / 2.0
    return max(float(np.max(np.abs(a.d_mean - b.d_mean))) / math.sqrt(half),
               float(np.max(np.abs(a.d_var - b.d_var))) / half)
