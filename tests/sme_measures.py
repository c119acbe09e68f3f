"""Test-side measures of the dense SME oracle: the density-matrix invariants,
the positivity floor their check allows, the variance-gap score of a
``DeviationSeries``, and the whole-matrix B = 0 loop that the populations
path of ``compare_to_gaussian`` must match bit for bit.  Shared by the unit
and acceptance tests."""

import math

import numpy as np

from qkfmag.dynamics import simulate_trajectory
from qkfmag.sme_oracle import DeviationSeries, build_spin_operators, coherent_spin_state_x, \
    oracle_moments

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


def dense_step(r: np.ndarray, ops, p, dt: float, dW: float) -> np.ndarray:
    """The B = 0 Euler-Maruyama step on the whole density matrix, its record term
    formed even at dW = 0, then renormalized: the reference arithmetic of
    ``sme_step``, kept apart from it."""
    mz = float((ops.m * r.diagonal().real).sum())
    m = p.meas_strength
    new = r + m * dt * ops.dephase * r \
        + math.sqrt(m * p.efficiency) * dW * (ops.msum * r - 2.0 * mz * r)
    return new / float(new.trace().real)


def dense_compare(p, grid, seed) -> DeviationSeries:
    """``compare_to_gaussian`` as the dense loop: ``dense_step`` on the whole
    matrix from the coherent state, ``oracle_moments`` read at every point."""
    record = simulate_trajectory(p, grid, seed)
    times = grid.times
    ops = build_spin_operators(p.j_total)
    rho = coherent_spin_state_x(ops)
    n = len(times) - 1
    d_mean = np.empty(n + 1)
    d_var = np.empty(n + 1)
    mz, vz = oracle_moments(rho, ops)
    d_mean[0] = abs(mz - record.mean_jz[0])
    d_var[0] = abs(vz - record.var_jz[0])
    for k in range(n):
        rho = dense_step(rho, ops, p, float(times[k + 1] - times[k]), float(record.noise[k]))
        mz, vz = oracle_moments(rho, ops)
        d_mean[k + 1] = abs(mz - record.mean_jz[k + 1])
        d_var[k + 1] = abs(vz - record.var_jz[k + 1])
    return DeviationSeries(times=times, d_mean=d_mean, d_var=d_var, j_total=p.j_total)
