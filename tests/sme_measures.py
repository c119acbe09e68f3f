"""Test-side measures of the dense SME oracle: the density-matrix invariants,
the positivity floor their check allows, and the variance-gap score of a
``DeviationSeries``.  Shared by the unit and acceptance tests."""

import numpy as np

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
