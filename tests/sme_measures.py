"""Test-side measures of the dense SME oracle: the positivity floor its
invariant checks allow, and the variance-gap score of a ``DeviationSeries``.
Shared by the unit and acceptance tests."""

import numpy as np


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
