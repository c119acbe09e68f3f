"""Plain reference forms of the line fit and the checkpoint search: the
weighted least-squares line through one stored record's per-step rates,
by ``np.polyfit``, which the ensemble engine's readout must reproduce, and
an argmin over the grid points.  Shared by the unit, Monte Carlo
and acceptance tests."""

import warnings

import numpy as np


def nearest_grid_indices(grid, wanted) -> tuple:
    """Sorted distinct grid indices in (0, n_steps] nearest to the wanted times, lower on a tie."""
    pts = grid.times[1:]
    return tuple(sorted({int(np.argmin(np.abs(pts - t))) + 1 for t in wanted}))


def regression_estimate(record, p, t_end: float) -> float:
    """Field estimate from the slope of a line fit to the record rate over [0, t_end].

    Each step's rate d_xi/dt is one point at the step's midpoint, with
    weight dt (polyfit's w = sqrt(dt) weighs the unsquared residuals); the
    slope over gamma J is the estimate.
    """
    times = record.times
    if t_end > times[-1] * (1.0 + 1e-9):
        raise ValueError("t_end exceeds the record duration")
    if p.meas_strength * t_end > 0.5:
        warnings.warn("M * t_end > 0.5: Bloch decay biases the line-fit estimate",
                      stacklevel=2)
    n_end = int(np.searchsorted(times, t_end * (1.0 + 1e-12), side="right") - 1)
    if n_end < 3:
        raise ValueError("regression needs at least 3 points")
    dts = np.diff(times[:n_end + 1])
    mid = 0.5 * (times[:n_end] + times[1:n_end + 1])
    slope = np.polyfit(mid, record.d_xi[:n_end] / dts, 1, w=np.sqrt(dts))[0]
    return float(slope) / (p.gamma * p.j_total)
