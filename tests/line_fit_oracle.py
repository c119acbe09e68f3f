"""Plain reference forms of the line fit's bin rule, checkpoint search and
estimate: the greedy loop over every step that ``bin_edge_indices`` must
reproduce, an argmin over candidate indices, the binned-rate slope that
``line_fit_weights`` folds into per-step weights, and the line fit over one
stored record that the ensemble engine's readout must reproduce, and the
engine's line-fit columns built from every checkpoint's own bin edges.
Shared by the unit, Monte Carlo and acceptance tests."""

import warnings

import numpy as np

from qkfmag.estimators import bin_edge_indices, line_fit_weights


def greedy_bin_edges(times: np.ndarray, n_end: int) -> np.ndarray:
    """Bin edges over [0, t(n_end)] by a greedy pass over every step."""
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


def nearest_indices(times: np.ndarray, candidates: np.ndarray, wanted) -> tuple:
    """Sorted distinct candidates nearest to the wanted times, the first on a tie."""
    return tuple(sorted({int(candidates[np.argmin(np.abs(times[candidates] - t))])
                         for t in wanted}))


def nearest_grid_indices(grid, wanted) -> tuple:
    """Grid indices in (0, n_steps] nearest to the wanted times, bin edges or not."""
    return nearest_indices(grid.times, np.arange(1, len(grid.times)), wanted)


def binned_rate_estimate(times: np.ndarray, d_xi: np.ndarray, n_end: int, gamma_j: float) -> float:
    """Slope of the binned record rates against the bin midpoints, over gamma J."""
    edges = greedy_bin_edges(times, n_end)
    te = times[edges]
    xi = np.concatenate([[0.0], np.cumsum(d_xi[:n_end])])
    rates = np.diff(xi[edges]) / np.diff(te)
    x = 0.5 * (te[:-1] + te[1:])
    xc = x - x.mean()
    return float(np.dot(xc, rates) / np.dot(xc, xc)) / gamma_j


def regression_estimate(record, p, t_end: float) -> float:
    """Field estimate from the slope of a line fit to the record rate over [0, t_end].

    See ``line_fit_weights``.
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
    w = line_fit_weights(times, n_end, p.gamma * p.j_total)
    return float(w @ record.d_xi[:n_end])


def per_checkpoint_line_fit_weights(times: np.ndarray, checkpoints: np.ndarray, gamma_j: float):
    """The engine's line-fit columns and readout, each checkpoint's bins built and compared in full."""
    n = int(checkpoints[-1])
    edges = bin_edge_indices(times, n)
    te = times[edges]
    mid = 0.5 * (te[:-1] + te[1:])
    per_bin = np.diff(edges)
    cols = [np.repeat(1.0 / np.diff(te), per_bin), np.repeat(mid / np.diff(te), per_bin)]
    read = np.zeros((len(checkpoints), 2 + len(checkpoints)))
    for i, c in enumerate(checkpoints.tolist()):
        own = bin_edge_indices(times, c)
        nb = len(own) - 1
        if np.array_equal(own, edges[:nb + 1]):
            sx = mid[:nb].sum()
            denom = (mid[:nb] ** 2).sum() - sx * sx / nb
            read[i, :2] = -sx / nb / denom / gamma_j, 1.0 / denom / gamma_j
            continue
        cols.append(np.zeros(n))
        cols[-1][:c] = line_fit_weights(times, c, gamma_j)
        read[i, len(cols) - 1] = 1.0
    return np.array(cols), read[:, :len(cols)]
