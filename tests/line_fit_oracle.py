"""Plain reference forms of the line fit's bin rule, checkpoint search and
estimate: the greedy loop over every step that ``bin_edge_indices`` must
reproduce, an argmin over candidate indices, and the binned-rate slope
that ``line_fit_weights`` folds into per-step weights.  Shared by the unit
and acceptance tests."""

import numpy as np


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
