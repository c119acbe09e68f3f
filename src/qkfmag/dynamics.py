"""Conditional Gaussian spin trajectories and the homodyne record.

The conditional state of the ensemble is Gaussian: mean <Jz>_c diffuses
and precesses, while the conditional variance <dJz^2> shrinks
deterministically (conditional squeezing) with the exact closed form

    var(t) = (J/2) / (1 + 2 eta M J t).

One Wiener increment per step drives *both* the mean update and the
photocurrent; decorrelating them would destroy the optimality of the
filter built on this record.

Per-step coefficients are evaluated from closed forms over the step
rather than frozen at its left edge: the diffusion amplitude uses the
geometric mean of the endpoint variances, which reproduces the exact
increment variance var(t) - var(t+dt) on any grid (it reduces to the
midpoint value when steps are short), and the precession drift uses the
exact step average of the Bloch decay envelope.
"""

from __future__ import annotations

import math
import warnings
from contextlib import closing
from typing import NamedTuple

import numpy as np

from .core import (
    CSV_BLOCK_ROWS,
    SCAN_BLOCK,
    PhysicalParams,
    TimeGrid,
    as_cells,
    collapse_rate,
    forked_map,
    format_floats,
    larmor_frequency,
    record_gain,
)
from .rng import SeedSpec


def conditional_variance(p: PhysicalParams, t):
    """Conditional variance <dJz^2>(t); J/2 at t=0, ~1/(4 eta M t) late."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = (p.j_total / 2.0) / (1.0 + collapse_rate(p) * t)
    return float(out) if out.ndim == 0 else out


def bloch_length(p: PhysicalParams, t):
    """Bloch vector length J(t) = J exp(-M t / 2)."""
    t = np.asarray(t, dtype=float)
    out = p.j_total * np.exp(-p.meas_strength * t / 2.0)
    return float(out) if out.ndim == 0 else out


def step_coefficients(p: PhysicalParams, times: np.ndarray):
    """Per-interval coefficients for a grid ``times``: the one step geometry.

    Returns (phi12, g) where, over step k = [t_k, t_{k+1}]:
      phi12[k] = gamma J * avg(exp(-M s/2)) * dt_k   (precession per unit field)
      g[k]     = 2 sqrt(M eta) * sqrt(var(t_k) var(t_{k+1}))  (diffusion amplitude)
    The deterministic mean shift is b_true * phi12, and
    Var(mean increment) = g^2 dt = var(t_k) - var(t_{k+1}) exactly.
    One formula over all of ``times``: the passes hand it one block at a time.
    """
    t0, dts = times[:-1], np.diff(times)
    x = p.meas_strength * dts / 2.0
    # avg of exp(-M s/2) over the step, (e0 - e1) / x, without cancelling e0 - e1
    ebar = np.exp(-p.meas_strength * t0 / 2.0) * -np.expm1(-x) / x
    v = conditional_variance(p, times)
    return p.gamma * p.j_total * ebar * dts, record_gain(p) * np.sqrt(v[:-1] * v[1:])


class TrajectoryRecord(NamedTuple):
    """A measurement record over steps [s, e) of a grid: the whole grid's from
    ``simulate_trajectory``, one block's from ``_record_block``.

    ``times``, ``mean_jz``, ``var_jz`` and ``bloch`` are sampled at points
    s..e; ``y``, ``d_xi`` and ``noise`` (the dW draws, retained for oracle
    replay) belong to the steps.  At every step
    d_xi[k] = mean_jz[k] * dt[k] + dW[k] / (2 sqrt(M eta)).
    """

    times: np.ndarray
    mean_jz: np.ndarray
    var_jz: np.ndarray
    bloch: np.ndarray
    y: np.ndarray
    d_xi: np.ndarray
    noise: np.ndarray

    def to_csv(self, fobj, workers: int = 1) -> None:
        """Columns: t, mean_jz, var_jz, bloch_length, y, d_xi (step columns blank on the last row).

        ``fobj`` is binary.  Each ``SCAN_BLOCK`` block of rows is one task of
        ``forked_map`` on ``workers``; the bytes do not depend on either.
        """
        def block(j):
            s = j * SCAN_BLOCK  # the slices stop at the record's end
            return TrajectoryRecord(*(c[s:s + SCAN_BLOCK + 1] for c in self[:4]),
                                    *(c[s:s + SCAN_BLOCK] for c in self[4:])), None

        _write_record(fobj, None, block, len(self.y), len(self.y), workers)


def _record_block(p: PhysicalParams, grid: TimeGrid, s: int, m: float, gen) -> TrajectoryRecord:
    """The record over steps [s, min(s + ``SCAN_BLOCK``, n)) of ``grid``, from the
    mean ``m`` at point s: the one block step of every record.

    The block forms its own points of the grid.  ``gen`` draws the block's
    normals (None: dW = 0), so successive blocks from one generator draw the
    stream of one whole-grid draw.
    """
    e = min(s + SCAN_BLOCK, grid.n_intervals)
    t = grid.points(np.arange(s, e + 1))
    dts = np.diff(t)
    drift, g_sqdt = step_coefficients(p, t)
    drift *= p.b_true
    z = np.zeros(e - s) if gen is None else gen.standard_normal(e - s)
    sq = np.sqrt(dts)
    g_sqdt *= sq
    sums = np.empty(2 * (e - s) + 1)  # m + d_0 + g_0 z_0 + d_1 + ..., summed left to right
    sums[0] = m
    sums[1::2] = drift
    np.multiply(g_sqdt, z, out=sums[2::2])
    mean = np.cumsum(sums, out=sums)[::2]  # m_(k+1) = (m_k + d_k) + g_k z_k, rounded in order
    d_xi = mean[:-1] * dts + 1.0 / record_gain(p) * sq * z  # the record uses the pre-step mean
    y = d_xi * (2.0 * p.efficiency * math.sqrt(p.meas_strength)) / dts
    return TrajectoryRecord(t, mean, conditional_variance(p, t), bloch_length(p, t), y, d_xi, sq * z)


def _record_blocks(p: PhysicalParams, grid: TimeGrid, seed: SeedSpec, zero_noise: bool):
    """Yield (s, the generator's state at s, the mean at point s, the record from s) per
    ``SCAN_BLOCK`` block, in order: the one block loop of every record.  Warns first if
    the small-angle model is marginal; one generator draws every block's normals."""
    wl_t = abs(larmor_frequency(p)) * grid.t_total
    if wl_t > 0.1:  # stacklevel 3: the caller of the function iterating this
        warnings.warn(f"omega_L * t_total = {wl_t:.3g} > 0.1: small-angle model is marginal",
                      stacklevel=3)
    gen = None if zero_noise else seed.generator()
    m = 0.0
    for s in range(0, grid.n_intervals, SCAN_BLOCK):
        state = None if gen is None else gen.bit_generator.state
        block = _record_block(p, grid, s, m, gen)
        yield s, state, m, block
        m = float(block.mean_jz[-1])


def simulate_trajectory(p: PhysicalParams, grid: TimeGrid, seed: SeedSpec,
                        zero_noise: bool = False) -> TrajectoryRecord:
    """Generate one conditional trajectory and its measurement record.

    Deterministic in (p, grid, seed).  ``zero_noise`` forces dW = 0
    (debug mode: pure drift).  One pass of ``_record_blocks`` fills the
    record's arrays: no grid-length temporaries.
    """
    n = grid.n_intervals
    rec = TrajectoryRecord(grid.times, *(np.empty(n + 1) for _ in range(3)),
                           *(np.empty(n) for _ in range(3)))
    for s, _, _, block in _record_blocks(p, grid, seed, zero_noise):
        for col, part in zip(rec[1:], block[1:]):
            col[s:s + len(part)] = part
    return rec


class RecordStream:
    """One trajectory's record, held as the start of each ``SCAN_BLOCK`` block.

    ``blocks`` runs the record once and keeps each block's start: the
    generator's state, the mean and the low-pass accumulator.  ``to_csv``
    then writes what ``TrajectoryRecord.to_csv`` writes for the whole record,
    and its low-passed photocurrent, each forked task regenerating one block
    from its start with ``block``.  So no array longer than a block is
    formed, not even the grid's times: each block forms its own points.
    """

    def __init__(self, p: PhysicalParams, grid: TimeGrid, seed: SeedSpec, zero_noise: bool = False):
        self.params, self.grid, self.seed, self.zero_noise = p, grid, seed, zero_noise
        self.n = grid.n_intervals
        self.n_pref = self.n - grid.n_steps  # the photocurrent's first step
        self.starts = []  # (generator state, mean, low-pass accumulator) per block
        # the display low-pass cutoff: 2 pi sqrt(J)/t_total read as rad/s, in Hz
        self.cutoff_hz = math.sqrt(p.j_total) / p.t_total

    def blocks(self):
        """Yield the record's ``TrajectoryRecord`` blocks in order, keeping the start of each."""
        acc = 0.0
        self.starts = []
        for s, state, m, b in _record_blocks(self.params, self.grid, self.seed, self.zero_noise):
            self.starts.append((state, m, acc))
            tail = b.y[max(self.n_pref - s, 0):]  # the steps the photocurrent reads
            if len(tail):
                acc = float(lowpass_filter(tail, self.grid.dt, self.cutoff_hz, acc)[-1])
            yield b

    def block(self, j: int) -> tuple:
        """Block j, regenerated from its start, and its low-passed photocurrent:
        y_filtered over its steps from ``n_pref`` on."""
        state, m, acc = self.starts[j]
        s = j * SCAN_BLOCK
        gen = None if state is None else self.seed.generator()  # only noise has a state
        if gen is not None:
            gen.bit_generator.state = state
        b = _record_block(self.params, self.grid, s, m, gen)
        return b, lowpass_filter(b.y[max(self.n_pref - s, 0):], self.grid.dt, self.cutoff_hz, acc)

    def to_csv(self, fobj, pc, workers: int = 1) -> None:
        """Once ``blocks`` has run to the end: ``TrajectoryRecord.to_csv``'s bytes to
        ``fobj`` and to ``pc`` the photocurrent's t, y and y_filtered over the
        grid's uniform tail, from the same formatted t and y fields."""
        _write_record(fobj, pc, self.block, self.n, self.n_pref, workers)


def _write_record(fobj, pc, block, n: int, n_pref: int, workers: int) -> None:
    """Write a record of n steps to ``fobj`` and, unless ``pc`` is None, its photocurrent
    from step ``n_pref`` on to ``pc``: ``_record_task``'s frames, in block order."""
    fobj.write(b"t,mean_jz,var_jz,bloch_length,y,d_xi\r\n")
    if pc is not None:
        pc.write(b"t,y,y_filtered\r\n")
    # closed on any error here (a full disk, say): that kills and reaps the workers
    with closing(forked_map(lambda j: _record_task(block, n, n_pref, j), -(-n // SCAN_BLOCK),
                            workers)) as frames:
        for frame in frames:
            view = memoryview(frame)
            split = 8 + int.from_bytes(view[:8], "little")
            fobj.write(view[8:split])
            if pc is not None:
                pc.write(view[split:])


# the separators after t, mean_jz, var_jz, bloch_length, y, d_xi and y_filtered
_RECORD_SEPS = [b","] * 5 + [b"\r\n"] * 2


def _record_task(block, n: int, n_pref: int, j: int) -> bytes:
    """The rows of ``SCAN_BLOCK`` block j [s, e) of a record's files: points s..e - 1,
    and point n too if e = n.

    ``block(j)`` gives the block's ``TrajectoryRecord`` and y_filtered over its
    steps from ``n_pref`` on.  Both files' rows are cut from one ``format_floats``
    call per ``CSV_BLOCK_ROWS`` rows of the seven columns, so each float is
    formatted once: the trajectory's from columns 0-5 (point n's step cells bare
    separators), after their length as 8 bytes, then the photocurrent's from t,
    y and y_filtered.
    """
    rec, y_filtered = block(j)
    steps = len(rec.y)
    rows = steps + (j * SCAN_BLOCK + steps == n)  # point n's step fields are blank
    first = max(n_pref - j * SCAN_BLOCK, 0)  # the row of y_filtered[0]
    table = np.zeros((rows, 7))
    for col, points in enumerate(rec[:4]):
        table[:, col] = points[:rows]
    table[:steps, 4] = rec.y
    table[:steps, 5] = rec.d_xi
    table[first:steps, 6] = y_filtered
    traj, photo = [], []
    for a in range(0, rows, CSV_BLOCK_ROWS):
        cells = format_floats(table[a:a + CSV_BLOCK_ROWS], _RECORD_SEPS)
        if a + CSV_BLOCK_ROWS >= rows > steps:
            cells[-1, 4:6] = as_cells(_RECORD_SEPS[4:6])
        part = cells[:, :6]
        traj.append(part[part != 0].tobytes())
        part = cells[max(first - a, 0):steps - a][:, (0, 4, 6)]
        photo.append(part[part != 0].tobytes())
    head = b"".join(traj)
    return len(head).to_bytes(8, "little") + head + b"".join(photo)


def reconstruct_noise(record, p: PhysicalParams) -> np.ndarray:
    """Invert the record: dW = ``record_gain`` (d_xi - mean_jz dt), formed in one array."""
    dw = np.diff(record.times)
    np.multiply(record.mean_jz[:-1], dw, out=dw)
    np.subtract(record.d_xi, dw, out=dw)
    dw *= record_gain(p)
    return dw


def noise_mismatch(record, p: PhysicalParams) -> tuple:
    """The record_consistency terms of ``record``, a whole ``TrajectoryRecord`` or a block:
    (max |reconstructed dW - stored dW|, the most it exceeds the reconstruction's
    float64 rounding at a step, max |stored dW|).

    The rounding bound per step is 2 eps c (|m dt| + |d_xi|), with c = ``record_gain``
    and eps = 2^-52 = 2u: twice what the arithmetic can reach.  The stored
    d_xi = fl(fl(m dt) + dW / c) is off by up to u |d_xi|, the reconstruction's
    d_xi - fl(m dt) rounds by up to u (|d_xi| + |m dt|) more, and c scales both.
    Where m dt swamps dW / c (large J) the subtraction cancels, and this
    rounding is the whole error.  The rest, a few u |dW|, stays relative to dW.
    """
    c = record_gain(p)
    dw = np.abs(reconstruct_noise(record, p) - record.noise)
    m_dt = np.abs(record.mean_jz[:-1] * np.diff(record.times))
    bound = 2.0 * np.finfo(float).eps * c * (m_dt + np.abs(record.d_xi))
    return float(dw.max()), float((dw - bound).max()), float(np.abs(record.noise).max())


def lowpass_filter(y: np.ndarray, dt: float, cutoff_hz: float, start: float = 0.0) -> np.ndarray:
    """Causal single-pole IIR low-pass with -3 dB point at ``cutoff_hz``.

    Requires a uniform sample spacing ``dt``.  ``start`` is the output
    before y[0]: a filter run on from where an earlier run over the samples
    before y ended gives that whole run's output, bit for bit.
    """
    if not cutoff_hz > 0:
        raise ValueError("cutoff must be positive")
    omega = 2.0 * math.pi * cutoff_hz
    alpha = 1.0 - math.exp(-omega * dt)
    acc = start  # Python floats, over the samples it is handed
    return np.array([acc := acc + alpha * (v - acc) for v in np.asarray(y, dtype=float).tolist()])
