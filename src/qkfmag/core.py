"""Physical parameters, unit conventions, time grids, the CSV writer, forked workers.

Internal units are SI seconds and gauss throughout.  The gyromagnetic
ratio is stored *angular* (rad s^-1 G^-1); lab-style inputs quoted in
kHz/mG are cycle frequencies and must be converted with
:func:`gamma_from_cycles` at the boundary.

``prior_b_variance`` may be ``math.inf``, a distinguished value meaning
"no prior knowledge of the field"; estimators handle it in information
form rather than as a large float.

``forked_map`` is the one home of process parallelism: the ensemble's
blocks and the simulated record's CSV rows both run through it, in
children forked from the calling process, and come back in task order.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

INFINITE = math.inf

# 1 kHz/mG (cycles) = 1e6 Hz/G = 2*pi*1e6 rad s^-1 G^-1
_CYCLES_KHZ_PER_MG_TO_ANGULAR = 2.0 * math.pi * 1.0e6


@dataclass(frozen=True)
class PhysicalParams:
    """Experiment definition for a continuously measured spin ensemble.

    j_total          collective spin J (dimensionless)
    gamma            gyromagnetic ratio, angular, rad s^-1 G^-1
    b_true           applied field, G
    meas_strength    measurement strength M, s^-1
    efficiency       detector efficiency eta, in (0, 1]
    prior_b_variance prior field variance, G^2 (may be INFINITE)
    t_total          total measurement time, s

    Construction runs ``validate_params``, so ``dataclasses.replace`` does too.
    """

    j_total: float
    gamma: float
    b_true: float
    meas_strength: float
    efficiency: float
    prior_b_variance: float
    t_total: float

    def __post_init__(self):
        validate_params(self)


def validate_params(p: PhysicalParams) -> PhysicalParams:
    """Return ``p`` unchanged iff every invariant holds.

    All violations are reported together, by field name.
    """
    problems = []
    if not (p.j_total > 0):
        problems.append("j_total: collective spin must be positive")
    if not (p.gamma > 0):
        problems.append("gamma: gyromagnetic ratio must be positive")
    if not (p.meas_strength > 0):
        problems.append("meas_strength: measurement strength must be positive")
    if not (0.0 < p.efficiency <= 1.0):
        problems.append("efficiency: efficiency must be in (0,1]")
    if not (p.prior_b_variance >= 0):  # inf passes
        problems.append("prior_b_variance: prior variance must be >= 0 or INFINITE")
    if not (p.t_total > 0):
        problems.append("t_total: total time must be positive")
    if not all(
        math.isfinite(x)
        for x in (p.j_total, p.gamma, p.b_true, p.meas_strength, p.efficiency, p.t_total)
    ):
        problems.append("finite: all fields except prior_b_variance must be finite")
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(problems))
    return p


def gamma_from_cycles(value_khz_per_mg: float) -> float:
    """Convert a cycle-frequency gyromagnetic ratio (kHz/mG) to angular rad s^-1 G^-1."""
    if not value_khz_per_mg > 0:
        raise ValueError("gamma must be positive")
    return _CYCLES_KHZ_PER_MG_TO_ANGULAR * value_khz_per_mg


def larmor_frequency(p: PhysicalParams) -> float:
    """Precession frequency gamma*B, rad/s."""
    return p.gamma * p.b_true


def t2_bound(p: PhysicalParams) -> float:
    """Upper bound 2/M on the transverse coherence time, s."""
    return 2.0 / p.meas_strength


def collapse_rate(p: PhysicalParams) -> float:
    """Measurement-induced variance collapse rate 2*eta*M*J, s^-1.

    Fastest timescale in the model: the conditional variance halves
    after 1/collapse_rate of measurement.
    """
    return 2.0 * p.efficiency * p.meas_strength * p.j_total


class TimeGrid:
    """Strictly increasing time grid starting at 0.

    The bulk of the grid is uniform with spacing ``dt``.  An optional
    geometric (log-dense) prefix resolves the early variance collapse:
    at large J no affordable uniform step can follow the first instants
    of the squeezing transient, while geometric spacing tracks its 1/t
    slowdown with a constant per-step cost.
    """

    __slots__ = ("dt", "n_steps", "prefix", "_times")

    def __init__(self, dt: float, n_steps: int, prefix=()):
        if not dt > 0:
            raise ValueError("dt must be positive")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self.prefix = np.asarray(prefix, dtype=float)
        k = self.prefix.size
        # one array filled in place: freed grid-length float temporaries stay on the heap
        self._times = t = np.arange(-k, self.n_steps + 1, dtype=float)
        t[0] = 0.0
        t[1:k + 1] = self.prefix
        uniform = t[k + 1:]  # 1, 2, ..., n_steps, then start + dt * that
        uniform *= self.dt
        uniform += self.prefix[-1] if k else 0.0
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("grid points must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def t_total(self) -> float:
        return float(self._times[-1])

    @property
    def n_intervals(self) -> int:
        return len(self._times) - 1

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self._times, other._times)

    def __repr__(self):
        return (f"TimeGrid(dt={self.dt:g}, n_steps={self.n_steps}, "
                f"prefix_len={self.prefix.size}, t_total={self.t_total:g})")

    @classmethod
    def uniform(cls, dt: float, n_steps: int) -> "TimeGrid":
        return cls(dt, n_steps)

    @classmethod
    def with_prefix(cls, dt: float, t_total: float, t_first: float, ratio: float) -> "TimeGrid":
        """Geometric prefix from ``t_first`` until steps reach ``dt``, then uniform to ``t_total``."""
        if not (0 < t_first < t_total):
            raise ValueError("t_first must be in (0, t_total)")
        if not ratio > 1:
            raise ValueError("ratio must exceed 1")
        pts = [t_first]
        while pts[-1] * (ratio - 1.0) < dt and pts[-1] * ratio < 0.5 * t_total:
            pts.append(pts[-1] * ratio)
        start = pts[-1]
        n = max(1, int(math.ceil((t_total - start) / dt - 1e-9)))
        return cls(dt=(t_total - start) / n, n_steps=n, prefix=pts)


@dataclass(frozen=True)
class GridConfig:  # the config's grid section, and the one statement of make_grid's defaults
    dt: float | None = None
    log_prefix: str | bool = "auto"
    prefix_ratio: float = 1.2
    prefix_safety: float = 0.2


def make_grid(p: PhysicalParams, dt: float | None = GridConfig.dt,
              prefix: str | bool = GridConfig.log_prefix,
              prefix_ratio: float = GridConfig.prefix_ratio,
              prefix_safety: float = GridConfig.prefix_safety) -> TimeGrid:
    """Default grid for ``p``: uniform dt <= 1e-3/M, log prefix when needed.

    The prefix is enabled automatically once ``collapse_rate * dt``
    exceeds ``prefix_safety``; its first point is placed at
    ``prefix_safety / collapse_rate`` so every early step stays well
    inside the collapse timescale.
    """
    if dt is None:
        dt = 1.0e-3 / p.meas_strength
    lam = collapse_rate(p)
    want_prefix = prefix is True or (prefix == "auto" and lam * dt > prefix_safety)
    if want_prefix:
        t_first = prefix_safety / lam
        if t_first < dt:
            return TimeGrid.with_prefix(dt, p.t_total, t_first, prefix_ratio)
    n = max(1, int(round(p.t_total / dt)))
    return TimeGrid(dt=p.t_total / n, n_steps=n)


def with_spin(p: PhysicalParams, j_total: float) -> PhysicalParams:
    return replace(p, j_total=j_total)


CSV_BLOCK_ROWS = 512  # rows formatted per write: bounds the writer's string temporaries
SCAN_BLOCK = 4096  # steps per tolist() block of a scalar recurrence: bounds its Python floats


def csv_fields(column, a: int, b: int) -> list:
    """Rows [a, b) of a ``write_csv`` column as fields: the shortest round-trip repr of
    each float, a str as is, and an empty field past the column's end."""
    part = column[a:b] if isinstance(column, list) else list(map(repr, column[a:b].tolist()))
    return part + [""] * (b - a - len(part))


def csv_rows(fields: list) -> str:
    """Comma-separated rows, each ending in "\\r\\n", from equally long per-column fields."""
    return "\r\n".join(map(",".join, zip(*fields))) + "\r\n"


def write_csv(fobj, header, columns) -> None:
    """Write ``columns`` under ``header`` as comma-separated rows ending in "\\r\\n".

    A float array-like column is written as the shortest round-trip repr of
    each value, a list-of-str column as is; a shorter column is padded with
    empty fields.  No field is quoted: none holds ``,``, ``"`` or a line break.
    """
    cols = [c if isinstance(c, list) and c and isinstance(c[0], str)
            else np.asarray(c, dtype=float) for c in columns]
    n = max(len(c) for c in cols)
    fobj.write(",".join(header) + "\r\n")
    for a in range(0, n, CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, n)
        fobj.write(csv_rows([csv_fields(c, a, b) for c in cols]))


# ---------------------------------------------------------------------------
# forked workers
# ---------------------------------------------------------------------------

class WorkerError(RuntimeError):
    """A worker forked by ``forked_map`` failed; the message names it and its exit status."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_FRAME_HEAD = 8  # bytes of a frame's length prefix


def forked_map(fn, n_tasks: int, workers: int):
    """Yield ``fn(i)``, a bytes object, for i = 0 .. n_tasks - 1 in task order.

    n = min(workers, n_tasks) children are forked: they inherit everything
    ``fn`` reads, so nothing is pickled.  Child k runs tasks k, k + n, ...
    and writes each result to its own pipe as one length-prefixed frame; the
    parent reads the frames round-robin, in task order.  A child waits only
    for the parent to drain its own pipe, never another child's, and the
    parent holds one frame at a time.  A child that fails prints its traceback
    and exits 1, and the parent raises ``WorkerError`` naming it.  Whatever
    stops the parent, a consumer closing this generator early included, it
    kills and reaps every child it has not reaped.  With one worker or one
    task, or without ``os.fork``, the tasks run in this process.
    """
    n = min(workers, n_tasks)
    if n < 2 or not hasattr(os, "fork"):
        yield from map(fn, range(n_tasks))
        return
    kids = {}  # pid -> the read end of its pipe, for each child not yet reaped, in fork order
    sys.stdout.flush()  # nothing buffered is inherited, so nothing is written twice
    sys.stderr.flush()
    try:
        for k in range(n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(fn, range(k, n_tasks, n), w, [r, *(f.fileno() for f in kids.values())])
            os.close(w)
            kids[pid] = os.fdopen(r, "rb")
        pids = list(kids)
        for i in range(n_tasks):
            f = kids[pids[i % n]]
            head = f.read(_FRAME_HEAD)
            size = int.from_bytes(head, "little")
            frame = f.read(size)
            if len(head) < _FRAME_HEAD or len(frame) < size:  # the child stopped short
                _reap(kids, pids, i % n, failed=True)
            yield frame
        for k in range(n):
            _reap(kids, pids, k)
    finally:
        import signal  # ~1 ms to import: only where workers are forked

        for pid, f in kids.items():
            os.kill(pid, signal.SIGKILL)  # before the close: a child never sees a broken pipe
            f.close()
            os.waitpid(pid, 0)


def _reap(kids: dict, pids: list, k: int, failed: bool = False) -> None:
    """Close worker k's pipe and reap it; ``WorkerError`` if it exited non-zero or ``failed``."""
    pid = pids[k]
    kids.pop(pid).close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or failed:
        raise WorkerError(f"worker {k} of {len(pids)} (pid {pid}) failed with exit status {code}")


def _worker(fn, tasks: range, w: int, inherited: list):
    """A forked child: close the ``inherited`` read ends, write a frame of ``fn(i)`` per task
    to ``w``, and exit: 0, or 1 after printing the traceback."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(w, "wb") as f:
            for i in tasks:
                frame = fn(i)
                f.write(len(frame).to_bytes(_FRAME_HEAD, "little"))
                f.write(frame)
                f.flush()  # the parent may be waiting for this frame
        code = 0
    except Exception:
        import traceback  # ~4 ms to import: only for a failed task

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
