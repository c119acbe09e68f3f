"""Physical parameters, unit conventions, time grids, the float formatter and the CSV
writer, forked workers.

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

import functools
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

    The grid stores ``dt``, ``n_steps`` and the prefix, and ``points`` forms
    any of its points from them.  ``times``, the whole grid, is formed on
    first use and kept: no command asks for it on a large grid.
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
        self._times = None
        n = self.n_intervals
        for s in range(0, n, SCAN_BLOCK):  # each block's points and the next block's first
            t = self.points(np.arange(s, min(s + SCAN_BLOCK, n) + 1))
            if not np.all(t[1:] > t[:-1]):
                raise ValueError("grid points must be strictly increasing")

    def points(self, index) -> np.ndarray:
        """``times[index]`` for integer indices in [0, n], formed here (a range is
        ``points(np.arange(a, b))``).

        With k prefix points: 0.0 at point 0, the prefix at points 1..k, and
        float(i - k) * dt + start at point i >= k, start the prefix's last point
        (0.0 without a prefix).
        """
        i = np.asarray(index)
        k = self.prefix.size
        t = np.array(i, dtype=float)
        t -= k  # exact: float(i - k)
        t *= self.dt
        t += self.prefix[-1] if k else 0.0
        if k and (below := i < k).any():
            t[below] = self.prefix[i[below] - 1]
            t[i == 0] = 0.0
        return t

    def nearest(self, t) -> np.ndarray:
        """The index in [1, n] of the point nearest each time, the lower on a tie (NaN: n).

        The guess, the search over points 0..k up to the prefix's end and the formula's
        inverse k + rint((t - start) / dt) past it, is compared with its two neighbours.
        """
        t = np.asarray(t, dtype=float)
        k, n = self.prefix.size, self.n_intervals
        start = self.prefix[-1] if k else 0.0
        with np.errstate(over="ignore"):  # t / dt past float64 is inf: clipped, as NaN is
            tail = np.clip(np.nan_to_num(np.rint((t - start) / self.dt), nan=n), 0, self.n_steps)
        guess = np.where(t <= start, np.searchsorted(self.points(np.arange(k + 1)), t),
                         k + tail.astype(np.int64))
        best = np.minimum(guess + 1, n)
        for i in (np.clip(guess, 1, n), np.clip(guess - 1, 1, n)):  # NaN compares false
            best = np.where(np.abs(self.points(i) - t) <= np.abs(self.points(best) - t), i, best)
        return best

    @property
    def times(self) -> np.ndarray:
        if self._times is None:
            self._times = self.points(np.arange(self.n_intervals + 1))
        return self._times

    @property
    def t_total(self) -> float:
        return float(self.points(self.n_intervals))

    @property
    def n_intervals(self) -> int:
        return self.prefix.size + self.n_steps

    def __eq__(self, other):
        return (isinstance(other, TimeGrid) and self.dt == other.dt
                and self.n_steps == other.n_steps and np.array_equal(self.prefix, other.prefix))

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


# The log prefix starts once collapse_rate * dt exceeds PREFIX_SAFETY, its first
# point at PREFIX_SAFETY / collapse_rate, so every early step resolves the
# variance collapse; each step is PREFIX_RATIO times the last until it reaches dt.
PREFIX_SAFETY = 0.2
PREFIX_RATIO = 1.2


def make_grid(p: PhysicalParams, dt: float | None = GridConfig.dt,
              prefix: str | bool = GridConfig.log_prefix) -> TimeGrid:
    """Default grid for ``p``: uniform dt <= 1e-3/M, log prefix when needed (see PREFIX_SAFETY)."""
    if dt is None:
        dt = 1.0e-3 / p.meas_strength
    lam = collapse_rate(p)
    want_prefix = prefix is True or (prefix == "auto" and lam * dt > PREFIX_SAFETY)
    if want_prefix:
        t_first = PREFIX_SAFETY / lam
        if t_first < dt:
            return TimeGrid.with_prefix(dt, p.t_total, t_first, PREFIX_RATIO)
    n = max(1, int(round(p.t_total / dt)))
    return TimeGrid(dt=p.t_total / n, n_steps=n)


def with_spin(p: PhysicalParams, j_total: float) -> PhysicalParams:
    return replace(p, j_total=j_total)


CSV_BLOCK_ROWS = 512  # rows (write_csv: cells) per format_floats call and per write: small temporaries
SCAN_BLOCK = 2048  # steps per tolist() block of a scalar recurrence and per plan chunk: bounds temporaries


# ---------------------------------------------------------------------------
# shortest round-trip floats, as repr writes them
# ---------------------------------------------------------------------------
#
# A normal double x = m 2^e (m a 53-bit integer) rounds back from any decimal
# inside [x - 2^e / 2, x + 2^e / 2]: its shortest repr is the decimal there with
# the fewest digits, and of those the one nearest x.  Scaled by 10^-k, with k
# the largest such that 10^k <= 2^e, the interval is X -+ U/2, with
# X = m U and U = 2^e 10^-k in [1, 10): it holds at least one integer and at
# most one multiple of 10.  The shortest digits are that multiple of 10 when
# it lies inside, else the integer nearest X.  U comes from a table in
# double-double (hi + lo, ~106 bits), and m U is formed exactly as a Dekker
# product plus the lo term, so X is known to ~1e-14.  Zero is digits 0 at
# decimal exponent 0.  A value whose choice lies within 1e-9 of a tie, or
# which the interval does not describe (inf, nan, subnormals, power-of-two m,
# whose interval is lopsided), is formatted by repr itself.  The text is then
# laid out at fixed places in a 32-byte cell of little-endian 64-bit words (byte 0
# the lowest), NUL bytes between its parts: the sign in byte 0, digits, point or
# "0.000" prefix in bytes 1-22, the exponent suffix in word 3 and the separator in
# bytes 30-31.  A file's bytes are the cells' non-NUL bytes, so the gaps close.

_TIE = 1e-9  # |X - a tie| below this: repr decides
_U64 = np.uint64


@functools.cache
def _format_tables():
    """The formatter's tables, built on first use (a few ms, mostly integer arithmetic):

    powers  per biased exponent: U hi, its high and low 26-bit halves, U lo, and
            k + 15, the decimal exponent of a 16-digit X's first digit (U hi is
            0 at 0 and 2047, and k + 15 is 0 at 0: zero gets digits 0 at decimal
            exponent 0, "0.0"; subnormals, inf and nan take repr)
    suffix  per decimal exponent + 309: the "e-05"-style suffix as a word (none for
            the positional exponents -4..15), and the value's layout (``_layouts``)
    layout  ``_layouts``
    """
    uh, ul, k15 = [0.0] * 2048, [0.0] * 2048, [0.0] + [15.0] * 2047
    pow5 = [1]
    for _ in range(330):
        pow5.append(pow5[-1] * 5)
    for biased in range(1, 2047):
        e = biased - 1075  # x = m 2^e
        k = (e * 78913) >> 18  # floor(e log10 2) over this range (a test checks U)
        s = 110 + e - k  # u = floor(U 2^110), exactly
        u = (1 << s) // pow5[k] if k >= 0 else pow5[-k] << s if s >= 0 else pow5[-k] >> -s
        hi = float(u)
        uh[biased], ul[biased], k15[biased] = (math.ldexp(hi, -110),
                                               math.ldexp(float(u - int(hi)), -110), k + 15)
    uh = np.array(uh)
    c = uh * 134217729.0  # Veltkamp split: 26-bit halves with exact products
    uhh = c - (c - uh)
    powers = np.stack([uh, uhh, uh - uhh, np.array(ul), np.array(k15)])
    suffix = [[0] * 618, list(range(-305, 313))]  # positional: layout e10 + 4
    for e10 in [*range(-309, -4), *range(16, 309)]:
        suffix[0][e10 + 309] = int.from_bytes(f"e{e10:+03d}".encode(), "little")
        suffix[1][e10 + 309] = 20
    return powers, np.array(suffix, np.uint64), _layouts()


def _layouts() -> np.ndarray:
    """Which digit characters a value's text keeps, and where its point goes, per layout
    and significant digit count n: column 17 layout + n - 1 of the ``layout`` table.

    The layouts are 0..19, positional with decimal exponent layout - 4, and 20,
    exponential.  A cell's first 24 bytes are (copy 1 & K) | (copy 6 & M) | C, copy s
    the digit characters d0..d16 with d(i) at byte s + i, and K, M and C the column's
    three-word masks and constants; byte 0 is left to the sign.  A text
    "d0..d(a-1).d(a).." (a = 1 when exponential) takes bytes 1..a from copy 1, its
    point at byte a + 1 and the digits after it from copy 6; a "0.000dd.." text has
    its prefix in bytes 1-5 and d0..d(n-1) from copy 6.  Built from bytes: numpy code
    not yet run would page in more than the table.
    """
    def run(lo, hi):  # bytes [lo, hi) set, of 24
        return bytes(lo) + b"\xff" * (hi - lo) + bytes(24 - max(hi, lo))

    columns = []
    for lay in range(21):
        for n in range(1, 18):
            if lay >= 4:  # d0..d(a-1) "." d(a)..: exponential (a = 1) or positional
                a = 1 if lay == 20 else lay - 3
                end = n if lay == 20 else max(n, a + 1)  # "ddd.0" when integral
                keep, move, const = run(1, 1 + a), run(6 + a, 6 + end), bytes(a + 1) + b"."
                if end == 1:  # a lone exponential digit: no point
                    const = b""
            else:  # "0." then -e10 - 1 zeros, then d0..d(n-1)
                keep, move, const = run(0, 0), run(6, 6 + n), bytes(1) + b"0." + b"0" * (3 - lay)
            columns.append(keep + move + const.ljust(24, b"\0"))
    return np.frombuffer(b"".join(columns), "<u8").reshape(-1, 9).T.copy()


def _digits8(v: np.ndarray) -> np.ndarray:
    """Each value of the uint64 array v (< 10^8) as a word of its 8 decimal digits (0-9),
    the first in byte 0: split in halves, quarters, then single digits, each lane at once."""
    w = v // _U64(10000)
    w |= (v - w * _U64(10000)) << _U64(32)
    h = w * _U64(5243)  # x // 100 = (x * 5243) >> 19 for x < 10^4
    h >>= _U64(19)
    h &= _U64(0x0000007F0000007F)
    w -= h * _U64(100)
    w <<= _U64(16)
    w |= h
    h = w * _U64(103)  # x // 10 = (x * 103) >> 10 for x < 100
    h >>= _U64(10)
    h &= _U64(0x000F000F000F000F)
    w -= h * _U64(10)
    w <<= _U64(8)
    w |= h
    return w


def _format_pass(x: np.ndarray):
    """Format the float64 values ``x`` (1-D) as 32-byte slots, each the value's repr at
    fixed places (``_layouts``) with NUL bytes between its parts, bytes 30-31 left NUL
    for a separator; and the indices of the values left to repr (whose slots are not
    filled).

    Integers are uint64 and small counts float64 throughout: each further dtype
    of a ufunc pages in more of numpy's code.
    """
    powers, suffix, layout = _format_tables()
    bits = x.view(np.uint64)
    n_val = len(bits)
    biased = bits >> _U64(52)
    biased &= _U64(2047)
    mant = bits & _U64((1 << 52) - 1)
    uh, uhh, uhl, ul, e10 = powers.take(biased.view(np.int64), axis=1)
    fallback = uh == 0  # subnormal, inf, nan (zero: cleared below)
    # X = m U = p + q: p = fl(m U hi), q the rest, by Dekker's product
    mant |= _U64(1 << 52)
    m = mant.astype(np.float64)
    fallback |= m == 2.0**52  # a power of two: its interval is lopsided
    mant &= _U64((1 << 26) - 1)
    ml = mant.astype(np.float64)
    mh = m - ml
    p = m * uh
    q = mh * uhh
    q -= p
    t = mh * uhl
    q += t
    np.multiply(ml, uhh, out=t)
    q += t
    np.multiply(ml, uhl, out=t)
    q += t
    np.multiply(m, ul, out=t)
    q += t
    # p is an integer below 2^63: carry its last digit into y = X - (p - p mod 10)
    big_p = p.astype(np.uint64)
    p_mod = big_p // _U64(10)
    p_mod *= _U64(10)
    big_p -= p_mod  # p mod 10; p_mod: p - p mod 10
    y = big_p.astype(np.float64)
    y += q
    np.multiply(y, 0.1, out=t)  # t: the multiple of 10 nearest y
    np.rint(t, out=t)
    t *= 10.0
    gap = t - y
    np.abs(gap, out=gap)
    uh *= 0.5
    inside = gap < uh
    gap -= uh
    np.abs(gap, out=gap)
    fallback |= gap < _TIE
    r = np.rint(y)
    y -= r
    np.abs(y, out=y)
    tie = y > 0.5 - _TIE
    tie &= ~inside
    fallback |= tie
    np.copyto(r, t, where=inside)
    r += 32.0  # >= 0 (y > -16, so t >= -10)
    digits = r.astype(np.uint64)
    digits += p_mod
    digits -= _U64(32)  # 16 or 17 digits
    short = (digits - _U64(10**16)) >> _U64(63)  # 1 for 16 digits, by the sign bit
    e10 += 1.0
    e10 -= short  # the decimal exponent of the first digit
    short *= _U64(9)
    short += _U64(1)
    digits *= short  # 17 digits, the first of value 10^e10
    # the digit characters: d0, then d1..d16 in two words
    d0 = digits // _U64(10**16)
    digits -= d0 * _U64(10**16)
    halves = np.empty((2, n_val), np.uint64)
    np.floor_divide(digits, _U64(10**8), out=halves[0])
    digits -= halves[0] * _U64(10**8)
    halves[1] = digits
    halves = _digits8(halves)
    top = (halves + 0.5).view(np.uint64) >> _U64(52)  # a word's last nonzero digit is in
    top -= _U64(1015)  # its top nonzero byte, read off the exponent (a 0 word reads 0.5)
    top >>= _U64(3)  # that byte's index + 1, or 0 where the word is 0
    last = np.where(top[1] != 0, top[1] + _U64(8), top[0])  # n - 1, n the significant digits
    halves |= _U64(0x3030303030303030)
    first, second = halves  # d1..d8, d9..d16
    d0 += _U64(48)
    # the cell's words, one row each: two copies of the digits, d(i) at byte 1 + i and
    # at byte 6 + i, masked and joined by the layout's column, then the sign and suffix
    words = np.empty((4, n_val), np.uint64)
    one, six = words[:3], np.empty((3, n_val), np.uint64)
    np.left_shift(first, _U64(16), out=one[0])
    one[0] |= d0 << _U64(8)
    np.right_shift(first, _U64(48), out=one[1])
    one[1] |= second << _U64(16)
    np.right_shift(second, _U64(48), out=one[2])
    np.left_shift(one, _U64(40), out=six)
    six[1:] |= one[:-1] >> _U64(24)
    e10 += 309.0
    words[3], col = suffix.take(e10.astype(np.uint64).view(np.int64), axis=1)  # col: layout
    col *= _U64(17)
    col += last
    column = layout.take(col.view(np.int64), axis=1)
    one &= column[0:3]
    six &= column[3:6]
    one |= six
    one |= column[6:9]
    one[0] |= (bits >> _U64(63)) * _U64(ord("-"))
    fallback &= x != 0.0  # +-0.0 is exact: digits 0 at decimal exponent 0
    return words.T.copy(), np.flatnonzero(fallback)


def format_floats(values, seps) -> np.ndarray:
    """The text ``repr`` gives each value of a 2-D float array, as a uint8 array of
    32-byte cells shaped (rows, columns, 32): each cell the value's ASCII bytes at
    fixed places, NUL bytes between them, and ``seps[j]`` (bytes, at most 2) in bytes
    30-31 for a value in column j.

    No field or separator holds a NUL, so ``cells[cells != 0].tobytes()`` is CSV rows
    when ``seps`` ends in b"\\r\\n".  A value the arithmetic cannot decide goes
    through ``repr`` itself, into its cell (at most 24 bytes, so before the separator).
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    rows, n_cols = x.shape
    flat = x.reshape(-1)
    slots, fallback = _format_pass(flat)
    cells = slots.view(np.uint8)
    if fallback.size:
        cells[fallback] = as_cells([repr(v).encode() for v in flat[fallback].tolist()])
    slots.reshape(rows, n_cols, 4)[:, :, 3] |= np.array(
        [int.from_bytes(s, "little") << 48 for s in seps], np.uint64)
    return cells.reshape(rows, n_cols, 32)


def as_cells(texts) -> np.ndarray:
    """Byte strings of at most 32 bytes as NUL-padded 32-byte cells, one row each."""
    cells = np.array(texts, dtype="S")
    if cells.itemsize > 32:
        raise ValueError(f"a CSV field longer than 32 bytes: {max(texts, key=len)!r}")
    return cells.astype("S32").view(np.uint8).reshape(-1, 32)


def write_csv(fobj, header, columns) -> None:
    """Write ``columns`` under ``header`` to the binary ``fobj``, as comma-separated
    rows ending in "\\r\\n".

    A float array-like column is written as the shortest round-trip repr of each
    value, a list-of-str column as is; all columns have one length.  No field is
    quoted: none holds ``,``, ``"`` or a line break.  Each pass of at most
    ``CSV_BLOCK_ROWS`` cells is one ``format_floats`` call, label cells set in place.
    """
    seps = [b","] * (len(columns) - 1) + [b"\r\n"]
    labels = {j: as_cells([s.encode() + seps[j] for s in c]) for j, c in enumerate(columns)
              if isinstance(c, list) and c and isinstance(c[0], str)}
    table = np.column_stack([np.zeros(len(c)) if j in labels else np.asarray(c, dtype=float)
                             for j, c in enumerate(columns)])
    fobj.write(",".join(header).encode() + b"\r\n")
    step = max(CSV_BLOCK_ROWS // len(columns), 1)  # CSV_BLOCK_ROWS cells a pass: wider ones raise peak RSS
    for a in range(0, len(table), step):
        cells = format_floats(table[a:a + step], seps)
        for j, label in labels.items():
            cells[:, j] = label[a:a + step]
        fobj.write(cells[cells != 0].tobytes())


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
    task, or without ``os.fork``, the tasks run in this process.  Fork only with
    a single-threaded BLAS: only ``qkfmag.cli`` sets ``OPENBLAS_NUM_THREADS``, so a library
    caller of ``run_ensemble`` or a record's ``to_csv`` keeps BLAS single-threaded itself.
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
