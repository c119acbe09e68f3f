"""Full-Hilbert-space oracle for small J.

The conditional master equation on the (2J+1)-dimensional space,

    drho = i gamma B [Jy, rho] dt + M D[Jz] rho dt + sqrt(M eta) H[Jz] rho dW,

with D[r]rho = r rho r+ - (r+ r rho + rho r+ r)/2 and
H[r]rho = r rho + rho r+ - tr[(r + r+) rho] rho.  The Hamiltonian is
-gamma B Jy, so d<Jz>/dt = +gamma B <Jx>: the drift B phi12 of the
Gaussian model.  A Jz Hamiltonian would commute with the measured
observable and produce no precession, so the drift of <Jz> could never
appear.

At B = 0 both superoperators act elementwise in the Jz basis, and the
filter for this QND measurement of Jz (Belavkin) has a closed form: the
Jz populations given the record are the coherent state's binomial
C(2J, J - m) / 4^J times the record's likelihood
exp(4 M eta m Xi - 2 M eta m^2 t), with Xi the running sum of d_xi.  The
pathwise comparison reads the Gaussian model against this exact state on
the model's own record, with no time stepping.  The Euler-Maruyama step
of the whole density matrix serves the dephasing-law check, which reads
its coherences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, TimeGrid, write_csv
from .dynamics import simulate_trajectory
from .rng import SeedSpec

# Pathwise Gaussian-model agreement threshold for the mean, in units of
# sqrt(J/2): neglected terms are down by 1/J.  A correct model can miss it: at
# J = 10, M t = 0.1 the largest gap over a record has median 0.006, and its tail
# (the binomial prior's shape, a real 1/J effect) passes 0.05 at 15 of seeds 1-1000.
MEAN_DEVIATION_FRAC = 0.05
MAX_DENSE_J = 20.0  # largest J compared: at recommended_dt its grid has 100 M t (2J + 1)^2 steps
POSTERIOR_BLOCK = 256  # points per closed-form block: (256, 2J + 1) temporaries
# The dephasing-law check runs at J = 5, coherences |m - m'| up to 10.  At
# recommended_dt the Euler step's relative rate error is about
# M (m - m')^2 dt / 4 < 1/400, so DEPHASING_TOL leaves ample margin.
DEPHASING_J = 5.0
DEPHASING_TOL = 0.01


@dataclass(frozen=True)
class SpinOperators:
    """Dense Jx, Jy, Jz; D[Jz] and H[Jz] act elementwise in the Jz eigenbasis through
    its eigenvalues ``m``, ``dephase`` = -(m - m')^2 / 2 and ``msum`` = m + m'."""

    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    m: np.ndarray
    dephase: np.ndarray
    msum: np.ndarray


def build_spin_operators(j: float) -> SpinOperators:
    """Dense Jx, Jy, Jz for spin ``j`` (basis ordered m = j..-j) and the step's factors."""
    two_j = 2.0 * j
    if j <= 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError("j must be a positive half-integer")
    dim = int(round(two_j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    # <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1))
    raising = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1.0))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = raising
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    diff = np.subtract.outer(m, m)
    return SpinOperators(dim=dim, jx=jx, jy=jy, jz=jz, m=m, dephase=-0.5 * diff * diff,
                         msum=np.add.outer(m, m))


def coherent_populations(dim: int) -> np.ndarray:
    """The Jz populations C(2J, J - m) / 4^J of the x-polarized coherent state,
    m = J..-J with 2J + 1 = ``dim``.  For 2J <= 52 the binomials are exact
    floats and the division by 4^J is exact: each is its rational rounded once."""
    n = dim - 1
    return np.array([math.comb(n, k) for k in range(dim)], dtype=float) / 2.0**n


def coherent_spin_state_x(ops: SpinOperators) -> np.ndarray:
    """Density matrix of the highest-weight eigenstate of Jx: <Jx> = J, <Jz> = 0, <dJz^2> = J/2.

    Closed form: psi_m = sqrt(p_m), with p the ``coherent_populations``, so
    rho_mm' = sqrt(p_m p_m').  sqrt of a rounded square returns its root,
    so the diagonal is p itself, and for 2J <= 52 the trace is exactly 1.
    """
    c = coherent_populations(ops.dim)
    return np.sqrt(np.outer(c, c)).astype(complex)


def recommended_dt(p: PhysicalParams, j: float) -> float:
    """Step bound 1/(100 M (2J+1)^2) keeping the nonlinear term stable."""
    dim = int(round(2 * j)) + 1
    return 1.0 / (100.0 * p.meas_strength * dim * dim)


def sme_step(rho: np.ndarray, ops: SpinOperators, p: PhysicalParams, dt: float,
             dW: float, renormalize: bool = True) -> np.ndarray:
    """One Euler-Maruyama step of the density matrix ``rho``, then renormalize.

    The record term is skipped when dW = 0, where it adds only zeros.
    Both superoperators are trace-free, so the raw increment preserves
    the trace to rounding; renormalization only corrects accumulated
    O(dt^2) drift.  At B = 0 the step scales ``rho`` elementwise by real,
    exactly symmetric matrices (``dephase``, ``msum``), so an exactly
    Hermitian ``rho`` stays exactly Hermitian.  Only a field's commutator,
    a matrix product, rounds asymmetrically: then the state is Hermitized.
    """
    gb = p.gamma * p.b_true
    m = p.meas_strength
    new = rho + m * dt * ops.dephase * rho
    if dW != 0.0:
        mz = float((ops.m * rho.diagonal().real).sum())
        new = new + math.sqrt(m * p.efficiency) * dW * (ops.msum * rho - 2.0 * mz * rho)
    if gb != 0.0:
        new = new + (1j * gb * dt) * (ops.jy @ rho - rho @ ops.jy)
        new = 0.5 * (new + new.conj().T)
    if renormalize:
        tr = float(new.diagonal().sum().real)
        if not (tr > 0.0 and math.isfinite(tr)):
            raise RuntimeError("trace collapsed; dt too large for this J")
        new = new / tr
    return new


@dataclass(frozen=True)
class DeviationSeries:
    """Pathwise |exact - Gaussian| gaps on one record."""

    times: np.ndarray
    d_mean: np.ndarray
    d_var: np.ndarray
    j_total: float

    def max_mean_frac(self) -> float:
        """max |mean gap| in units of sqrt(J/2)."""
        return float(np.max(self.d_mean) / math.sqrt(self.j_total / 2.0))

    def to_csv(self, fobj) -> None:
        write_csv(fobj, ["t", "d_mean", "d_var"], [self.times, self.d_mean, self.d_var])


def compare_to_gaussian(p: PhysicalParams, grid: TimeGrid, seed: SeedSpec) -> DeviationSeries:
    """Per-point gaps between the exact B = 0 quantum state and the Gaussian model.

    On the Gaussian model's own record, the exact Jz populations at each
    point are the ``coherent_populations`` times the likelihood
    exp(4 M eta m Xi - 2 M eta m^2 t), each row's exponents shifted by their
    largest.  Their mean and variance are read ``POSTERIOR_BLOCK`` points at
    a time, and the gaps are written over the record's own mean_jz and
    var_jz: no array longer than a block is formed.
    """
    if p.j_total > MAX_DENSE_J:
        raise ValueError(f"dense oracle limited to j_total <= {MAX_DENSE_J:g}")
    if p.b_true != 0.0:
        raise ValueError("the closed-form state holds at B = 0 only: needs b_true = 0")
    record = simulate_trajectory(p, grid, seed)
    ops = build_spin_operators(p.j_total)
    m, prior = ops.m, coherent_populations(ops.dim)
    c = 2.0 * p.meas_strength * p.efficiency
    xi = record.bloch  # overwritten by Xi, the sum of d_xi over the steps before each point
    xi[0] = 0.0
    np.cumsum(record.d_xi, out=xi[1:])
    for s in range(0, len(xi), POSTERIOR_BLOCK):  # the slices stop at the record's end
        e = s + POSTERIOR_BLOCK
        w = (2.0 * c * xi[s:e])[:, None] * m - (c * record.times[s:e])[:, None] * (m * m)
        w -= w.max(axis=1, keepdims=True)
        w = np.exp(w, out=w) * prior
        z = w.sum(axis=1)
        mean = (w * m).sum(axis=1) / z
        dev = m - mean[:, None]
        var = (w * dev * dev).sum(axis=1) / z
        np.abs(mean - record.mean_jz[s:e], out=record.mean_jz[s:e])
        np.abs(var - record.var_jz[s:e], out=record.var_jz[s:e])
    return DeviationSeries(record.times, record.mean_jz, record.var_jz, p.j_total)


def dephasing_rate_errors(p: PhysicalParams) -> np.ndarray:
    """Relative errors of the off-diagonal decay rates vs M (m - m')^2 / 2.

    Deterministic check of ``sme_step`` at B = 0 and dW = 0 (the record
    term is then 0.0 for any eta), starting from the x-polarized coherent
    state; returns the per-coherence relative rate errors.
    """
    ops = build_spin_operators(p.j_total)
    dt = recommended_dt(p, p.j_total)
    n_steps = int(math.ceil(0.1 / (p.meas_strength * dt)))
    fieldless = replace(p, b_true=0.0)
    rho = rho0 = coherent_spin_state_x(ops)
    for _ in range(n_steps):
        rho = sme_step(rho, ops, fieldless, dt, 0.0)
    t = n_steps * dt
    errs = []
    for a in range(ops.dim):
        for b in range(ops.dim):
            if a == b or abs(rho0[a, b]) < 1e-8:
                continue
            rate = -math.log(abs(rho[a, b] / rho0[a, b])) / t
            exact = p.meas_strength * (ops.m[a] - ops.m[b]) ** 2 / 2.0
            errs.append(rate / exact - 1.0)
    return np.abs(np.array(errs))
