"""Full-Hilbert-space oracle for small J.

Brute-force integration of the conditional master equation on the
(2J+1)-dimensional space,

    drho = i gamma B [Jy, rho] dt + M D[Jz] rho dt + sqrt(M eta) H[Jz] rho dW,

with D[r]rho = r rho r+ - (r+ r rho + rho r+ r)/2 and
H[r]rho = r rho + rho r+ - tr[(r + r+) rho] rho.  The Hamiltonian is
-gamma B Jy, so d<Jz>/dt = +gamma B <Jx>: the drift B phi12 of the
Gaussian model.  A Jz Hamiltonian would commute with the measured
observable and produce no precession, so the drift of <Jz> could never
appear.

Used to validate the Gaussian model pathwise: both integrators consume
the *same* stored dW sequence, which is far more sensitive than
comparing distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, TimeGrid, write_csv
from .dynamics import simulate_trajectory
from .rng import SeedSpec

# Pathwise Gaussian-model agreement threshold for the mean, in units of
# sqrt(J/2): neglected terms are down by 1/J and this bound holds with
# ample margin at J = 10 over matched-noise runs.
MEAN_DEVIATION_FRAC = 0.05
MAX_DENSE_J = 20.0  # largest J the pathwise comparison integrates densely


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


def coherent_spin_state_x(ops: SpinOperators) -> np.ndarray:
    """Density matrix of the highest-weight eigenstate of Jx: <Jx> = J, <Jz> = 0, <dJz^2> = J/2."""
    w, v = np.linalg.eigh(ops.jx)
    psi = v[:, np.argmax(w)]
    return np.outer(psi, psi.conj())


def recommended_dt(p: PhysicalParams, j: float) -> float:
    """Step bound 1/(100 M (2J+1)^2) keeping the nonlinear term stable."""
    dim = int(round(2 * j)) + 1
    return 1.0 / (100.0 * p.meas_strength * dim * dim)


def sme_step(r: np.ndarray, ops: SpinOperators, p: PhysicalParams, dt: float,
             dW: float, renormalize: bool = True) -> np.ndarray:
    """One Euler-Maruyama step of the density matrix ``r``, then Hermitize and renormalize.

    Both superoperators are trace-free, so the raw increment preserves
    the trace to rounding; renormalization only corrects accumulated
    O(dt^2) drift.
    """
    mz = float((ops.m * r.diagonal().real).sum())
    m = p.meas_strength
    new = r + m * dt * ops.dephase * r \
        + math.sqrt(m * p.efficiency) * dW * (ops.msum * r - 2.0 * mz * r)
    gb = p.gamma * p.b_true
    if gb != 0.0:
        new = new + (1j * gb * dt) * (ops.jy @ r - r @ ops.jy)
    new = 0.5 * (new + new.conj().T)
    if renormalize:
        tr = float(new.trace().real)
        if not (tr > 0.0 and np.isfinite(tr)):
            raise RuntimeError("trace collapsed; dt too large for this J")
        new = new / tr
    return new


def oracle_moments(rho: np.ndarray, ops: SpinOperators):
    """(<Jz>, <dJz^2>) of the state."""
    pops = rho.diagonal().real
    mean = float((ops.m * pops).sum())
    second = float((ops.m * ops.m * pops).sum())
    return mean, second - mean * mean


@dataclass(frozen=True)
class DeviationSeries:
    """Pathwise |SME - Gaussian| gaps with matched noise."""

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
    """Per-step deviations between the dense SME and the Gaussian model.

    The SME consumes the trajectory record's stored dW sequence, so the
    comparison is pathwise.  Tractable for j_total <= ~20.
    """
    if p.j_total > MAX_DENSE_J:
        raise ValueError(f"dense oracle limited to j_total <= {MAX_DENSE_J:g}")
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
        rho = sme_step(rho, ops, p, float(times[k + 1] - times[k]), float(record.noise[k]))
        mz, vz = oracle_moments(rho, ops)
        d_mean[k + 1] = abs(mz - record.mean_jz[k + 1])
        d_var[k + 1] = abs(vz - record.var_jz[k + 1])
    return DeviationSeries(times=times, d_mean=d_mean, d_var=d_var, j_total=p.j_total)


def dephasing_rate_errors(p: PhysicalParams, n_steps: int | None = None) -> np.ndarray:
    """Relative errors of the off-diagonal decay rates vs M (m - m')^2 / 2.

    Deterministic check of ``sme_step`` at B = 0 and dW = 0 (the record
    term is then 0.0 for any eta), starting from the x-polarized coherent
    state; returns the per-coherence relative rate errors.
    """
    ops = build_spin_operators(p.j_total)
    dt = recommended_dt(p, p.j_total)
    if n_steps is None:
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
