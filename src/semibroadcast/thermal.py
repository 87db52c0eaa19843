"""Thermal memories: Hamiltonians, Gibbs states, and pointer-sector structure.

A memory of dimension d_M is read out through d_S pointer sectors of equal
rank r = d_M / d_S.  Sectors are built by stably sorting the energy levels
(ties broken by level index) and cutting the sorted list into d_S contiguous
ascending blocks.  The best achievable pointer correlation c_max is the total
Gibbs weight of the coldest sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .qcore import DensityOperator


@dataclass(frozen=True, eq=False)
class MemoryHamiltonian:
    """Diagonal Hamiltonian given by its energy levels.

    Levels are stored in units of `scale`; absolute energies are
    `scale * energies`.  Level i is the i-th computational basis vector.
    """

    energies: np.ndarray
    scale: float = 1.0

    def __init__(self, energies, scale: float = 1.0):
        e = np.asarray(energies, dtype=float).copy()
        if e.ndim != 1 or e.size == 0:
            raise DimensionMismatch(f"expected a nonempty 1-d energy list, got shape {e.shape}")
        if not np.all(np.isfinite(e)) or not (math.isfinite(scale) and scale > 0):
            raise DimensionMismatch("energies and scale must be finite, scale positive")
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "scale", float(scale))

    @property
    def dim(self) -> int:
        return self.energies.size

    def absolute_energies(self) -> np.ndarray:
        return self.energies * self.scale


def qubit_chain_hamiltonian(n: int, omega: float = 1.0) -> MemoryHamiltonian:
    """n noninteracting qubits with level splitting omega; level energies count excitations."""
    if n < 1:
        raise DimensionMismatch(f"need at least one qubit, got n={n}")
    # levels 2^k ... 2^(k+1) - 1 carry one more excitation than levels 0 ... 2^k - 1
    excitations = np.zeros(1)
    for _ in range(n):
        excitations = np.concatenate([excitations, excitations + 1.0])
    return MemoryHamiltonian(excitations, scale=omega)


def product_hamiltonian(parts: list[MemoryHamiltonian]) -> MemoryHamiltonian:
    """Noninteracting sum of several memories; level order follows np.kron ravel order."""
    if not parts:
        raise DimensionMismatch("need at least one part")
    total = np.zeros(1)
    for h in parts:
        total = (total[:, None] + h.absolute_energies()[None, :]).ravel()
    return MemoryHamiltonian(total, scale=1.0)


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Thermal state exp(-beta H)/Z of a diagonal Hamiltonian."""

    hamiltonian: MemoryHamiltonian
    beta: float
    probs: np.ndarray
    log_z: float

    def __init__(self, hamiltonian: MemoryHamiltonian, beta: float, probs, log_z: float):
        p = np.asarray(probs, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "log_z", float(log_z))

    @property
    def dim(self) -> int:
        return self.probs.size

    @cached_property
    def state(self) -> DensityOperator:
        return DensityOperator(np.diag(self.probs).astype(complex), (self.dim,))

    def mean_energy(self) -> float:
        return float(self.probs @ self.hamiltonian.absolute_energies())

    def rows(self) -> GibbsRows:
        """This state as a stack of one row."""
        return GibbsRows(self.hamiltonian.absolute_energies()[None], np.array([self.beta]), np.array([self.log_z]), self.probs[None])


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a nonempty 1-d float array, bit-identical to scipy's logsumexp.

    It follows scipy's float sequence: the m maximal elements are set aside,
    the rest summed as exp(a - a_max) (the same pairwise sum over the same
    array, zeros at the maxima), and the result is log1p(s/m) + log(m) + a_max.
    A plain max-shift would change the last bits.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    e = np.exp(a - a_max)
    e[top] = 0.0
    s = e.sum()
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


class GibbsRows(NamedTuple):
    """Gibbs states on one set of d_M levels, one per row: absolute energies (n, d_M), beta (n,),
    ln Z (n,) and the populations (n, d_M).  ln tau_m = -beta E_m - ln Z is finite at every temperature."""

    energies: np.ndarray
    beta: np.ndarray
    log_z: np.ndarray
    probs: np.ndarray


def gibbs_rows(energies: np.ndarray, beta) -> GibbsRows:
    """The Gibbs state of each row of absolute energies (n, d_M) at its beta >= 0 (log-domain normalization)."""
    beta = np.asarray(beta, dtype=float)
    bad = beta[~(np.isfinite(beta) & (beta >= 0.0))]
    if bad.size:
        raise DimensionMismatch(f"beta must be finite and >= 0, got {bad[0]}")
    logw = -beta[:, None] * energies
    log_z = np.array([_logsumexp(row) for row in logw])
    return GibbsRows(energies, beta, log_z, np.exp(logw - log_z[:, None]))


def gibbs(hamiltonian: MemoryHamiltonian, beta: float) -> GibbsState:
    """Gibbs state at inverse temperature beta >= 0 (log-domain normalization)."""
    rows = gibbs_rows(hamiltonian.absolute_energies()[None], [beta])
    return GibbsState(hamiltonian, beta, rows.probs[0], rows.log_z[0])


@dataclass(frozen=True, eq=False)
class EnergyGrouping:
    """Partition of d_M levels into d_S ascending sectors of rank r."""

    d_s: int
    r: int
    groups: np.ndarray          # (d_S, r) level indices

    def __init__(self, d_s: int, r: int, groups):
        g = np.asarray(groups, dtype=int).copy()
        g.setflags(write=False)
        object.__setattr__(self, "d_s", int(d_s))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "groups", g)

    @property
    def dim(self) -> int:
        return self.d_s * self.r

    @cached_property
    def level_to_group(self) -> np.ndarray:
        out = np.empty(self.dim, dtype=int)
        for y in range(self.d_s):
            out[self.groups[y]] = y
        return out

    def readout(self, levels, weights) -> np.ndarray:
        """Pointer distribution: the total of `weights` landing in each sector.

        `levels[..., k]` is the memory level that carries `weights[..., k]`.
        Each row of a 2-D `weights` is read out apart, in one `bincount`.
        """
        rows = np.shape(weights)[:-1]
        n = math.prod(rows)
        flat = np.broadcast_to(np.arange(n).reshape(rows + (1,)) * self.d_s + self.level_to_group[levels], np.shape(weights))
        return np.bincount(flat.ravel(), np.ravel(weights), minlength=n * self.d_s).reshape(rows + (self.d_s,))


def group_energies(hamiltonian: MemoryHamiltonian, d_s: int) -> EnergyGrouping:
    """Stable energy-ordered partition into d_s sectors; requires d_s | dim."""
    d_m = hamiltonian.dim
    if d_s < 2:
        raise DimensionMismatch(f"need d_s >= 2, got {d_s}")
    if d_m % d_s != 0:
        raise DimensionMismatch(f"d_s={d_s} does not divide memory dimension {d_m}")
    r = d_m // d_s
    order = np.argsort(hamiltonian.energies, kind="stable")
    return EnergyGrouping(d_s, r, order.reshape(d_s, r))


def c_max(grouping: EnergyGrouping, tau: GibbsState) -> float:
    """Best pointer correlation: total weight of the coldest sector.

    `tau` is any diagonal memory state with `probs` and `dim`: a Gibbs state
    or a `broadcast.MemoryUnit`.
    """
    if tau.dim != grouping.dim:
        raise DimensionMismatch(f"state dim {tau.dim} != grouping dim {grouping.dim}")
    return float(tau.probs[grouping.groups[0]].sum())


ANALYTIC_N_MAX = 1029  # beyond it C(n, n // 2) overflows a float


def c_max_qubits_analytic(n: int, beta_omega: float, d_s: int = 2) -> float:
    """c_max for an n-qubit chain memory without building the 2^n-level state.

    The C(n, m) levels with m excitations each weigh e^{-beta omega m} / Z^n.
    The coldest 2^n / d_s levels are the whole classes m < b and `take` levels
    of the class b that straddles the sector boundary, both found in exact
    integers.  Head (m < b and the `take` part of b) and tail (the rest of b
    and m > b) are summed in the log domain.  Each class log-weight is the
    log of C(n, m) rounded to float once, so the result is within 2.0e-14
    of a 50-digit oracle for every n <= 409 and d_s <= 8; C(n, m) stays
    finite as a float up to n = ANALYTIC_N_MAX = 1029, the largest n taken.
    d_s must be a power of two dividing 2^n.
    """
    if not 1 <= n <= ANALYTIC_N_MAX:
        raise DimensionMismatch(f"need 1 <= n <= {ANALYTIC_N_MAX}, got n={n}")
    if not (math.isfinite(beta_omega) and beta_omega >= 0.0):
        raise DimensionMismatch(f"beta_omega must be finite and >= 0, got {beta_omega}")
    if d_s < 2 or (d_s & (d_s - 1)) != 0:
        raise DimensionMismatch(f"d_s must be a power of two >= 2, got {d_s}")
    log_r = d_s.bit_length() - 1
    if n < log_r:
        raise DimensionMismatch(f"d_s={d_s} does not divide 2^{n}")
    r = 2 ** (n - log_r)  # exact int, may be huge
    log_z_n = n * float(np.logaddexp(0.0, -beta_omega))
    # walk the classes with C(n, m+1) = C(n, m)(n - m)/(m + 1) in exact integers up to n // 2,
    # keeping each size and noting the first class b that does not fit whole below r levels
    half, count, below, b = [], 1, 0, None
    for m in range(n // 2 + 1):
        half.append(count)
        if b is None:
            if below + count > r:
                b = m
            else:
                below += count
        count = count * (n - m) // (m + 1)
    if b is None:  # the classes m <= n // 2 fill r exactly; count is now C(n, b)
        b = n // 2 + 1
    else:
        count = half[b]
    # each C(n, m) is rounded to float once, then mirrored by C(n, m) = C(n, n - m)
    log_half = np.log(np.array(half, dtype=float))
    log_c = np.concatenate([log_half, log_half[n - n // 2 - 1 :: -1]])
    log_w = log_c - beta_omega * np.arange(n + 1) - log_z_n
    take = r - below
    head = log_w[:b]
    if take > 0:
        head = np.append(head, math.log(take) - beta_omega * b - log_z_n)
    head_val = float(np.exp(_logsumexp(head)))
    if head_val <= 0.5:
        return head_val
    # Near saturation the complement sum is far more accurate.
    rest = math.log(count - take) - beta_omega * b - log_z_n
    return 1.0 - float(np.exp(_logsumexp(np.append(rest, log_w[b + 1 :]))))
