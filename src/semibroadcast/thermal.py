"""Thermal memories: Hamiltonians, Gibbs states, and pointer-sector structure.

A memory of dimension d_M is read out through d_S pointer sectors of equal
rank r = d_M / d_S.  Sectors are built by stably sorting the energy levels
(ties broken by level index) and cutting the sorted list into d_S contiguous
ascending blocks.  The best achievable pointer correlation c_max is the total
Gibbs weight of the coldest sector.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add
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


def _segment_logsumexp(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """log(sum(exp(segment))) of each nonempty segment of the 1-d float `a` cut by `lengths`.

    Each follows scipy's float sequence, so it is bit-identical to scipy's logsumexp of the
    segment: the m maximal elements are set aside, the rest summed as exp(a - a_max) (zeros at
    the maxima), and the result is log1p(s/m) + log(m) + a_max; a plain max-shift would change
    the last bits.  `add.reduceat` starts a segment from its first element, so each is led by an
    inserted 0.0: the sum is then the segment's own pairwise `.sum()`, which starts from 0.
    """
    starts = np.cumsum(lengths) - lengths
    a_max = np.maximum.reduceat(a, starts)
    shift = np.repeat(a_max, lengths)
    top = a == shift
    m = np.add.reduceat(top, starts, dtype=np.intp)
    if np.isneginf(a_max).any():  # a segment of -inf alone is shifted by 0: -inf - -inf is nan
        shift[shift == -np.inf] = 0.0
    e = np.exp(a - shift)
    e[top] = 0.0
    s = np.add.reduceat(np.insert(e, starts, 0.0), starts + np.arange(starts.size))
    # scipy divides only when s != 0; s = 0 stays 0 under s / m either way
    return np.log1p(s / m) + np.log(m) + a_max


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
    log_z = _segment_logsumexp(logw.ravel(), np.full(logw.shape[0], logw.shape[1]))
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

    def readout(self, weights) -> np.ndarray:
        """Pointer distribution per row: the pairwise sum of `weights[..., m]` over each sector's levels, contiguous by `take`."""
        return np.take(weights, self.groups, axis=-1).sum(axis=-1)


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
    return float(grouping.readout(tau.probs)[0])


def _ceiling_pass(walks, ns: np.ndarray, bws: np.ndarray) -> np.ndarray:
    """c_max (len bws, len ns) from the class walks (half row, b, take, C(n, b)) of ns, in one array pass.

    Each n lays out its classes 0..n, b twice when take > 0, as one head and one tail segment.
    """
    b, has_take = np.array([w[1] for w in walks]), np.array([w[2] > 0 for w in walks])
    # each C(n, m) is rounded to float once, then mirrored by C(n, m) = C(n, n - m)
    log_half = np.log(np.array([c for w in walks for c in w[0]], dtype=float))
    first = np.cumsum(ns + 1) - (ns + 1)
    m = np.arange(first[-1] + ns[-1] + 1) - np.repeat(first, ns + 1)
    log_c = log_half[np.repeat(np.cumsum(ns // 2 + 1) - (ns // 2 + 1), ns + 1) + np.minimum(m, np.repeat(ns, ns + 1) - m)]
    reps = 1 + np.bincount((first + b)[has_take], minlength=m.size)
    m, log_c = np.repeat(m, reps), np.repeat(log_c, reps)
    lengths = np.column_stack([b + has_take, ns + 1 - b]).ravel()
    tail_at = (np.cumsum(lengths) - lengths)[1::2]
    log_c[tail_at] = [math.log(w[3] - w[2]) for w in walks]
    log_c[tail_at[has_take] - 1] = [math.log(w[2]) for w in walks if w[2] > 0]
    log_z1 = np.logaddexp(0.0, -bws)[:, None]  # ln Z of one qubit; ln Z^n = n of it
    with np.errstate(over="ignore"):  # beta omega m past the float range is inf: weight exactly 0
        log_w = log_c - bws[:, None] * m - np.repeat(ns, ns + 1 + has_take) * log_z1
    lse = _segment_logsumexp(log_w.ravel(), np.tile(lengths, bws.size)).reshape(bws.size, ns.size, 2)
    head = np.exp(lse[..., 0])
    # Near saturation the complement sum is far more accurate.
    return np.where(head <= 0.5, head, 1.0 - np.exp(lse[..., 1]))


ANALYTIC_N_MAX = 1029  # beyond it C(n, n // 2) overflows a float
CLASS_BLOCK = 2**12  # (beta omega, class) log-weights per array pass, which bounds its temporaries
PASCAL_STEPS = 3  # most Pascal steps from the previous n before a fresh walk; see `_class_walks`


def _class_walks(ns, log_r: int):
    """(half row, b, take, C(n, b)) of each n in the ascending distinct `ns`, one n at a time.

    The half row is C(n, 0..n // 2) in exact integers.  It is Pascal-advanced from the previous
    n, C(n, m) = C(n - 1, m - 1) + C(n - 1, m), when n is at most PASCAL_STEPS above it, and
    walked afresh with C(n, m + 1) = C(n, m)(n - m)/(m + 1) otherwise.  The coldest
    r = 2^n / 2^log_r levels are the whole classes m < b and `take` levels of class b.

    On a 2-vCPU x86 host (CPython 3.11), g Pascal steps cost 0.5 g fresh walks at n = 100-200,
    0.33 g at n = 400 and 0.22 g at n = 1000, so they break even at g = 2, 3 and 4-5.  A walk
    costs about n^2, so the large n dominate a sweep, and PASCAL_STEPS = 3 is taken.
    """
    prev, half = 0, [1]  # C(0, 0)
    for k in ns:
        if k - prev <= PASCAL_STEPS:
            for j in range(prev + 1, k + 1):
                # an even j has one more middle class, C(j, j/2) = 2 C(j - 1, j/2 - 1)
                half = [1, *map(add, half, half[1:])] + ([2 * half[-1]] if j % 2 == 0 else [])
        else:
            half, count = [], 1
            for m in range(k // 2 + 1):
                half.append(count)
                count = count * (k - m) // (m + 1)
        prev, r = k, 2 ** (k - log_r)  # exact int, may be huge
        b, take = _boundary(half, r)
        # if the classes m <= n // 2 fill r exactly, b = n // 2 + 1 and C(n, b) = C(n, n - b)
        yield half, b, take, half[b] if b < len(half) else half[k - b]


def _boundary(half: list[int], r: int) -> tuple[int, int]:
    """The first class b whose levels do not all fit below r, and how many of them do."""
    below = list(accumulate(half))
    b = bisect_right(below, r)  # >= 1, as r >= 1 = C(n, 0)
    return b, r - below[b - 1]


def c_max_qubits_analytic(n, beta_omega, d_s: int = 2) -> float | np.ndarray:
    """c_max for an n-qubit chain memory without building the 2^n-level state.

    The C(n, m) levels with m excitations each weigh e^{-beta omega m} / Z^n.
    The coldest 2^n / d_s levels are the whole classes m < b and `take` levels
    of the class b that straddles the sector boundary, both found in exact
    integers.  Head (m < b and the `take` part of b) and tail (the rest of b
    and m > b) are summed in the log domain.  Each class log-weight is the
    log of C(n, m) rounded to float once, so the result is within 2.0e-14
    of a 50-digit oracle for every n <= 409 and d_s <= 8, and within 4.3e-14
    of a 60-digit one at n = 411 ... 1029 (largest at beta omega = 0, n = 1029).
    C(n, m) stays finite as a float up to n = ANALYTIC_N_MAX = 1029, the
    largest n taken, and the largest a sweep config accepts.
    d_s must be a power of two dividing 2^n, and n an integer (a numpy integer too).

    `n` and `beta_omega` are each a number or a 1-d sequence: two numbers give a float, else a
    (len beta_omega, len n) array, each value bit-identical to its scalar call.  The distinct n
    are taken in ascending order, each exact class walk Pascal-advanced from the previous n when
    that is at most PASCAL_STEPS below (`_class_walks`), so a sweep of every n costs one row
    addition per n.  The float part is one array pass per block of n values (about CLASS_BLOCK
    weights, or one n's classes when they alone exceed it), and only one block's rows are held.
    """
    ns, bws = np.ravel(n).tolist(), np.ravel(np.asarray(beta_omega, dtype=float))
    for k in ns:
        if not isinstance(k, int):
            raise DimensionMismatch(f"n must be an integer, got n={k!r}")
        if not 1 <= k <= ANALYTIC_N_MAX:
            raise DimensionMismatch(f"need 1 <= n <= {ANALYTIC_N_MAX}, got n={k}")
    bad = bws[~(np.isfinite(bws) & (bws >= 0.0))]
    if bad.size:
        raise DimensionMismatch(f"beta_omega must be finite and >= 0, got {bad[0]}")
    if d_s < 2 or (d_s & (d_s - 1)) != 0:
        raise DimensionMismatch(f"d_s must be a power of two >= 2, got {d_s}")
    log_r = d_s.bit_length() - 1
    if ns and min(ns) < log_r:
        raise DimensionMismatch(f"d_s={d_s} does not divide 2^{min(ns)}")
    distinct = sorted(set(ns))
    out, walks, size, done = np.empty((bws.size, len(distinct))), [], 0, 0
    for i, walk in enumerate(_class_walks(distinct, log_r)):
        walks.append(walk)
        size += (distinct[i] + 2) * bws.size
        if size >= CLASS_BLOCK or i == len(distinct) - 1:
            out[:, done : i + 1] = _ceiling_pass(walks, np.array(distinct[done : i + 1]), bws)
            walks, size, done = [], 0, i + 1
    if np.ndim(n) == 0 and np.ndim(beta_omega) == 0:
        return float(out[0, 0])
    return out[:, np.searchsorted(distinct, ns)]
