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
    # a -beta E past the float range is +-inf and a row of them has no finite ln Z; -beta E - ln Z = -inf is weight 0
    with np.errstate(over="ignore", invalid="ignore"):
        logw = -beta[:, None] * energies
        log_z = _segment_logsumexp(logw.ravel(), np.full(logw.shape[0], logw.shape[1]))
        probs = np.exp(logw - log_z[:, None])
    if not np.isfinite(log_z).all():
        row = np.flatnonzero(~np.isfinite(log_z))[0]
        raise DimensionMismatch(f"beta = {beta[row]} takes -beta E out of the float range: ln Z = {log_z[row]}")
    return GibbsRows(energies, beta, log_z, probs)


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
    """c_max (len bws, len ns) from the class walks (float half row, b, take, C(n, b)) of ns, one array pass per side.

    An n's head is its classes m < b and the `take` levels of class b, its tail the rest of b and
    the classes m > b; `side` lays out each (beta omega, n) side as one segment of class
    log-weights.  c_max is the head where head <= 1/2, else 1 - tail, which near saturation is
    far more accurate.  So the tail is summed for every n, and the head only for the n whose
    e^tail >= 1/2 - 1e-6 at some beta omega; elsewhere it could not be returned.

    The margin 1e-6: a side whose exact sum is at least 1/4 has a class weight of at least 1/4120
    (n + 1 <= 1030 classes), so each of its weights above e^-40 of that has log C(n, m) <= 710,
    n ln Z_1 <= 714 and beta omega m < 800.  Each of the three is within 3e-13 of exact and the
    log-weight within 1.2e-12, so the side is within 2e-12 relative of exact.  Exact head and
    tail sum to 1, so a computed e^tail < 1/2 - 1e-6 puts the exact head above 1/2 + 1e-6 - 2e-12
    and the computed head above 1/2.  A segment's log-sum-exp depends on that segment alone, so
    which n get a head changes no bit.  A head is at most n // 2 + 1 classes and a tail at least
    n - n // 2, so the head pass lays out at most one more weight per (beta omega, n).
    """
    b, has_take = np.array([w[1] for w in walks]), np.array([w[2] > 0 for w in walks])
    # the half rows as floats, mirrored by C(n, m) = C(n, n - m)
    log_half = np.log(np.concatenate([w[0] for w in walks]))
    half_at = np.cumsum(ns // 2 + 1) - (ns // 2 + 1)
    log_z1 = np.logaddexp(0.0, -bws)[:, None]  # ln Z of one qubit; ln Z^n = n of it

    def side(cols, lo, hi, split, log_split):
        """ln of the weight of the classes lo..hi - 1 of each n in `cols`, (len bws, len cols),
        class b counting e^log_split levels in the columns `split`."""
        lengths = hi - lo
        starts = np.cumsum(lengths) - lengths
        m = np.arange(starts[-1] + lengths[-1]) - np.repeat(starts - lo, lengths)
        n = np.repeat(ns[cols], lengths)
        log_c = log_half[np.repeat(half_at[cols], lengths) + np.minimum(m, n - m)]
        log_c[(starts + b[cols] - lo)[split]] = log_split
        with np.errstate(over="ignore"):  # beta omega m past the float range is inf: weight exactly 0
            log_w = log_c - bws[:, None] * m - n * log_z1
        return _segment_logsumexp(log_w.ravel(), np.tile(lengths, bws.size)).reshape(bws.size, lengths.size)

    tail = np.exp(side(slice(None), b, ns + 1, slice(None), [math.log(w[3] - w[2]) for w in walks]))
    out = 1.0 - tail
    heads = np.flatnonzero((tail >= 0.5 - 1e-6).any(axis=0))
    if heads.size:
        took = has_take[heads]
        head = np.exp(side(heads, 0, b[heads] + took, took, [math.log(walks[j][2]) for j in heads[took]]))
        # Near saturation the complement sum is far more accurate.
        out[:, heads] = np.where(head <= 0.5, head, out[:, heads])
    return out


ANALYTIC_N_MAX = 1029  # beyond it C(n, n // 2) overflows a float
CLASS_BLOCK = 2**12  # (beta omega, class) tail log-weights per array pass, which bounds its temporaries
PASCAL_STEPS = 3  # most Pascal steps from the previous n before a fresh walk; see `_class_walks`


def _class_walks(ns, log_r: int):
    """(half row, b, take, C(n, b)) of each n in the ascending distinct `ns`, one n at a time.

    The half row is C(n, 0..n // 2) in exact integers.  It is Pascal-advanced from the previous
    n, C(n, m) = C(n - 1, m - 1) + C(n - 1, m), when n is at most PASCAL_STEPS above it, and
    walked afresh with C(n, m + 1) = C(n, m)(n - m)/(m + 1) otherwise.  The coldest
    r = 2^n / 2^log_r levels are the whole classes m < b and `take` levels of class b.  By the
    row's symmetry the classes m <= n // 2 hold 2^(n - 1) levels, plus C(n, n / 2) / 2 when n is
    even, so b is found by taking classes off from the middle until at most r levels remain:
    at most one class for d_S = 2, O(sqrt n) for d_S = 4 and 8.

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
        # the classes m <= n // 2 hold half the 2^n levels, plus half the middle class when n is even
        b, below = k // 2 + 1, 2 ** (k - 1) + (half[-1] // 2 if k % 2 == 0 else 0)
        while below > r:  # ends at b >= 1, as r >= 1 = C(n, 0)
            b -= 1
            below -= half[b]
        # if the classes m <= n // 2 fill r exactly, b = n // 2 + 1 and C(n, b) = C(n, n - b)
        yield half, b, r - below, half[b] if b < len(half) else half[k - b]


def c_max_qubits_analytic(n, beta_omega, d_s: int = 2) -> float | np.ndarray:
    """c_max for an n-qubit chain memory without building the 2^n-level state.

    The C(n, m) levels with m excitations each weigh e^{-beta omega m} / Z^n.
    The coldest 2^n / d_s levels are the whole classes m < b and `take` levels
    of the class b that straddles the sector boundary, both found in exact
    integers.  c_max is the head (m < b and the `take` part of b) where it is
    at most 1/2, else 1 - tail (the rest of b and m > b), each summed in the
    log domain; the tail is summed for every n, the head only where it may be
    at most 1/2 (`_ceiling_pass`).  Each class log-weight is the log of C(n, m)
    rounded to float once, so the result is within 2.0e-14 of a 50-digit
    oracle for every n <= 409 and d_s <= 8, and within 4.3e-14 of a 60-digit
    one at n = 411 ... 1029 (largest at beta omega = 0, n = 1029).
    C(n, m) stays finite as a float up to n = ANALYTIC_N_MAX = 1029, the
    largest n taken, and the largest a sweep config accepts.
    d_s must be a power of two dividing 2^n, and each n a Python or numpy integer, not a bool.

    `n` and `beta_omega` are each a number or a 1-d sequence: two numbers give a float, else a
    (len beta_omega, len n) array, each value bit-identical to its scalar call.  The distinct n
    are taken in ascending order, each exact class walk Pascal-advanced from the previous n when
    that is at most PASCAL_STEPS below (`_class_walks`), so a sweep of every n costs one row
    addition per n.  The float part is one array pass per side per block of n values (about
    CLASS_BLOCK tail weights, or one n's when they alone exceed it).  Each exact row is rounded
    to float as it is walked, so a block holds its rows as floats and only the one exact row
    that the next n advances from.
    """
    ns = np.ravel(np.asarray(n, dtype=object)).tolist()  # each n as given: a mixed list is not cast to floats
    for k in ns:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise DimensionMismatch(f"n must be an integer, got n={k!r}")
        if not 1 <= k <= ANALYTIC_N_MAX:
            raise DimensionMismatch(f"need 1 <= n <= {ANALYTIC_N_MAX}, got n={k}")
    ns, bws = [int(k) for k in ns], np.ravel(np.asarray(beta_omega, dtype=float))  # Python ints: 2^n stays exact
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
        walks.append((np.array(walk[0], dtype=float), *walk[1:]))  # each C(n, m) rounded once
        size += (distinct[i] + 1 - walk[1]) * bws.size  # the tail weights, which bound the head's
        if size >= CLASS_BLOCK or i == len(distinct) - 1:
            out[:, done : i + 1] = _ceiling_pass(walks, np.array(distinct[done : i + 1]), bws)
            walks, size, done = [], 0, i + 1
    if np.ndim(n) == 0 and np.ndim(beta_omega) == 0:
        return float(out[0, 0])
    return out[:, np.searchsorted(distinct, ns)]
