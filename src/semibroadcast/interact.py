"""System-memory measurement interactions and their figures of merit.

Every interaction is a basis permutation of the joint space, stored as its
sector map (x, nu) -> (y, mu): the joint level |x, groups[nu][s]> goes to
|y, groups[mu][s]>, keeping the within-sector slot s.  This module owns the
one kind dispatch (`build` over `KINDS`), the one dense conjugation
(`conjugate`) and the one write step (`WriteStep`) of the broadcast runs and
`infotherm.thermo_report`; `_images` alone fills the images of the levels.
No run lifts a write to the product space of several memories.  Every kind
is a complete record of the outcome (`_complete_record` checks it): for each
nu the d_S sectors mu(x, nu) differ, so a write's channel on S dephases it in
the outcome basis, then moves its diagonal by its stage (`WriteStep.stage`).

* noninvasive and cycled: controlled sector shifts, y = x.  These never
  disturb the system's outcome-basis diagonal.
* swap: (x, nu) -> (nu, x) exchanges the system with the memory's sector
  register.  It copies the system's outcome statistics into the pointer
  sectors exactly, at the price of replacing the system state.

Every d_S x d_S matrix of a one-unit write, its stage and
`WriteStep.pointer_map`, is a sector map on the pairwise sector weights
(`sector_matrix`).  The pointer correlation C = sum_x Tr[ rho (|x><x| (x) Pi_x) ],
Pi_x the sector projectors, and every pointer distribution are read through
`EnergyGrouping.readout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, WrongKind
from .qcore import DensityOperator, basis_state, evolve, random_density, random_unitary
from .thermal import EnergyGrouping, GibbsState

KINDS = ("noninvasive", "cycled", "swap")


def _complete_record(d_s: int, sector_map) -> tuple[np.ndarray, np.ndarray]:
    """(y, mu) = sector_map(x, nu) as d_S x d_S arrays, refused unless the map is a complete record of the outcome."""
    x = np.arange(d_s).reshape(d_s, 1)
    y, mu = np.broadcast_arrays(*sector_map(x, x.T))  # the map on every (x, nu) at once
    if (np.sort(mu, axis=0) != x).any():  # for every nu the d_S sectors mu(x, nu) differ
        raise WrongKind("the sector map writes two outcomes of one memory sector into one sector")
    return y, mu


@dataclass(frozen=True, eq=False)
class ControlledInteraction:
    """A joint basis permutation of system (x) memory, given by its sector map.

    `sectors` is the sector map (y, mu)[x, nu]: |x, groups[nu][s]> goes to
    |y, groups[mu][s]>; `kind` is one of KINDS.
    """

    kind: str
    grouping: EnergyGrouping
    sectors: tuple[np.ndarray, np.ndarray]
    variant: int = 0

    @property
    def d_s(self) -> int:
        return self.grouping.d_s

    @property
    def d_m(self) -> int:
        return self.grouping.dim

    @cached_property
    def joint_permutation(self) -> np.ndarray:
        """pi with U|j> = |pi[j]> on the d_S * d_M product basis, from the images of every level."""
        y, mu = _images(self, slice(None), self.d_m)
        return (y * self.d_m + mu).ravel()


def _images(u: ControlledInteraction, occupied, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, mu)[x, k]: level |x, m_k> goes to |y, mu>, m_k the k-th of the `size` levels `occupied` selects."""
    groups, (y, mu) = u.grouping.groups, u.sectors
    out_y, out_mu = np.empty((2, u.d_s, size), dtype=int)
    row = np.empty(u.d_m, dtype=int)
    for x in range(u.d_s):  # one row of temporaries at a time: level groups[nu][s] goes to groups[mu][s]
        row[groups] = groups[mu[x]]
        out_mu[x] = row[occupied]
        row[groups] = y[x, :, None]
        out_y[x] = row[occupied]
    return out_y, out_mu


def sector_matrix(sector_map: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a[x, z] = the sum of the sector weights w[nu] over sector_map[x, nu] = z, each row divided by its own sum."""
    d = len(w)
    a = np.bincount((np.arange(d)[:, None] * d + sector_map).ravel(), np.tile(w, d), minlength=d * d).reshape(d, d)
    return a / a.sum(axis=1, keepdims=True)


class WriteStep:
    """One write of a d_S x d_S system operator into fresh diagonal memories.

    The memory is one unit (a sequential stage or an hl-bound write) or the
    merged memory of a global run, whose level splits into the unit digits
    `dims`.  `probs` is one population row, read over its occupied levels, or
    hl-bound's stack of rows (n, d_M), read over every level so that no row
    depends on the levels another underflows.  The input entry rho_xx' p_k at
    (x m_k, x' m_k), p[..., k] the population of the k-th level read, moves to
    (y[x, k] mu[x, k], y[x', k] mu[x', k]), the `images` of m_k.
    """

    def __init__(self, u: ControlledInteraction, probs: np.ndarray, dims: tuple[int, ...] | None = None):
        full = probs.ndim > 1 or probs.all()  # every level read: keep the caller's populations, no gathered copy
        self._levels = slice(None) if full else np.flatnonzero(probs)
        self.p = probs if full else probs[self._levels]
        self.u, self.probs, self.dims = u, probs, dims or (u.d_m,)
        self._maps = {}

    @cached_property
    def images(self) -> tuple[np.ndarray, np.ndarray]:
        """(y, mu)[x, k]: |x, m_k> goes to |y, mu>, filled on first read: the stage and one-unit maps read none."""
        return _images(self.u, self._levels, self.p.shape[-1])

    def stage(self, rows: np.ndarray) -> np.ndarray:
        """The system diagonals `rows` after the write, rows @ t for t = stage(I): the rows themselves where the label
        stays (y = x, t = I exactly); for a swap each population row's W / sum(W), which rows @ t would scale by sum(r)."""
        if (self.u.sectors[0] == np.arange(self.u.d_s)[:, None]).all():
            return rows
        w = self.u.grouping.readout(self.probs)
        return np.broadcast_to(w / w.sum(axis=-1, keepdims=True), rows.shape)

    def pointer_map(self, f: int, grouping: EnergyGrouping) -> np.ndarray:
        """Memory factor f's pointer map under its `grouping`, built once.  One unit's is `sector_matrix` of mu; a merged
        step's row x is the sector sums of the populations written from |x>, divided by their own sum."""
        if f not in self._maps:
            if len(self.dims) == 1:
                self._maps[f] = sector_matrix(self.u.sectors[1], grouping.readout(self.probs))
            else:
                a = grouping.readout(self.populations(f, np.eye(self.u.d_s)))
                self._maps[f] = a / a.sum(axis=1, keepdims=True)
        return self._maps[f]

    def populations(self, f: int, r: np.ndarray) -> np.ndarray:
        """Level populations of memory factor f after writing each system diagonal, a row of r;
        with a stack of population rows, row i of r is written with row i of p."""
        d, mu = self.dims[f], self.images[1]
        levels = mu if len(self.dims) == 1 else mu // math.prod(self.dims[f + 1 :]) % d
        if len(r) > 1:  # row i counts into bins i * d ... i * d + d - 1
            levels = np.arange(len(r)).reshape(-1, 1, 1) * d + levels
        pops = np.bincount(levels.ravel(), (r[:, :, None] * self.p[..., None, :]).ravel(), minlength=len(r) * d)
        return pops.reshape(len(r), d)


def conjugate(matrix: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """P M P^dagger for the basis permutation P|j> = |pi[j]>."""
    inv = np.argsort(pi)
    return matrix[np.ix_(inv, inv)]


def build(grouping: EnergyGrouping, kind: str, variant: int = 0) -> ControlledInteraction:
    """The interaction of one of KINDS; `variant` selects the cycled variant."""
    if kind == "noninvasive":
        return build_noninvasive_maxcorr(grouping)
    if kind == "cycled":
        return build_cycled_variant(grouping, variant)
    if kind == "swap":
        return build_unbiased_swap(grouping)
    raise WrongKind(f"unknown interaction kind {kind!r}, expected one of {KINDS}")


def build_noninvasive_maxcorr(grouping: EnergyGrouping) -> ControlledInteraction:
    """Controlled sector-shift: outcome x moves sector nu to sector (x + nu) mod d_S.

    Non-invasive for every input, and achieves pointer correlation c_max on
    every diagonal input against the thermal memory it was grouped for.
    """
    d_s = grouping.d_s
    return ControlledInteraction("noninvasive", grouping, _complete_record(d_s, lambda x, nu: (x, (x + nu) % d_s)))


def build_cycled_variant(grouping: EnergyGrouping, i: int) -> ControlledInteraction:
    """Variant i of the controlled sector-shift, i in 0..d_S-2.

    Variant i relabels the nonzero sector offsets by the cyclic shift
    s_i(delta) = ((delta - 1 + i) mod (d_S - 1)) + 1, so that across all
    variants every off-pointer weight visits every offset exactly once.
    Variant 0 is the base construction.
    """
    d_s = grouping.d_s
    if not (0 <= i <= d_s - 2):
        raise IndexOutOfRange(f"variant {i} outside 0..{d_s - 2}")

    def sector_map(x: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s_inv = ((nu - 1 - i) % (d_s - 1)) + 1
        return x, np.where(nu == 0, x, (x + s_inv) % d_s)

    return ControlledInteraction("cycled", grouping, _complete_record(d_s, sector_map), i)


def build_unbiased_swap(grouping: EnergyGrouping) -> ControlledInteraction:
    """Swap of the system with the sector register defined by the grouping.

    Exactly unbiased: the pointer distribution after the swap equals the
    system's outcome-basis diagonal for every input state.
    """
    return ControlledInteraction("swap", grouping, _complete_record(grouping.d_s, lambda x, nu: (nu, x)))


def apply(u: ControlledInteraction, rho_s: DensityOperator, sigma_m: DensityOperator) -> DensityOperator:
    """U (rho_S (x) sigma_M) U^dagger via index permutation."""
    if rho_s.dim != u.d_s or sigma_m.dim != u.d_m:
        raise DimensionMismatch(
            f"interaction is {u.d_s} x {u.d_m}, states are {rho_s.dim} x {sigma_m.dim}"
        )
    out = conjugate(np.kron(rho_s.matrix, sigma_m.matrix), u.joint_permutation)
    return DensityOperator(out, (u.d_s, u.d_m))


def correlation_c(rho_joint: DensityOperator, grouping: EnergyGrouping) -> float:
    """Pointer correlation sum_x Tr[ rho (|x><x| (x) Pi_x) ]: the diagonal over (x, groups[x])."""
    if len(rho_joint.dims) != 2:
        raise DimensionMismatch(f"expected a (system, memory) state, got dims {rho_joint.dims}")
    d_s, d_m = rho_joint.dims
    if (grouping.d_s, grouping.dim) != (d_s, d_m):
        raise DimensionMismatch(f"grouping is {grouping.d_s} x {grouping.dim}, state is {d_s} x {d_m}")
    diag = rho_joint.matrix.diagonal().real.reshape(d_s, d_m)
    return float(diag[np.arange(d_s)[:, None], grouping.groups].sum())


def test_state_battery(d_s: int, seed: int = 7, n_random: int = 100) -> list[DensityOperator]:
    """Basis states, the uniform diagonal state, and seeded random states."""
    states = [basis_state(d_s, x) for x in range(d_s)]
    states.append(DensityOperator(np.eye(d_s) / d_s))
    seeds = np.random.SeedSequence(seed).spawn(n_random)
    states.extend(random_density(d_s, s) for s in seeds)
    return states


def pointer_distribution(rho_joint: DensityOperator, grouping: EnergyGrouping) -> np.ndarray:
    """Sector populations of the memory factor of a (system, memory) state."""
    d_s, d_m = rho_joint.dims
    return grouping.readout(rho_joint.matrix.diagonal().real.reshape(d_s, d_m).sum(axis=0))


def check_unbiased(
    u: ControlledInteraction,
    sigma_m: DensityOperator,
    test_states,
    grouping: EnergyGrouping,
) -> float:
    """Worst-case |p_x - q_x| between input diagonals and pointer readouts."""
    defect = 0.0
    for rho_s in test_states:
        q = pointer_distribution(apply(u, rho_s, sigma_m), grouping)
        p = rho_s.matrix.diagonal().real
        defect = max(defect, float(np.max(np.abs(p - q))))
    return defect


def check_noninvasive(u: ControlledInteraction, sigma_m: DensityOperator, test_states) -> float:
    """Worst-case change of the system's outcome-basis diagonal."""
    d_m = sigma_m.dim
    defect = 0.0
    for rho_s in test_states:
        out = apply(u, rho_s, sigma_m)
        diag_after = out.matrix.diagonal().real.reshape(rho_s.dim, d_m).sum(axis=1)
        defect = max(defect, float(np.max(np.abs(rho_s.matrix.diagonal().real - diag_after))))
    return defect


def haar_correlation_max(
    grouping: EnergyGrouping,
    tau: GibbsState,
    n_samples: int,
    seed: int = 0,
    diag_states=None,
) -> float:
    """Max pointer correlation of Haar-random joint unitaries over diagonal inputs.

    A falsification probe for the c_max ceiling; it samples, it does not prove.
    By default it probes the maximally mixed input, where the ceiling is the
    exact supremum over all unitaries.  Callers may pass other diagonal
    states, but the ceiling constrains arbitrary unitaries only while the
    sector weight gap of tau dominates the spread of the input diagonal;
    strongly tilted inputs admit memory-controlled permutations with higher
    correlation, so they are not ceiling counterexamples.
    """
    d_s, d_m = grouping.d_s, grouping.dim
    if diag_states is None:
        diag_states = [DensityOperator(np.eye(d_s) / d_s)]
    joints = [
        DensityOperator(np.kron(s.matrix, tau.state.matrix), (d_s, d_m))
        for s in diag_states
    ]
    best = 0.0
    for s in np.random.SeedSequence(seed).spawn(n_samples):
        u = random_unitary(d_s * d_m, s)
        for joint in joints:
            rotated = evolve(joint, u)
            best = max(best, correlation_c(rotated, grouping))
    return best
