"""System-memory measurement interactions and their figures of merit.

Every interaction is a basis permutation of the joint space, stored as the
table of its joint images.  This module owns the one kind dispatch (`build`
over `KINDS`), the one dense conjugation (`conjugate`) and the one write step
(`WriteStep`) of the broadcast runs and `infotherm.thermo_report`; no run
lifts a table to the product space of several memories.  Each kind is a
sector map (x, nu) -> (y, mu): the joint level
|x, groups[nu][s]> goes to |y, groups[mu][s]>, keeping the within-sector
slot s.

* noninvasive and cycled: controlled sector shifts, y = x.  These never
  disturb the system's outcome-basis diagonal.
* swap: (x, nu) -> (nu, x) exchanges the system with the memory's sector
  register.  It copies the system's outcome statistics into the pointer
  sectors exactly, at the price of replacing the system state.

The pointer correlation of a joint state is
C = sum_x Tr[ rho (|x><x| (x) Pi_x) ] with Pi_x the sector projectors; it
and every pointer distribution are read from the diagonal through
`EnergyGrouping.groups` and `EnergyGrouping.readout`.
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


def _table(grouping: EnergyGrouping, sector_map) -> np.ndarray:
    """Joint images (d_S, d_M): |x, groups[nu][s]> -> |y, groups[mu][s]> for (y, mu) = sector_map(x, nu)."""
    d_s, d_m = grouping.d_s, grouping.dim
    x = np.arange(d_s).reshape(d_s, 1)
    y, mu = np.broadcast_arrays(*sector_map(x, x.T))  # the map on every (x, nu) at once
    table = np.empty((d_s, d_m), dtype=int)
    for row in range(d_s):  # one row of temporaries at a time
        table[row, grouping.groups] = y[row, :, None] * d_m + grouping.groups[mu[row]]
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class ControlledInteraction:
    """A joint basis permutation of system (x) memory.

    `table[x, m]` is the flat index of U|x, m> on the d_S * d_M product
    basis; `kind` is one of KINDS.
    """

    kind: str
    grouping: EnergyGrouping
    table: np.ndarray
    variant: int = 0

    @property
    def d_s(self) -> int:
        return self.grouping.d_s

    @property
    def d_m(self) -> int:
        return self.grouping.dim

    @property
    def joint_permutation(self) -> np.ndarray:
        """pi with U|j> = |pi[j]> on the d_S * d_M product basis."""
        return self.table.ravel()


class WriteStep:
    """One write of a d_S x d_S system operator into fresh diagonal memories.

    The memory is one unit (a sequential stage or an hl-bound write) or the
    merged memory of a global run, whose level splits into the unit digits
    `dims`.  Only the occupied levels m_k of `probs`, p[..., k] the population
    of m_k, enter: the input entry rho_xx' p_k at (x m_k, x' m_k) moves to
    (y[x, k] mu[x, k], y[x', k] mu[x', k]), read from `table[:, occupied]`, or
    from the whole table when every level is occupied.  `probs` may be a stack
    of population rows (n, d_M), one per write, that occupy the same levels.
    """

    def __init__(self, u: ControlledInteraction, probs: np.ndarray, dims: tuple[int, ...] | None = None):
        occupied = np.flatnonzero(probs.reshape(-1, u.d_m)[0])
        if occupied.size == u.d_m:
            self.y, self.mu = np.divmod(u.table, u.d_m)
            self.p = probs
        else:
            self.y, self.mu = np.divmod(u.table[:, occupied], u.d_m)
            self.p = probs[..., occupied]
        self.dims = dims or (u.d_m,)

    @cached_property
    def t(self) -> np.ndarray:
        """The stage on the system diagonal: the d_S x d_S transition matrix, t[x, y] the weight of |x> -> |y>."""
        d = len(self.y)
        flat = np.arange(d).reshape(d, 1) * d + self.y
        return np.bincount(flat.ravel(), np.broadcast_to(self.p, flat.shape).ravel(), minlength=d * d).reshape(d, d)

    @cached_property
    def phi(self) -> np.ndarray:
        """The stage's channel on S, d_S^2 x d_S^2 on row-major vec(rho): the entries (x, x', k) with
        mu[x, k] = mu[x', k] survive tracing out the memory."""
        d = len(self.y)
        same = self.mu[:, None] == self.mu[None]
        flat = (self.y[:, None] * d + self.y[None]) * d * d + np.arange(d * d).reshape(d, d, 1)
        phi = np.bincount(flat[same], np.broadcast_to(self.p, same.shape)[same], minlength=d**4)
        return phi.reshape(d * d, d * d)

    def populations(self, f: int, r: np.ndarray) -> np.ndarray:
        """Level populations of memory factor f after writing each system diagonal, a row of r;
        with a stack of population rows, row i of r is written with row i of p."""
        d = self.dims[f]
        levels = self.mu if len(self.dims) == 1 else self.mu // math.prod(self.dims[f + 1 :]) % d
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
    return ControlledInteraction("noninvasive", grouping, _table(grouping, lambda x, nu: (x, (x + nu) % d_s)))


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

    return ControlledInteraction("cycled", grouping, _table(grouping, sector_map), i)


def build_unbiased_swap(grouping: EnergyGrouping) -> ControlledInteraction:
    """Swap of the system with the sector register defined by the grouping.

    Exactly unbiased: the pointer distribution after the swap equals the
    system's outcome-basis diagonal for every input state.
    """
    return ControlledInteraction("swap", grouping, _table(grouping, lambda x, nu: (nu, x)))


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


def transition_matrix(u: ControlledInteraction, probs) -> np.ndarray:
    """Row-stochastic pointer map a[x, y] = Tr[ Pi_y V_x diag(probs) V_x^dagger ] of a controlled shift.

    The outcome distribution of a diagonal input p is p @ a.
    """
    if u.kind == "swap":
        raise WrongKind("transition matrix defined for controlled permutations, not swap")
    if len(probs) != u.d_m:
        raise DimensionMismatch(f"memory populations have {len(probs)} levels, interaction {u.d_m}")
    return u.grouping.readout(u.table % u.d_m, np.broadcast_to(probs, u.table.shape))


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
    diag = rho_joint.matrix.diagonal().real.reshape(d_s, d_m).sum(axis=0)
    return grouping.readout(np.arange(d_m), diag)


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
