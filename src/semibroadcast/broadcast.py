"""Broadcasting measurement statistics into arrays of thermal memories.

A memory array is an ordered list of units; each unit carries its own
Hamiltonian, initial state, sector structure, and interaction with the
system.  Protocol runs couple the system to each unit and read the pointer
statistics q^(i) per unit.  This module also hosts the finite-resource
witness, the exact statistics-reconstruction map, and direct constructors
for ideal broadcast states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateOutcomeWarning,
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidBlocks,
    InvalidOperator,
    NonPositiveMemoryEntropy,
    NotInvertible,
)
from .infotherm import PROB_FLOOR, Ensemble
from .interact import ControlledInteraction, build, conjugate, joint_images
from .qcore import DensityOperator, _check_factors, diag_density, mutual_information, partial_trace, prob_vector
from .thermal import (
    EnergyGrouping,
    MemoryHamiltonian,
    c_max_qubits_analytic,
    gibbs,
    group_energies,
    product_hamiltonian,
)

COMPLEX_BYTES = np.dtype(complex).itemsize
INDEX_BYTES = np.dtype(np.intp).itemsize
# One budget for every array a run allocates at its full size: the dense
# oracle's D x D state and the structured engine's entry list alike.  It
# admits a dense complex state of dimension 4096.
BYTE_BUDGET = COMPLEX_BYTES * 4096**2
INVERTIBILITY_TOL = 1e-9

SEQUENTIAL_LOCAL = "sequential_local"
GLOBAL = "global"


@dataclass(frozen=True, eq=False)
class MemoryUnit:
    """One memory (or subcomponent) with its sector structure and interaction.

    The initial state is diagonal in the energy basis: `probs[m]` is the
    population of level m.
    """

    hamiltonian: MemoryHamiltonian
    probs: np.ndarray
    interaction: ControlledInteraction

    def __post_init__(self):
        probs = prob_vector(self.probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.size != self.hamiltonian.dim:
            raise DimensionMismatch("unit populations and Hamiltonian dims disagree")
        if self.interaction.d_m != self.hamiltonian.dim:
            raise DimensionMismatch("unit interaction does not act on this memory")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def grouping(self) -> EnergyGrouping:
        return self.interaction.grouping


def thermal_unit(
    hamiltonian: MemoryHamiltonian,
    beta: float,
    d_s: int,
    kind: str = "noninvasive",
    variant: int = 0,
) -> MemoryUnit:
    """Unit holding a Gibbs state with an interaction of the requested kind."""
    return explicit_unit(hamiltonian, gibbs(hamiltonian, beta).probs, d_s, kind, variant)


def explicit_unit(
    hamiltonian: MemoryHamiltonian,
    probs,
    d_s: int,
    kind: str = "noninvasive",
    variant: int = 0,
) -> MemoryUnit:
    """Unit with the given level populations (Gibbs, ground, or any other)."""
    return MemoryUnit(hamiltonian, probs, build(group_energies(hamiltonian, d_s), kind, variant))


@dataclass(frozen=True, eq=False)
class MemoryArray:
    """Ordered collection of memory units sharing one system dimension."""

    d_s: int
    units: tuple[MemoryUnit, ...]

    def __init__(self, d_s: int, units):
        units = tuple(units)
        if not units:
            raise DimensionMismatch("memory array needs at least one unit")
        for u in units:
            if u.grouping.d_s != d_s:
                raise DimensionMismatch(
                    f"unit grouped for d_s={u.grouping.d_s}, array expects {d_s}"
                )
        object.__setattr__(self, "d_s", int(d_s))
        object.__setattr__(self, "units", units)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.dim for u in self.units)

    def total_dim(self) -> int:
        return self.d_s * math.prod(self.dims)


def check_budget(nbytes: int, what: str) -> None:
    """Refuse an array of `nbytes` beyond BYTE_BUDGET, before it is allocated."""
    if nbytes > BYTE_BUDGET:
        size = nbytes if nbytes < 2**64 else f"over 2^{nbytes.bit_length() - 1}"
        raise DimensionBudgetExceeded(f"{what} needs {size} bytes, budget {BYTE_BUDGET}")


def check_table(d_s: int, d_m: int) -> None:
    """Refuse an interaction whose joint image table (d_S * d_M indices) exceeds the budget."""
    check_budget(INDEX_BYTES * d_s * d_m, "interaction table")


def check_entry_list(d_s: int, levels: int) -> None:
    """Refuse a joint entry list over `levels` occupied memory levels beyond the budget.

    Each of its d_S^2 * levels entries holds a complex value and a row and a column index.
    """
    check_budget((COMPLEX_BYTES + 2 * INDEX_BYTES) * d_s**2 * levels, "joint entry list")


def _final_joint(rho_s: DensityOperator, mem: MemoryArray, stages) -> np.ndarray:
    """Dense oracle: rho_S (x) diag(p_1) (x) ... (x) diag(p_N) conjugated by every stage."""
    total = mem.total_dim()
    check_budget(COMPLEX_BYTES * total * total, "dense joint state")
    joint = rho_s.matrix
    for u in mem.units:
        joint = np.kron(joint, np.diag(u.probs))
    for stage in stages:
        joint = conjugate(joint, joint_images(*stage))
    return joint


def _memory_entries(rho_s: DensityOperator, mem: MemoryArray):
    """Occupied levels m and populations p_m of the product p_1 (x) ... (x) p_N.

    Checks the system dimension and that the joint entry list (a complex
    value and a row and column index for each of its d_S^2 * nnz entries)
    fits the byte budget, before allocating it.
    """
    if rho_s.dim != mem.d_s:
        raise DimensionMismatch(f"system dim {rho_s.dim} != array d_s {mem.d_s}")
    occupied = [np.flatnonzero(u.probs) for u in mem.units]
    check_entry_list(mem.d_s, math.prod(len(a) for a in occupied))
    levels = np.zeros(1, dtype=np.intp)
    values = np.ones(1)
    for u, a in zip(mem.units, occupied):
        levels = (levels[:, None] * u.dim + a).ravel()
        values = (values[:, None] * u.probs[a]).ravel()
    return levels, values


class BroadcastRun:
    """Outcome of coupling one system state to a memory array.

    Every write is a joint-basis permutation and every memory is diagonal,
    p = p_1 (x) ... (x) p_N, so the final state U (rho_S (x) diag p) U^dagger
    is the list of entries rho_{xx'} p_m at row pi(x, m), column pi(x', m),
    with m over the occupied levels and pi the composed permutation of the
    run's stages.  Statistics, input-labelled ensembles and reduced states
    are scatter-adds over that list.  The dense matrix `state` is built only
    on request, by the dense oracle, within BYTE_BUDGET.
    """

    def __init__(self, mode: str, rho_s: DensityOperator, mem: MemoryArray, memory, stages):
        levels, values = memory
        d_s = mem.d_s
        d_m = math.prod(mem.dims)
        self.mode = mode
        self.dims = (d_s,) + mem.dims
        self.p_initial = rho_s.matrix.diagonal().real.copy()
        self._rho_s, self._mem, self._stages = rho_s, mem, stages
        self._values = values
        # rows[x, k] = pi(x, m_k): the row of entry (x, x', m_k), and its column for x' = x
        rows = np.arange(d_s)[:, None] * d_m + levels
        weights = (self.p_initial[:, None] * values).ravel()
        history = []
        for stage in stages:
            rows = joint_images(*stage, rows)
            history.append(np.bincount((rows // d_m).ravel(), weights, minlength=d_s))
        self._rows = rows
        self.system_diag_history = tuple(history)
        self.q = tuple(
            u.grouping.readout(self._digits(rows, (i + 1,)).ravel(), weights)
            for i, u in enumerate(mem.units)
        )
        self._labels = [x for x in range(d_s) if self.p_initial[x] > PROB_FLOOR]
        if len(self._labels) < d_s:
            dropped = [x for x in range(d_s) if x not in self._labels]
            warnings.warn(
                f"outcomes {dropped} have probability at the floor; dropped",
                DegenerateOutcomeWarning,
            )

    def _digits(self, index, factors):
        """The joint indices `index` read as mixed-radix indices over `factors` alone."""
        dims = self.dims
        out = 0
        for f in factors:
            out = out * dims[f] + index // math.prod(dims[f + 1 :]) % dims[f]
        return out

    @cached_property
    def state(self) -> DensityOperator:
        """The dense final state, from the dense oracle."""
        return DensityOperator(_final_joint(self._rho_s, self._mem, self._stages), self.dims)

    @cached_property
    def ensembles(self) -> tuple[Ensemble, ...]:
        """Per-unit memory ensembles labelled by the basis input written.

        Member x of unit i is the unit's reduced state of U (|x><x| (x) diag p)
        U^dagger.  The write permutes basis states, so the member is diagonal:
        each population p_m lands on the unit's level of row pi(x, m).
        Outcomes at the probability floor are left out.
        """
        ensembles = []
        for i, u in enumerate(self._mem.units):
            check_budget(COMPLEX_BYTES * u.dim * u.dim, "reduced state")
            levels = self._digits(self._rows, (i + 1,))  # [x, k]: unit level of row pi(x, m_k)
            members = [
                diag_density(np.bincount(levels[x], self._values, minlength=u.dim), (u.dim,))
                for x in self._labels
            ]
            ensembles.append(Ensemble(self.p_initial[self._labels], members))
        return tuple(ensembles)

    def reduced(self, keep) -> DensityOperator:
        """Reduced final state on the factors `keep` (0 is the system), in that order.

        Scatter-adds the entries whose traced factors agree between row and column.
        """
        keep = _check_factors(self, keep)
        dims = self.dims
        kept_dims = tuple(dims[f] for f in keep)
        d = math.prod(kept_dims)
        check_budget(COMPLEX_BYTES * d * d, "reduced state")
        traced = [f for f in range(len(dims)) if f not in keep]
        rows, cols = self._rows[:, None, :], self._rows[None, :, :]
        values = self._rho_s.matrix[:, :, None] * self._values
        shape = np.broadcast_shapes(rows.shape, cols.shape)
        match = np.broadcast_to(self._digits(rows, traced) == self._digits(cols, traced), shape)
        flat = np.broadcast_to(self._digits(rows, keep) * d + self._digits(cols, keep), shape)[match]
        vals = np.broadcast_to(values, shape)[match]
        matrix = np.bincount(flat, vals.real, minlength=d * d) + 1j * np.bincount(
            flat, vals.imag, minlength=d * d
        )
        return DensityOperator(matrix.reshape(d, d), kept_dims)


def run_sequential_local(rho_s: DensityOperator, mem: MemoryArray) -> BroadcastRun:
    """Couple the system to each unit in order; read pointer statistics per unit.

    The run also holds, per unit, the ensemble of memory states labeled by
    the input outcome, which is the decomposition the broadcast regime
    classification refers to.
    """
    memory = _memory_entries(rho_s, mem)
    dims = (mem.d_s,) + mem.dims
    stages = tuple((dims, i + 1, unit.interaction) for i, unit in enumerate(mem.units))
    return BroadcastRun(SEQUENTIAL_LOCAL, rho_s, mem, memory, stages)


def run_global(rho_s: DensityOperator, mem: MemoryArray, kind: str = "swap", variant: int = 0) -> BroadcastRun:
    """Couple the system once to the whole array through a merged sector structure.

    Pointer statistics are still read out per unit, which is what makes the
    global mode informative: a globally unbiased write need not look unbiased
    on any single unit.
    """
    memory = _memory_entries(rho_s, mem)
    check_table(mem.d_s, math.prod(mem.dims))
    # merged levels follow the kron ravel order of the unit levels, so the
    # (system, merged memory) stage acts on the same flat joint index
    merged_h = product_hamiltonian([u.hamiltonian for u in mem.units])
    merged = build(group_energies(merged_h, mem.d_s), kind, variant)
    return BroadcastRun(GLOBAL, rho_s, mem, memory, (((mem.d_s, merged_h.dim), 1, merged),))


def ideal_scb_defect(run: BroadcastRun) -> float:
    """Worst deviation of any unit's pointer statistics from the input distribution."""
    return max(float(np.max(np.abs(run.p_initial - qi))) for qi in run.q)


@dataclass(frozen=True)
class NoGoWitness:
    """Entropy-counting witness that redundant unbiased copying must fail.

    Compares lhs(k) = S(rho_S) + 2^k S(M_1) against
    rhs(k) = 2^k H(X) + ln d_S for doubling depth k; any finite k with
    lhs > rhs certifies the obstruction.
    """

    s_rho_s: float
    s_m1: float
    h_x: float
    d_s: int
    k: int | None
    lhs: float | None
    rhs: float | None
    violated: bool


MAX_WITNESS_DEPTH = 256


def nogo_witness(s_rho_s: float, s_m1: float, h_x: float, d_s: int) -> NoGoWitness:
    """Smallest doubling depth k at which the entropy count fails, if any."""
    if s_m1 <= 0.0:
        raise NonPositiveMemoryEntropy(f"memory entropy {s_m1} must be positive")
    if d_s < 2:
        raise DimensionMismatch(f"need d_s >= 2, got {d_s}")
    if s_rho_s < 0.0 or h_x < 0.0:
        raise DimensionMismatch("entropies must be nonnegative")
    log_d = math.log(d_s)
    if s_m1 > h_x:
        for k in range(MAX_WITNESS_DEPTH + 1):
            lhs = s_rho_s + (2.0**k) * s_m1
            rhs = (2.0**k) * h_x + log_d
            if lhs > rhs:
                return NoGoWitness(s_rho_s, s_m1, h_x, d_s, k, lhs, rhs, True)
    return NoGoWitness(s_rho_s, s_m1, h_x, d_s, None, None, None, False)


def reconstruct_p(q_variants, c_max_value: float, d_s: int) -> np.ndarray:
    """Invert averaged pointer statistics of the d_S - 1 cycled variants.

    q_av = p * c_max + (1 - p) * (1 - c_max) / (d_S - 1) componentwise, which
    is invertible away from c_max = 1/d_S.
    """
    if d_s < 2:
        raise DimensionMismatch(f"need d_s >= 2, got {d_s}")
    q_variants = [prob_vector(q) for q in q_variants]
    if len(q_variants) != d_s - 1:
        raise DimensionMismatch(f"need exactly {d_s - 1} variant distributions, got {len(q_variants)}")
    if any(q.size != d_s for q in q_variants):
        raise DimensionMismatch("variant distributions must have d_s outcomes")
    if abs(c_max_value - 1.0 / d_s) <= INVERTIBILITY_TOL:
        raise NotInvertible(
            f"c_max={c_max_value} within {INVERTIBILITY_TOL} of uninformative 1/{d_s}"
        )
    q_av = np.mean(q_variants, axis=0)
    c = (1.0 - c_max_value) / (d_s - 1)
    p = (q_av - c) / (c_max_value - c)
    p[(p < 0.0) & (p > -1e-12)] = 0.0
    return prob_vector(p)


def ideal_broadcasting_state(p, blocks, off=None) -> DensityOperator:
    """Assemble sum_x p_x |x><x| (x)_j A^j_x (+ off) and validate it.

    `blocks[j][x]` are positive, mutually orthogonal (over x) matrices per
    component j; they are trace-normalized here.  `off` is an optional
    residual carrying outcome coherences; the assembled matrix must still be
    a valid state.
    """
    p = prob_vector(p)
    d_s = p.size
    blocks = [list(component) for component in blocks]
    if not blocks:
        raise InvalidBlocks("need at least one component")
    normalized = []
    for j, component in enumerate(blocks):
        if len(component) != d_s:
            raise InvalidBlocks(f"component {j} has {len(component)} blocks for {d_s} outcomes")
        mats = [np.asarray(b, dtype=complex) for b in component]
        d_j = mats[0].shape[0]
        col = []
        for x, m in enumerate(mats):
            if m.shape != (d_j, d_j):
                raise InvalidBlocks(f"component {j} blocks have mixed shapes")
            if np.max(np.abs(m - m.conj().T)) > 1e-12:
                raise InvalidBlocks(f"block ({j}, {x}) is not Hermitian")
            if float(np.min(np.linalg.eigvalsh(m))) < -1e-12:
                raise InvalidBlocks(f"block ({j}, {x}) is not positive semidefinite")
            tr = float(np.real(np.trace(m)))
            if tr <= 0.0:
                raise InvalidBlocks(f"block ({j}, {x}) has nonpositive trace")
            col.append(m / tr)
        for x in range(d_s):
            for y in range(x + 1, d_s):
                if float(np.max(np.abs(col[x] @ col[y]))) > 1e-12:
                    raise InvalidBlocks(f"blocks ({j}, {x}) and ({j}, {y}) are not orthogonal")
        normalized.append(col)
    dims = (d_s,) + tuple(c[0].shape[0] for c in normalized)
    total = math.prod(dims)
    out = np.zeros((total, total), dtype=complex)
    for x in range(d_s):
        basis = np.zeros((d_s, d_s))
        basis[x, x] = 1.0
        term = basis
        for col in normalized:
            term = np.kron(term, col[x])
        out += p[x] * term
    if off is not None:
        off = np.asarray(off, dtype=complex)
        if off.shape != out.shape:
            raise InvalidBlocks(f"off-block shape {off.shape} != {out.shape}")
        out = out + off
    try:
        return DensityOperator(out, dims)
    except InvalidOperator as exc:
        raise InvalidBlocks(f"assembled matrix is not a state: {exc}") from exc


def objectivity_mutual_info(state: DensityOperator, component: int) -> float:
    """I(S : M_component) of a joint broadcast state (component counted from 0)."""
    marg = partial_trace(state, (0, component + 1))
    return mutual_information(marg, (0,))


def sweep_cmax_convergence(n_values, beta_omega_values, d_s: int = 2) -> list[tuple[int, float, float]]:
    """(n, beta*omega, c_max) rows for qubit-chain memories, analytic path.

    Rows are ordered by (beta*omega, n) so output files are reproducible.
    """
    rows = []
    for bw in sorted(float(b) for b in beta_omega_values):
        for n in sorted(int(n) for n in n_values):
            rows.append((n, bw, c_max_qubits_analytic(n, bw, d_s)))
    return rows
