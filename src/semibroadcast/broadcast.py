"""Broadcasting measurement statistics into arrays of thermal memories.

A memory array is an ordered list of units; each unit carries its own
Hamiltonian, initial state, sector structure, and interaction with the
system.  A run is a chain of write steps, each a system operator written
into fresh diagonal memories: one per unit in a sequential run, fed the
system diagonal the previous steps leave, or one into the merged memory
in a global run; no run builds the dense joint state of the product space.
The module also hosts the finite-resource witness, the exact
statistics-reconstruction map, and ideal broadcast states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidBlocks,
    InvalidOperator,
    NonPositiveMemoryEntropy,
    NotInvertible,
)
from .infotherm import SystemBlocks
from .interact import ControlledInteraction, WriteStep, build
from .qcore import DensityOperator, mutual_information, partial_trace, prob_vector
from .thermal import (
    EnergyGrouping,
    MemoryHamiltonian,
    c_max_qubits_analytic,
    gibbs,
    group_energies,
    product_hamiltonian,
)

COMPLEX_BYTES = np.dtype(complex).itemsize
FLOAT_BYTES = np.dtype(float).itemsize
INDEX_BYTES = np.dtype(np.intp).itemsize
# One budget for every array the program allocates at its full size: a write step's
# entry list, which also bounds the arrays of the (S, M_1) marginal, and the dense
# d_S * d_M joint states of hl-bound's haar writes.  It admits a dense complex state of dimension 4096.
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
    """Refuse a memory whose d_S * d_M joint basis, one index per level, exceeds the budget: it bounds the level
    images a write step fills and `interact.apply`'s joint permutation, and refuses a ground memory of 2^30 levels,
    which the entry list admits for its one occupied level, before it is built."""
    check_budget(INDEX_BYTES * d_s * d_m, "joint basis indices")


def check_entry_list(d_s: int, levels: int) -> None:
    """Refuse a write step over `levels` occupied memory levels beyond the budget.

    Each of its d_S^2 * levels entries holds a complex value and a row and a column index.
    """
    check_budget((COMPLEX_BYTES + 2 * INDEX_BYTES) * d_s**2 * levels, "joint entry list")


def check_units(d_s: int, n_units: int) -> None:
    """Refuse a run over `n_units` memory units whose per-unit records exceed the budget.

    A run keeps, per unit, at least four list entries (the unit, its write step, its
    pointer statistics and its system diagonal) and the last two's d_S floats each.
    """
    check_budget((4 * INDEX_BYTES + 2 * FLOAT_BYTES * d_s) * n_units, "per-unit run records")


class BroadcastRun:
    """Outcome of coupling one system state to a memory array.

    Every memory starts fresh and diagonal and every write is a joint-basis
    permutation, so a run is a chain of write steps: one per unit for a
    sequential run, each fed the system state the previous write left
    behind, or one into the merged memory for a global run; unit i is the
    i-th memory factor of the chain.  A step's exact t moves the system diagonal: I
    for noninvasive and cycled writes, W in every row for swap.  A unit's pointer
    statistics are the diagonal entering its step times the step's pointer map for it,
    built once per step.  The same run from every basis input (`ensembles` and
    `basis_defects`) chains one row per input, 0-probability ones too.
    The (S, M_1) marginal is read from the first write's nonzero entries: their
    largest S-off-diagonal |entry| and the Gram matrix and traces of their S-diagonal
    blocks, which the later steps' t move.  No d_M x d_M matrix is built.
    """

    def __init__(self, mode: str, rho_s: DensityOperator, mem: MemoryArray, steps):
        d_s = mem.d_s
        if rho_s.dim != d_s:
            raise DimensionMismatch(f"system dim {rho_s.dim} != array d_s {d_s}")
        self.mode = mode
        self.dims = (d_s,) + mem.dims
        self.p_initial = rho_s.matrix.diagonal().real.copy()
        self._rho_s, self._mem, self._steps = rho_s, mem, steps
        chain = list(self._chain(self.p_initial[None]))
        self.system_diag_history = tuple(r[0] for r in chain[1:])
        self.q = tuple(r[0] @ step.pointer_map(f, u.grouping) for u, step, f, r in self._writes(chain))

    def _chain(self, rows: np.ndarray):
        """The system diagonals `rows` entering each step, then leaving the last."""
        return accumulate(self._steps, lambda diag, step: step.stage(diag), initial=rows)

    def _writes(self, incoming):
        """(unit, step, memory factor, system diagonals entering the step) for every unit in order."""
        units = iter(self._mem.units)
        for step, rows in zip(self._steps, incoming):
            for f in range(len(step.dims)):
                yield next(units), step, f, rows

    @cached_property
    def basis_defects(self) -> np.ndarray:
        """Entry x: the worst deviation of any unit's pointer statistics from input |x>."""
        basis = np.eye(self.dims[0])
        worst = np.zeros(len(basis))
        for u, step, f, rows in self._writes(self._chain(basis)):
            worst = np.maximum(worst, np.abs(rows @ step.pointer_map(f, u.grouping) - basis).max(axis=1))
        return worst

    @cached_property
    def first_marginal(self) -> SystemBlocks:
        """The final (S, M_1) state as `SystemBlocks`: the first write's entries, summed where they
        meet, then each later step's channel T o Delta on S, which moves the Gram and the traces."""
        d, d1 = self.dims[:2]
        first, later = self._steps[0], self._steps[1:]
        y, mu = first.images
        a, rest = np.divmod(mu, math.prod(first.dims[1:]))
        same = rest[:, None] == rest[None]  # the other memory factors agree: traced out
        if later:  # complete records, they dephase S: only entries whose S images agree survive
            same &= y[:, None] == y[None]
        # entry (x, x', k) adds rho_xx' p_k at (y[x, k], y[x', k]) of the block (a[x, k], a[x', k]); the
        # keys order the entries by M_1 pair, then S pair, so that each M_1 pair's entries are adjacent
        key = (a[:, None] * d1 + a[None]) * (d * d)
        key += y[:, None] * d + y[None]
        key = key[same]
        del a, rest  # each full-size array goes once read: the sort's own copies set the peak
        keys, slot = np.unique(key, return_inverse=True)
        del key
        v = np.bincount(slot, (self._rho_s.matrix.real[:, :, None] * first.p)[same])
        v = v + 1j * np.bincount(slot, (self._rho_s.matrix.imag[:, :, None] * first.p)[same])
        del slot, same
        on = keys % (d * d) % (d + 1) == 0  # the S pair (y, y) is y * (d + 1)
        off = float(np.abs(v[~on]).max(initial=0.0))
        pair, y, v = keys[on] // (d * d), keys[on] // d % d, v[on]
        col = np.cumsum(np.diff(pair, prepend=-1) != 0) - 1  # the M_1 pair of each entry, counted in order
        rows = np.flatnonzero(np.bincount(y, minlength=d))  # no row for an outcome with no entry: a swap into a ground memory fills one
        b = np.zeros((len(rows), col[-1] + 1), dtype=complex)
        b[np.searchsorted(rows, y), col] = v
        gram = np.zeros((d, d))
        gram[np.ix_(rows, rows)] = (b @ b.conj().T).real
        traces = np.bincount(y, v.real * (pair // d1 == pair % d1), minlength=d)
        # T_2 ... T_N, each stage's matrix stage(I): M_x -> sum_w t[w, x] M_w
        t = reduce(np.matmul, [step.stage(np.eye(d)) for step in later], np.eye(d))
        return SystemBlocks(t.T @ gram @ t, traces @ t, off)

    def ensembles(self):
        """Per unit in turn, its input-labelled ensemble: row x holds the (diagonal) memory
        state written from |x>, the member of probability p_initial[x], which may be 0."""
        for _, step, f, rows in self._writes(self._chain(np.eye(self.dims[0]))):
            yield step.populations(f, rows)


def run_sequential_local(rho_s: DensityOperator, mem: MemoryArray) -> BroadcastRun:
    """Couple the system to each unit in order; read pointer statistics per unit.

    Each distinct unit's write step is built once.  The run also yields, per
    unit, the ensemble of memory states labeled by the input outcome, which
    is the decomposition the broadcast regime classification refers to.
    """
    steps = {u: WriteStep(u.interaction, u.probs) for u in dict.fromkeys(mem.units)}
    return BroadcastRun(SEQUENTIAL_LOCAL, rho_s, mem, [steps[u] for u in mem.units])


def run_global(rho_s: DensityOperator, mem: MemoryArray, kind: str = "swap", variant: int = 0) -> BroadcastRun:
    """Couple the system once to the whole array through a merged sector structure.

    Pointer statistics are still read out per unit, which is what makes the
    global mode informative: a globally unbiased write need not look unbiased
    on any single unit.  The merged write entangles the units, so this run
    alone pays the product space: its joint basis and occupied levels are checked
    against the byte budget from the units' level counts, before it is built.
    """
    check_entry_list(mem.d_s, math.prod(int(np.count_nonzero(u.probs)) for u in mem.units))
    check_table(mem.d_s, math.prod(mem.dims))
    # merged levels follow the kron ravel order of the unit levels, so the
    # merged write acts on the same flat joint index as the unit factors
    merged_h = product_hamiltonian([u.hamiltonian for u in mem.units])
    merged = build(group_energies(merged_h, mem.d_s), kind, variant)
    step = WriteStep(merged, reduce(np.kron, [u.probs for u in mem.units]), mem.dims)
    return BroadcastRun(GLOBAL, rho_s, mem, [step])


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
        raise NotInvertible(f"c_max={c_max_value} within {INVERTIBILITY_TOL} of uninformative 1/{d_s}")
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
    n_values = sorted(n_values)  # each n as given: the ceiling refuses any but a Python or numpy integer
    bw_values = sorted(float(b) for b in beta_omega_values)
    c = c_max_qubits_analytic(n_values, bw_values, d_s).tolist()
    return [(int(n), bw, value) for bw, row in zip(bw_values, c) for n, value in zip(n_values, row)]
