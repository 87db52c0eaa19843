"""Information and thermodynamics of measurement records in memories.

Entropy production of a memory write, its Holevo-bound decomposition, and
the classification of the resulting system-memory states (spectrum
broadcast structure, objectivity, ideal and non-invasive regimes).
All entropic quantities are in nats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateOutcomeWarning, DimensionMismatch
from .interact import ControlledInteraction, WriteStep
from .qcore import (
    DensityOperator,
    entropy_of_spectrum,
    evolve,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from .thermal import GibbsState

PROB_FLOOR = 1e-14
TABLE_TOL = 1e-8
# the compass search of minimize
SEARCH_STEP = 0.1
SEARCH_TOL = 1e-7
SEARCH_MAX_POINTS = 2000


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Labeled mixture {p_x, rho_x} of states on a common space."""

    probs: np.ndarray
    states: tuple[DensityOperator, ...]

    def __init__(self, probs, states):
        p = np.asarray(probs, dtype=float).copy()
        states = tuple(states)
        if p.size != len(states):
            raise DimensionMismatch(f"{p.size} probabilities for {len(states)} states")
        if states and any(s.dim != states[0].dim for s in states):
            raise DimensionMismatch("ensemble members live on different spaces")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "states", states)

    def average_state(self) -> DensityOperator:
        m = sum(p * s.matrix for p, s in zip(self.probs, self.states))
        return DensityOperator(m, self.states[0].dims)


@dataclass(frozen=True, eq=False)
class SystemBlocks:
    """A (system, memory) state as d_S x d_S blocks: blocks[s, s', k] = <s, a| rho |s', a'> for the
    memory levels (a, a') = pairs[k], along a contiguous last axis; a pair not listed holds a zero block."""

    pairs: np.ndarray
    blocks: np.ndarray

    def system(self) -> DensityOperator:
        """rho_S' = Tr_M rho: the blocks on the memory diagonal, summed pairwise along their axis."""
        return DensityOperator(self.blocks.compress(self.pairs[:, 0] == self.pairs[:, 1], axis=-1).sum(axis=-1))


def _system_blocks(rho_joint: DensityOperator) -> np.ndarray:
    if len(rho_joint.dims) < 2:
        raise DimensionMismatch("need a (system, memory...) state with >= 2 factors")
    d_s = rho_joint.dims[0]
    d_m = rho_joint.dim // d_s
    return rho_joint.matrix.reshape(d_s, d_m, d_s, d_m)


def conditional_ensemble(rho_joint: DensityOperator) -> Ensemble:
    """Memory ensemble conditioned on the system's outcome basis.

    p_x = <x|rho_S|x> and rho^x = <x|rho|x> / p_x on everything but the
    system factor.  Outcomes with p_x at the probability floor are dropped
    with a DegenerateOutcomeWarning.
    """
    blocks = _system_blocks(rho_joint)
    d_s = rho_joint.dims[0]
    mem_dims = rho_joint.dims[1:]
    probs, states = [], []
    for x in range(d_s):
        block = blocks[x, :, x, :]
        p = float(np.real(np.trace(block)))
        if p <= PROB_FLOOR:
            warnings.warn(
                f"outcome {x} has probability {p:.3e}; dropped", DegenerateOutcomeWarning
            )
            continue
        probs.append(p)
        states.append(DensityOperator(block / p, mem_dims))
    return Ensemble(probs, states)


def holevo_chi(ensemble: Ensemble) -> float:
    """S(sum_x p_x rho_x) - sum_x p_x S(rho_x)."""
    s_avg = von_neumann_entropy(ensemble.average_state())
    return s_avg - float(
        sum(p * von_neumann_entropy(s) for p, s in zip(ensemble.probs, ensemble.states))
    )


class SearchResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int


# no command calls minimize: it stays while perfbench/tracer.py binds it by name, until ROADMAP item 1's tolerant binding
def minimize(fun, x0) -> SearchResult:
    """Compass search for a local minimum near `x0` of `fun`, which maps each row of a point
    array to its value.

    Each poll evaluates x +- step along every coordinate in one call and
    moves to the lowest of them if it is below f(x); otherwise the step
    halves, from SEARCH_STEP until it falls below SEARCH_TOL, or until
    SEARCH_MAX_POINTS points are spent.
    """
    step = SEARCH_STEP
    x = np.asarray(x0, dtype=float)
    best, nfev = float(fun(x[None])[0]), 1
    moves = np.concatenate([np.eye(x.size), -np.eye(x.size)])
    while step >= SEARCH_TOL and nfev < SEARCH_MAX_POINTS:
        trials = x + step * moves
        values = fun(trials)
        nfev += len(trials)
        k = int(np.argmin(values))
        if values[k] < best:
            x, best = trials[k], float(values[k])
        else:
            step /= 2
    return SearchResult(x, best, nfev)


def accessible_info_bracket(probs, rows) -> tuple[float, float]:
    """(lower, upper) accessible-information bracket of the ensemble {probs[x], diag(rows[x])}.

    Every ensemble a run reads has diagonal members: each memory starts
    diagonal and each write permutes its basis.  Commuting members make the
    computational basis attain chi (Holevo 1973), so the bracket closes:
    the lower bound is that measurement's mutual information (zero cells
    dropped), the upper chi.  Each entropy sums the sorted populations, as
    von_neumann_entropy a spectrum.
    """
    joint = np.asarray(probs)[:, None] * rows
    outcomes = joint.sum(axis=0)
    chi = shannon_entropy(np.sort(outcomes)) - float(sum(p * shannon_entropy(np.sort(q)) for p, q in zip(probs, rows)))
    cells = joint > PROB_FLOOR
    mutual_info = float((joint[cells] * np.log(joint[cells] / (joint.sum(axis=1)[:, None] * outcomes)[cells])).sum())
    return min(mutual_info, chi), chi


@dataclass(frozen=True)
class ThermoReport:
    """Energetics and information balance of one memory write.

    All entropic fields are in nats; delta_e_m is in absolute energy units
    and delta_q = beta * delta_e_m is its dimensionless heat value.
    """

    sigma_prod: float
    delta_q: float
    delta_s_system: float
    delta_e_m: float
    delta_s_m: float
    beta_delta_f: float
    mutual_info: float
    rel_entropy_to_thermal: float
    chi: float

    def reeb_wolf_residual(self) -> float:
        """|<Sigma> - I(S:M) - D(rho_M || tau_M)| for the same final state."""
        return abs(self.sigma_prod - self.mutual_info - self.rel_entropy_to_thermal)


def _write_step(rho_s: DensityOperator, step: WriteStep, h_tau: float):
    """(rho_S', the populations of rho_M', S(rho_M'), chi) after the write `step` of rho_S
    into its memory, where h_tau = H(tau).

    rho_S' sums the entries rho_xx' p_k whose memory images agree, member y and rho_M' those
    whose system images agree.  A write that keeps the system label (y = x) makes member x
    the populations p permuted to mu[x]: rho_M' is one row of populations, every member's
    entropy is H(tau), and rho_S' = rho_S o O with O[x, x'] the weight of the levels whose
    images under x and x' agree.  A write that replaces it (swap: y[:, k] is one outcome
    nu_k, mu[:, k] the slot of m_k in every sector) puts p_k rho_S on the levels mu[:, k]:
    rho_S' = diag(P_nu), member nu is the direct sum of p_k rho_S over nu_k = nu, and rho_M'
    that of w_s rho_S over the slots s, so each spectrum is a product of weights with rho_S's.
    Outcomes at the probability floor are dropped from chi with a DegenerateOutcomeWarning,
    as by conditional_ensemble.
    """
    y, mu, p = step.y, step.mu, step.p
    d_s, rho = len(y), rho_s.matrix
    pops = step.populations(0, rho.diagonal().real[None])[0]
    if (y == np.arange(d_s)[:, None]).all():
        rho_s_out = rho * ((mu[:, None] == mu[None]) @ p)
        s_m_out = entropy_of_spectrum(np.sort(pops))
        p_out = rho_s_out.diagonal().real
        member_s = np.full(d_s, h_tau)
    else:
        def entropy(weights):  # of the direct sum of weights[k] rho_S
            return entropy_of_spectrum(np.sort(np.multiply.outer(weights, rho_s.spectrum()), axis=None))

        member = y[0] == np.arange(d_s)[:, None]  # member[nu, k]: nu_k = nu
        p_out = member @ p  # a matrix product: a sequential bincount drifts off Tr = 1 over 2^20 levels
        rho_s_out = np.diag(p_out)
        w = np.bincount(mu[0], p)  # slot s of sector 0 labels the slot
        s_m_out = entropy(w[w > 0])
        q = p / p_out[y[0]]  # each member's own weights; P_nu >= p_k > 0 for nu = nu_k
        member_s = np.array([entropy(q[row]) for row in member])
    kept = p_out > PROB_FLOOR
    for y_out in np.flatnonzero(~kept):
        warnings.warn(f"outcome {y_out} has probability {p_out[y_out]:.3e}; dropped", DegenerateOutcomeWarning)
    chi = s_m_out - float(p_out[kept] @ member_s[kept])
    return DensityOperator(rho_s_out), pops, s_m_out, chi


def thermo_report(rho_s: DensityOperator, tau: GibbsState, u) -> ThermoReport:
    """Entropy production and its decomposition for one write into a thermal memory.

    `u` may be a ControlledInteraction or any joint unitary on system (x) memory.
    A ControlledInteraction is a basis permutation: `_write_step` reads rho_S',
    rho_M' and the members through its `interact.WriteStep` into tau,
    S(rho_out) = S(rho_S) + H(tau) because the write keeps the joint spectrum,
    and D(rho_M' || tau) = -S(rho_M') - sum_m (rho_M')_mm ln tau_m with
    ln tau_m = -beta E_m - ln Z, finite at every temperature.  No joint-size
    state is built.  Any other unitary is applied by conjugation of the dense
    joint state, whose marginals, conditional ensemble and relative entropy
    follow their library definitions.  Either way I(S:M') = S(rho_S') +
    S(rho_M') - S(rho_out).
    """
    energies = tau.hamiltonian.absolute_energies()
    s_s_in = von_neumann_entropy(rho_s)
    h_tau = entropy_of_spectrum(np.sort(tau.probs))  # S(tau): its spectrum is the sorted populations
    if isinstance(u, ControlledInteraction):
        if rho_s.dim != u.d_s or tau.probs.size != u.d_m:
            raise DimensionMismatch(f"interaction is {u.d_s} x {u.d_m}, states are {rho_s.dim} x {tau.probs.size}")
        rho_s_out, pops_m_out, s_m_out, chi = _write_step(rho_s, WriteStep(u, tau.probs), h_tau)
        s_out = s_s_in + h_tau
        rel_entropy = -s_m_out - float(pops_m_out @ (-tau.beta * energies - tau.log_z))
    else:
        rho_out = evolve(tensor(rho_s, tau.state), u)
        rho_s_out = partial_trace(rho_out, (0,))
        rho_m_out = partial_trace(rho_out, (1,))
        pops_m_out = rho_m_out.matrix.diagonal().real
        s_m_out = von_neumann_entropy(rho_m_out)
        s_out = von_neumann_entropy(rho_out)
        chi = holevo_chi(conditional_ensemble(rho_out))
        rel_entropy = relative_entropy(rho_m_out, tau.state)
    s_s_out = von_neumann_entropy(rho_s_out)

    delta_e_m = float(pops_m_out @ energies) - tau.mean_energy()
    delta_s_system = s_s_out - s_s_in
    delta_s_m = s_m_out - h_tau
    delta_q = tau.beta * delta_e_m
    sigma_prod = delta_q + delta_s_system
    beta_delta_f = delta_q - delta_s_m

    return ThermoReport(
        sigma_prod=sigma_prod,
        delta_q=delta_q,
        delta_s_system=delta_s_system,
        delta_e_m=delta_e_m,
        delta_s_m=delta_s_m,
        beta_delta_f=beta_delta_f,
        mutual_info=s_s_out + s_m_out - s_out,
        rel_entropy_to_thermal=rel_entropy,
        chi=chi,
    )


def holevo_landauer_gap(report: ThermoReport) -> float:
    """<Sigma> - chi - beta*Delta F_M; nonnegative when the write bound holds."""
    return report.sigma_prod - report.chi - report.beta_delta_f


@dataclass(frozen=True)
class SBSVerdict:
    """Numerical check of spectrum broadcast structure for a joint state."""

    off_diagonal_norm: float
    conditional_overlap: float
    is_sbs: bool


SBS_TOL = 1e-9


def sbs_test(state: SystemBlocks) -> SBSVerdict:
    """Check block-diagonality in the outcome basis and conditional orthogonality.

    conditional_overlap is the worst pairwise Hilbert-Schmidt overlap
    Tr(rho^x rho^y) between distinct conditional memory states above the
    probability floor; rho is Hermitian, so it sums rho^x[k] conj(rho^y[k]).
    """
    b, d = state.blocks, len(state.blocks)
    off = float(np.max(np.abs(b[~np.eye(d, dtype=bool)]), initial=0.0))
    p = state.system().matrix.diagonal().real
    conditional = b[np.arange(d), np.arange(d)][p > PROB_FLOOR] / p[p > PROB_FLOOR, None]  # rho^x, one entry per pair
    overlap = float(np.max(np.triu((conditional @ conditional.conj().T).real, 1), initial=0.0))
    return SBSVerdict(off, overlap, off <= SBS_TOL and overlap <= SBS_TOL)


TABLE1_ROWS = (
    "sbs",
    "objectivity",
    "ideal",
    "global_unbiased",
    "local_noninvasive",
    "none",
)


@dataclass(frozen=True)
class Table1Evidence:
    """Quantities entering the broadcast-regime classification."""

    i_acc_lower: float
    chi: float
    h_x: float
    s_system_final: float
    s_system_final_diag: float


def classify_table1(evidence: Table1Evidence, tol: float = TABLE_TOL) -> str:
    """Name (from TABLE1_ROWS) of the first matching broadcast regime, strongest first.

    Accessible information equalities are certified through the bracket:
    I_acc = chi is accepted when the lower bound reaches chi within tol.
    """
    ev = evidence

    def eq(a: float, b: float) -> bool:
        return abs(a - b) <= tol

    i_acc_is_chi = ev.chi - ev.i_acc_lower <= tol
    chain = i_acc_is_chi and eq(ev.chi, ev.h_x)
    if chain and eq(ev.h_x, ev.s_system_final):
        return "sbs"
    if chain and eq(ev.h_x, ev.s_system_final_diag):
        return "objectivity"
    if chain and ev.h_x <= ev.s_system_final_diag + tol:
        return "ideal"
    if ev.chi <= ev.h_x + tol and eq(ev.h_x, ev.s_system_final_diag):
        return "local_noninvasive"
    return "none"
