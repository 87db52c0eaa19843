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
    check_unitary,
    density_spectra,
    entropies,
    partial_trace,  # noqa: F401  no code here calls it: perfbench's tracer test checks that this alias is rebound
    shannon_entropy,
    von_neumann_entropy,
)
from .thermal import GibbsRows

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
    """What `sbs_test` reads of a (system, memory) state rho, whose blocks M_x = <x| rho |x> on the
    system diagonal are the unnormalised conditional memory states: their Gram matrix
    gram[x, x'] = Re Tr M_x M_x'^dagger, their traces, and the largest |entry| off the system diagonal."""

    gram: np.ndarray
    traces: np.ndarray
    off_diagonal: float


def _system_blocks(rho_joint: DensityOperator) -> np.ndarray:
    if len(rho_joint.dims) < 2:
        raise DimensionMismatch("need a (system, memory...) state with >= 2 factors")
    d_s = rho_joint.dims[0]
    d_m = rho_joint.dim // d_s
    return rho_joint.matrix.reshape(d_s, d_m, d_s, d_m)


# no command calls conditional_ensemble or holevo_chi: the dense reference of tests/oracle.py reads
# through them, and perfbench/tracer.py binds both by name, as it binds minimize
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
    computational basis attain chi (Holevo 1973): that measurement's mutual
    information, sum joint ln(joint / (p_x outcomes)), is H(sum_x p_x q_x) -
    sum_x p_x H(q_x) = chi term by term.  So the bracket closes by identity
    and is (chi, chi).  A member of probability 0 adds exactly 0 to both terms.
    """
    outcomes = (np.asarray(probs)[:, None] * rows).sum(axis=0)
    chi = shannon_entropy(outcomes) - float(sum(p * h for p, h in zip(probs, entropies(rows, 0.0))))
    return chi, chi


@dataclass(frozen=True)
class ThermoReport:
    """Energetics and information balance of a stack of memory writes, one array entry per write.

    All entropic fields are in nats; delta_e_m is in absolute energy units
    and delta_q = beta * delta_e_m is its dimensionless heat value.
    """

    sigma_prod: np.ndarray
    delta_q: np.ndarray
    delta_s_system: np.ndarray
    delta_e_m: np.ndarray
    delta_s_m: np.ndarray
    beta_delta_f: np.ndarray
    mutual_info: np.ndarray
    rel_entropy_to_thermal: np.ndarray
    chi: np.ndarray

    def reeb_wolf_residual(self) -> np.ndarray:
        """|<Sigma> - I(S:M) - D(rho_M || tau_M)| of each write's final state."""
        return abs(self.sigma_prod - self.mutual_info - self.rel_entropy_to_thermal)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a[i, m] b[i, m] for each row i, one product per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _write_step(rho: np.ndarray, s_s: np.ndarray, step: WriteStep, h_tau: np.ndarray):
    """(S(rho_S'), the populations of rho_M', S(rho_M'), chi) after the writes `step` of the stack
    rho_S (n, d_S, d_S), of entropy s_s = S(rho_S) per row, into their memories, where
    h_tau = H(tau) per row.

    The write is a complete record, so rho_S' is diagonal: the system diagonal after the step's
    stage, `WriteStep.stage` as a broadcast run chains it, and S(rho_S') is the entropy of those
    populations.  Member y and rho_M' sum the entries rho_xx' p_k whose system images agree.  A write
    that keeps the system label (t = I) makes member x the populations p permuted to mu[x]: rho_M' is
    one row of populations and every member's entropy is H(tau).  A swap sends the level at slot s of
    sector nu, of population p, to slot s of every sector with weight p rho_S: rho_S' = diag(P),
    P = W / sum(W) from the sector weights W, member nu is the direct sum of p / P_nu rho_S over the
    slots of sector nu, and rho_M' that of w_s rho_S, w_s the weight of slot s summed over the sectors.
    The entropy of a direct sum of w_k rho_S with sum_k w_k = 1 is H(w) + S(rho_S), so only exact
    weights enter an entropy besides s_s.  A member divides only its p > 0, by P_nu > 0: chi keeps
    every outcome, and one of probability 0, a sector that a cold row underflows among them, adds 0.
    Every product runs one row at a time, so no row's numbers depend on the others.
    """
    n, d_s = rho.shape[:2]
    diag = rho.diagonal(axis1=1, axis2=2).real
    pops = step.populations(0, diag)
    p_out = step.stage(diag)
    if (step.u.sectors[0] == np.arange(d_s)[:, None]).all():
        s_m_out = entropies(pops, 0.0)
        member_s = np.broadcast_to(h_tau[:, None], p_out.shape)
    else:  # a stack is read over every level: sectors[:, nu, s] is the population at slot s of sector nu
        sectors = step.p[:, step.u.grouping.groups]
        s_m_out = entropies(sectors.sum(axis=1), 0.0) + s_s
        q = np.divide(sectors, p_out[:, :, None], out=np.zeros_like(sectors), where=sectors > 0)  # member nu's weights
        member_s = entropies(q.reshape(n * d_s, -1), 0.0).reshape(n, d_s) + s_s[:, None]
    chi = s_m_out - (p_out * member_s).sum(axis=1)
    return entropies(p_out, 0.0), pops, s_m_out, chi


def _conjugated(rho: np.ndarray, probs: np.ndarray, u: np.ndarray):
    """(S(rho_S'), the populations of rho_M', S(rho_M'), chi) after U (rho_S (x) tau) U^dagger
    for each row of the stacks rho_S (n, d_S, d_S), tau's populations (n, d_M) and U (n, D, D).

    The joint state is dense and not checked: U is, and the checks of rho_S', rho_M' and the
    conditional members <x|rho_out|x> / p_x stand in for it.  chi = S(rho_M') - sum_x p_x S(rho^x),
    as for a write step, over the outcomes above the probability floor: rho^x divides by p_x.
    One DegenerateOutcomeWarning names every (row, outcome) dropped from it.
    """
    n, d_s = rho.shape[:2]
    d_m = probs.shape[-1]
    tau = np.zeros((n, d_m, d_m), dtype=complex)
    tau[:, np.arange(d_m), np.arange(d_m)] = probs
    joint = (rho[:, :, None, :, None] * tau[:, None, :, None, :]).reshape(n, d_s * d_m, d_s * d_m)
    out = u @ joint @ u.conj().swapaxes(-1, -2)
    del tau, joint
    blocks = out.reshape(n, d_s, d_m, d_s, d_m)
    rho_s_out = np.trace(blocks, axis1=2, axis2=4)
    rho_m_out = np.trace(blocks, axis1=1, axis2=3)
    members = np.moveaxis(blocks.diagonal(axis1=1, axis2=3), -1, 1)  # <x|rho_out|x>: (n, d_S, d_M, d_M)
    p = np.trace(members, axis1=2, axis2=3).real
    kept = p > PROB_FLOOR
    if not kept.all():
        dropped = ", ".join(f"row {i} outcome {x} ({p[i, x]:.3e})" for i, x in zip(*np.nonzero(~kept)))
        warnings.warn(f"outcomes at the probability floor dropped: {dropped}", DegenerateOutcomeWarning)
    member_s = np.zeros(p.shape)
    member_s[kept] = entropies(density_spectra(members[kept] / p[kept][:, None, None]))
    s_m_out = entropies(density_spectra(rho_m_out))
    chi = s_m_out - np.where(kept, p * member_s, 0.0).sum(axis=1)
    pops = rho_m_out.diagonal(axis1=1, axis2=2).real
    return entropies(density_spectra(rho_s_out)), pops, s_m_out, chi


def thermo_report(rho_s: np.ndarray, tau: GibbsRows, u) -> ThermoReport:
    """Entropy production and its decomposition for a stack of n writes into thermal memories.

    rho_S is an (n, d_S, d_S) array, checked here as DensityOperator checks one
    matrix; tau is thermal.GibbsRows of n rows; `u` is one ControlledInteraction
    for every row or an (n, D, D) stack of joint unitaries, checked for
    unitarity.  Every report field is an array of n, and no row's numbers
    depend on the other rows.

    A ControlledInteraction is a basis permutation: `_write_step` reads rho_S',
    rho_M' and the members through its `interact.WriteStep` into tau, and no
    joint-size state is built.  Any other unitary is applied by conjugation of
    the dense joint states (`_conjugated`).  Either way every write keeps the
    spectrum of rho_S (x) tau, so S(rho_out) = S(rho_S) + H(tau) with no joint
    spectrum; chi = S(rho_M') - sum_x p_x S(rho^x), over every outcome of a
    permutation write and over those above PROB_FLOOR of a conjugation;
    D(rho_M' || tau) = -S(rho_M') - sum_m (rho_M')_mm ln tau_m with
    ln tau_m = -beta eps_m - ln Z_0 from the energies eps = E - min E of the
    row, finite at every temperature; and
    I(S:M') = S(rho_S') + S(rho_M') - S(rho_out).
    """
    d_s, d_m = rho_s.shape[-1], tau.probs.shape[-1]
    s_s_in = entropies(density_spectra(rho_s))
    e_0 = tau.energies.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        span = tau.energies.max(axis=1) - e_0[:, 0]
    if not np.isfinite(span).all():
        raise DimensionMismatch(f"the energies of row {np.argmin(np.isfinite(span))} span more than the float range")
    h_tau = entropies(tau.probs, 0.0)  # S(tau): its spectrum is the populations
    if isinstance(u, ControlledInteraction):
        if d_s != u.d_s or d_m != u.d_m:
            raise DimensionMismatch(f"interaction is {u.d_s} x {u.d_m}, states are {d_s} x {d_m}")
        s_s_out, pops_m_out, s_m_out, chi = _write_step(rho_s, s_s_in, WriteStep(u, tau.probs), h_tau)
    else:
        if u.shape[-1] != d_s * d_m:
            raise DimensionMismatch(f"unitary dim {u.shape[-1]} != state dim {d_s * d_m}")
        check_unitary(u)
        s_s_out, pops_m_out, s_m_out, chi = _conjugated(rho_s, tau.probs, u)
    s_out = s_s_in + h_tau  # a unitary keeps the spectrum of rho_S (x) tau
    # each row's energies from its ground level E_0, so that <E> and ln tau round at the size of beta dE, not beta E_0
    eps = tau.energies - e_0
    delta_e_m = _row_dot(pops_m_out, eps) - _row_dot(tau.probs, eps)
    log_tau = -tau.beta[:, None] * eps
    # ln Z_0 = ln sum e^(-beta eps): a log-sum-exp whose largest term, the ground level's, is e^0 = 1
    log_tau -= np.log(np.exp(log_tau).sum(axis=1))[:, None]
    delta_s_system = s_s_out - s_s_in
    delta_s_m = s_m_out - h_tau
    delta_q = tau.beta * delta_e_m
    return ThermoReport(
        sigma_prod=delta_q + delta_s_system,
        delta_q=delta_q,
        delta_s_system=delta_s_system,
        delta_e_m=delta_e_m,
        delta_s_m=delta_s_m,
        beta_delta_f=delta_q - delta_s_m,
        mutual_info=s_s_out + s_m_out - s_out,
        rel_entropy_to_thermal=-s_m_out - _row_dot(pops_m_out, log_tau),
        chi=chi,
    )


def holevo_landauer_gap(report: ThermoReport) -> np.ndarray:
    """<Sigma> - chi - beta*Delta F_M of each write; nonnegative where the write bound holds."""
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
    Tr(rho^x rho^y) = gram[x, y] / (p_x p_y) between distinct conditional memory
    states rho^x = M_x / p_x, each divided by its own trace p_x, above the probability floor.
    """
    kept = state.traces > PROB_FLOOR
    p = state.traces[kept]
    overlap = float(np.max(np.triu(state.gram[np.ix_(kept, kept)] / np.outer(p, p), 1), initial=0.0))
    return SBSVerdict(state.off_diagonal, overlap, state.off_diagonal <= SBS_TOL and overlap <= SBS_TOL)


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
