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
    """Energetics and information balance of one memory write, or arrays over a stack of writes.

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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a[i, m] b[i, m] for each row i, one product per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _drop(p_out: np.ndarray) -> np.ndarray:
    """The outcomes of each row above the probability floor; each one below is named in a DegenerateOutcomeWarning."""
    kept = p_out > PROB_FLOOR
    for row, y in zip(*np.nonzero(~kept)):
        warnings.warn(f"outcome {y} has probability {p_out[row, y]:.3e}; dropped", DegenerateOutcomeWarning)
    return kept


def _write_step(rho: np.ndarray, spectra: np.ndarray, step: WriteStep, h_tau: np.ndarray):
    """(rho_S', the populations of rho_M', S(rho_M'), chi) after the writes `step` of the stack
    rho_S (n, d_S, d_S), with its spectra, into their memories, where h_tau = H(tau) per row.

    rho_S' sums the entries rho_xx' p_k whose memory images agree, member y and rho_M' those
    whose system images agree.  A write that keeps the system label (y = x) makes member x
    the populations p permuted to mu[x]: rho_M' is one row of populations, every member's
    entropy is H(tau), and rho_S' = rho_S o O with O[x, x'] the weight of the levels whose
    images under x and x' agree.  A write that replaces it (swap: y[:, k] is one outcome
    nu_k, mu[:, k] the slot of m_k in every sector) puts p_k rho_S on the levels mu[:, k]:
    rho_S' = diag(P_nu), member nu is the direct sum of p_k rho_S over nu_k = nu, and rho_M'
    that of w_s rho_S over the slots s, so each spectrum is a product of weights with rho_S's.
    Outcomes at the probability floor are dropped from chi with a DegenerateOutcomeWarning.
    Every product runs one row at a time, so no row's numbers depend on the others.
    """
    y, mu, p = step.y, step.mu, step.p
    n, d_s = rho.shape[:2]
    pops = step.populations(0, rho.diagonal(axis1=1, axis2=2).real)
    if (y == np.arange(d_s)[:, None]).all():
        same = (mu[:, None] == mu[None]).astype(float)
        rho_s_out = rho * (same @ p[:, None, :, None])[..., 0]
        s_m_out = entropies(np.sort(pops, axis=-1))
        p_out = rho_s_out.diagonal(axis1=1, axis2=2).real
        member_s = np.broadcast_to(h_tau[:, None], p_out.shape)
    else:
        def entropy(weights):  # of the direct sum of weights[i, k] rho_S[i], per row i
            return entropies(np.sort((weights[:, :, None] * spectra[:, None, :]).reshape(n, -1), axis=-1))

        member = y[0] == np.arange(d_s)[:, None]  # member[nu, k]: nu_k = nu
        p_out = (member.astype(float) @ p[:, :, None])[..., 0]  # a matrix product: a sequential bincount drifts off Tr = 1 over 2^20 levels
        rho_s_out = p_out[:, :, None] * np.eye(d_s)
        slots = np.arange(n)[:, None] * step.dims[0] + mu[0]  # slot s of sector 0 labels the slot
        s_m_out = entropy(np.bincount(slots.ravel(), p.ravel(), minlength=n * step.dims[0]).reshape(n, -1))
        q = p / p_out[:, y[0]]  # each member's own weights; P_nu >= p_k > 0 for nu = nu_k
        member_s = np.stack([entropy(q[:, row]) for row in member], axis=1)
    kept = _drop(p_out)
    chi = s_m_out - np.where(kept, p_out * member_s, 0.0).sum(axis=1)
    return rho_s_out, pops, s_m_out, chi


def _conjugated(rho: np.ndarray, probs: np.ndarray, u: np.ndarray):
    """(rho_S', the populations of rho_M', S(rho_M'), S(rho_out), chi) after U (rho_S (x) tau) U^dagger
    for each row of the stacks rho_S (n, d_S, d_S), tau's populations (n, d_M) and U (n, D, D).

    The joint state, its marginals, the conditional members <x|rho_out|x> / p_x and their
    average are dense and checked as DensityOperator checks one state; outcomes at the
    probability floor are dropped from chi with a DegenerateOutcomeWarning.
    """
    n, d_s = rho.shape[:2]
    d_m = probs.shape[-1]
    tau = np.zeros((n, d_m, d_m), dtype=complex)
    tau[:, np.arange(d_m), np.arange(d_m)] = probs
    joint = (rho[:, :, None, :, None] * tau[:, None, :, None, :]).reshape(n, d_s * d_m, d_s * d_m)
    out = u @ joint @ u.conj().swapaxes(-1, -2)
    del tau, joint  # before the check's temporaries
    s_out = entropies(density_spectra(out))
    blocks = out.reshape(n, d_s, d_m, d_s, d_m)
    rho_s_out = np.trace(blocks, axis1=2, axis2=4)
    rho_m_out = np.trace(blocks, axis1=1, axis2=3)
    members = np.moveaxis(blocks.diagonal(axis1=1, axis2=3), -1, 1)  # <x|rho_out|x>: (n, d_S, d_M, d_M)
    p = np.trace(members, axis1=2, axis2=3).real
    kept = _drop(p)
    states = members / np.where(kept, p, 1.0)[..., None, None]
    member_s = np.zeros(p.shape)
    member_s[kept] = entropies(density_spectra(states[kept]))
    weights = np.where(kept, p, 0.0)
    average = (weights[..., None, None] * states).sum(axis=1)
    chi = entropies(density_spectra(average)) - (weights * member_s).sum(axis=1)
    pops = rho_m_out.diagonal(axis1=1, axis2=2).real
    return rho_s_out, pops, entropies(density_spectra(rho_m_out)), s_out, chi


def _thermo_rows(rho: np.ndarray, spectra: np.ndarray, tau: GibbsRows, u) -> ThermoReport:
    n, d_s = rho.shape[:2]
    d_m = tau.probs.shape[-1]
    s_s_in = entropies(spectra)
    h_tau = entropies(np.sort(tau.probs, axis=-1))  # S(tau): its spectrum is the sorted populations
    if isinstance(u, ControlledInteraction):
        if d_s != u.d_s or d_m != u.d_m:
            raise DimensionMismatch(f"interaction is {u.d_s} x {u.d_m}, states are {d_s} x {d_m}")
        occupied = tau.probs > 0
        if (occupied != occupied[0]).any():  # a write step reads the levels its rows share
            return _by_occupied_levels(rho, spectra, tau, u, occupied)
        rho_s_out, pops_m_out, s_m_out, chi = _write_step(rho, spectra, WriteStep(u, tau.probs), h_tau)
        s_out = s_s_in + h_tau
    else:
        if u.shape[-1] != d_s * d_m:
            raise DimensionMismatch(f"unitary dim {u.shape[-1]} != state dim {d_s * d_m}")
        check_unitary(u)
        rho_s_out, pops_m_out, s_m_out, s_out, chi = _conjugated(rho, tau.probs, u)
    s_s_out = entropies(density_spectra(rho_s_out))
    log_tau = -tau.beta[:, None] * tau.energies - tau.log_z[:, None]

    delta_e_m = _row_dot(pops_m_out, tau.energies) - _row_dot(tau.probs, tau.energies)
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


def _by_occupied_levels(rho, spectra, tau: GibbsRows, u: ControlledInteraction, occupied) -> ThermoReport:
    """The report of a stack whose rows occupy different levels: each set of rows that agree is written as its own stack."""
    _, part = np.unique(occupied, axis=0, return_inverse=True)
    part = part.ravel()
    fields = {name: np.empty(len(rho)) for name in ThermoReport.__dataclass_fields__}
    for j in range(part.max() + 1):
        rows = part == j
        rep = _thermo_rows(rho[rows], spectra[rows], GibbsRows(*(a[rows] for a in tau)), u)
        for name, values in fields.items():
            values[rows] = getattr(rep, name)
    return ThermoReport(**fields)


def thermo_report(rho_s, tau, u) -> ThermoReport:
    """Entropy production and its decomposition for a stack of writes into thermal memories.

    A stack is rho_S as an (n, d_S, d_S) array, checked here as DensityOperator
    checks one matrix, tau as thermal.GibbsRows of n rows, and `u` either one
    ControlledInteraction for every row or an (n, D, D) stack of joint
    unitaries, checked for unitarity; every report field is then an array of n.
    One write (rho_S a DensityOperator, tau a GibbsState, `u` a
    ControlledInteraction or one joint unitary) is the stack of one, and its
    fields are floats.  No row's numbers depend on the other rows.

    A ControlledInteraction is a basis permutation: `_write_step` reads rho_S',
    rho_M' and the members through its `interact.WriteStep` into tau, and
    S(rho_out) = S(rho_S) + H(tau) because the write keeps the joint spectrum.
    No joint-size state is built.  Any other unitary is applied by conjugation
    of the dense joint states (`_conjugated`).  Either way
    D(rho_M' || tau) = -S(rho_M') - sum_m (rho_M')_mm ln tau_m with
    ln tau_m = -beta E_m - ln Z, finite at every temperature, and
    I(S:M') = S(rho_S') + S(rho_M') - S(rho_out).
    """
    if isinstance(rho_s, DensityOperator):
        if not isinstance(u, ControlledInteraction):
            u = np.asarray(getattr(u, "matrix", u), dtype=complex)[None]
        rep = _thermo_rows(rho_s.matrix[None], rho_s.spectrum()[None], tau.rows(), u)
        return ThermoReport(**{name: float(values[0]) for name, values in vars(rep).items()})
    return _thermo_rows(rho_s, density_spectra(rho_s), tau, u)


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
