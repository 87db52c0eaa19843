"""Information and thermodynamics of measurement records in memories.

Entropy production of a memory write, its Holevo-bound decomposition, and
the classification of the resulting system-memory states (spectrum
broadcast structure, objectivity, ideal and non-invasive regimes).
All entropic quantities are in nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DegenerateOutcomeWarning, DimensionMismatch
from .interact import ControlledInteraction, apply
from .qcore import (
    EIG_FLOOR,
    DensityOperator,
    evolve,
    partial_trace,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from .thermal import GibbsState

PROB_FLOOR = 1e-14
TABLE_TOL = 1e-8


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

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average_state(self) -> DensityOperator:
        m = sum(p * s.matrix for p, s in zip(self.probs, self.states))
        return DensityOperator(m, self.states[0].dims)


def _system_blocks(rho_joint: DensityOperator, system_basis=None) -> np.ndarray:
    if len(rho_joint.dims) < 2:
        raise DimensionMismatch("need a (system, memory...) state with >= 2 factors")
    d_s = rho_joint.dims[0]
    d_m = rho_joint.dim // d_s
    rho = rho_joint.matrix
    if system_basis is not None:
        b = np.asarray(system_basis, dtype=complex)
        if b.shape != (d_s, d_s):
            raise DimensionMismatch(f"basis shape {b.shape} != ({d_s}, {d_s})")
        rot = np.kron(b.conj().T, np.eye(d_m))
        rho = rot @ rho @ rot.conj().T
    return rho.reshape(d_s, d_m, d_s, d_m)


def conditional_ensemble(rho_joint: DensityOperator, system_basis=None) -> Ensemble:
    """Memory ensemble conditioned on the system's outcome basis.

    p_x = <x|rho_S|x> and rho^x = <x|rho|x> / p_x on everything but the
    system factor.  Outcomes with p_x at the probability floor are dropped
    with a DegenerateOutcomeWarning.
    """
    blocks = _system_blocks(rho_joint, system_basis)
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


def _classical_mi(joint: np.ndarray) -> float:
    """Mutual information of a joint probability table, zero cells dropped."""
    px = joint.sum(axis=1, keepdims=True)
    qy = joint.sum(axis=0, keepdims=True)
    mask = joint > PROB_FLOOR
    terms = joint[mask] * np.log(joint[mask] / (px @ qy)[mask])
    return float(terms.sum())


def _pgm_lower(ensemble: Ensemble) -> float:
    """Mutual information extracted by the pretty good measurement."""
    avg = ensemble.average_state().matrix
    vals, vecs = np.linalg.eigh(avg)
    inv_sqrt = np.where(vals > EIG_FLOOR, 1.0 / np.sqrt(np.where(vals > EIG_FLOOR, vals, 1.0)), 0.0)
    root = (vecs * inv_sqrt) @ vecs.conj().T
    joint = np.zeros((len(ensemble.states), len(ensemble.states)))
    elements = [
        p * (root @ s.matrix @ root) for p, s in zip(ensemble.probs, ensemble.states)
    ]
    for x, (p, s) in enumerate(zip(ensemble.probs, ensemble.states)):
        for y, e in enumerate(elements):
            joint[x, y] = max(float(np.real(np.trace(e @ s.matrix))) * p, 0.0)
    return _classical_mi(joint)


def _bloch(m: np.ndarray) -> np.ndarray:
    return np.array(
        [
            2 * m[0, 1].real,
            -2 * m[0, 1].imag,
            (m[0, 0] - m[1, 1]).real,
        ]
    )


def _fibonacci_directions(count: int) -> np.ndarray:
    i = np.arange(count)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / count
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _qubit_projective_mi(ensemble: Ensemble, direction: np.ndarray) -> float:
    n = direction / np.linalg.norm(direction)
    blochs = np.array([_bloch(s.matrix) for s in ensemble.states])
    plus = 0.5 * (1.0 + blochs @ n)
    plus = np.clip(plus, 0.0, 1.0)
    joint = np.stack([ensemble.probs * plus, ensemble.probs * (1.0 - plus)], axis=1)
    return _classical_mi(joint)


def _qubit_projective_search(ensemble: Ensemble, n_directions: int = 720) -> float:
    dirs = _fibonacci_directions(n_directions)
    scores = [_qubit_projective_mi(ensemble, d) for d in dirs]
    best = dirs[int(np.argmax(scores))]
    theta0 = math.acos(np.clip(best[2], -1.0, 1.0))
    phi0 = math.atan2(best[1], best[0])

    def neg(angles):
        t, p = angles
        return -_qubit_projective_mi(
            ensemble, np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
        )

    res = minimize(
        neg,
        np.array([theta0, phi0]),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 400},
    )
    return max(float(np.max(scores)), -float(res.fun))


def accessible_info_bracket(ensemble: Ensemble) -> tuple[float, float]:
    """(lower, upper) bracket on the accessible information of the ensemble.

    Upper bound is Holevo chi.  Lower bound is the computational-basis
    measurement's mutual information, which attains chi when every member is
    exactly diagonal (Holevo 1973).  Otherwise it is raised to the pretty good
    measurement's and, on a qubit, a projective search's (720 directions, local
    refinement).
    """
    upper = holevo_chi(ensemble)
    mats = [s.matrix for s in ensemble.states]
    lower = _classical_mi(ensemble.probs[:, None] * np.array([m.diagonal().real for m in mats]))
    if any(np.count_nonzero(m) > np.count_nonzero(m.diagonal()) for m in mats):
        lower = max(lower, _pgm_lower(ensemble))
        if ensemble.dim == 2:
            lower = max(lower, _qubit_projective_search(ensemble))
    return min(lower, upper), upper


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


def thermo_report(rho_s: DensityOperator, tau: GibbsState, u) -> ThermoReport:
    """Entropy production and its decomposition for one write into a thermal memory.

    `u` may be a ControlledInteraction, applied as an index permutation, or
    any joint unitary on system (x) memory, applied by conjugation.  The
    final state and its two marginals are built once; each entropy is taken
    once and I(S:M') = S(rho_S') + S(rho_M') - S(rho_out).
    """
    if isinstance(u, ControlledInteraction):
        rho_out = apply(u, rho_s, tau.state)
    else:
        rho_out = evolve(tensor(rho_s, tau.state), u)

    rho_s_out = partial_trace(rho_out, (0,))
    rho_m_out = partial_trace(rho_out, (1,))
    s_s_out = von_neumann_entropy(rho_s_out)
    s_m_out = von_neumann_entropy(rho_m_out)

    energies = tau.hamiltonian.absolute_energies()
    delta_e_m = float(rho_m_out.matrix.diagonal().real @ energies) - tau.mean_energy()
    delta_s_system = s_s_out - von_neumann_entropy(rho_s)
    delta_s_m = s_m_out - von_neumann_entropy(tau.state)
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
        mutual_info=s_s_out + s_m_out - von_neumann_entropy(rho_out),
        rel_entropy_to_thermal=relative_entropy(rho_m_out, tau.state),
        chi=holevo_chi(conditional_ensemble(rho_out)),
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


def sbs_test(rho_joint: DensityOperator, system_basis=None) -> SBSVerdict:
    """Check block-diagonality in the outcome basis and conditional orthogonality.

    conditional_overlap is the worst pairwise Hilbert-Schmidt overlap
    Tr(rho^x rho^y) between distinct conditional memory states.
    """
    blocks = _system_blocks(rho_joint, system_basis)
    d_s = rho_joint.dims[0]
    off = 0.0
    for x in range(d_s):
        for y in range(d_s):
            if x != y:
                off = max(off, float(np.max(np.abs(blocks[x, :, y, :]))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateOutcomeWarning)
        ens = conditional_ensemble(rho_joint, system_basis)
    overlap = 0.0
    for i in range(len(ens.states)):
        for j in range(i + 1, len(ens.states)):
            overlap = max(
                overlap,
                float(np.real(np.trace(ens.states[i].matrix @ ens.states[j].matrix))),
            )
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
    i_acc_upper: float
    chi: float
    h_x: float
    s_system_final: float
    s_system_final_diag: float


@dataclass(frozen=True)
class Table1Class:
    variant: str
    evidence: Table1Evidence


def classify_table1(evidence: Table1Evidence, tol: float = TABLE_TOL) -> Table1Class:
    """First matching broadcast regime, checked from strongest to weakest.

    Accessible information equalities are certified through the bracket:
    I_acc = chi is accepted when the lower bound reaches chi within tol.
    """
    ev = evidence

    def eq(a: float, b: float) -> bool:
        return abs(a - b) <= tol

    i_acc_is_chi = ev.chi - ev.i_acc_lower <= tol
    chain = i_acc_is_chi and eq(ev.chi, ev.h_x)
    if chain and eq(ev.h_x, ev.s_system_final):
        return Table1Class("sbs", ev)
    if chain and eq(ev.h_x, ev.s_system_final_diag):
        return Table1Class("objectivity", ev)
    if chain and ev.h_x <= ev.s_system_final_diag + tol:
        return Table1Class("ideal", ev)
    if ev.chi <= ev.h_x + tol and eq(ev.h_x, ev.s_system_final_diag):
        return Table1Class("local_noninvasive", ev)
    return Table1Class("none", ev)
