"""Finite-dimensional operator algebra on tensor-factorized Hilbert spaces.

States and unitaries are dense complex matrices tagged with a tuple of
tensor-factor dimensions.  All entropic quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidCut,
    InvalidFactorIndex,
    InvalidOperator,
    SupportViolation,
)

# Numerical policy: one place for every tolerance the type invariants use.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
PROB_SUM_TOL = 1e-12
PROB_NEG_TOL = 1e-14
EIG_FLOOR = 1e-14
SUPPORT_TOL = 1e-12


def _as_dims(dims, total: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise DimensionMismatch(f"factors {dims} do not multiply to dimension {total}")
    return dims


def density_spectra(m: np.ndarray) -> np.ndarray:
    """The spectra, ascending, of a stack (..., d, d) of density matrices, after checking each.

    Every matrix must be finite, Hermitian, of unit trace and positive
    semidefinite; InvalidOperator names the first defect.  Positivity is read
    from the spectrum: `eigvalsh`'s, or the sorted diagonal of a single
    diagonal matrix, which keeps thermal states cheap.  Each matrix's spectrum
    depends on that matrix alone, whatever else the stack holds.
    """
    if not np.isfinite(m).all():
        raise InvalidOperator("matrix has a non-finite entry")
    herm = np.conjugate(m).swapaxes(-1, -2)  # M^dagger - M in place, the one full-size temporary; rebinding frees it
    herm -= m
    herm = float(np.max(np.abs(herm), initial=0.0))
    if herm > HERMITICITY_TOL:
        raise InvalidOperator(f"Hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.max(off, initial=0.0) > TRACE_TOL:
        raise InvalidOperator(f"trace {tr.flat[np.argmax(off)]} is not 1 within {TRACE_TOL}")
    if m.ndim == 2 and np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
        spectra = np.sort(m.diagonal().real)
    else:
        spectra = np.linalg.eigvalsh(m)
    lo = float(np.min(spectra, initial=0.0))
    if lo < -POSITIVITY_TOL:
        raise InvalidOperator(f"negative eigenvalue {lo:.3e} below -{POSITIVITY_TOL}")
    return spectra


def check_unitary(m: np.ndarray) -> None:
    """Refuse a stack (..., d, d) holding a matrix whose U^dagger U is off the identity by more than UNITARITY_TOL."""
    defect = float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])), initial=0.0))
    if defect > UNITARITY_TOL:
        raise InvalidOperator(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive semidefinite matrix on a factorized space."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims=None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidOperator(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        dims = (d,) if dims is None else _as_dims(dims, d)
        spectrum = density_spectra(m)
        spectrum.setflags(write=False)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, as a read-only array."""
        return self._spectrum


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix on a factorized space."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims=None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidOperator(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        dims = (d,) if dims is None else _as_dims(dims, d)
        check_unitary(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def prob_vector(values) -> np.ndarray:
    """Validate and clean a probability vector (tiny negatives clipped to 0)."""
    p = np.asarray(values, dtype=float).copy()
    if p.ndim != 1:
        raise InvalidOperator(f"expected a 1-d array, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidOperator("probability vector has a non-finite entry")
    if np.min(p) < -PROB_NEG_TOL:
        raise InvalidOperator(f"negative entry {np.min(p):.3e} below -{PROB_NEG_TOL}")
    p[p < 0.0] = 0.0
    s = p.sum()
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise InvalidOperator(f"entries sum to {s}, not 1 within {PROB_SUM_TOL}")
    return p


def basis_state(dim: int, index: int, dims=None) -> DensityOperator:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return DensityOperator(m, dims)


def diag_density(p, dims=None) -> DensityOperator:
    return DensityOperator(np.diag(prob_vector(p)).astype(complex), dims)


def tensor(a, b):
    """Kronecker product of two operators of the same kind, dims concatenated."""
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    raise DimensionMismatch("tensor expects two DensityOperator or two UnitaryOperator")


def _check_factors(rho: DensityOperator, factors) -> tuple[int, ...]:
    k = len(rho.dims)
    out = tuple(int(f) for f in factors)
    if len(out) == 0:
        raise InvalidFactorIndex("no factors selected")
    if len(set(out)) != len(out):
        raise InvalidFactorIndex(f"repeated factor in {out}")
    if any(f < 0 or f >= k for f in out):
        raise InvalidFactorIndex(f"factor outside 0..{k - 1}: {out}")
    return out


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept factors, in their original order."""
    keep = _check_factors(rho, keep)
    dims = rho.dims
    k = len(dims)
    arr = rho.matrix.reshape(dims + dims)
    traced = [j for j in range(k) if j not in keep]
    left = k
    for j in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=j, axis2=left + j)
        left -= 1
    kept_sorted = sorted(keep)
    if kept_sorted != list(keep):
        # restore the caller's factor order
        perm = [kept_sorted.index(f) for f in keep]
        arr = arr.transpose(perm + [len(keep) + q for q in perm])
    new_dims = tuple(dims[f] for f in keep)
    d = math.prod(new_dims)
    return DensityOperator(arr.reshape(d, d), new_dims)


def evolve(rho: DensityOperator, u) -> DensityOperator:
    """Unitary conjugation U rho U^dagger."""
    um = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    if um.shape[0] != rho.dim:
        raise DimensionMismatch(f"unitary dim {um.shape[0]} != state dim {rho.dim}")
    return DensityOperator(um @ rho.matrix @ um.conj().T, rho.dims)


def entropy_of_spectrum(vals) -> float:
    """-sum v ln v in nats over the values above the floor, negatives read as 0."""
    v = np.asarray(vals, dtype=float)
    v = np.where(v < 0.0, 0.0, v)
    v = v[v > EIG_FLOOR]
    return float(-np.sum(v * np.log(v)))


def entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum v ln v in nats along the last axis, each row over its values above the floor (negatives read as 0).

    A row sums its dropped values as zeros where entropy_of_spectrum sums
    only the kept ones, so the two may differ in the last bits.
    """
    v = np.where(spectra > EIG_FLOOR, spectra, 1.0)  # 1 ln 1 = 0 exactly
    return -(v * np.log(v)).sum(axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-Tr rho ln rho in nats; eigenvalues below the floor contribute zero."""
    return entropy_of_spectrum(rho.spectrum())


def shannon_entropy(p) -> float:
    """-sum p ln p in nats for a probability vector."""
    return entropy_of_spectrum(prob_vector(p))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr rho (ln rho - ln sigma); SupportViolation if supp(rho) leaks out of supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims differ: {rho.dim} vs {sigma.dim}")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    # w_j = <s_j|rho|s_j>: rho's weight on each eigenvector of sigma
    w = np.sum(svecs.conj() * (rho.matrix @ svecs), axis=0).real
    kernel = svals <= EIG_FLOOR
    leak = float(w[kernel].sum())
    if leak > SUPPORT_TOL:
        raise SupportViolation(f"weight {leak:.3e} of rho outside supp(sigma)")
    return -von_neumann_entropy(rho) - float(w[~kernel] @ np.log(svals[~kernel]))


def mutual_information(rho: DensityOperator, cut) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for the bipartition given by the A-side factors."""
    k = len(rho.dims)
    if len(tuple(cut)) in (0, k):
        raise InvalidCut("cut must leave both sides nonempty")
    side_a = _check_factors(rho, cut)
    side_b = tuple(j for j in range(k) if j not in side_a)
    sa = von_neumann_entropy(partial_trace(rho, side_a))
    sb = von_neumann_entropy(partial_trace(rho, side_b))
    return sa + sb - von_neumann_entropy(rho)


def _ginibre(dim: int, seeds) -> np.ndarray:
    """A square complex Ginibre matrix from each seed, stacked."""
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    for out, seed in zip(g, seeds):
        rng = np.random.default_rng(seed)
        out.real = rng.standard_normal((dim, dim))
        out.imag = rng.standard_normal((dim, dim))
    return g


def random_states(dim: int, seeds) -> np.ndarray:
    """Full-rank Hilbert-Schmidt random states G G^dagger / Tr, one per seed, stacked and unchecked."""
    g = _ginibre(dim, seeds)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def haar_unitaries(dim: int, seeds) -> np.ndarray:
    """Haar-distributed unitaries, one per seed, stacked and unchecked: QR of a Ginibre matrix with phase correction."""
    q, r = np.linalg.qr(_ginibre(dim, seeds))
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_density(dim: int, seed, dims=None) -> DensityOperator:
    """Full-rank Hilbert-Schmidt random state from a square Ginibre matrix."""
    return DensityOperator(random_states(dim, [seed])[0], dims)


def random_unitary(dim: int, seed) -> UnitaryOperator:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase correction."""
    return UnitaryOperator(haar_unitaries(dim, [seed])[0])
