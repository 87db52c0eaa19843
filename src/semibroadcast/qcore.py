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
        if not np.isfinite(m).all():
            raise InvalidOperator("matrix has a non-finite entry")
        herm = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
        if herm > HERMITICITY_TOL:
            raise InvalidOperator(f"Hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidOperator(f"trace {tr} is not 1 within {TRACE_TOL}")
        m = m.copy()
        m.setflags(write=False)
        # Positivity through the spectrum, which spectrum() then returns: the
        # sorted diagonal of a diagonal matrix, `eigvalsh` for anything else.
        # Keeps construction cheap for thermal states.
        if d < 2 or np.max(np.abs(m - np.diag(m.diagonal()))) == 0.0:
            spectrum = np.sort(m.diagonal().real)
        else:
            spectrum = np.linalg.eigvalsh(m)
        lo = float(np.min(spectrum))
        if lo < -POSITIVITY_TOL:
            raise InvalidOperator(f"negative eigenvalue {lo:.3e} below -{POSITIVITY_TOL}")
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def with_dims(self, dims) -> "DensityOperator":
        """Same matrix, reinterpreted with a different factorization."""
        return DensityOperator(self.matrix, dims)

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
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(d))))
        if defect > UNITARITY_TOL:
            raise InvalidOperator(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
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


def _entropy_of_spectrum(vals: np.ndarray) -> float:
    v = np.asarray(vals, dtype=float)
    v = np.where(v < 0.0, 0.0, v)
    v = v[v > EIG_FLOOR]
    return float(-np.sum(v * np.log(v)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-Tr rho ln rho in nats; eigenvalues below the floor contribute zero."""
    return _entropy_of_spectrum(rho.spectrum())


def shannon_entropy(p) -> float:
    """-sum p ln p in nats for a probability vector."""
    return _entropy_of_spectrum(prob_vector(p))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr rho (ln rho - ln sigma); SupportViolation if supp(rho) leaks out of supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims differ: {rho.dim} vs {sigma.dim}")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    # weight of rho on the kernel of sigma
    kernel = svals <= EIG_FLOOR
    if np.any(kernel):
        vk = svecs[:, kernel]
        leak = float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, rho.matrix, vk)))
        if leak > SUPPORT_TOL:
            raise SupportViolation(f"weight {leak:.3e} of rho outside supp(sigma)")
    rvals, rvecs = np.linalg.eigh(rho.matrix)
    term1 = -_entropy_of_spectrum(rvals)
    overlap = np.abs(rvecs.conj().T @ svecs) ** 2  # |<r_i|s_j>|^2
    rv = np.where(rvals < 0.0, 0.0, rvals)
    logs = np.where(kernel, 0.0, np.log(np.where(kernel, 1.0, svals)))
    term2 = float(rv @ overlap[:, ~kernel] @ logs[~kernel])
    return term1 - term2


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


def dephase(rho: DensityOperator, factor: int, basis=None) -> DensityOperator:
    """Kill off-diagonal elements of one factor, optionally in a supplied basis."""
    (factor,) = _check_factors(rho, (factor,))
    dims = rho.dims
    d = dims[factor]
    mat = rho.matrix
    if basis is not None:
        b = np.asarray(basis, dtype=complex)
        if b.shape != (d, d):
            raise DimensionMismatch(f"basis shape {b.shape} != ({d}, {d})")
        if np.max(np.abs(b.conj().T @ b - np.eye(d))) > UNITARITY_TOL:
            raise InvalidOperator("basis columns are not orthonormal")
        rot = np.kron(
            np.kron(np.eye(math.prod(dims[:factor])), b),
            np.eye(math.prod(dims[factor + 1 :])),
        )
        mat = rot.conj().T @ mat @ rot
    k = len(dims)
    arr = mat.reshape(dims + dims).copy()
    idx_row = np.arange(d).reshape((1,) * factor + (d,) + (1,) * (2 * k - factor - 1))
    idx_col = np.arange(d).reshape(
        (1,) * (k + factor) + (d,) + (1,) * (k - factor - 1)
    )
    arr *= idx_row == idx_col
    mat = arr.reshape(rho.dim, rho.dim)
    if basis is not None:
        mat = rot @ mat @ rot.conj().T
    return DensityOperator(mat, dims)


def random_density(dim: int, seed, dims=None) -> DensityOperator:
    """Full-rank Hilbert-Schmidt random state from a square Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace().real, dims)


def random_unitary(dim: int, seed) -> UnitaryOperator:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase correction."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return UnitaryOperator(q)
