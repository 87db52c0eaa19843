"""Core state tools: constructors, tensor algebra, entropies."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibroadcast import qcore
from semibroadcast.errors import (
    DimensionMismatch,
    InvalidCut,
    InvalidFactorIndex,
    InvalidOperator,
    SupportViolation,
)

LN2 = math.log(2.0)

# Frozen oracle values.  Each was computed with the plain-python oracle
# `scalar_entropy` below (or its relative-entropy twin) before the library
# functions existed; the tests assert both directions.
GIBBS_W = (0.7310585786300049, 0.2689414213699951)  # 1/(1+e^-1), e^-1/(1+e^-1)
S_GIBBS = 0.5822031088882179
H_HALF_THIRD_FIFTH = 1.0296530140645737  # H(0.5, 0.3, 0.2)
H_P37 = 0.6108643020548935  # H(0.3, 0.7)
D_PUSH_VS_GIBBS = 0.26919756095411485  # D((0.38,0.62) || GIBBS_W)


def scalar_entropy(p):
    """Independent oracle: -sum p ln p over a plain python loop."""
    return -sum(v * math.log(v) for v in p if v > 1e-14)


def scalar_relent(p, q):
    return sum(a * math.log(a / b) for a, b in zip(p, q) if a > 1e-14)


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return qcore.DensityOperator(np.outer(v, v), (2, 2))


# ------------------------------------------------------------ constructors


def test_density_operator_accepts_valid_state():
    rho = qcore.DensityOperator(np.diag([0.25, 0.75]))
    assert rho.dim == 2
    assert rho.dims == (2,)
    assert rho.matrix.dtype == complex


def test_density_operator_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex)
    with pytest.raises(InvalidOperator):
        qcore.DensityOperator(m)


def test_density_operator_rejects_bad_trace():
    with pytest.raises(InvalidOperator):
        qcore.DensityOperator(np.diag([0.6, 0.6]))


def test_density_operator_rejects_negative_eigenvalue():
    m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
    with pytest.raises(InvalidOperator):
        qcore.DensityOperator(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
def test_non_finite_entries_are_rejected(bad, where):
    m = np.full((2, 2), 0.25, dtype=complex) + 0.25 * np.eye(2)
    m[where] = bad
    m[where[::-1]] = bad
    with pytest.raises(InvalidOperator, match="non-finite"):
        qcore.DensityOperator(m)
    p = np.array([0.5, 0.5])
    p[where[1]] = bad
    with pytest.raises(InvalidOperator, match="non-finite"):
        qcore.prob_vector(p)


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_density_operator_validates_within_twice_the_matrix(kind):
    # the stored copy plus one full-size temporary for the Hermiticity defect
    d = 1024
    if kind == "dense":
        m = qcore.random_density(d, seed=4).matrix.copy()
    else:
        m = np.diag(np.random.default_rng(4).dirichlet(np.ones(d))).astype(complex)
    tracemalloc.start()
    try:
        rho = qcore.DensityOperator(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rho.matrix, m)
    assert peak <= 2 * m.nbytes


def test_density_operator_rejects_non_square():
    with pytest.raises(InvalidOperator):
        qcore.DensityOperator(np.ones((2, 3)) / 6.0)


def test_density_operator_matrix_is_read_only():
    rho = qcore.DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_density_operator_dims_must_factor():
    with pytest.raises(DimensionMismatch):
        qcore.DensityOperator(np.eye(4) / 4.0, dims=(2, 3))


def test_unitary_operator_rejects_non_unitary():
    with pytest.raises(InvalidOperator):
        qcore.UnitaryOperator(np.ones((2, 2), dtype=complex))


def test_a_stack_is_checked_as_each_matrix_alone():
    # the stacked generators give each seed's matrix, and the stacked check each matrix's spectrum, bit for bit
    seeds = [3, 4, 5]
    states = qcore.random_states(3, seeds)
    unitaries = qcore.haar_unitaries(6, seeds)
    qcore.check_unitary(unitaries)
    for i, seed in enumerate(seeds):
        alone = qcore.random_density(3, seed)
        assert np.array_equal(states[i], alone.matrix)
        assert np.array_equal(unitaries[i], qcore.random_unitary(6, seed).matrix)
        assert np.array_equal(qcore.density_spectra(states)[i], alone.spectrum())
        assert np.array_equal(qcore.density_spectra(states[i : i + 1])[0], alone.spectrum())


@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6), "Hermiticity"),
        (lambda m: m.__imul__(0.9), "trace"),
        (lambda m: m.__setitem__((0, 0), np.nan), "non-finite"),
        (lambda m: m.__setitem__(slice(None), np.diag([1.5, -0.5, 0.0])), "negative eigenvalue"),
    ],
    ids=["hermiticity", "trace", "non-finite", "negative"],
)
def test_a_stack_with_one_defective_matrix_is_refused(defect, message):
    stack = qcore.random_states(3, [1, 2, 3])
    defect(stack[1])
    with pytest.raises(InvalidOperator, match=message):
        qcore.density_spectra(stack)
    with pytest.raises(InvalidOperator, match=message):
        qcore.DensityOperator(stack[1])


def test_a_stack_with_one_non_unitary_matrix_is_refused():
    stack = qcore.haar_unitaries(4, [1, 2])
    stack[1, 0, 0] += 1e-6
    with pytest.raises(InvalidOperator, match="unitarity defect"):
        qcore.check_unitary(stack)


def test_entropies_of_a_stack_follow_entropy_of_spectrum():
    rows = np.array([[0.0, 1e-15, 0.25, 0.75], [-1e-16, 0.5, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4]])
    got = qcore.entropies(rows)
    for row, value in zip(rows, got):
        assert value == pytest.approx(qcore.entropy_of_spectrum(row), abs=1e-15)


def test_prob_vector_validation():
    p = qcore.prob_vector([0.3, 0.7])
    assert p.sum() == pytest.approx(1.0)
    with pytest.raises(InvalidOperator):
        qcore.prob_vector([0.5, 0.6])
    with pytest.raises(InvalidOperator):
        qcore.prob_vector([1.2, -0.2])
    with pytest.raises(InvalidOperator):
        qcore.prob_vector([[0.5], [0.5]])


def test_basis_state_and_diag_density():
    e1 = qcore.basis_state(3, 1)
    assert e1.matrix[1, 1] == 1.0
    assert np.trace(e1.matrix) == pytest.approx(1.0)
    rho = qcore.diag_density([0.2, 0.3, 0.5])
    assert np.allclose(rho.matrix, np.diag([0.2, 0.3, 0.5]))


# ------------------------------------------------------- tensor and traces


def test_tensor_of_diagonals():
    # direct multiplication oracle
    a = qcore.diag_density([0.7, 0.3])
    b = qcore.diag_density([0.6, 0.4])
    joint = qcore.tensor(a, b)
    assert joint.dims == (2, 2)
    assert np.allclose(joint.matrix, np.diag([0.42, 0.28, 0.18, 0.12]))


def test_tensor_tracks_factor_dims():
    a = qcore.random_density(4, seed=3, dims=(2, 2))
    b = qcore.random_density(3, seed=4)
    assert qcore.tensor(a, b).dims == (2, 2, 3)


def test_tensor_of_unitaries():
    u = qcore.random_unitary(2, seed=0)
    v = qcore.random_unitary(3, seed=1)
    uv = qcore.tensor(u, v)
    assert np.allclose(uv.matrix, np.kron(u.matrix, v.matrix))
    with pytest.raises(DimensionMismatch):
        qcore.tensor(u, qcore.random_density(2, seed=2))


def test_partial_trace_recovers_product_marginals():
    a = qcore.random_density(2, seed=11)
    b = qcore.random_density(3, seed=12)
    joint = qcore.tensor(a, b)
    assert np.allclose(qcore.partial_trace(joint, (0,)).matrix, a.matrix, atol=1e-14)
    assert np.allclose(qcore.partial_trace(joint, (1,)).matrix, b.matrix, atol=1e-14)


def test_partial_trace_of_classically_correlated_state():
    # explicit 4x4 oracle: sum_x p_x |xx><xx|
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    joint = qcore.DensityOperator(m, (2, 2))
    for keep in ((0,), (1,)):
        red = qcore.partial_trace(joint, keep)
        assert np.allclose(red.matrix, np.diag([0.3, 0.7]))


def test_partial_trace_of_bell_state_is_maximally_mixed():
    red = qcore.partial_trace(bell_state(), (0,))
    assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_keep_order_permutes_factors():
    a = qcore.random_density(2, seed=21)
    b = qcore.random_density(3, seed=22)
    joint = qcore.tensor(a, b)
    swapped = qcore.partial_trace(joint, (1, 0))
    assert swapped.dims == (3, 2)
    assert np.allclose(swapped.matrix, np.kron(b.matrix, a.matrix), atol=1e-13)


def test_partial_trace_preserves_trace():
    for seed in range(20):
        rho = qcore.random_density(12, seed=seed, dims=(2, 2, 3))
        red = qcore.partial_trace(rho, (1,))
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_factors():
    rho = qcore.random_density(4, seed=5, dims=(2, 2))
    with pytest.raises(InvalidFactorIndex):
        qcore.partial_trace(rho, (2,))
    with pytest.raises(InvalidFactorIndex):
        qcore.partial_trace(rho, ())
    with pytest.raises(InvalidFactorIndex):
        qcore.partial_trace(rho, (0, 0))


def test_evolve_matches_dense_conjugation():
    rho = qcore.random_density(4, seed=8, dims=(2, 2))
    u = qcore.random_unitary(4, seed=9)
    out = qcore.evolve(rho, u)
    assert out.dims == (2, 2)
    assert np.allclose(out.matrix, u.matrix @ rho.matrix @ u.matrix.conj().T)


def test_evolve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qcore.evolve(qcore.random_density(2, seed=1), qcore.random_unitary(3, seed=1))


# --------------------------------------------------------------- entropies


def test_entropy_of_pure_state_is_zero():
    assert qcore.von_neumann_entropy(qcore.basis_state(5, 2)) == 0.0
    plus = np.ones((2, 2)) / 2.0
    assert qcore.von_neumann_entropy(qcore.DensityOperator(plus)) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_maximally_mixed_qubit():
    rho = qcore.DensityOperator(np.eye(2) / 2.0)
    assert qcore.von_neumann_entropy(rho) == pytest.approx(LN2, abs=1e-14)


def test_entropy_of_gibbs_qubit_matches_frozen_oracle():
    rho = qcore.diag_density(GIBBS_W)
    s = qcore.von_neumann_entropy(rho)
    assert s == pytest.approx(S_GIBBS, abs=1e-14)
    assert s == pytest.approx(scalar_entropy(GIBBS_W), abs=1e-14)


def test_entropy_is_basis_independent():
    rho = qcore.diag_density(GIBBS_W)
    u = qcore.random_unitary(2, seed=33)
    assert qcore.von_neumann_entropy(qcore.evolve(rho, u)) == pytest.approx(S_GIBBS, abs=1e-12)


def test_shannon_entropy_values():
    assert qcore.shannon_entropy([1.0, 0.0]) == 0.0
    assert qcore.shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-14)
    h = qcore.shannon_entropy([0.5, 0.3, 0.2])
    assert h == pytest.approx(H_HALF_THIRD_FIFTH, abs=1e-14)
    assert h == pytest.approx(scalar_entropy([0.5, 0.3, 0.2]), abs=1e-14)


def test_relative_entropy_of_identical_states_is_zero():
    rho = qcore.random_density(3, seed=17)
    assert qcore.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_pure_vs_uniform():
    rho = qcore.diag_density([1.0, 0.0])
    sigma = qcore.diag_density([0.5, 0.5])
    assert qcore.relative_entropy(rho, sigma) == pytest.approx(LN2, abs=1e-13)


def test_relative_entropy_matches_diagonal_oracle():
    rho = qcore.diag_density([0.38, 0.62])
    sigma = qcore.diag_density(GIBBS_W)
    d = qcore.relative_entropy(rho, sigma)
    assert d == pytest.approx(D_PUSH_VS_GIBBS, abs=1e-13)
    assert d == pytest.approx(scalar_relent([0.38, 0.62], GIBBS_W), abs=1e-13)


def test_relative_entropy_asymmetry():
    rho = qcore.diag_density([0.38, 0.62])
    sigma = qcore.diag_density(GIBBS_W)
    assert qcore.relative_entropy(rho, sigma) != pytest.approx(
        qcore.relative_entropy(sigma, rho), abs=1e-6
    )


def test_relative_entropy_support_violation():
    rho = qcore.diag_density([0.5, 0.5])
    sigma = qcore.diag_density([1.0, 0.0])
    with pytest.raises(SupportViolation):
        qcore.relative_entropy(rho, sigma)


def _log_on_support(m):
    """ln m on its support and 0 on its kernel, from eigh."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.log(np.where(vals > 1e-14, vals, 1.0))) @ vecs.conj().T


def _matrix_log_relent(rho, sigma):
    """Tr rho (ln rho - ln sigma) from matrix logarithms."""
    return float(np.trace(rho @ (_log_on_support(rho) - _log_on_support(sigma))).real)


def test_relative_entropy_nonnegative_on_random_pairs():
    # non-diagonal full-rank pairs, d = 2..6
    for seed in range(40):
        d = 2 + seed % 5
        rho = qcore.random_density(d, seed=seed)
        sigma = qcore.random_density(d, seed=1000 + seed)
        rel = qcore.relative_entropy(rho, sigma)
        assert rel >= -1e-10
        assert rel == pytest.approx(_matrix_log_relent(rho.matrix, sigma.matrix), abs=1e-12)
    # a rank-3 sigma on C^5 in a rotated basis, with rho of rank 2 inside its support
    v = qcore.random_unitary(5, seed=7).matrix
    s = np.diag([0.5, 0.3, 0.2, 0.0, 0.0])
    a = np.zeros((5, 5), dtype=complex)
    a[:3, :3] = qcore.random_density(3, seed=8).matrix
    a[:, 2] = a[2, :] = 0.0
    a /= a.trace()
    sigma = qcore.DensityOperator(v @ s @ v.conj().T)
    rho = qcore.DensityOperator(v @ a @ v.conj().T)
    assert qcore.relative_entropy(rho, sigma) == pytest.approx(
        _matrix_log_relent(rho.matrix, sigma.matrix), abs=1e-12
    )


def test_mutual_information_of_product_state_is_zero():
    joint = qcore.tensor(qcore.random_density(2, seed=2), qcore.random_density(3, seed=3))
    assert qcore.mutual_information(joint, (0,)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_of_bell_state():
    assert qcore.mutual_information(bell_state(), (0,)) == pytest.approx(2 * LN2, abs=1e-12)


def test_mutual_information_of_classical_correlation():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    joint = qcore.DensityOperator(m, (2, 2))
    assert qcore.mutual_information(joint, (0,)) == pytest.approx(H_P37, abs=1e-13)


def test_mutual_information_rejects_trivial_cuts():
    joint = qcore.random_density(4, seed=6, dims=(2, 2))
    with pytest.raises(InvalidCut):
        qcore.mutual_information(joint, ())
    with pytest.raises(InvalidCut):
        qcore.mutual_information(joint, (0, 1))


# ------------------------------------------------------------- randomness


def test_random_density_is_deterministic_per_seed():
    a = qcore.random_density(4, seed=7)
    b = qcore.random_density(4, seed=7)
    c = qcore.random_density(4, seed=8)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)


def test_random_density_is_full_rank():
    for seed in range(10):
        rho = qcore.random_density(5, seed=seed)
        assert float(np.min(np.linalg.eigvalsh(rho.matrix))) > 0.0


def test_random_density_forwards_dims():
    assert qcore.random_density(6, seed=1, dims=(2, 3)).dims == (2, 3)


def test_random_unitary_is_deterministic_and_unitary():
    u = qcore.random_unitary(5, seed=13)
    v = qcore.random_unitary(5, seed=13)
    assert np.array_equal(u.matrix, v.matrix)
    assert np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(5))) < 1e-12


# ----------------------------------------------------- entropy properties


def test_unitary_invariance_of_entropy():
    for seed in range(50):
        rho = qcore.random_density(6, seed=seed)
        u = qcore.random_unitary(6, seed=seed + 500)
        assert abs(
            qcore.von_neumann_entropy(qcore.evolve(rho, u)) - qcore.von_neumann_entropy(rho)
        ) <= 1e-10


def test_subadditivity():
    for seed in range(50):
        rho = qcore.random_density(6, seed=seed, dims=(2, 3))
        assert qcore.mutual_information(rho, (0,)) >= -1e-10


def test_strong_subadditivity():
    for seed in range(50):
        rho = qcore.random_density(24, seed=seed, dims=(2, 3, 4))
        s_ab = qcore.von_neumann_entropy(qcore.partial_trace(rho, (0, 1)))
        s_bc = qcore.von_neumann_entropy(qcore.partial_trace(rho, (1, 2)))
        s_b = qcore.von_neumann_entropy(qcore.partial_trace(rho, (1,)))
        s_abc = qcore.von_neumann_entropy(rho)
        assert s_ab + s_bc - s_abc - s_b >= -1e-9


def test_dephasing_is_data_processing_for_mutual_information():
    for seed in range(50):
        rho = qcore.random_density(6, seed=seed, dims=(2, 3))
        # dephasing factor 1: only the entries with equal factor-1 indices survive
        blocks = rho.matrix.reshape(2, 3, 2, 3) * np.eye(3)[None, :, None, :]
        deph = qcore.DensityOperator(blocks.reshape(6, 6), (2, 3))
        assert qcore.mutual_information(deph, (0,)) <= qcore.mutual_information(rho, (0,)) + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=6))
def test_entropy_bounds_hypothesis(seed, dim):
    rho = qcore.random_density(dim, seed=seed)
    s = qcore.von_neumann_entropy(rho)
    assert -1e-12 <= s <= math.log(dim) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_relative_entropy_dominates_trace_distance_hypothesis(seed):
    # Pinsker: D(rho||sigma) >= 0.5 * (trace distance)^2
    rho = qcore.random_density(3, seed=seed)
    sigma = qcore.random_density(3, seed=seed + 1)
    td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))
    assert qcore.relative_entropy(rho, sigma) >= 0.5 * td * td - 1e-10
