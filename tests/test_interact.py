"""Measurement interactions: construction, contracts, transition statistics."""

import math
from functools import reduce

import numpy as np
import pytest
from oracle import channel, lifted_permutation, permutation_matrix

from semibroadcast import config, interact, qcore, thermal
from semibroadcast.errors import DimensionMismatch, IndexOutOfRange, WrongKind

E_INV = math.exp(-1.0)
W0 = 1.0 / (1.0 + E_INV)
W1 = 1.0 - W0

CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def qubit_setup(beta=1.0):
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    return g, thermal.gibbs(h, beta)


def ladder_setup(d_s, beta=1.0):
    h = thermal.MemoryHamiltonian(list(range(d_s)))
    g = thermal.group_energies(h, d_s)
    return g, thermal.gibbs(h, beta)


def chain_setup(n, d_s, beta=1.0):
    h = thermal.qubit_chain_hamiltonian(n)
    g = thermal.group_energies(h, d_s)
    return g, thermal.gibbs(h, beta)


def degenerate_setup(d_s):
    h = thermal.MemoryHamiltonian([0.0] * (2 * d_s))
    return thermal.group_energies(h, d_s), thermal.gibbs(h, 1.0)


def dense_projectors(g):
    """Rank-r diagonal projectors onto each sector, built from the definition."""
    out = []
    for y in range(g.d_s):
        proj = np.zeros((g.dim, g.dim))
        proj[g.groups[y], g.groups[y]] = 1.0
        out.append(proj)
    return out


def mean_correlation(u, sigma, g, battery):
    """C_U averaged over the diagonals of the battery states."""
    diagonals = [qcore.diag_density(s.matrix.diagonal().real) for s in battery]
    return float(np.mean([interact.correlation_c(interact.apply(u, d, sigma), g) for d in diagonals]))


def identity_interaction(grouping):
    # the sector map (x, nu) -> (x, nu), built around the complete-record check that refuses it
    return interact.ControlledInteraction("noninvasive", grouping, tuple(np.indices((grouping.d_s, grouping.d_s))))


def pointer_map(u, probs):
    """The pointer map of a one-unit write: its sector map mu on the pairwise sector weights."""
    return interact.sector_matrix(u.sectors[1], u.grouping.readout(probs))


def definition(d_s, kind, i=0):
    """The sector map (x, nu) -> (y, mu) of each kind, written from its definition."""
    if kind == "swap":
        return lambda x, nu: (nu, x)
    if kind == "noninvasive":
        return lambda x, nu: (x, (x + nu) % d_s)
    # cycled variant i moves sector s_i(delta) = ((delta - 1 + i) mod (d_S - 1)) + 1 by offset delta
    targets = {((delta - 1 + i) % (d_s - 1)) + 1: delta for delta in range(1, d_s)}
    return lambda x, nu: (x, (x + targets.get(nu, 0)) % d_s)


def hand_built_permutation(g, sector_map):
    """pi[x * d_M + m], |x, groups[nu][s]> -> |y, groups[mu][s]>, one level at a time, independent of the index kernel."""
    d_s, d_m = g.d_s, g.dim
    pi = np.full(d_s * d_m, -1)
    for x in range(d_s):
        for nu in range(d_s):
            y, mu = sector_map(x, nu)
            for s in range(g.r):
                pi[x * d_m + g.groups[nu][s]] = y * d_m + g.groups[mu][s]
    return pi


def system_rotation(basis, d_m):
    """The joint unitary that reads the system in the columns of `basis`."""
    return np.kron(np.asarray(basis).conj().T, np.eye(d_m))


# ------------------------------------------------------------- construction


def test_maxcorr_single_qubit_is_cnot():
    g, _ = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    assert u.joint_permutation.tolist() == [0, 1, 3, 2]
    assert np.array_equal(permutation_matrix(u), CNOT)


def test_maxcorr_two_qubit_chain_shifts_whole_sectors():
    g, _ = chain_setup(2, 2)
    u = interact.build_noninvasive_maxcorr(g)
    # sectors {0,1} and {2,3}; control 1 exchanges them slot by slot
    assert u.joint_permutation.tolist() == [0, 1, 2, 3, 6, 7, 4, 5]


def test_maxcorr_matches_hand_built_controlled_shift():
    d_s = 3
    g, _ = ladder_setup(d_s)
    u = permutation_matrix(interact.build_noninvasive_maxcorr(g))
    hand = np.zeros((9, 9))
    for x in range(d_s):
        for nu in range(d_s):
            hand[x * d_s + (x + nu) % d_s, x * d_s + nu] = 1.0
    assert np.array_equal(u, hand)


def test_every_table_is_a_joint_permutation():
    for g, _ in (qubit_setup(), ladder_setup(3), chain_setup(2, 4)):
        for u in (
            interact.build_noninvasive_maxcorr(g),
            interact.build_unbiased_swap(g),
        ):
            m = permutation_matrix(u)
            assert np.all((m == 0.0) | (m == 1.0))
            assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]))


def test_cycled_variant_zero_is_base():
    for g, _ in (qubit_setup(), ladder_setup(3), chain_setup(2, 4)):
        base = interact.build_noninvasive_maxcorr(g)
        v0 = interact.build_cycled_variant(g, 0)
        assert np.array_equal(base.sectors, v0.sectors)
        assert np.array_equal(base.joint_permutation, v0.joint_permutation)


def test_cycled_variant_one_swaps_offsets_for_three_outcomes():
    g, _ = ladder_setup(3)
    v1 = interact.build_cycled_variant(g, 1)
    # offsets 1 and 2 trade places relative to the base shift
    pi = v1.joint_permutation.reshape(3, 3)
    for x in range(3):
        assert pi[x, 1] == 3 * x + (x + 2) % 3
        assert pi[x, 2] == 3 * x + (x + 1) % 3


def test_cycled_variant_range_check():
    g, _ = ladder_setup(3)
    with pytest.raises(IndexOutOfRange):
        interact.build_cycled_variant(g, 2)
    with pytest.raises(IndexOutOfRange):
        interact.build_cycled_variant(g, -1)


def test_build_dispatches_every_config_kind():
    assert config.INTERACTION_KINDS == interact.KINDS
    g, _ = ladder_setup(3)
    for kind in config.INTERACTION_KINDS:
        u = interact.build(g, kind)
        assert np.array_equal(np.sort(u.joint_permutation), np.arange(9))
        assert u.kind == kind
    cycled = interact.build(g, "cycled", 1)
    assert cycled.variant == 1
    assert np.array_equal(cycled.sectors, interact.build_cycled_variant(g, 1).sectors)
    with pytest.raises(WrongKind):
        interact.build(g, "sideways")
    with pytest.raises(WrongKind):
        interact.build(g, "haar")


def test_joint_permutation_matches_hand_built_tables():
    # tables written from the definitions, independent of the index kernel
    setups = [qubit_setup(), chain_setup(2, 2), ladder_setup(3), chain_setup(3, 4), ladder_setup(4)]
    setups += [degenerate_setup(2), degenerate_setup(3), degenerate_setup(4)]
    for g, _ in setups:
        d_s, d_m = g.d_s, g.dim
        cases = [(interact.build_noninvasive_maxcorr(g), definition(d_s, "noninvasive"))]
        cases += [(interact.build_unbiased_swap(g), definition(d_s, "swap"))]
        cases += [(interact.build_cycled_variant(g, i), definition(d_s, "cycled", i)) for i in range(d_s - 1)]
        for u, sector_map in cases:
            table = hand_built_permutation(g, sector_map)
            assert np.array_equal(u.joint_permutation, table)
            assert np.array_equal(lifted_permutation((d_s, d_m), 1, u), table)


def test_swap_is_an_involution():
    for g, _ in (qubit_setup(), chain_setup(2, 2), ladder_setup(4)):
        u = interact.build_unbiased_swap(g)
        pi = u.joint_permutation
        assert np.array_equal(pi[pi], np.arange(pi.size))
        m = permutation_matrix(u)
        assert np.allclose(m @ m, np.eye(m.shape[0]))


# ------------------------------------------------------------------- apply


def test_apply_identity_leaves_product_unchanged():
    g, tau = qubit_setup()
    rho = qcore.random_density(2, seed=3)
    out = interact.apply(identity_interaction(g), rho, tau.state)
    assert np.allclose(out.matrix, np.kron(rho.matrix, tau.state.matrix))


def test_apply_matches_dense_conjugation():
    for g, tau in (chain_setup(2, 2, beta=0.8), ladder_setup(3, beta=1.2)):
        rho = qcore.random_density(g.d_s, seed=g.d_s)
        for build in (interact.build_noninvasive_maxcorr, interact.build_unbiased_swap):
            u = build(g)
            fast = interact.apply(u, rho, tau.state)
            um = permutation_matrix(u)
            dense = um @ np.kron(rho.matrix, tau.state.matrix) @ um.conj().T
            assert np.allclose(fast.matrix, dense, atol=1e-14)
            assert fast.dims == (g.d_s, g.dim)


def test_apply_dimension_check():
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    with pytest.raises(DimensionMismatch):
        interact.apply(u, qcore.random_density(3, seed=1), tau.state)


def test_cnot_on_pure_memory_copies_the_diagonal():
    # explicit 4x4 oracle for the classically perfectly correlated state
    g, _ = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    rho = qcore.diag_density([0.3, 0.7])
    ground = qcore.basis_state(2, 0)
    out = interact.apply(u, rho, ground)
    assert np.allclose(out.matrix, np.diag([0.3, 0.0, 0.0, 0.7]))


def test_swap_writes_register_and_returns_thermal_system():
    # dense oracle: |x, E_y> -> |y, E_x| on a single-qubit memory
    g, tau = qubit_setup()
    u = interact.build_unbiased_swap(g)
    out = interact.apply(u, qcore.diag_density([1.0, 0.0]), tau.state)
    mem = qcore.partial_trace(out, (1,))
    sys = qcore.partial_trace(out, (0,))
    assert np.allclose(mem.matrix, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(sys.matrix, np.diag([W0, W1]), atol=1e-15)


# ----------------------------------------------------------- correlation C


def test_correlation_of_maximally_mixed_joint():
    g, _ = qubit_setup()
    joint = qcore.DensityOperator(np.eye(4) / 4.0, (2, 2))
    c = interact.correlation_c(joint, g)
    assert c == pytest.approx(0.5, abs=1e-15)


def test_correlation_of_perfectly_correlated_state_is_one():
    g, _ = chain_setup(2, 2)
    m = np.zeros((8, 8))
    m[0, 0] = 0.2  # |0> with memory level 0 (sector 0)
    m[7, 7] = 0.8  # |1> with memory level 3 (sector 1)
    joint = qcore.DensityOperator(m, (2, 4))
    c = interact.correlation_c(joint, g)
    assert c == pytest.approx(1.0, abs=1e-15)


def test_correlation_without_interaction_is_pointer_weight():
    g, tau = qubit_setup()
    joint = qcore.tensor(qcore.diag_density([1.0, 0.0]), tau.state)
    c = interact.correlation_c(joint, g)
    assert c == pytest.approx(W0, abs=1e-15)


def test_correlation_in_permuted_system_basis():
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    out = interact.apply(u, qcore.diag_density([1.0, 0.0]), tau.state)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    direct = interact.correlation_c(out, g)
    flipped = interact.correlation_c(qcore.evolve(out, system_rotation(flip, g.dim)), g)
    assert direct == pytest.approx(W0, abs=1e-15)
    assert flipped == pytest.approx(W1, abs=1e-15)


def test_correlation_input_validation():
    g, tau = qubit_setup()
    joint = qcore.tensor(qcore.diag_density([1.0, 0.0]), tau.state)
    with pytest.raises(DimensionMismatch):
        interact.correlation_c(qcore.DensityOperator(joint.matrix, (4,)), g)
    for other, _ in (ladder_setup(3), chain_setup(2, 2)):
        with pytest.raises(DimensionMismatch):
            interact.correlation_c(joint, other)


def test_correlation_matches_dense_projector_oracle():
    for g, _ in (qubit_setup(), ladder_setup(3), chain_setup(3, 4)):
        d = g.d_s * g.dim
        basis = qcore.random_unitary(g.d_s, seed=g.d_s).matrix
        for seed in range(3):
            joint = qcore.random_density(d, seed=seed, dims=(g.d_s, g.dim))
            for rho in (joint, qcore.evolve(joint, system_rotation(basis, g.dim))):
                blocks = rho.matrix.reshape(g.d_s, g.dim, g.d_s, g.dim)
                want = sum(
                    np.real(np.trace(proj @ blocks[x, :, x, :]))
                    for x, proj in enumerate(dense_projectors(g))
                )
                assert interact.correlation_c(rho, g) == pytest.approx(want, abs=1e-13)


def test_maxcorr_reaches_cmax_on_every_diagonal_input():
    for g, tau in (qubit_setup(0.6), chain_setup(2, 2, 1.1), ladder_setup(3, 0.9)):
        u = interact.build_noninvasive_maxcorr(g)
        target = thermal.c_max(g, tau)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.dirichlet(np.ones(g.d_s))
            out = interact.apply(u, qcore.diag_density(p), tau.state)
            assert interact.correlation_c(out, g) == pytest.approx(target, abs=1e-13)


# ------------------------------------------------ pointer map of one unit


def test_transition_matrix_single_qubit_frozen():
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    a = pointer_map(u, tau.probs)
    assert np.allclose(a, [[W0, W1], [W1, W0]], atol=1e-15)


def test_transition_matrix_matches_dense_projector_oracle():
    for g, tau in (chain_setup(3, 2, 0.8), ladder_setup(4, 1.4)):
        for i in range(g.d_s - 1):
            u = interact.build_cycled_variant(g, i)
            a = pointer_map(u, tau.probs)
            projs = dense_projectors(g)
            um = permutation_matrix(u)
            for x in range(g.d_s):
                joint = np.kron(qcore.basis_state(g.d_s, x).matrix, tau.state.matrix)
                final = um @ joint @ um.conj().T
                blocks = final.reshape(g.d_s, g.dim, g.d_s, g.dim)
                mem = sum(blocks[s, :, s, :] for s in range(g.d_s))
                dense_row = [float(np.real(np.trace(pr @ mem))) for pr in projs]
                assert a[x].tolist() == pytest.approx(dense_row, abs=1e-14)


def test_transition_matrix_is_doubly_stochastic_at_any_beta():
    rng = np.random.default_rng(11)
    for g, tau0 in (chain_setup(2, 2), ladder_setup(3), chain_setup(2, 4)):
        for _ in range(5):
            tau = thermal.gibbs(tau0.hamiltonian, float(rng.uniform(0.0, 4.0)))
            for i in range(g.d_s - 1):
                a = pointer_map(interact.build_cycled_variant(g, i), tau.probs)
                assert np.allclose(a.sum(axis=1), 1.0, atol=1e-13)
                assert np.allclose(a.sum(axis=0), 1.0, atol=1e-13)
                assert np.all(a >= -1e-15)


@pytest.mark.parametrize("d_s", [2, 4])
def test_pointer_map_rows_sum_to_one_within_4_eps_at_20_qubits(d_s):
    h = thermal.qubit_chain_hamiltonian(20)
    g = thermal.group_energies(h, d_s)
    probs = thermal.gibbs(h, 1.0).probs
    for u in [interact.build_noninvasive_maxcorr(g)] + [interact.build_cycled_variant(g, i) for i in range(d_s - 1)]:
        a = interact.WriteStep(u, probs).pointer_map(0, g)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("kind", interact.KINDS)
@pytest.mark.parametrize("n", [20, 21])
def test_write_step_rows_sum_to_one_within_4_eps_at_20_and_21_qubits(n, kind):
    # t and the pointer map sum the 2^n populations as d_S pairwise sector weights; one sequential
    # sum over the levels would leave each row about 1e-11 off 1.  The populations route of a merged
    # step reads the same weights: over one unit it is the sector map on them bit for bit
    h = thermal.qubit_chain_hamiltonian(n)
    g = thermal.group_energies(h, 2)
    u, probs = interact.build(g, kind), thermal.gibbs(h, 1.0).probs
    step = interact.WriteStep(u, probs)
    for a in (step.stage(np.eye(2)), step.pointer_map(0, g)):
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
    a = g.readout(step.populations(0, np.eye(2)))
    assert np.array_equal(a / a.sum(axis=1, keepdims=True), interact.sector_matrix(u.sectors[1], g.readout(probs)))


def test_transition_matrix_diagonal_carries_cmax():
    g, tau = chain_setup(3, 2, beta=0.5)
    u = interact.build_noninvasive_maxcorr(g)
    a = pointer_map(u, tau.probs)
    c = thermal.c_max(g, tau)
    assert np.allclose(np.diag(a), c, atol=1e-14)


def test_cycled_variants_spread_anticorrelation_evenly():
    # summed over variants, each off-diagonal cell collects 1 - c_max
    for d_s in (3, 4):
        g, tau = ladder_setup(d_s, beta=0.85)
        total = sum(
            pointer_map(interact.build_cycled_variant(g, i), tau.probs)
            for i in range(d_s - 1)
        )
        c = thermal.c_max(g, tau)
        for x in range(d_s):
            for y in range(d_s):
                expected = (d_s - 1) * c if x == y else 1.0 - c
                assert total[x, y] == pytest.approx(expected, abs=1e-13)


def test_pushforward_matches_matrix_product():
    g, tau = qubit_setup(beta=math.log(4.0))  # c_max = 0.8 exactly
    u = interact.build_noninvasive_maxcorr(g)
    a = pointer_map(u, tau.probs)
    assert thermal.c_max(g, tau) == pytest.approx(0.8, abs=1e-15)
    assert (np.array([0.3, 0.7]) @ a).tolist() == pytest.approx([0.38, 0.62], abs=1e-15)


def test_pushforward_matches_dense_pointer_distribution():
    g, tau = chain_setup(2, 2, beta=1.0)
    u = interact.build_noninvasive_maxcorr(g)
    a = pointer_map(u, tau.probs)
    p = np.array([0.25, 0.75])
    out = interact.apply(u, qcore.diag_density(p), tau.state)
    q_dense = interact.pointer_distribution(out, g)
    assert (p @ a).tolist() == pytest.approx(q_dense.tolist(), abs=1e-14)


def test_transition_matrix_near_pure_memory_is_identity():
    g, _ = qubit_setup()
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=60.0)
    a = pointer_map(interact.build_noninvasive_maxcorr(g), tau.probs)
    assert np.allclose(a, np.eye(2), atol=1e-12)


# --------------------------------------------------------------- contracts


def test_battery_is_deterministic_and_valid():
    battery = interact.test_state_battery(3, seed=7, n_random=20)
    again = interact.test_state_battery(3, seed=7, n_random=20)
    assert len(battery) == 3 + 1 + 20
    for a, b in zip(battery, again):
        assert np.array_equal(a.matrix, b.matrix)
    assert np.allclose(battery[3].matrix, np.eye(3) / 3.0)


def test_pointer_distribution_of_product_state_is_sector_weights():
    g, tau = chain_setup(2, 2, beta=0.9)
    rho = qcore.random_density(2, seed=14)
    dist = interact.pointer_distribution(qcore.tensor(rho, tau.state), g)
    assert dist.tolist() == pytest.approx(g.readout(tau.probs).tolist(), abs=1e-14)


def test_noninvasive_defect_is_machine_zero_on_full_battery():
    cases = [qubit_setup(1.0), chain_setup(2, 2, 0.4), chain_setup(3, 2, 1.7), ladder_setup(3, 1.0)]
    for g, tau in cases:
        u = interact.build_noninvasive_maxcorr(g)
        battery = interact.test_state_battery(g.d_s, n_random=40)
        assert interact.check_noninvasive(u, tau.state, battery) <= 1e-12


def test_noninvasive_defect_holds_for_rank_deficient_memory():
    g, _ = chain_setup(2, 2)
    sigma = qcore.diag_density([0.6, 0.0, 0.4, 0.0])
    u = interact.build_noninvasive_maxcorr(g)
    battery = interact.test_state_battery(2, n_random=25)
    assert interact.check_noninvasive(u, sigma, battery) <= 1e-12


def test_identity_interaction_has_zero_invasiveness():
    g, tau = qubit_setup()
    battery = interact.test_state_battery(2, n_random=10)
    assert interact.check_noninvasive(identity_interaction(g), tau.state, battery) <= 1e-15


def test_pure_memory_makes_both_constructions_unbiased():
    g, _ = chain_setup(2, 2)
    ground = qcore.basis_state(4, 0)
    battery = interact.test_state_battery(2, n_random=25)
    for build in (interact.build_noninvasive_maxcorr, interact.build_unbiased_swap):
        assert interact.check_unbiased(build(g), ground, battery, g) <= 1e-12


def test_controlled_shift_is_biased_against_thermal_memory():
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    battery = interact.test_state_battery(2, n_random=10)
    defect = interact.check_unbiased(u, tau.state, battery, g)
    # worst over the battery: a basis input misses by the anticorrelation weight
    assert defect == pytest.approx(W1, abs=1e-13)


def test_swap_bias_defect_is_machine_zero():
    for g, tau in (qubit_setup(1.0), chain_setup(2, 2, 0.6), ladder_setup(3, 2.0)):
        u = interact.build_unbiased_swap(g)
        battery = interact.test_state_battery(g.d_s, n_random=40)
        assert interact.check_unbiased(u, tau.state, battery, g) <= 1e-12


def test_swap_invasiveness_on_basis_input():
    g, tau = qubit_setup()
    u = interact.build_unbiased_swap(g)
    rho = qcore.diag_density([1.0, 0.0])
    assert interact.check_noninvasive(u, tau.state, [rho]) == pytest.approx(W1, abs=1e-14)


def test_swap_fixed_point_is_the_sector_register():
    # a system already distributed like the register is written non-invasively
    g, tau = chain_setup(2, 2, beta=1.0)
    u = interact.build_unbiased_swap(g)
    rho = qcore.diag_density(g.readout(tau.probs))
    assert interact.check_noninvasive(u, tau.state, [rho]) <= 1e-13


def test_interaction_report_thermal_qubit():
    # C_U, the bias defect and the invasiveness defect of the controlled shift
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    battery = interact.test_state_battery(2)
    c_u = mean_correlation(u, tau.state, g, battery)
    assert c_u == pytest.approx(W0, abs=1e-13)
    assert c_u == pytest.approx(thermal.c_max(g, tau), abs=1e-13)
    assert interact.check_noninvasive(u, tau.state, battery) <= 1e-12
    assert interact.check_unbiased(u, tau.state, battery, g) == pytest.approx(W1, abs=1e-13)


def test_faithful_and_unbiased_interaction_is_noninvasive():
    # with a pure ground memory the controlled shift is faithful (C_U = 1)
    # and unbiased; its invasiveness must then vanish
    g, _ = chain_setup(2, 2)
    sigma = qcore.basis_state(4, 0)
    u = interact.build_noninvasive_maxcorr(g)
    battery = interact.test_state_battery(2)
    assert mean_correlation(u, sigma, g, battery) == pytest.approx(1.0, abs=1e-13)
    assert interact.check_unbiased(u, sigma, battery, g) <= 1e-12
    assert interact.check_noninvasive(u, sigma, battery) <= 1e-12


# ------------------------------------------------------------ haar probing


def test_haar_probe_never_beats_cmax():
    g, tau = qubit_setup()
    best = interact.haar_correlation_max(g, tau, n_samples=60, seed=2)
    assert best <= thermal.c_max(g, tau) + 1e-9
    g3, tau3 = ladder_setup(3, beta=1.0)
    best3 = interact.haar_correlation_max(g3, tau3, n_samples=40, seed=3)
    assert best3 <= thermal.c_max(g3, tau3) + 1e-9


def test_ceiling_does_not_constrain_basis_inputs():
    # a permutation controlled on the memory copies a known basis input
    # perfectly, so the c_max ceiling only applies near the uniform input
    g, tau = qubit_setup()
    pi = np.array([0, 3, 2, 1])  # |0,E_1> <-> |1,E_1>
    m = np.zeros((4, 4))
    m[pi, np.arange(4)] = 1.0
    joint = qcore.DensityOperator(
        m @ np.kron(qcore.basis_state(2, 0).matrix, tau.state.matrix) @ m.T, (2, 2)
    )
    c = interact.correlation_c(joint, g)
    assert c == pytest.approx(1.0, abs=1e-14)
    assert c > thermal.c_max(g, tau)


def test_haar_probe_is_deterministic_per_seed():
    g, tau = qubit_setup()
    a = interact.haar_correlation_max(g, tau, n_samples=10, seed=5)
    b = interact.haar_correlation_max(g, tau, n_samples=10, seed=5)
    assert a == b


def test_haar_probe_comes_close_to_cmax_on_a_qubit_pair():
    # the ceiling is attainable, so a modest sample should land within 0.2
    g, tau = qubit_setup()
    best = interact.haar_correlation_max(g, tau, n_samples=150, seed=8)
    assert best > thermal.c_max(g, tau) - 0.2


@pytest.mark.parametrize("kind", interact.KINDS)
def test_a_stacked_write_step_reads_each_row_as_alone(kind):
    # one write step over three rows of Gibbs populations: each row's populations, bit for bit,
    # and the images of every level when every level is occupied
    h = thermal.MemoryHamiltonian([0.0, 0.4, 1.0, 1.7, 2.0, 3.1])
    g = thermal.group_energies(h, 3)
    u = interact.build(g, kind)
    probs = np.stack([thermal.gibbs(h, beta).probs for beta in (0.5, 1.0, 2.0)])
    diags = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
    step = interact.WriteStep(u, probs)
    assert step.p is probs
    assert np.array_equal(step.images[1], hand_built_permutation(g, definition(3, kind)).reshape(3, -1) % u.d_m)
    stacked = step.populations(0, diags)
    for row, (p, r) in enumerate(zip(probs, diags)):
        assert np.array_equal(stacked[row], interact.WriteStep(u, p).populations(0, r[None])[0])


def test_a_write_step_reads_only_the_occupied_levels():
    # a ground memory occupies one level: the step keeps the images of that level alone
    h = thermal.qubit_chain_hamiltonian(2)
    u = interact.build(thermal.group_energies(h, 2), "noninvasive")
    step = interact.WriteStep(u, np.array([1.0, 0.0, 0.0, 0.0]))
    assert step.p.tolist() == [1.0]
    assert np.array_equal(step.images[1], u.joint_permutation.reshape(2, -1)[:, :1] % u.d_m)
    assert np.array_equal(step.populations(0, np.array([[0.3, 0.7]]))[0], [0.3, 0.0, 0.7, 0.0])


def test_a_write_step_fills_the_images_of_the_hand_built_permutation():
    # every kind and variant at d_S 2-5, over qubit chains and explicit spectra with tied, unsorted
    # levels, Gibbs, ground and sparse populations: the step's images (y, mu) are the divmod of the
    # permutation written from the definition on the occupied columns, and a one-unit pointer map,
    # the sector map on the sector weights, is the populations route bit for bit
    rng = np.random.default_rng(30)
    checked = 0
    for d_s in range(2, 6):
        hs = [thermal.MemoryHamiltonian(rng.integers(0, 3, d_s * r).astype(float)) for r in (1, 2, 3)]
        hs += [thermal.qubit_chain_hamiltonian(3)] if d_s in (2, 4) else []
        for h in hs:
            g = thermal.group_energies(h, d_s)
            ground = np.eye(h.dim)[np.argmin(h.energies)]
            sparse = rng.random(h.dim) * (np.arange(h.dim) % 2 == 0)
            for probs in (thermal.gibbs(h, 0.8).probs, ground, sparse / sparse.sum()):
                occupied = np.flatnonzero(probs)
                for kind, i in [("noninvasive", 0), ("swap", 0)] + [("cycled", i) for i in range(d_s - 1)]:
                    u = interact.build(g, kind, i)
                    step = interact.WriteStep(u, probs)
                    pi = hand_built_permutation(g, definition(d_s, kind, i)).reshape(d_s, -1)
                    y, mu = np.divmod(pi[:, occupied], h.dim)
                    assert np.array_equal(step.images[0], y) and np.array_equal(step.images[1], mu)
                    a = g.readout(step.populations(0, np.eye(d_s)))
                    assert np.array_equal(step.pointer_map(0, g), a / a.sum(axis=1, keepdims=True))
                    checked += 1
    assert checked == 186


def random_factor(rng, d_s):
    """A memory factor grouped for d_S: a qubit chain, or an explicit spectrum with degenerate
    energies; Gibbs, ground, or random populations with empty levels."""
    if d_s in (2, 4) and rng.random() < 0.5:
        h = thermal.qubit_chain_hamiltonian(int(rng.integers(d_s // 2, 4)))
    else:
        h = thermal.MemoryHamiltonian(np.sort(rng.integers(0, 3, d_s * int(rng.integers(1, 4)))).astype(float))
    which = rng.integers(3)
    if which == 0:
        return h, thermal.gibbs(h, float(rng.uniform(0.1, 3.0))).probs
    if which == 1:
        return h, np.eye(h.dim)[0]
    probs = rng.random(h.dim) * (rng.random(h.dim) < 0.7)
    probs[0] += 0.1
    return h, probs / probs.sum()


def test_every_write_channel_is_dephasing_then_its_transition_matrix():
    # a write is a complete record: the general channel on S (the oracle's, from every entry)
    # equals Delta followed by T for each kind and variant over one memory, or over the merged
    # memory of two factors, as a global run writes it.  Its zeros match exactly.  Its values match
    # within the rounding of the oracle, which sums up to K levels one by one (within K eps / 2 of
    # the exact sum), where T sums the sector weights pairwise (within 2 eps, checked against fsum)
    rng = np.random.default_rng(13)
    writes = 0
    for _ in range(120):
        d_s = int(rng.integers(2, 7))
        factors = [random_factor(rng, d_s) for _ in range(int(rng.integers(1, 3)))]
        h = thermal.product_hamiltonian([f[0] for f in factors])
        probs = reduce(np.kron, [f[1] for f in factors])
        dims = tuple(f[0].dim for f in factors)
        grouping = thermal.group_energies(h, d_s)
        for kind, variant in [("noninvasive", 0), ("swap", 0)] + [("cycled", i) for i in range(d_s - 1)]:
            step = interact.WriteStep(interact.build(grouping, kind, variant), probs, dims)
            want = np.zeros((d_s * d_s, d_s * d_s))
            diag = np.arange(d_s) * (d_s + 1)  # the flat index of (x, x)
            want[np.ix_(diag, diag)] = step.stage(np.eye(d_s)).T
            got = channel(step)
            assert np.array_equal(got == 0, want == 0)
            assert np.abs(got - want).max() <= (step.p.shape[-1] / 2 + 2) * np.finfo(float).eps
            writes += 1
    assert writes > 500


def fsum_rows(p, target, d_s):
    """a[x, z]: the fsum of p[k] over target[x, k] = z, over the fsum of p; each entry is rounded twice."""
    total = math.fsum(p)
    return np.array([[math.fsum(p[row == z]) / total for z in range(d_s)] for row in target])


def test_transition_and_pointer_maps_are_the_sector_weights_within_2_eps():
    # t, each memory factor's pointer map and the merged pointer map against the exact sector weights:
    # Gibbs, ground and random populations, over one memory and over the merged memory of two
    rng = np.random.default_rng(29)
    eps, checked = np.finfo(float).eps, 0
    for _ in range(60):
        d_s = int(rng.integers(2, 7))
        factors = [random_factor(rng, d_s) for _ in range(int(rng.integers(1, 3)))]
        hs = [f[0] for f in factors]
        probs = reduce(np.kron, [f[1] for f in factors])
        dims = tuple(h.dim for h in hs)
        grouping = thermal.group_energies(thermal.product_hamiltonian(hs), d_s)
        sector_of = []  # per factor: the sector of each of its levels
        for h in hs:
            g = thermal.group_energies(h, d_s)
            sector_of.append((g, np.argsort(g.groups.ravel()) // g.r))
        for kind, variant in [("noninvasive", 0), ("swap", 0)] + [("cycled", i) for i in range(d_s - 1)]:
            u = interact.build(grouping, kind, variant)
            step = interact.WriteStep(u, probs, dims)
            y, level = np.divmod(u.joint_permutation.reshape(d_s, -1), u.d_m)
            assert np.abs(step.stage(np.eye(d_s)) - fsum_rows(probs, y, d_s)).max() <= 2 * eps
            if kind != "swap":
                merged_sector = np.argsort(grouping.groups.ravel()) // grouping.r
                assert np.abs(pointer_map(u, probs) - fsum_rows(probs, merged_sector[level], d_s)).max() <= 2 * eps
            for f, (g, sector) in enumerate(sector_of):
                digit = level // math.prod(dims[f + 1 :]) % dims[f]
                assert np.abs(step.pointer_map(f, g) - fsum_rows(probs, sector[digit], d_s)).max() <= 2 * eps
            checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "sector_map",
    [lambda x, nu: (x, nu + 0 * x), lambda x, nu: (x, np.where(nu == 0, 0, (x + nu) % 3))],
    ids=["identity", "one-sector-kept"],
)
def test_a_sector_map_that_is_not_a_complete_record_is_refused(sector_map):
    # each map writes two outcomes of one memory sector into one sector, so tracing out the
    # memory would keep a coherence of S
    g, _ = ladder_setup(3)
    with pytest.raises(WrongKind, match="into one sector"):
        interact._complete_record(g.d_s, sector_map)
