"""Measurement interactions: construction, contracts, transition statistics."""

import math

import numpy as np
import pytest
from oracle import lifted_permutation, permutation_matrix

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
    table = np.arange(grouping.d_s * grouping.dim).reshape(grouping.d_s, grouping.dim)
    return interact.ControlledInteraction("noninvasive", grouping, table)


def system_rotation(basis, d_m):
    """The joint unitary that reads the system in the columns of `basis`."""
    return np.kron(np.asarray(basis).conj().T, np.eye(d_m))


# ------------------------------------------------------------- construction


def test_maxcorr_single_qubit_is_cnot():
    g, _ = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    assert u.table.tolist() == [[0, 1], [3, 2]]
    assert np.array_equal(permutation_matrix(u), CNOT)


def test_maxcorr_two_qubit_chain_shifts_whole_sectors():
    g, _ = chain_setup(2, 2)
    u = interact.build_noninvasive_maxcorr(g)
    # sectors {0,1} and {2,3}; control 1 exchanges them slot by slot
    assert u.table.tolist() == [[0, 1, 2, 3], [6, 7, 4, 5]]


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
        assert np.array_equal(base.table, v0.table)


def test_cycled_variant_one_swaps_offsets_for_three_outcomes():
    g, _ = ladder_setup(3)
    v1 = interact.build_cycled_variant(g, 1)
    # offsets 1 and 2 trade places relative to the base shift
    for x in range(3):
        assert v1.table[x, 1] == 3 * x + (x + 2) % 3
        assert v1.table[x, 2] == 3 * x + (x + 1) % 3


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
    assert np.array_equal(cycled.table, interact.build_cycled_variant(g, 1).table)
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

        def cycled(i):
            # variant i moves sector s_i(delta) = ((delta - 1 + i) mod (d_S - 1)) + 1 by offset delta
            targets = {((delta - 1 + i) % (d_s - 1)) + 1: delta for delta in range(1, d_s)}
            return lambda x, nu: (x, (x + targets.get(nu, 0)) % d_s)

        # (x, nu) -> (y, mu): |x, groups[nu][s]> goes to |y, groups[mu][s]>
        cases = [
            (interact.build_noninvasive_maxcorr(g), lambda x, nu: (x, (x + nu) % d_s)),
            (interact.build_unbiased_swap(g), lambda x, nu: (nu, x)),
        ]
        cases += [(interact.build_cycled_variant(g, i), cycled(i)) for i in range(d_s - 1)]
        for u, sector_map in cases:
            table = np.full(d_s * d_m, -1)
            for x in range(d_s):
                for nu in range(d_s):
                    y, mu = sector_map(x, nu)
                    for s in range(g.r):
                        table[x * d_m + g.groups[nu][s]] = y * d_m + g.groups[mu][s]
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


# ------------------------------------------------------- transition matrix


def test_transition_matrix_single_qubit_frozen():
    g, tau = qubit_setup()
    u = interact.build_noninvasive_maxcorr(g)
    a = interact.transition_matrix(u, tau.probs)
    assert np.allclose(a, [[W0, W1], [W1, W0]], atol=1e-15)


def test_transition_matrix_matches_dense_projector_oracle():
    for g, tau in (chain_setup(3, 2, 0.8), ladder_setup(4, 1.4)):
        for i in range(g.d_s - 1):
            u = interact.build_cycled_variant(g, i)
            a = interact.transition_matrix(u, tau.probs)
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
                a = interact.transition_matrix(interact.build_cycled_variant(g, i), tau.probs)
                assert np.allclose(a.sum(axis=1), 1.0, atol=1e-13)
                assert np.allclose(a.sum(axis=0), 1.0, atol=1e-13)
                assert np.all(a >= -1e-15)


def test_transition_matrix_diagonal_carries_cmax():
    g, tau = chain_setup(3, 2, beta=0.5)
    u = interact.build_noninvasive_maxcorr(g)
    a = interact.transition_matrix(u, tau.probs)
    c = thermal.c_max(g, tau)
    assert np.allclose(np.diag(a), c, atol=1e-14)


def test_cycled_variants_spread_anticorrelation_evenly():
    # summed over variants, each off-diagonal cell collects 1 - c_max
    for d_s in (3, 4):
        g, tau = ladder_setup(d_s, beta=0.85)
        total = sum(
            interact.transition_matrix(interact.build_cycled_variant(g, i), tau.probs)
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
    a = interact.transition_matrix(u, tau.probs)
    assert thermal.c_max(g, tau) == pytest.approx(0.8, abs=1e-15)
    assert (np.array([0.3, 0.7]) @ a).tolist() == pytest.approx([0.38, 0.62], abs=1e-15)


def test_pushforward_matches_dense_pointer_distribution():
    g, tau = chain_setup(2, 2, beta=1.0)
    u = interact.build_noninvasive_maxcorr(g)
    a = interact.transition_matrix(u, tau.probs)
    p = np.array([0.25, 0.75])
    out = interact.apply(u, qcore.diag_density(p), tau.state)
    q_dense = interact.pointer_distribution(out, g)
    assert (p @ a).tolist() == pytest.approx(q_dense.tolist(), abs=1e-14)


def test_transition_matrix_rejects_swap():
    g, tau = qubit_setup()
    with pytest.raises(WrongKind):
        interact.transition_matrix(interact.build_unbiased_swap(g), tau.probs)


def test_transition_matrix_near_pure_memory_is_identity():
    g, _ = qubit_setup()
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=60.0)
    a = interact.transition_matrix(interact.build_noninvasive_maxcorr(g), tau.probs)
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
    assert dist.tolist() == pytest.approx(g.readout(np.arange(g.dim), tau.probs).tolist(), abs=1e-14)


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
    rho = qcore.diag_density(g.readout(np.arange(g.dim), tau.probs))
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
    # and the whole table read when every level is occupied
    h = thermal.MemoryHamiltonian([0.0, 0.4, 1.0, 1.7, 2.0, 3.1])
    u = interact.build(thermal.group_energies(h, 3), kind)
    probs = np.stack([thermal.gibbs(h, beta).probs for beta in (0.5, 1.0, 2.0)])
    diags = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
    step = interact.WriteStep(u, probs)
    assert step.p is probs and np.array_equal(step.mu, u.table % u.d_m)
    stacked = step.populations(0, diags)
    for row, (p, r) in enumerate(zip(probs, diags)):
        assert np.array_equal(stacked[row], interact.WriteStep(u, p).populations(0, r[None])[0])


def test_a_write_step_reads_only_the_occupied_levels():
    # a ground memory occupies one level: the step gathers its column of the table
    h = thermal.qubit_chain_hamiltonian(2)
    u = interact.build(thermal.group_energies(h, 2), "noninvasive")
    step = interact.WriteStep(u, np.array([1.0, 0.0, 0.0, 0.0]))
    assert step.p.tolist() == [1.0]
    assert np.array_equal(step.mu, u.table[:, :1] % u.d_m)
    assert np.array_equal(step.populations(0, np.array([[0.3, 0.7]]))[0], [0.3, 0.0, 0.7, 0.0])
