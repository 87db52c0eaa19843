"""Broadcast runs, the redundancy obstruction, and statistics reconstruction."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import blocks_summary, channel_blocks, final_state, joints, system_blocks

from semibroadcast import broadcast, infotherm, interact, qcore, thermal
from semibroadcast.config import SweepConfig
from semibroadcast.errors import (
    DegenerateOutcomeWarning,
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidBlocks,
    NonPositiveMemoryEntropy,
    NotInvertible,
    WrongKind,
)

LN2 = math.log(2.0)
E_INV = math.exp(-1.0)
W0 = 1.0 / (1.0 + E_INV)
W1 = 1.0 - W0

S_GIBBS = 0.5822031088882179
SEQ_DEFECT_P37 = 0.10757656854799805  # (1 - W0) * |0.3 - 0.7|, scalar oracle


def qubit_unit(beta=1.0, kind="noninvasive", variant=0):
    return broadcast.thermal_unit(
        thermal.qubit_chain_hamiltonian(1), beta, 2, kind=kind, variant=variant
    )


def ladder_unit(d_s, beta=1.0, kind="noninvasive", variant=0):
    h = thermal.MemoryHamiltonian(list(range(d_s)))
    return broadcast.thermal_unit(h, beta, d_s, kind=kind, variant=variant)


# ------------------------------------------------------------- memory parts


def test_memory_unit_validates_dimensions():
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    u = interact.build_noninvasive_maxcorr(g)
    with pytest.raises(DimensionMismatch):
        broadcast.MemoryUnit(h, np.full(4, 0.25), u)


def test_memory_unit_rejects_foreign_interaction():
    h2 = thermal.qubit_chain_hamiltonian(2)
    g2 = thermal.group_energies(h2, 2)
    u2 = interact.build_noninvasive_maxcorr(g2)
    h1 = thermal.qubit_chain_hamiltonian(1)
    tau1 = thermal.gibbs(h1, 1.0)
    with pytest.raises(DimensionMismatch):
        broadcast.MemoryUnit(h1, tau1.probs, u2)


def test_explicit_unit_rejects_unknown_kind():
    h = thermal.qubit_chain_hamiltonian(1)
    with pytest.raises(WrongKind):
        broadcast.explicit_unit(h, [1.0, 0.0], 2, kind="sideways")


def test_memory_array_needs_consistent_system_dimension():
    with pytest.raises(DimensionMismatch):
        broadcast.MemoryArray(2, (qubit_unit(), ladder_unit(3)))
    with pytest.raises(DimensionMismatch):
        broadcast.MemoryArray(2, ())


def test_memory_array_dimension_accounting():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit(0.5)))
    assert mem.dims == (2, 2)
    assert mem.total_dim() == 8


# --------------------------------------------------------- sequential local


def test_sequential_run_reads_the_same_statistics_on_every_unit():
    # non-invasive writes leave the diagonal alone, so both units see A p
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit()))
    p = [0.3, 0.7]
    run = broadcast.run_sequential_local(qcore.diag_density(p), mem)
    unit = mem.units[0]
    w = unit.grouping.readout(unit.probs)
    expected = np.asarray(p) @ interact.sector_matrix(unit.interaction.sectors[1], w)
    for qi in run.q:
        assert qi.tolist() == pytest.approx(expected.tolist(), abs=1e-13)
    assert run.mode == broadcast.SEQUENTIAL_LOCAL
    assert run.dims == (2, 2, 2)


def test_sequential_defect_matches_closed_form():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit()))
    run = broadcast.run_sequential_local(qcore.diag_density([0.3, 0.7]), mem)
    assert broadcast.ideal_scb_defect(run) == pytest.approx(SEQ_DEFECT_P37, abs=1e-13)


def test_sequential_system_diagonal_history_is_flat_for_noninvasive():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit(0.4), qubit_unit(2.0)))
    p = [0.25, 0.75]
    run = broadcast.run_sequential_local(qcore.diag_density(p), mem)
    assert run.p_initial.tolist() == pytest.approx(p, abs=1e-15)
    assert len(run.system_diag_history) == 3  # one snapshot after each write
    for diag in run.system_diag_history:
        assert diag.tolist() == pytest.approx(p, abs=1e-13)


def test_uniform_input_is_a_fixed_point_of_the_statistics():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit()))
    run = broadcast.run_sequential_local(qcore.diag_density([0.5, 0.5]), mem)
    assert broadcast.ideal_scb_defect(run) <= 1e-13


def test_mixed_unit_sizes_each_push_through_their_own_map():
    big = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(2), 0.5, 2)
    mem = broadcast.MemoryArray(2, (qubit_unit(), big))
    p = [0.2, 0.8]
    run = broadcast.run_sequential_local(qcore.diag_density(p), mem)
    for unit, qi in zip(mem.units, run.q):
        # the dense write of the diagonal that reaches the unit, read through its sectors
        joint = interact.apply(unit.interaction, qcore.diag_density(p), qcore.diag_density(unit.probs))
        assert qi.tolist() == pytest.approx(interact.pointer_distribution(joint, unit.grouping).tolist(), abs=1e-13)


def test_pure_memories_record_statistics_exactly():
    h = thermal.qubit_chain_hamiltonian(1)
    units = tuple(
        broadcast.explicit_unit(h, [1.0, 0.0], 2, kind="noninvasive")
        for _ in range(2)
    )
    run = broadcast.run_sequential_local(
        qcore.diag_density([0.3, 0.7]), broadcast.MemoryArray(2, units)
    )
    assert broadcast.ideal_scb_defect(run) <= 1e-12


def test_swap_chain_disturbs_later_readouts():
    # first write is exact, the second reads the deposited register instead; the empty
    # input 1 keeps its row, and no outcome is dropped with a warning
    mem = broadcast.MemoryArray(2, (qubit_unit(kind="swap"), qubit_unit(kind="swap")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = broadcast.run_sequential_local(qcore.diag_density([1.0, 0.0]), mem)
    assert run.basis_defects.shape == (2,)
    assert run.q[0].tolist() == pytest.approx([1.0, 0.0], abs=1e-14)
    assert run.q[1].tolist() == pytest.approx([W0, W1], abs=1e-14)
    assert broadcast.ideal_scb_defect(run) == pytest.approx(W1, abs=1e-13)


def test_input_label_ensembles_are_the_written_conditionals():
    # row x is the memory written from input |x>, one row per input, whatever p_initial[x] is
    mem = broadcast.MemoryArray(2, (qubit_unit(),))
    for p in ([0.3, 0.7], [1.0, 0.0]):
        run = broadcast.run_sequential_local(qcore.diag_density(p), mem)
        (rows,) = run.ensembles()
        assert run.p_initial.tolist() == pytest.approx(p, abs=1e-14)
        assert rows.shape == (2, 2)
        assert np.allclose(rows[0], [W0, W1], atol=1e-14)
        assert np.allclose(rows[1], [W1, W0], atol=1e-14)


def test_final_state_rank_is_memory_bound_for_pure_inputs():
    psi = np.array([math.sqrt(0.3), math.sqrt(0.7)])
    rho = qcore.DensityOperator(np.outer(psi, psi))
    eigs = np.linalg.eigvalsh(final_state(rho, broadcast.MemoryArray(2, (qubit_unit(),))).matrix)
    assert int(np.sum(eigs > 1e-12)) == 2


def test_a_long_chain_does_not_compound_rounding():
    # 20,000 writes into 3-qubit memories: any rounding of the trace per write would compound
    # past the 1e-12 a DensityOperator allows; a noninvasive write's t is exactly I
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(3), 1.0, 2)
    p = [0.3, 0.7]
    run = broadcast.run_sequential_local(qcore.diag_density(p), broadcast.MemoryArray(2, [unit] * 20000))
    assert run.system_diag_history[-1].tolist() == pytest.approx(p, abs=1e-15)
    assert np.max(np.abs(np.array(run.q) - run.q[0])) <= 1e-15


@pytest.mark.parametrize("kind", ["noninvasive", "cycled"])
def test_label_keeping_chains_keep_the_input_diagonal_bit_for_bit(kind):
    # such a write's t is exactly I, so 64 of them pass the input diagonal through unchanged,
    # and every unit reads the same statistics
    rng = np.random.default_rng(len(kind))
    for d_s in (2, 4):
        for n in (6, 12, 16):
            unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(n), 1.0, d_s, kind=kind)
            mem = broadcast.MemoryArray(d_s, [unit] * 64)
            for _ in range(5):
                run = broadcast.run_sequential_local(qcore.diag_density(rng.dirichlet(np.ones(d_s))), mem)
                assert all(np.array_equal(diag, run.p_initial) for diag in run.system_diag_history)
                assert all(np.array_equal(q, run.q[0]) for q in run.q)


def test_a_swap_chain_leaves_the_sector_weights_bit_for_bit():
    # every row of a swap's t is the memory's sector weights W, which each of 1,024 swaps writes
    # onto the system whatever came in
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(6), 1.0, 2, kind="swap")
    p = qcore.diag_density(np.random.default_rng(5).dirichlet(np.ones(2)))
    run = broadcast.run_sequential_local(p, broadcast.MemoryArray(2, [unit] * 1024))
    t = interact.WriteStep(unit.interaction, unit.probs).stage(np.eye(2))
    assert all(np.array_equal(diag, t[0]) for diag in run.system_diag_history)


def test_system_dimension_mismatch_is_rejected():
    mem = broadcast.MemoryArray(2, (qubit_unit(),))
    with pytest.raises(DimensionMismatch):
        broadcast.run_sequential_local(qcore.random_density(3, seed=1), mem)


# ------------------------------------------------- structured engine vs oracle


MEMORY_STATES = ("gibbs", "ground")


def random_unit(rng, d_s, d_m, state, kind, variant):
    h = thermal.MemoryHamiltonian(np.sort(rng.uniform(0.0, 3.0, d_m)))
    if state == "gibbs":
        return broadcast.thermal_unit(h, float(rng.uniform(0.1, 2.0)), d_s, kind, variant)
    return broadcast.explicit_unit(h, np.eye(d_m)[0], d_s, kind, variant)


@settings(max_examples=40, deadline=None)
@given(
    d_s=st.sampled_from((2, 3, 4)),
    ranks=st.lists(st.sampled_from((1, 2)), min_size=1, max_size=4),
    states=st.lists(st.sampled_from(MEMORY_STATES), min_size=4, max_size=4),
    kind=st.sampled_from(("noninvasive", "cycled", "swap")),
    mode=st.sampled_from((broadcast.SEQUENTIAL_LOCAL, broadcast.GLOBAL)),
    pure_input=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_structured_engine_matches_the_dense_oracle(d_s, ranks, states, kind, mode, pure_input, seed):
    dims = tuple(d_s * r for r in ranks)
    assume(d_s * math.prod(dims) <= 1024)
    rng = np.random.default_rng(seed)
    variant = int(rng.integers(d_s - 1)) if kind == "cycled" else 0
    mem = broadcast.MemoryArray(
        d_s, [random_unit(rng, d_s, d, s, kind, variant) for d, s in zip(dims, states)]
    )
    if pure_input:
        rho = qcore.basis_state(d_s, int(rng.integers(d_s)))
    else:
        rho = qcore.random_density(d_s, int(rng.integers(2**32)))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if mode == broadcast.GLOBAL:
            run = broadcast.run_global(rho, mem, kind, variant)
        else:
            run = broadcast.run_sequential_local(rho, mem)
    assert not any(issubclass(w.category, DegenerateOutcomeWarning) for w in caught)

    history = list(joints(rho, mem, mode, kind, variant))
    dense = qcore.DensityOperator(history[-1], run.dims)
    n = len(dims)
    marginal, want = run.first_marginal, system_blocks(qcore.partial_trace(dense, (0, 1)))
    np.testing.assert_allclose(marginal.gram, want.gram, rtol=0, atol=1e-12)
    np.testing.assert_allclose(marginal.traces, want.traces, rtol=0, atol=1e-12)
    assert marginal.off_diagonal == pytest.approx(want.off_diagonal, abs=1e-12)
    # every write is a complete record: rho_S' is diagonal, and its diagonal is the chain's last
    np.testing.assert_allclose(
        np.diag(run.system_diag_history[-1]), qcore.partial_trace(dense, (0,)).matrix, rtol=0, atol=1e-12
    )
    verdict, want = infotherm.sbs_test(marginal), infotherm.sbs_test(want)
    assert verdict.off_diagonal_norm == pytest.approx(want.off_diagonal_norm, abs=1e-12)
    assert verdict.conditional_overlap == pytest.approx(want.conditional_overlap, abs=1e-12)
    for i, unit in enumerate(mem.units):
        want = interact.pointer_distribution(qcore.partial_trace(dense, (0, i + 1)), unit.grouping)
        np.testing.assert_allclose(run.q[i], want, rtol=0, atol=1e-12)
    assert len(run.system_diag_history) == len(history)
    for diag, joint in zip(run.system_diag_history, history):
        want = joint.diagonal().real.reshape(d_s, -1).sum(axis=1)
        np.testing.assert_allclose(diag, want, rtol=0, atol=1e-12)

    # every basis input has its row, a pure input's empty ones too
    basis_states = [final_state(qcore.basis_state(d_s, x), mem, mode, kind, variant) for x in range(d_s)]
    ensembles = list(run.ensembles())
    assert len(ensembles) == n
    for i, rows in enumerate(ensembles):
        assert rows.shape == (d_s, dims[i])
        for row, joint in zip(rows, basis_states):
            want = qcore.partial_trace(joint, (i + 1,)).matrix
            np.testing.assert_allclose(np.diag(row), want, rtol=0, atol=1e-12)
    want = [
        max(
            np.max(np.abs(np.eye(d_s)[x] - interact.pointer_distribution(qcore.partial_trace(joint, (0, i + 1)), unit.grouping)))
            for i, unit in enumerate(mem.units)
        )
        for x, joint in enumerate(basis_states)
    ]
    np.testing.assert_allclose(run.basis_defects, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("state", MEMORY_STATES)
@pytest.mark.parametrize("mode", (broadcast.SEQUENTIAL_LOCAL, broadcast.GLOBAL))
@pytest.mark.parametrize("n_units", (2, 3, 4))
def test_first_marginal_matches_the_product_of_the_later_channels(n_units, mode, state):
    # the run pushes only the Gram and the traces of the S-diagonal blocks through T_2 ... T_N;
    # the oracle keeps every entry of the first write and multiplies the general channels Phi_N ... Phi_2
    rng = np.random.default_rng([n_units, len(mode), len(state)])
    for _ in range(6):
        d_s = int(rng.integers(2, 5))
        kind = str(rng.choice(interact.KINDS))
        variant = int(rng.integers(d_s - 1)) if kind == "cycled" else 0
        dims = [d_s * int(rng.integers(1, 3)) for _ in range(n_units)]
        if mode == broadcast.GLOBAL:
            dims = [d_s] * n_units  # the merged memory holds d_S^N levels
        states = [state] + [str(rng.choice(MEMORY_STATES)) for _ in dims[1:]]
        mem = broadcast.MemoryArray(d_s, [random_unit(rng, d_s, d, s, kind, variant) for d, s in zip(dims, states)])
        rho = qcore.random_density(d_s, int(rng.integers(2**32)))
        if mode == broadcast.GLOBAL:
            run = broadcast.run_global(rho, mem, kind, variant)
        else:
            run = broadcast.run_sequential_local(rho, mem)
        got = run.first_marginal
        want = blocks_summary(channel_blocks(rho, mem, mode, kind, variant).reshape(d_s, d_s, dims[0], dims[0]))
        np.testing.assert_allclose(got.gram, want.gram, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.traces, want.traces, rtol=0, atol=1e-12)
        assert got.off_diagonal == pytest.approx(want.off_diagonal, abs=1e-12)


def test_ensembles_over_4096_memories_are_built_one_unit_at_a_time():
    # 4096 copies of a 6-qubit memory: all members together are 2 * 4096 * 64 populations, 4 MiB;
    # the noninvasive writes keep every basis input, so each unit holds the single unit's members
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(6), 1.0, 2)
    p = qcore.diag_density([0.4, 0.6])
    (want,) = broadcast.run_sequential_local(p, broadcast.MemoryArray(2, [unit])).ensembles()
    run = broadcast.run_sequential_local(p, broadcast.MemoryArray(2, [unit] * 4096))
    units, worst = 0, 0.0
    tracemalloc.start()
    try:
        for rows in run.ensembles():
            units += 1
            worst = max(worst, float(np.max(np.abs(rows - want))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert units == 4096
    assert worst <= 1e-12
    assert peak < 2**20


def test_structured_budget_refuses_before_allocating():
    # N = 3 copies of an 8-qubit memory: the global write holds 4 * 2^24 entries, 2 GiB as a list
    big = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(8), 1.0, 2)
    mem = broadcast.MemoryArray(2, (big, big, big))
    with pytest.raises(DimensionBudgetExceeded):
        broadcast.run_global(qcore.diag_density([0.4, 0.6]), mem)


# ------------------------------------------------------------------- global


def test_global_swap_is_not_locally_unbiased():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit()))
    run = broadcast.run_global(qcore.diag_density([0.3, 0.7]), mem, kind="swap")
    assert run.mode == broadcast.GLOBAL
    assert broadcast.ideal_scb_defect(run) > 1e-6
    assert run.dims == (2, 2, 2)


def test_global_register_as_a_whole_is_unbiased():
    # reading the merged sector register of the same coupling recovers p
    units = (qubit_unit(), qubit_unit())
    merged_h = thermal.product_hamiltonian([u.hamiltonian for u in units])
    merged = broadcast.thermal_unit(merged_h, 1.0, 2, kind="swap")
    run = broadcast.run_sequential_local(
        qcore.diag_density([0.3, 0.7]), broadcast.MemoryArray(2, (merged,))
    )
    assert broadcast.ideal_scb_defect(run) <= 1e-12


def test_global_noninvasive_keeps_system_diagonal():
    mem = broadcast.MemoryArray(2, (qubit_unit(), qubit_unit()))
    p = [0.35, 0.65]
    run = broadcast.run_global(qcore.diag_density(p), mem, kind="noninvasive")
    assert run.system_diag_history[-1].tolist() == pytest.approx(p, abs=1e-13)


# ------------------------------------------------------------------ witness


def test_witness_matches_published_arithmetic():
    w = broadcast.nogo_witness(0.0, 0.58234, 0.0, 2)
    assert w.violated
    assert w.k == 1
    assert w.lhs == pytest.approx(1.16468, abs=1e-12)
    assert w.rhs == pytest.approx(LN2, abs=1e-12)


def test_witness_finds_deep_doubling_levels():
    w = broadcast.nogo_witness(0.0, 0.01, 0.0, 2)
    assert w.violated
    assert w.k == 7
    assert 2.0**6 * 0.01 <= LN2  # one level earlier the count still fits


def test_witness_with_thermal_qubit_entropy():
    w = broadcast.nogo_witness(0.0, S_GIBBS, 0.0, 2)
    assert w.k == 1
    assert w.lhs == pytest.approx(2.0 * S_GIBBS, abs=1e-13)


def test_witness_inapplicable_when_labels_carry_more_entropy():
    w = broadcast.nogo_witness(0.3, 0.2, 0.5, 2)
    assert not w.violated
    assert w.k is None and w.lhs is None and w.rhs is None


def test_witness_input_validation():
    with pytest.raises(NonPositiveMemoryEntropy):
        broadcast.nogo_witness(0.1, 0.0, 0.1, 2)
    with pytest.raises(NonPositiveMemoryEntropy):
        broadcast.nogo_witness(0.1, -0.2, 0.1, 2)
    with pytest.raises(DimensionMismatch):
        broadcast.nogo_witness(0.1, 0.2, 0.1, 1)
    with pytest.raises(DimensionMismatch):
        broadcast.nogo_witness(-0.1, 0.2, 0.1, 2)


# ------------------------------------------------------------ reconstruction


def test_reconstruct_two_outcome_example():
    p = broadcast.reconstruct_p([[0.38, 0.62]], 0.8, 2)
    assert p.tolist() == pytest.approx([0.3, 0.7], abs=1e-12)


def test_reconstruct_three_outcome_example():
    q = [0.425, 0.315, 0.26]
    p = broadcast.reconstruct_p([q, q], 0.7, 3)
    assert p.tolist() == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


def test_reconstruct_perfect_memory_is_identity():
    p = broadcast.reconstruct_p([[0.3, 0.7]], 1.0, 2)
    assert p.tolist() == pytest.approx([0.3, 0.7], abs=1e-15)


def test_reconstruct_rejects_uninformative_memory():
    with pytest.raises(NotInvertible):
        broadcast.reconstruct_p([[0.5, 0.5]], 0.5, 2)
    with pytest.raises(NotInvertible):
        broadcast.reconstruct_p([[0.5, 0.5]], 0.5 + 1e-10, 2)
    # just outside the guard band inversion works again
    broadcast.reconstruct_p([[0.5, 0.5]], 0.51, 2)


def test_reconstruct_validates_variant_count_and_size():
    with pytest.raises(DimensionMismatch):
        broadcast.reconstruct_p([[0.38, 0.62], [0.38, 0.62]], 0.8, 2)
    with pytest.raises(DimensionMismatch):
        broadcast.reconstruct_p([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], 0.8, 4)
    with pytest.raises(DimensionMismatch, match="must have d_s outcomes"):
        broadcast.reconstruct_p([[0.2, 0.3, 0.5]], 0.8, 2)
    with pytest.raises(DimensionMismatch, match="need d_s >= 2"):
        broadcast.reconstruct_p([], 0.8, 1)


def test_reconstruct_clips_rounding_noise_at_zero():
    c = 0.8
    q = [c + 0.2 / 1.0 * 0.0, 0.0, 0.0]  # placeholder replaced below
    # exact q for p = (1, 0, 0) at c_max = 0.8, then nudged by -5e-13
    base = [0.8, 0.1, 0.1]
    q = [[base[0], base[1] - 5e-13, base[2] + 5e-13], [base[0], base[1], base[2]]]
    p = broadcast.reconstruct_p(q, c, 3)
    assert p[0] == pytest.approx(1.0, abs=1e-11)
    assert np.all(p >= 0.0)


def test_reconstruct_round_trip_through_dense_simulation():
    # all d_S - 1 cycled variants on a three-level ladder memory
    d_s = 3
    h = thermal.MemoryHamiltonian([0.0, 1.0, 2.0])
    tau = thermal.gibbs(h, 1.0)
    g = thermal.group_energies(h, d_s)
    p_true = [0.5, 0.3, 0.2]
    q = []
    for i in range(d_s - 1):
        unit = broadcast.thermal_unit(h, 1.0, d_s, kind="cycled", variant=i)
        run = broadcast.run_sequential_local(
            qcore.diag_density(p_true), broadcast.MemoryArray(d_s, (unit,))
        )
        q.append(run.q[0])
    p_hat = broadcast.reconstruct_p(q, thermal.c_max(g, tau), d_s)
    assert p_hat.tolist() == pytest.approx(p_true, abs=1e-12)


@pytest.mark.parametrize("d_s", [2, 3, 4])
def test_transition_matrix_is_the_forward_model_of_reconstruction(d_s):
    # unit i runs cycled variant i on unsorted levels: its pointer map on the sector weights against
    # one sequential run over all of them and the dense write of each
    rng = np.random.default_rng(d_s)
    h = thermal.MemoryHamiltonian(rng.uniform(0.0, 2.0, 2 * d_s))
    tau = thermal.gibbs(h, 0.7)
    units = [broadcast.explicit_unit(h, tau.probs, d_s, "cycled", i) for i in range(d_s - 1)]
    mem = broadcast.MemoryArray(d_s, units)
    p = rng.dirichlet(np.ones(d_s))
    run = broadcast.run_sequential_local(qcore.diag_density(p), mem)
    assert len(run.q) == d_s - 1
    pushed = []
    for i, unit in enumerate(mem.units):
        assert unit.interaction.variant == i
        q = p @ interact.sector_matrix(unit.interaction.sectors[1], unit.grouping.readout(tau.probs))
        np.testing.assert_allclose(q, run.q[i], rtol=0, atol=1e-12)
        joint = interact.apply(unit.interaction, qcore.diag_density(p), tau.state)
        np.testing.assert_allclose(q, interact.pointer_distribution(joint, unit.grouping), rtol=0, atol=1e-12)
        pushed.append(q)
    p_hat = broadcast.reconstruct_p(pushed, thermal.c_max(mem.units[0].grouping, tau), d_s)
    np.testing.assert_allclose(p_hat, p, rtol=0, atol=1e-9)


def test_reconstruct_sees_only_the_diagonal_of_coherent_inputs():
    d_s = 2
    h = thermal.qubit_chain_hamiltonian(1)
    tau = thermal.gibbs(h, 1.0)
    g = thermal.group_energies(h, d_s)
    psi = np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j)])
    rho = qcore.DensityOperator(np.outer(psi, psi.conj()))
    unit = broadcast.thermal_unit(h, 1.0, d_s, kind="cycled", variant=0)
    run = broadcast.run_sequential_local(rho, broadcast.MemoryArray(d_s, (unit,)))
    p_hat = broadcast.reconstruct_p([run.q[0]], thermal.c_max(g, tau), d_s)
    assert p_hat.tolist() == pytest.approx([0.3, 0.7], abs=1e-12)


# --------------------------------------------------- ideal broadcast states


def test_ideal_state_single_rank_one_component():
    state = broadcast.ideal_broadcasting_state(
        [0.3, 0.7], [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]]
    )
    assert state.dims == (2, 2)
    assert np.allclose(state.matrix, np.diag([0.3, 0.0, 0.0, 0.7]))


def test_ideal_state_two_components_is_ghz_diagonal():
    blocks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    state = broadcast.ideal_broadcasting_state([0.5, 0.5], [blocks, blocks])
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert np.allclose(state.matrix, np.diag(expected))


def test_ideal_state_normalizes_blocks():
    state = broadcast.ideal_broadcasting_state(
        [0.3, 0.7], [[np.diag([4.0, 0.0]), np.diag([0.0, 0.25])]]
    )
    assert np.allclose(state.matrix, np.diag([0.3, 0.0, 0.0, 0.7]))


def test_ideal_state_mutual_information_equals_label_entropy():
    w = np.array([W0, W1])
    blocks = [np.diag([w[0], w[1], 0.0, 0.0]), np.diag([0.0, 0.0, w[0], w[1]])]
    for n in (1, 2, 3):
        state = broadcast.ideal_broadcasting_state([0.3, 0.7], [blocks] * n)
        for j in range(n):
            mi = broadcast.objectivity_mutual_info(state, j)
            assert mi == pytest.approx(qcore.shannon_entropy([0.3, 0.7]), abs=1e-10)


def test_ideal_state_rejects_bad_blocks():
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    overlap = [np.diag([1.0, 0.0]), np.diag([0.6, 0.4])]
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [overlap])
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [])
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [good[:1]])
    with pytest.raises(InvalidBlocks, match="mixed shapes"):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [[good[0], np.eye(3) / 3.0]])
    with pytest.raises(InvalidBlocks, match="nonpositive trace"):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [[np.zeros((2, 2)), good[1]]])
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state(
            [0.3, 0.7], [[np.diag([1.0, -0.2]), np.diag([0.0, 1.0])]]
        )
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state(
            [0.3, 0.7], [[np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])]]
        )


def test_ideal_state_rejects_bad_off_block():
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [good], off=np.zeros((3, 3)))
    off = np.zeros((4, 4), dtype=complex)
    off[0, 3] = off[3, 0] = 0.9  # destroys positivity
    with pytest.raises(InvalidBlocks):
        broadcast.ideal_broadcasting_state([0.3, 0.7], [good], off=off)


def test_simulated_coherent_write_assembles_as_ideal_state_with_off_block():
    # memory prepared inside sector 0 only: records become orthogonal and the
    # simulated joint state is exactly of the broadcast form plus coherences
    h = thermal.qubit_chain_hamiltonian(2)
    tau = thermal.gibbs(h, 1.0)
    sector0 = np.array([tau.probs[0], tau.probs[1], 0.0, 0.0])
    sigma = qcore.diag_density(sector0 / sector0.sum())
    units = tuple(
        broadcast.explicit_unit(h, sector0 / sector0.sum(), 2, kind="noninvasive") for _ in range(2)
    )
    psi = np.array([math.sqrt(0.3), math.sqrt(0.7)])
    rho = qcore.DensityOperator(np.outer(psi, psi))
    mem = broadcast.MemoryArray(2, units)
    assert broadcast.ideal_scb_defect(broadcast.run_sequential_local(rho, mem)) <= 1e-12
    state = final_state(rho, mem)

    conditionals = []
    for x in range(2):
        out = interact.apply(units[0].interaction, qcore.basis_state(2, x), sigma)
        conditionals.append(qcore.partial_trace(out, (1,)).matrix)
    diag_part = np.zeros_like(state.matrix)
    for x, px in enumerate([0.3, 0.7]):
        term = np.zeros((2, 2))
        term[x, x] = 1.0
        diag_part += px * np.kron(np.kron(term, conditionals[x]), conditionals[x])
    rebuilt = broadcast.ideal_broadcasting_state(
        [0.3, 0.7],
        [conditionals, conditionals],
        off=state.matrix - diag_part,
    )
    assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-12)
    for j in range(2):
        mi = broadcast.objectivity_mutual_info(state, j)
        assert mi == pytest.approx(qcore.shannon_entropy([0.3, 0.7]), abs=1e-10)


def test_objectivity_mutual_info_degenerate_cases():
    blocks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    lopsided = broadcast.ideal_broadcasting_state([1.0, 0.0], [blocks])
    assert broadcast.objectivity_mutual_info(lopsided, 0) == pytest.approx(0.0, abs=1e-12)
    product = qcore.tensor(qcore.diag_density([0.3, 0.7]), qcore.diag_density([0.5, 0.5]))
    assert broadcast.objectivity_mutual_info(product, 0) == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------------- sweep


def test_sweep_rows_are_sorted_and_complete():
    rows = broadcast.sweep_cmax_convergence([5, 1, 3], [1.0, 0.1])
    assert len(rows) == 6
    assert [(n, bw) for n, bw, _ in rows] == [
        (1, 0.1), (3, 0.1), (5, 0.1), (1, 1.0), (3, 1.0), (5, 1.0)
    ]


def test_a_sweep_refuses_a_non_integer_n():
    # 5.5 is not truncated to 5 and True is not n = 1, each named as given; numpy integers are taken,
    # and each row keeps a Python int n
    for n_values, named in (([5.5], "5.5"), ([3, 5.5], "5.5"), (np.array([5.0]), "5.0"), ([3, True], "True")):
        with pytest.raises(DimensionMismatch, match=rf"integer, got n=.*{named}"):
            broadcast.sweep_cmax_convergence(n_values, [1.0])
    rows = broadcast.sweep_cmax_convergence(np.array([5, 3], dtype=np.int64), [1.0])
    assert rows == broadcast.sweep_cmax_convergence([3, 5], [1.0])
    assert [type(n) for n, _, _ in rows] == [int, int]


def test_a_sweep_to_the_cap_holds_one_block_of_class_rows():
    # every exact class row up to n = 1029 held at once is about 26 MB; the ceiling holds one
    # block's rows and the row it advances from, and the peak is mostly the sweep's own rows
    bws = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    tracemalloc.start()
    try:
        rows = broadcast.sweep_cmax_convergence(range(1, thermal.ANALYTIC_N_MAX + 1), bws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == len(bws) * thermal.ANALYTIC_N_MAX
    assert peak <= 4 * 2**20


def test_sweep_values_match_the_analytic_path():
    rows = broadcast.sweep_cmax_convergence([1, 7, 25], SweepConfig().beta_omega)
    for n, bw, c in rows:
        assert c == thermal.c_max_qubits_analytic(n, bw)
        assert 0.5 <= c <= 1.0
    lookup = {(n, bw): c for n, bw, c in rows}
    assert lookup[(1, 1.0)] == pytest.approx(W0, abs=1e-14)
