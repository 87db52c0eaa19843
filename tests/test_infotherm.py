"""Information measures, entropy production, and regime classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibroadcast import broadcast, infotherm, interact, qcore, thermal
from semibroadcast.errors import DegenerateOutcomeWarning, DimensionMismatch

LN2 = math.log(2.0)
E_INV = math.exp(-1.0)
W0 = 1.0 / (1.0 + E_INV)
W1 = 1.0 - W0

S_GIBBS = 0.5822031088882179
CHI_THERMAL_PAIR = 0.11094407167172737  # ln 2 - S_GIBBS, scalar oracle
H_P37 = 0.6108643020548935
H_P91 = 0.3250829733914482
D_UNIFORM_VS_GIBBS = 0.12011450695827758  # ln 2 - ... scalar oracle
SIGMA_CNOT_UNIFORM = W0 - 0.5
OVERLAP_THERMAL = 2.0 * W0 * W1  # Tr(tau X tau X) = 0.3932238664829637

# two pure states at 45 degrees: chi = S(avg); the optimal projective
# measurement value is the frozen two-pure-state closed form
CHI_ZERO_PLUS = 0.4164955306996875
IACC_ZERO_PLUS = 0.2766516498602578


def thermal_pair():
    tau = qcore.diag_density([W0, W1])
    flipped = qcore.diag_density([W1, W0])
    return infotherm.Ensemble([0.5, 0.5], [tau, flipped])


def cnot_on(rho_s, beta=1.0):
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta)
    u = interact.build_noninvasive_maxcorr(g)
    return interact.apply(u, rho_s, tau.state), tau, u


# ----------------------------------------------------------------- ensemble


def test_ensemble_validation():
    with pytest.raises(DimensionMismatch):
        infotherm.Ensemble([0.5, 0.5], [qcore.basis_state(2, 0)])
    with pytest.raises(DimensionMismatch):
        infotherm.Ensemble([0.5, 0.5], [qcore.basis_state(2, 0), qcore.basis_state(3, 0)])


def test_ensemble_average_state():
    ens = thermal_pair()
    assert np.allclose(ens.average_state().matrix, np.eye(2) / 2.0)


def test_conditional_ensemble_of_classical_state():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    ens = infotherm.conditional_ensemble(qcore.DensityOperator(m, (2, 2)))
    assert ens.probs.tolist() == pytest.approx([0.3, 0.7], abs=1e-15)
    assert np.allclose(ens.states[0].matrix, np.diag([1.0, 0.0]))
    assert np.allclose(ens.states[1].matrix, np.diag([0.0, 1.0]))


def test_conditional_ensemble_of_product_state_repeats_the_marginal():
    sigma = qcore.random_density(3, seed=9)
    joint = qcore.tensor(qcore.diag_density([0.2, 0.8]), sigma)
    ens = infotherm.conditional_ensemble(joint)
    for state in ens.states:
        assert np.allclose(state.matrix, sigma.matrix, atol=1e-13)


def test_conditional_ensemble_after_thermal_cnot():
    out, _, _ = cnot_on(qcore.diag_density([0.4, 0.6]))
    ens = infotherm.conditional_ensemble(out)
    assert np.allclose(ens.states[0].matrix, np.diag([W0, W1]), atol=1e-14)
    assert np.allclose(ens.states[1].matrix, np.diag([W1, W0]), atol=1e-14)


def test_conditional_ensemble_warns_on_degenerate_outcomes():
    joint = qcore.tensor(qcore.diag_density([1.0, 0.0]), qcore.basis_state(2, 0))
    with pytest.warns(DegenerateOutcomeWarning):
        ens = infotherm.conditional_ensemble(joint)
    assert len(ens.states) == 1
    assert ens.probs.tolist() == [1.0]


def test_conditional_ensemble_in_rotated_basis():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    joint = qcore.DensityOperator(m, (2, 2))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rotated = qcore.evolve(joint, qcore.UnitaryOperator(np.kron(h, np.eye(2)), (2, 2)))
    ens = infotherm.conditional_ensemble(rotated, system_basis=h)
    assert ens.probs.tolist() == pytest.approx([0.3, 0.7], abs=1e-14)
    assert np.allclose(ens.states[0].matrix, np.diag([1.0, 0.0]), atol=1e-14)


# ------------------------------------------------------------------- holevo


def test_chi_of_orthogonal_pure_states_is_shannon_entropy():
    ens = infotherm.Ensemble([0.5, 0.5], [qcore.basis_state(2, 0), qcore.basis_state(2, 1)])
    assert infotherm.holevo_chi(ens) == pytest.approx(LN2, abs=1e-13)


def test_chi_of_identical_members_is_zero():
    rho = qcore.random_density(3, seed=2)
    ens = infotherm.Ensemble([0.4, 0.6], [rho, rho])
    assert infotherm.holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)


def test_chi_of_thermal_pair_matches_frozen_oracle():
    chi = infotherm.holevo_chi(thermal_pair())
    assert chi == pytest.approx(CHI_THERMAL_PAIR, abs=1e-13)
    assert chi == pytest.approx(LN2 - S_GIBBS, abs=1e-13)


def test_chi_is_bounded_by_label_entropy():
    rng = np.random.default_rng(4)
    for trial in range(15):
        p = rng.dirichlet(np.ones(3))
        states = [qcore.random_density(3, seed=100 * trial + j) for j in range(3)]
        chi = infotherm.holevo_chi(infotherm.Ensemble(p, states))
        assert -1e-12 <= chi <= qcore.shannon_entropy(p) + 1e-12


# ---------------------------------------------------------- accessible info


def test_bracket_collapses_for_orthogonal_ensembles():
    ens = infotherm.Ensemble([0.3, 0.7], [qcore.basis_state(2, 0), qcore.basis_state(2, 1)])
    lower, upper = infotherm.accessible_info_bracket(ens)
    assert upper == pytest.approx(H_P37, abs=1e-12)
    assert upper - lower <= 1e-9


def test_bracket_of_single_member_ensemble_is_zero():
    ens = infotherm.Ensemble([1.0], [qcore.random_density(2, seed=6)])
    lower, upper = infotherm.accessible_info_bracket(ens)
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == pytest.approx(0.0, abs=1e-12)


def test_bracket_is_tight_for_commuting_qubit_ensemble():
    # commuting members: measuring their common eigenbasis attains chi
    lower, upper = infotherm.accessible_info_bracket(thermal_pair())
    assert upper == pytest.approx(CHI_THERMAL_PAIR, abs=1e-13)
    assert upper - lower <= 1e-9


def test_bracket_for_two_pure_states_at_45_degrees():
    plus = qcore.DensityOperator(np.ones((2, 2)) / 2.0)
    ens = infotherm.Ensemble([0.5, 0.5], [qcore.basis_state(2, 0), plus])
    lower, upper = infotherm.accessible_info_bracket(ens)
    assert upper == pytest.approx(CHI_ZERO_PLUS, abs=1e-12)
    assert lower == pytest.approx(IACC_ZERO_PLUS, abs=1e-6)
    assert lower <= upper + 1e-12


def test_bracket_orders_correctly_beyond_qubits():
    rng = np.random.default_rng(8)
    for trial in range(5):
        p = rng.dirichlet(np.ones(3))
        states = [qcore.random_density(4, seed=50 * trial + j) for j in range(3)]
        lower, upper = infotherm.accessible_info_bracket(infotherm.Ensemble(p, states))
        assert -1e-12 <= lower <= upper + 1e-12


@pytest.mark.parametrize("dim", [2, 4, 32])
def test_bracket_closes_on_diagonal_ensembles_without_a_search(dim, monkeypatch):
    # commuting members: the computational basis attains chi, so neither the
    # pretty good measurement nor the qubit search may run
    def forbidden(*args, **kwargs):
        raise AssertionError("search ran on a diagonal ensemble")

    monkeypatch.setattr(infotherm, "_pgm_lower", forbidden)
    monkeypatch.setattr(infotherm, "_qubit_projective_search", forbidden)
    rng = np.random.default_rng(dim)
    for trial in range(4):
        k = 1 + trial
        states = [qcore.diag_density(rng.dirichlet(np.ones(dim))) for _ in range(k - 1)]
        states.append(qcore.basis_state(dim, trial % dim))
        lower, upper = infotherm.accessible_info_bracket(
            infotherm.Ensemble(rng.dirichlet(np.ones(k)), states)
        )
        assert lower == pytest.approx(upper, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=6),
    diagonal=st.lists(st.booleans(), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bracket_lower_bound_only_tightens(dim, diagonal, seed):
    rng = np.random.default_rng(seed)
    states = [
        qcore.diag_density(rng.dirichlet(np.ones(dim)))
        if diag
        else qcore.random_density(dim, rng.integers(0, 2**63 - 1))
        for diag in diagonal
    ]
    ens = infotherm.Ensemble(rng.dirichlet(np.ones(len(states))), states)
    searched = infotherm._pgm_lower(ens)
    if dim == 2:
        searched = max(searched, infotherm._qubit_projective_search(ens))
    lower, upper = infotherm.accessible_info_bracket(ens)
    assert upper == infotherm.holevo_chi(ens)
    assert searched - 1e-12 <= lower <= upper + 1e-12
    if all(diagonal):
        assert lower == pytest.approx(upper, abs=1e-12)


# ------------------------------------------------------------ thermo report


def test_identity_interaction_produces_all_zero_report():
    h = thermal.qubit_chain_hamiltonian(1)
    tau = thermal.gibbs(h, beta=1.0)
    rho = qcore.diag_density([0.4, 0.6])
    rep = infotherm.thermo_report(rho, tau, np.eye(4))
    assert rep.sigma_prod == pytest.approx(0.0, abs=1e-12)
    assert rep.delta_q == pytest.approx(0.0, abs=1e-12)
    assert rep.delta_s_system == pytest.approx(0.0, abs=1e-12)
    assert rep.chi == pytest.approx(0.0, abs=1e-12)
    assert rep.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert rep.rel_entropy_to_thermal == pytest.approx(0.0, abs=1e-12)
    assert infotherm.holevo_landauer_gap(rep) == pytest.approx(0.0, abs=1e-12)


def test_thermal_cnot_on_uniform_input_saturates_the_bound():
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta=1.0)
    u = interact.build_noninvasive_maxcorr(g)
    rep = infotherm.thermo_report(qcore.diag_density([0.5, 0.5]), tau, u)
    assert rep.sigma_prod == pytest.approx(SIGMA_CNOT_UNIFORM, abs=1e-13)
    assert rep.delta_s_system == pytest.approx(0.0, abs=1e-13)
    assert rep.delta_e_m == pytest.approx(W0 - 0.5, abs=1e-13)
    assert rep.delta_s_m == pytest.approx(LN2 - S_GIBBS, abs=1e-13)
    assert rep.beta_delta_f == pytest.approx(D_UNIFORM_VS_GIBBS, abs=1e-13)
    assert rep.chi == pytest.approx(CHI_THERMAL_PAIR, abs=1e-13)
    assert rep.mutual_info == pytest.approx(rep.chi, abs=1e-12)
    assert infotherm.holevo_landauer_gap(rep) == pytest.approx(0.0, abs=1e-12)
    assert rep.reeb_wolf_residual() <= 1e-12


def test_free_energy_term_equals_relative_entropy_to_thermal():
    h = thermal.qubit_chain_hamiltonian(2)
    g = thermal.group_energies(h, 2)
    for beta in (0.3, 1.0, 2.5):
        tau = thermal.gibbs(h, beta)
        u = interact.build_noninvasive_maxcorr(g)
        rep = infotherm.thermo_report(qcore.random_density(2, seed=int(10 * beta)), tau, u)
        assert rep.beta_delta_f == pytest.approx(rep.rel_entropy_to_thermal, abs=1e-11)


def test_infinite_temperature_write_is_thermodynamically_free():
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta=0.0)
    u = interact.build_noninvasive_maxcorr(g)
    rep = infotherm.thermo_report(qcore.diag_density([0.3, 0.7]), tau, u)
    assert rep.sigma_prod == pytest.approx(0.0, abs=1e-12)
    assert rep.chi == pytest.approx(0.0, abs=1e-12)
    assert infotherm.holevo_landauer_gap(rep) == pytest.approx(0.0, abs=1e-12)


def test_swap_on_diagonal_input_also_saturates():
    # the written joint state is a product, so I = chi = 0 and the whole
    # entropy production is the relative-entropy (free energy) term
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta=1.0)
    u = interact.build_unbiased_swap(g)
    rep = infotherm.thermo_report(qcore.diag_density([0.2, 0.8]), tau, u)
    assert rep.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert rep.chi == pytest.approx(0.0, abs=1e-12)
    assert infotherm.holevo_landauer_gap(rep) == pytest.approx(0.0, abs=1e-11)
    assert rep.reeb_wolf_residual() <= 1e-11


def test_coherent_input_opens_a_strict_gap():
    plus = qcore.DensityOperator(np.ones((2, 2)) / 2.0)
    out, tau, u = cnot_on(plus)
    rep = infotherm.thermo_report(plus, tau, u)
    assert infotherm.holevo_landauer_gap(rep) > 1e-3
    assert rep.reeb_wolf_residual() <= 1e-11


def test_entropy_production_bounds_label_entropy_for_sbs_writes():
    # a cold memory written by the copy interaction: <Sigma> >= H(X)
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta=12.0)
    u = interact.build_noninvasive_maxcorr(g)
    rep = infotherm.thermo_report(qcore.diag_density([0.5, 0.5]), tau, u)
    assert rep.sigma_prod >= LN2 - 1e-9


ORACLE_MEMORIES = {
    "chain2": (2, thermal.qubit_chain_hamiltonian(2)),
    "explicit2": (2, thermal.MemoryHamiltonian([0.0, 0.4, 1.1, 2.3])),
    "explicit3": (3, thermal.MemoryHamiltonian([0.0, 0.4, 1.0, 1.7, 2.0, 3.1])),
}


@pytest.mark.parametrize("kind", ["noninvasive", "cycled", "swap", "haar"])
@pytest.mark.parametrize("memory", sorted(ORACLE_MEMORIES))
def test_thermo_report_matches_library_definitions_on_the_final_state(kind, memory):
    d_s, h = ORACLE_MEMORIES[memory]
    tau = thermal.gibbs(h, 0.8)
    rho_s = qcore.random_density(d_s, seed=17 + d_s)
    if kind == "haar":
        u = qcore.random_unitary(d_s * h.dim, seed=23)
        rho_out = qcore.evolve(qcore.tensor(rho_s, tau.state), u)
    else:
        u = interact.build(thermal.group_energies(h, d_s), kind, d_s - 2 if kind == "cycled" else 0)
        rho_out = interact.apply(u, rho_s, tau.state)
    rep = infotherm.thermo_report(rho_s, tau, u)

    rho_s_out = qcore.partial_trace(rho_out, (0,))
    rho_m_out = qcore.partial_trace(rho_out, (1,))
    s = qcore.von_neumann_entropy
    # same float sequence as the library definitions: exact
    assert rep.mutual_info == qcore.mutual_information(rho_out, (0,))
    assert rep.chi == infotherm.holevo_chi(infotherm.conditional_ensemble(rho_out))
    assert rep.rel_entropy_to_thermal == qcore.relative_entropy(rho_m_out, tau.state)
    assert rep.delta_s_system == s(rho_s_out) - s(rho_s)
    assert rep.delta_s_m == s(rho_m_out) - s(tau.state)
    assert rep.delta_q == tau.beta * rep.delta_e_m
    assert rep.sigma_prod == rep.delta_q + rep.delta_s_system
    assert rep.beta_delta_f == rep.delta_q - rep.delta_s_m
    # Tr[rho_M' H] - Tr[tau H] through matrix products: another float sequence
    hm = np.diag(h.absolute_energies())
    delta_e = np.trace(rho_m_out.matrix @ hm).real - np.trace(tau.state.matrix @ hm).real
    assert rep.delta_e_m == pytest.approx(delta_e, abs=1e-12)
    assert rep.reeb_wolf_residual() <= 1e-12


def test_random_instances_respect_bound_and_equality():
    rng = np.random.default_rng(12)
    h = thermal.qubit_chain_hamiltonian(2)
    g = thermal.group_energies(h, 2)
    builders = (interact.build_noninvasive_maxcorr, interact.build_unbiased_swap)
    for trial in range(30):
        tau = thermal.gibbs(h, float(rng.uniform(0.0, 3.0)))
        u = builders[trial % 2](g)
        rho = qcore.random_density(2, seed=3000 + trial)
        rep = infotherm.thermo_report(rho, tau, u)
        assert infotherm.holevo_landauer_gap(rep) >= -1e-9
        assert rep.reeb_wolf_residual() <= 1e-10
        assert rep.sigma_prod >= -1e-12
        assert rep.beta_delta_f >= -1e-12


# --------------------------------------------------------------------- sbs


def test_sbs_holds_for_perfect_classical_correlation():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    verdict = infotherm.sbs_test(qcore.DensityOperator(m, (2, 2)))
    assert verdict.is_sbs
    assert verdict.off_diagonal_norm == pytest.approx(0.0, abs=1e-15)
    assert verdict.conditional_overlap == pytest.approx(0.0, abs=1e-15)


def test_sbs_fails_for_thermal_records():
    out, _, _ = cnot_on(qcore.diag_density([0.5, 0.5]))
    verdict = infotherm.sbs_test(out)
    assert not verdict.is_sbs
    assert verdict.off_diagonal_norm <= 1e-15
    assert verdict.conditional_overlap == pytest.approx(OVERLAP_THERMAL, abs=1e-13)


def test_sbs_fails_for_bell_state_because_of_coherences():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    verdict = infotherm.sbs_test(qcore.DensityOperator(np.outer(v, v), (2, 2)))
    assert not verdict.is_sbs
    assert verdict.off_diagonal_norm == pytest.approx(0.5, abs=1e-15)
    assert verdict.conditional_overlap == pytest.approx(0.0, abs=1e-15)


def test_sbs_holds_for_pure_memory_copy():
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    u = interact.build_noninvasive_maxcorr(g)
    out = interact.apply(u, qcore.diag_density([0.3, 0.7]), qcore.basis_state(2, 0))
    assert infotherm.sbs_test(out).is_sbs


# ------------------------------------------------------------ classification


def evidence(**kw):
    base = dict(
        i_acc_lower=0.0,
        i_acc_upper=0.0,
        chi=0.0,
        h_x=0.0,
        s_system_final=0.0,
        s_system_final_diag=0.0,
    )
    base.update(kw)
    return infotherm.Table1Evidence(**base)


def test_classify_rows_from_direct_evidence():
    h = 0.6
    sbs = evidence(i_acc_lower=h, i_acc_upper=h, chi=h, h_x=h, s_system_final=h, s_system_final_diag=h)
    assert infotherm.classify_table1(sbs).variant == "sbs"
    obj = evidence(i_acc_lower=h, i_acc_upper=h, chi=h, h_x=h, s_system_final=0.2, s_system_final_diag=h)
    assert infotherm.classify_table1(obj).variant == "objectivity"
    ideal = evidence(i_acc_lower=h, i_acc_upper=h, chi=h, h_x=h, s_system_final=0.9, s_system_final_diag=0.9)
    assert infotherm.classify_table1(ideal).variant == "ideal"
    local = evidence(i_acc_lower=0.1, i_acc_upper=0.3, chi=0.3, h_x=h, s_system_final=0.4, s_system_final_diag=h)
    assert infotherm.classify_table1(local).variant == "local_noninvasive"
    nothing = evidence(i_acc_lower=0.1, i_acc_upper=0.3, chi=0.3, h_x=h, s_system_final=0.4, s_system_final_diag=0.4)
    assert infotherm.classify_table1(nothing).variant == "none"


def test_classify_requires_certified_accessible_info():
    h = 0.6
    loose = evidence(i_acc_lower=0.3, i_acc_upper=h, chi=h, h_x=h, s_system_final=h, s_system_final_diag=h)
    assert infotherm.classify_table1(loose).variant == "local_noninvasive"


def test_classify_row_order_is_strongest_first():
    assert infotherm.TABLE1_ROWS.index("sbs") < infotherm.TABLE1_ROWS.index("objectivity")
    assert infotherm.TABLE1_ROWS.index("ideal") < infotherm.TABLE1_ROWS.index("local_noninvasive")


def run_and_classify(rho_s, unit):
    run = broadcast.run_sequential_local(rho_s, broadcast.MemoryArray(2, (unit,)))
    h_x = qcore.shannon_entropy(run.p_initial)
    rho_final = qcore.partial_trace(run.state, (0,))
    lower, upper = infotherm.accessible_info_bracket(run.ensembles[0])
    ev = infotherm.Table1Evidence(
        i_acc_lower=lower,
        i_acc_upper=upper,
        chi=infotherm.holevo_chi(run.ensembles[0]),
        h_x=h_x,
        s_system_final=qcore.von_neumann_entropy(rho_final),
        s_system_final_diag=qcore.shannon_entropy(rho_final.matrix.diagonal().real),
    )
    return infotherm.classify_table1(ev).variant


def test_pure_memory_copy_classifies_as_sbs():
    h = thermal.qubit_chain_hamiltonian(1)
    unit = broadcast.explicit_unit(h, [1.0, 0.0], 2, kind="noninvasive")
    assert run_and_classify(qcore.diag_density([0.3, 0.7]), unit) == "sbs"


def test_thermal_noninvasive_classifies_as_local():
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(1), 1.0, 2, kind="noninvasive")
    assert run_and_classify(qcore.diag_density([0.3, 0.7]), unit) == "local_noninvasive"


def test_unbiased_swap_on_quiet_input_classifies_as_ideal():
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(1), 1.0, 2, kind="swap")
    assert run_and_classify(qcore.diag_density([0.9, 0.1]), unit) == "ideal"


def test_unbiased_swap_on_loud_input_classifies_as_none():
    # the returned register is hotter than the bound allows: H(X) exceeds
    # the final system diagonal entropy and no row matches
    unit = broadcast.thermal_unit(thermal.qubit_chain_hamiltonian(1), 1.0, 2, kind="swap")
    assert run_and_classify(qcore.diag_density([0.5, 0.5]), unit) == "none"
