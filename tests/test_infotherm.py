"""Information measures, entropy production, and regime classification."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracle
from oracle import permutation_matrix, system_blocks

from semibroadcast import broadcast, infotherm, interact, qcore, thermal
from semibroadcast.errors import DegenerateOutcomeWarning, DimensionMismatch, SupportViolation

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
    # read the system in the columns of h: rotate back by h^dagger first
    ens = infotherm.conditional_ensemble(qcore.evolve(rotated, np.kron(h.conj().T, np.eye(2))))
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
    lower, upper = infotherm.accessible_info_bracket(np.array([0.3, 0.7]), np.eye(2))
    assert upper == pytest.approx(H_P37, abs=1e-12)
    assert upper - lower <= 1e-9


def test_bracket_of_single_member_ensemble_is_zero():
    lower, upper = infotherm.accessible_info_bracket(np.array([1.0]), np.array([[0.4, 0.6]]))
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == pytest.approx(0.0, abs=1e-12)


def test_bracket_is_tight_for_commuting_qubit_ensemble():
    # commuting members: measuring their common eigenbasis attains chi
    lower, upper = infotherm.accessible_info_bracket(np.array([0.5, 0.5]), np.array([[W0, W1], [W1, W0]]))
    assert upper == pytest.approx(CHI_THERMAL_PAIR, abs=1e-13)
    assert upper - lower <= 1e-9


def test_compass_search_finds_a_quadratic_minimum():
    res = infotherm.minimize(lambda x: ((x - [0.3, -1.0]) ** 2).sum(axis=1), [0.0, 0.0])
    assert res.x == pytest.approx([0.3, -1.0], abs=1e-7)
    assert res.fun == pytest.approx(0.0, abs=1e-14)
    assert res.nfev > 0


@pytest.mark.parametrize("dim", [2, 4, 32])
def test_bracket_closes_on_diagonal_ensembles_without_a_search(dim):
    # commuting members: the computational basis attains chi
    rng = np.random.default_rng(dim)
    for trial in range(4):
        k = 1 + trial
        rows = [rng.dirichlet(np.ones(dim)) for _ in range(k - 1)]
        rows.append(np.eye(dim)[trial % dim])
        lower, upper = infotherm.accessible_info_bracket(rng.dirichlet(np.ones(k)), np.array(rows))
        assert lower == pytest.approx(upper, abs=1e-12)


@st.composite
def diagonal_ensembles(draw):
    """(probs, rows) of 1-4 members on 1-6 levels; a member may leave levels empty."""
    dim = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    population = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))
    rows = np.array([draw(st.lists(population, min_size=dim, max_size=dim).filter(any)) for _ in range(k)])
    probs = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=k, max_size=k)))
    return probs / probs.sum(), rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(ensemble=diagonal_ensembles())
def test_bracket_closes_on_every_diagonal_ensemble(ensemble):
    # chi of the diagonal members is their Holevo chi, and the computational basis attains it
    probs, rows = ensemble
    lower, chi = infotherm.accessible_info_bracket(probs, rows)
    members = infotherm.Ensemble(probs, [qcore.diag_density(r) for r in rows])
    assert chi == pytest.approx(infotherm.holevo_chi(members), abs=1e-12)
    assert lower == pytest.approx(chi, abs=1e-12)


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
    # the dense oracle reads the library definitions; the report agrees with it for haar and for
    # each permutation kind, through its permutation matrix and through its table
    d_s, h = ORACLE_MEMORIES[memory]
    tau = thermal.gibbs(h, 0.8)
    rho_s = qcore.random_density(d_s, seed=17 + d_s)
    if kind == "haar":
        u = qcore.random_unitary(d_s * h.dim, seed=23)
    else:
        write = interact.build(thermal.group_energies(h, d_s), kind, d_s - 2 if kind == "cycled" else 0)
        u = permutation_matrix(write)
    rho_out = qcore.evolve(qcore.tensor(rho_s, tau.state), u)
    rep = oracle.thermo_report(rho_s, tau, u)

    rho_s_out = qcore.partial_trace(rho_out, (0,))
    rho_m_out = qcore.partial_trace(rho_out, (1,))
    s = qcore.von_neumann_entropy
    # same float sequence as the library definitions: exact
    assert rep.mutual_info == qcore.mutual_information(rho_out, (0,))
    assert rep.chi == infotherm.holevo_chi(infotherm.conditional_ensemble(rho_out))
    assert rep.delta_s_system == s(rho_s_out) - s(rho_s)
    assert rep.delta_s_m == s(rho_m_out) - s(tau.state)
    assert rep.delta_q == tau.beta * rep.delta_e_m
    assert rep.sigma_prod == rep.delta_q + rep.delta_s_system
    assert rep.beta_delta_f == rep.delta_q - rep.delta_s_m
    # ln tau from the Gibbs log-weights, ln of tau's eigenvalues in relative_entropy: another float sequence
    assert rep.rel_entropy_to_thermal == pytest.approx(qcore.relative_entropy(rho_m_out, tau.state), abs=1e-12)
    # Tr[rho_M' H] - Tr[tau H] through matrix products: another float sequence
    hm = np.diag(h.absolute_energies())
    delta_e = np.trace(rho_m_out.matrix @ hm).real - np.trace(tau.state.matrix @ hm).real
    assert rep.delta_e_m == pytest.approx(delta_e, abs=1e-12)
    assert rep.reeb_wolf_residual() <= 1e-12
    assert_reports_agree(infotherm.thermo_report(rho_s, tau, u), rep)
    if kind != "haar":
        # the write step reads the same report from the table
        assert_reports_agree(infotherm.thermo_report(rho_s, tau, write), rep)


def assert_reports_agree(got, want, tol=1e-12):
    for name, value in vars(want).items():
        assert getattr(got, name) == pytest.approx(value, abs=tol), name


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(interact.KINDS),
    d_s=st.sampled_from([2, 3, 4]),
    chain=st.booleans(),
    r=st.integers(1, 3),
    beta=st.floats(0.0, 3.0),
    coherent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_step_matches_the_dense_branch(kind, d_s, chain, r, beta, coherent, seed):
    # every field of the write step against the dense oracle and the dense branch, on the interaction's permutation matrix
    rng = np.random.default_rng(seed)
    if chain and d_s != 3:
        h = thermal.qubit_chain_hamiltonian(d_s.bit_length() - 2 + r)
    else:  # integer levels give degenerate energies
        levels = rng.uniform(0.0, 3.0, d_s * r) if rng.random() < 0.5 else rng.integers(0, 3, d_s * r)
        h = thermal.MemoryHamiltonian(np.sort(levels))
    tau = thermal.gibbs(h, beta)
    if coherent:
        rho_s = qcore.random_density(d_s, rng)
    else:
        rho_s = qcore.diag_density(rng.dirichlet(np.ones(d_s)))
    u = interact.build(thermal.group_energies(h, d_s), kind, int(rng.integers(0, d_s - 1)))
    dense = oracle.thermo_report(rho_s, tau, u)
    assert_reports_agree(infotherm.thermo_report(rho_s, tau, u), dense)
    assert_reports_agree(infotherm.thermo_report(rho_s, tau, permutation_matrix(u)), dense)


@pytest.mark.parametrize("kind", interact.KINDS)
def test_a_permutation_write_builds_no_joint_state(kind, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a joint-state primitive ran")

    for module, name in ((interact, "apply"), (qcore, "partial_trace"), (infotherm, "partial_trace"), (qcore, "evolve")):
        monkeypatch.setattr(module, name, refused)
    built = []
    init = qcore.DensityOperator.__init__

    def counted(self, matrix, dims=None):
        init(self, matrix, dims)
        built.append(self.dim)

    monkeypatch.setattr(qcore.DensityOperator, "__init__", counted)
    h = thermal.qubit_chain_hamiltonian(3)
    tau = thermal.gibbs(h, 0.7)
    u = interact.build(thermal.group_energies(h, 2), kind)
    rho_s = qcore.DensityOperator(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    rep = infotherm.thermo_report(rho_s, tau, u)
    assert rep.reeb_wolf_residual() <= 1e-12
    assert built == [2]  # the input rho_S only: rho_S' is checked as a stack of one
    assert "state" not in vars(tau)  # the dense Gibbs state was never built


def test_a_swap_write_builds_no_memory_sized_matrix():
    # a 14-qubit memory: d_S * d_M^2 complex member blocks would take 8 GiB
    h = thermal.qubit_chain_hamiltonian(14)
    tau = thermal.gibbs(h, 1.0)
    u = interact.build(thermal.group_energies(h, 2), "swap")
    rho_s = qcore.random_density(2, seed=5)
    tracemalloc.start()
    try:
        rep = infotherm.thermo_report(rho_s, tau, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**2 * h.dim
    assert rep.reeb_wolf_residual() <= 1e-10
    assert infotherm.holevo_landauer_gap(rep) >= -1e-9


def stacked_rows(taus):
    """The GibbsRows of several Gibbs states on one set of levels, one row each."""
    return thermal.GibbsRows(*(np.concatenate(fields) for fields in zip(*(t.rows() for t in taus))))


@pytest.mark.parametrize("kind", interact.KINDS)
def test_a_stacked_write_names_each_dropped_outcome_and_keeps_every_row_apart(kind):
    # three qutrit inputs in one stack, the middle one the basis state |0><0|: a label-keeping
    # write leaves its outcomes 1 and 2 at probability 0, and each is named in its own warning
    h = thermal.MemoryHamiltonian([0.0, 0.4, 1.0, 1.7, 2.0, 3.1])
    u = interact.build(thermal.group_energies(h, 3), kind)
    taus = [thermal.gibbs(h, beta) for beta in (0.5, 1.0, 2.0)]
    rhos = [qcore.random_density(3, seed=1), qcore.basis_state(3, 0), qcore.random_density(3, seed=2)]
    stack = stacked_rows(taus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = infotherm.thermo_report(np.stack([r.matrix for r in rhos]), stack, u)
    dropped = [str(w.message) for w in caught if issubclass(w.category, DegenerateOutcomeWarning)]
    if kind == "swap":  # the swap copies the sector weights of tau, never 0
        assert dropped == []
    else:
        assert [m.split(" has")[0] for m in dropped] == ["outcome 1", "outcome 2"]
    for i, (rho, tau) in enumerate(zip(rhos, taus)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOutcomeWarning)
            alone = infotherm.thermo_report(rho, tau, u)
        for name, value in vars(alone).items():
            assert getattr(rep, name)[i] == value, (i, name)


@pytest.mark.parametrize("kind", interact.KINDS)
def test_rows_whose_memories_occupy_other_levels_are_written_apart(kind):
    # at beta = 400 the top level of the two-qubit chain underflows to 0: the write step of that row reads
    # three levels, the warm rows four, and each row still equals its write alone
    h = thermal.qubit_chain_hamiltonian(2)
    u = interact.build(thermal.group_energies(h, 2), kind)
    taus = [thermal.gibbs(h, beta) for beta in (1.0, 400.0, 2.0)]
    assert [int(np.count_nonzero(t.probs)) for t in taus] == [4, 3, 4]
    rhos = [qcore.random_density(2, seed=s) for s in (4, 5, 6)]
    stack = stacked_rows(taus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateOutcomeWarning)
        rep = infotherm.thermo_report(np.stack([r.matrix for r in rhos]), stack, u)
        for i, (rho, tau) in enumerate(zip(rhos, taus)):
            for name, value in vars(infotherm.thermo_report(rho, tau, u)).items():
                assert getattr(rep, name)[i] == value, (i, name)


def test_a_write_refuses_states_of_other_sizes():
    h = thermal.qubit_chain_hamiltonian(2)
    u = interact.build(thermal.group_energies(h, 2), "swap")
    with pytest.raises(DimensionMismatch):
        infotherm.thermo_report(qcore.diag_density([0.2, 0.3, 0.5]), thermal.gibbs(h, 1.0), u)
    with pytest.raises(DimensionMismatch):
        infotherm.thermo_report(qcore.diag_density([0.5, 0.5]), thermal.gibbs(thermal.qubit_chain_hamiltonian(3), 1.0), u)


COLD_EXPECTED_D = {20.0: 9.30685282150, 40.0: 19.30685281944, 400.0: 199.30685281944}


@pytest.mark.parametrize("kind", interact.KINDS)
@pytest.mark.parametrize("beta_omega", sorted(COLD_EXPECTED_D))
def test_cold_memory_relative_entropy_matches_a_50_digit_oracle(kind, beta_omega):
    # Gibbs levels far below EIG_FLOOR are still in the support of tau: D is finite and
    # read from the log-weights, D = sum_k q_k ln(q_k / p_k) over the memory populations q
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    h = thermal.qubit_chain_hamiltonian(2)
    tau = thermal.gibbs(h, beta_omega)
    u = interact.build(thermal.group_energies(h, 2), kind)
    weights = [mpmath.exp(-mpmath.mpf(beta_omega) * int(e)) for e in h.energies]
    p = [w / mpmath.fsum(weights) for w in weights]
    for rho_diag in ([0.5, 0.5], [0.3, 0.7]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOutcomeWarning)
            rep = infotherm.thermo_report(qcore.diag_density(rho_diag), tau, u)
        # a diagonal input stays diagonal: q collects rho_xx p_m at each memory image
        q = [mpmath.mpf(0)] * h.dim
        for x in range(2):
            for m in range(h.dim):
                q[int(u.table[x, m]) % h.dim] += mpmath.mpf(rho_diag[x]) * p[m]
        oracle = mpmath.fsum(qk * mpmath.log(qk / pk) for qk, pk in zip(q, p) if qk > 0)
        assert rep.rel_entropy_to_thermal == pytest.approx(float(oracle), abs=1e-12)
        assert abs(infotherm.holevo_landauer_gap(rep)) <= 1e-12
        assert rep.reeb_wolf_residual() <= 1e-12
        if rho_diag == [0.5, 0.5]:
            assert rep.rel_entropy_to_thermal == pytest.approx(COLD_EXPECTED_D[beta_omega], abs=1e-10)


def test_a_haar_write_into_a_cold_memory_reads_d_from_the_log_weights():
    # the excited levels fall below EIG_FLOOR, yet tau has full support: D is finite and follows
    # the oracle's -S(rho_M') - Tr rho_M' ln tau with ln tau = -beta H - ln Z
    h = thermal.qubit_chain_hamiltonian(2)
    tau = thermal.gibbs(h, 20.0)
    u = qcore.random_unitary(8, seed=3)
    rho_s = qcore.diag_density([0.5, 0.5])
    rep = infotherm.thermo_report(rho_s, tau, u)
    with pytest.raises(SupportViolation):  # the eigenvalue route drops those levels from the support
        qcore.relative_entropy(qcore.partial_trace(qcore.evolve(qcore.tensor(rho_s, tau.state), u), (1,)), tau.state)
    assert 10.0 < rep.rel_entropy_to_thermal < 40.0
    assert_reports_agree(rep, oracle.thermo_report(rho_s, tau, u), tol=1e-10)
    assert rep.reeb_wolf_residual() <= 1e-10
    assert infotherm.holevo_landauer_gap(rep) >= -1e-9


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
    verdict = infotherm.sbs_test(system_blocks(qcore.DensityOperator(m, (2, 2))))
    assert verdict.is_sbs
    assert verdict.off_diagonal_norm == pytest.approx(0.0, abs=1e-15)
    assert verdict.conditional_overlap == pytest.approx(0.0, abs=1e-15)


def test_sbs_fails_for_thermal_records():
    out, _, _ = cnot_on(qcore.diag_density([0.5, 0.5]))
    verdict = infotherm.sbs_test(system_blocks(out))
    assert not verdict.is_sbs
    assert verdict.off_diagonal_norm <= 1e-15
    assert verdict.conditional_overlap == pytest.approx(OVERLAP_THERMAL, abs=1e-13)


def test_sbs_fails_for_bell_state_because_of_coherences():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    verdict = infotherm.sbs_test(system_blocks(qcore.DensityOperator(np.outer(v, v), (2, 2))))
    assert not verdict.is_sbs
    assert verdict.off_diagonal_norm == pytest.approx(0.5, abs=1e-15)
    assert verdict.conditional_overlap == pytest.approx(0.0, abs=1e-15)


def _dense_sbs(rho_joint):
    """(off_diagonal_norm, conditional_overlap) read from the dense matrix and its conditional states."""
    d_s = rho_joint.dims[0]
    blocks = rho_joint.matrix.reshape(d_s, rho_joint.dim // d_s, d_s, -1)
    off = max(float(np.max(np.abs(blocks[x, :, y, :]))) for x in range(d_s) for y in range(d_s) if x != y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateOutcomeWarning)
        states = [s.matrix for s in infotherm.conditional_ensemble(rho_joint).states]
    overlaps = [np.trace(a @ b).real for i, a in enumerate(states) for b in states[i + 1 :]]
    return off, max(overlaps, default=0.0)


@settings(max_examples=60, deadline=None)
@given(
    d_s=st.integers(min_value=2, max_value=4),
    d_m=st.integers(min_value=1, max_value=5),
    dropped=st.sets(st.integers(min_value=0, max_value=3), max_size=2),
    dephased=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_block_sbs_test_matches_the_dense_conditional_states(d_s, d_m, dropped, dephased, seed):
    # random joint states, some outcomes emptied (dropped as at the floor), some with the
    # outcome coherences removed so that only the conditional overlaps decide
    m = qcore.random_density(d_s * d_m, seed).matrix.reshape(d_s, d_m, d_s, d_m).copy()
    kept = [x for x in range(d_s) if x not in dropped] or [0]
    mask = np.isin(np.arange(d_s), kept)
    m *= mask[:, None, None, None] * mask[None, None, :, None]
    if dephased:
        m *= np.eye(d_s)[:, None, :, None]
    m = m.reshape(d_s * d_m, -1)
    rho = qcore.DensityOperator(m / m.trace().real, (d_s, d_m))
    verdict = infotherm.sbs_test(system_blocks(rho))
    off, overlap = _dense_sbs(rho)
    assert verdict.off_diagonal_norm == pytest.approx(off, abs=1e-12)
    assert verdict.conditional_overlap == pytest.approx(overlap, abs=1e-12)
    assert verdict.is_sbs == (off <= infotherm.SBS_TOL and overlap <= infotherm.SBS_TOL)


def test_sbs_holds_for_pure_memory_copy():
    h = thermal.qubit_chain_hamiltonian(1)
    g = thermal.group_energies(h, 2)
    u = interact.build_noninvasive_maxcorr(g)
    out = interact.apply(u, qcore.diag_density([0.3, 0.7]), qcore.basis_state(2, 0))
    assert infotherm.sbs_test(system_blocks(out)).is_sbs


# ------------------------------------------------------------ classification


def evidence(**kw):
    base = dict(
        i_acc_lower=0.0,
        chi=0.0,
        h_x=0.0,
        s_system_final=0.0,
        s_system_final_diag=0.0,
    )
    base.update(kw)
    return infotherm.Table1Evidence(**base)


def test_classify_rows_from_direct_evidence():
    h = 0.6
    sbs = evidence(i_acc_lower=h, chi=h, h_x=h, s_system_final=h, s_system_final_diag=h)
    assert infotherm.classify_table1(sbs) == "sbs"
    obj = evidence(i_acc_lower=h, chi=h, h_x=h, s_system_final=0.2, s_system_final_diag=h)
    assert infotherm.classify_table1(obj) == "objectivity"
    ideal = evidence(i_acc_lower=h, chi=h, h_x=h, s_system_final=0.9, s_system_final_diag=0.9)
    assert infotherm.classify_table1(ideal) == "ideal"
    local = evidence(i_acc_lower=0.1, chi=0.3, h_x=h, s_system_final=0.4, s_system_final_diag=h)
    assert infotherm.classify_table1(local) == "local_noninvasive"
    nothing = evidence(i_acc_lower=0.1, chi=0.3, h_x=h, s_system_final=0.4, s_system_final_diag=0.4)
    assert infotherm.classify_table1(nothing) == "none"


def test_classify_requires_certified_accessible_info():
    h = 0.6
    loose = evidence(i_acc_lower=0.3, chi=h, h_x=h, s_system_final=h, s_system_final_diag=h)
    assert infotherm.classify_table1(loose) == "local_noninvasive"


def test_classify_row_order_is_strongest_first():
    assert infotherm.TABLE1_ROWS.index("sbs") < infotherm.TABLE1_ROWS.index("objectivity")
    assert infotherm.TABLE1_ROWS.index("ideal") < infotherm.TABLE1_ROWS.index("local_noninvasive")


def run_and_classify(rho_s, unit):
    run = broadcast.run_sequential_local(rho_s, broadcast.MemoryArray(2, (unit,)))
    h_x = qcore.shannon_entropy(run.p_initial)
    rho_final = run.first_marginal.system()
    lower, chi = infotherm.accessible_info_bracket(run.p_initial[run.labels], next(run.ensembles()))
    ev = infotherm.Table1Evidence(
        i_acc_lower=lower,
        chi=chi,
        h_x=h_x,
        s_system_final=qcore.von_neumann_entropy(rho_final),
        s_system_final_diag=qcore.shannon_entropy(rho_final.matrix.diagonal().real),
    )
    return infotherm.classify_table1(ev)


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
