"""Dense oracle for the structured engine, built from the definitions in the product basis.

* `final_state` and `joints`: a run's joint state, rho_S (x) diag(p_1) (x) ... (x) diag(p_N)
  conjugated by each write lifted to the whole product space.  The writes are rebuilt from
  the memory array alone, as `broadcast.run_sequential_local` and `broadcast.run_global`
  define them.
* `system_blocks`: a dense (system, memory...) state as the `SystemBlocks` that
  `infotherm.sbs_test` reads.
* `permutation_matrix`: an interaction's unitary as a dense 0/1 matrix.
* `thermo_report`: the report of one write into a thermal memory, read from the dense joint
  state through the library's definitions.

Every array here is D x D for the joint dimension D, so callers keep D small.
"""

from functools import reduce

import numpy as np

from semibroadcast import broadcast, infotherm, interact, qcore, thermal
from semibroadcast.infotherm import SystemBlocks, ThermoReport


def lifted_permutation(dims, axis, u):
    """One write's permutation of the whole joint basis over `dims`, from interact's own table:
    `u` acts on factor 0 and factor `axis`, every other factor stays."""
    d = dims[axis]
    multi = [a.ravel() for a in np.indices(dims)]
    image = u.joint_permutation[multi[0] * d + multi[axis]]
    multi[0], multi[axis] = image // d, image % d
    return np.ravel_multi_index(multi, dims)


def joints(rho_s, mem, mode=broadcast.SEQUENTIAL_LOCAL, kind="swap", variant=0):
    """The dense joint matrix after each write of the run over `mem`, in order.

    A sequential run writes unit i through its own interaction on factor i + 1; a global
    run writes once through the `kind` interaction of the merged memory, grouped from the
    product of the units' Hamiltonians, whose levels follow the kron order of the units'.
    """
    if mode == broadcast.SEQUENTIAL_LOCAL:
        dims = (mem.d_s,) + mem.dims
        writes = [(dims, i + 1, unit.interaction) for i, unit in enumerate(mem.units)]
    else:
        merged_h = thermal.product_hamiltonian([u.hamiltonian for u in mem.units])
        merged = interact.build(thermal.group_energies(merged_h, mem.d_s), kind, variant)
        writes = [((mem.d_s, merged_h.dim), 1, merged)]
    joint = reduce(np.kron, [np.diag(u.probs) for u in mem.units], rho_s.matrix)
    for write in writes:
        joint = interact.conjugate(joint, lifted_permutation(*write))
        yield joint


def final_state(rho_s, mem, mode=broadcast.SEQUENTIAL_LOCAL, kind="swap", variant=0):
    """The dense final state of the run, on the factors (system, unit 1, ..., unit N)."""
    *_, joint = joints(rho_s, mem, mode, kind, variant)
    return qcore.DensityOperator(joint, (mem.d_s,) + mem.dims)


def system_blocks(rho_joint):
    """Every d_S x d_S block of a dense state; the memory is every factor but the first."""
    d_s = rho_joint.dims[0]
    d_m = rho_joint.dim // d_s
    blocks = rho_joint.matrix.reshape(d_s, d_m, d_s, d_m).transpose(0, 2, 1, 3).reshape(d_s, d_s, -1)
    return SystemBlocks(np.stack(np.divmod(np.arange(d_m * d_m), d_m), axis=1), blocks)


def permutation_matrix(u):
    """The unitary of the interaction `u`: column j holds a 1 at row pi[j]."""
    d = u.d_s * u.d_m
    m = np.zeros((d, d))
    m[u.joint_permutation, np.arange(d)] = 1.0
    return m


def thermo_report(rho_s, tau, u):
    """The report of one write of rho_S into the Gibbs memory tau by `u`, a joint unitary or a
    ControlledInteraction (through its permutation matrix), from U (rho_S (x) tau) U^dagger:
    its marginals by partial_trace, chi from conditional_ensemble and holevo_chi, every entropy
    by von_neumann_entropy, and D(rho_M' || tau) = -S(rho_M') - Tr rho_M' ln tau with the exact
    ln tau = -beta H - ln Z of a Gibbs state, finite at every temperature."""
    if isinstance(u, interact.ControlledInteraction):
        u = permutation_matrix(u)
    s = qcore.von_neumann_entropy
    energies = tau.hamiltonian.absolute_energies()
    rho_out = qcore.evolve(qcore.tensor(rho_s, tau.state), u)
    rho_s_out = qcore.partial_trace(rho_out, (0,))
    rho_m_out = qcore.partial_trace(rho_out, (1,))
    pops = rho_m_out.matrix.diagonal().real
    delta_e_m = float(pops @ energies) - tau.mean_energy()
    delta_s_system = s(rho_s_out) - s(rho_s)
    delta_s_m = s(rho_m_out) - s(tau.state)
    delta_q = tau.beta * delta_e_m
    return ThermoReport(
        sigma_prod=delta_q + delta_s_system,
        delta_q=delta_q,
        delta_s_system=delta_s_system,
        delta_e_m=delta_e_m,
        delta_s_m=delta_s_m,
        beta_delta_f=delta_q - delta_s_m,
        mutual_info=qcore.mutual_information(rho_out, (0,)),
        rel_entropy_to_thermal=-s(rho_m_out) - float(pops @ (-tau.beta * energies - tau.log_z)),
        chi=infotherm.holevo_chi(infotherm.conditional_ensemble(rho_out)),
    )
