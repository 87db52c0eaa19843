"""Dense oracle for the structured engine, built from the definitions in the product basis.

* `final_state` and `joints`: a run's joint state, rho_S (x) diag(p_1) (x) ... (x) diag(p_N)
  conjugated by each write lifted to the whole product space.  The writes are rebuilt from
  the memory array alone, as `broadcast.run_sequential_local` and `broadcast.run_global`
  define them.
* `system_blocks` and `blocks_summary`: a dense (system, memory...) state, or its d_S x d_S
  blocks over every pair of memory levels, as the `SystemBlocks` that `infotherm.sbs_test` reads.
* `channel` and `channel_blocks`: a write step's general channel on S, d_S^2 x d_S^2, and a
  run's (S, M_1) blocks through the channels of its later writes, with no appeal to the
  complete-record property that `broadcast.BroadcastRun.first_marginal` rests on.
* `permutation_matrix`: an interaction's unitary as a dense 0/1 matrix.
* `thermo_report`: the report of one write into a thermal memory, read from the dense joint
  state through the library's definitions.
* `swap_report`: the report of one swap write, every entropy summed over the product
  spectrum of its state, exact weights times rho_S's floored eigenvalues.

Every array here is D x D for the joint dimension D, or d_S^4, so callers keep both small.
"""

import math
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
    """The `SystemBlocks` of a dense state; the memory is every factor but the first."""
    d_s = rho_joint.dims[0]
    d_m = rho_joint.dim // d_s
    return blocks_summary(rho_joint.matrix.reshape(d_s, d_m, d_s, d_m).transpose(0, 2, 1, 3))


def blocks_summary(blocks):
    """The `SystemBlocks` of the blocks blocks[s, s', a, a'] = <s, a| rho |s', a'>: the Gram matrix
    and the traces of the S-diagonal blocks M_x, each formed in full, and the largest S-off-diagonal |entry|."""
    d = len(blocks)
    m = blocks[np.arange(d), np.arange(d)]
    flat = m.reshape(d, -1)
    off = np.abs(blocks[~np.eye(d, dtype=bool)]).max(initial=0.0)
    return SystemBlocks((flat @ flat.conj().T).real, np.trace(m, axis1=1, axis2=2).real, float(off))


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


def swap_report(rho_s, tau, u):
    """The report of one swap write `u` of rho_S into the Gibbs memory tau from product spectra.

    The swap puts p_k rho_S on the memory levels mu[:, k] and the system on the outcome nu_k:
    rho_S' = diag(P_nu), member nu is the direct sum of p_k / P_nu rho_S over nu_k = nu, rho_M'
    that of w_s rho_S over the slots s, and rho_out has the spectrum of rho_S (x) tau.  Each
    entropy sums the sorted products of those weights with rho_S's spectrum, floored at
    EIG_FLOOR; the products themselves are exact.  The system label moves, so the write is
    checked to be a swap."""
    step = interact.WriteStep(u, tau.probs)
    (y, mu), p = step.images, step.p
    d_s, nu = len(y), y[0]
    assert (y == nu).all(), "not a swap: the system label stays"
    lam = rho_s.spectrum()
    lam = np.where(lam > qcore.EIG_FLOOR, lam, 0.0)

    def s(weights):  # of the direct sum of weights[k] rho_S
        return float(qcore.entropies(np.sort(np.outer(weights, lam).ravel()), 0.0))

    p_out = np.array([p[nu == x].sum() for x in range(d_s)])
    s_m_out = s(np.bincount(mu[0], p, minlength=step.dims[0]))
    kept = p_out > infotherm.PROB_FLOOR
    chi = s_m_out - sum(p_out[x] * s(p[nu == x] / p_out[x]) for x in range(d_s) if kept[x])
    pops = np.bincount(mu.ravel(), (rho_s.matrix.diagonal().real[:, None] * p).ravel(), minlength=u.d_m)
    s_s_in, h_tau = qcore.von_neumann_entropy(rho_s), qcore.shannon_entropy(tau.probs)
    s_s_out = qcore.von_neumann_entropy(qcore.diag_density(p_out))
    energies = tau.hamiltonian.absolute_energies()
    delta_e_m = float(pops @ energies) - tau.mean_energy()
    delta_s_system = s_s_out - s_s_in
    delta_s_m = s_m_out - h_tau
    delta_q = tau.beta * delta_e_m
    return ThermoReport(
        sigma_prod=delta_q + delta_s_system,
        delta_q=delta_q,
        delta_s_system=delta_s_system,
        delta_e_m=delta_e_m,
        delta_s_m=delta_s_m,
        beta_delta_f=delta_q - delta_s_m,
        mutual_info=s_s_out + s_m_out - s(tau.probs),
        rel_entropy_to_thermal=-s_m_out - float(pops @ (-tau.beta * energies - tau.log_z)),
        chi=chi,
    )


def channel(step):
    """The channel on S of an `interact.WriteStep`, d_S^2 x d_S^2 on row-major vec(rho): the entry
    (x, x', k) of rho_S (x) diag(p) moves to (y[x, k] mu[x, k], y[x', k] mu[x', k]), and it survives
    tracing out the memory when mu[x, k] = mu[x', k]."""
    y, mu = step.images
    d = len(y)
    same = mu[:, None] == mu[None]
    flat = (y[:, None] * d + y[None]) * d * d + np.arange(d * d).reshape(d, d, 1)
    phi = np.bincount(flat[same], np.broadcast_to(step.p, same.shape)[same], minlength=d**4)
    return phi.reshape(d * d, d * d)


def channel_blocks(rho_s, mem, mode=broadcast.SEQUENTIAL_LOCAL, kind="swap", variant=0):
    """The run's (S, M_1) state as (d_S, d_S, d_1^2) blocks over the level pairs a * d_1 + a': every
    entry of the first write, with the other memory factors of a merged write traced out, then
    the product Phi_N ... Phi_2 of the later writes' channels."""
    d, d1 = mem.d_s, mem.dims[0]
    if mode == broadcast.SEQUENTIAL_LOCAL:
        steps = [interact.WriteStep(u.interaction, u.probs) for u in mem.units]
    else:
        merged_h = thermal.product_hamiltonian([u.hamiltonian for u in mem.units])
        merged = interact.build(thermal.group_energies(merged_h, d), kind, variant)
        steps = [interact.WriteStep(merged, reduce(np.kron, [u.probs for u in mem.units]), mem.dims)]
    first = steps[0]
    y, mu = first.images
    a, rest = np.divmod(mu, math.prod(first.dims[1:]))
    same = rest[:, None] == rest[None]
    flat = ((y[:, None] * d + y[None]) * d1 * d1 + a[:, None] * d1 + a[None])[same]
    blocks = np.zeros(d * d * d1 * d1, dtype=complex)
    np.add.at(blocks, flat, (rho_s.matrix[:, :, None] * first.p)[same])
    after = reduce(lambda acc, step: channel(step) @ acc, steps[1:], np.eye(d * d))
    return (after @ blocks.reshape(d * d, -1)).reshape(d, d, -1)
