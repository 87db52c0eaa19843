"""Dense oracle for the structured engine, built from the definitions in the product basis.

* `final_state` and `joints`: a run's joint state, rho_S (x) diag(p_1) (x) ... (x) diag(p_N)
  conjugated by each write lifted to the whole product space.  The writes are rebuilt from
  the memory array alone, as `broadcast.run_sequential_local` and `broadcast.run_global`
  define them.
* `system_blocks`: a dense (system, memory...) state as the `SystemBlocks` that
  `infotherm.sbs_test` reads.
* `permutation_matrix`: an interaction's unitary as a dense 0/1 matrix.

Every array here is D x D for the joint dimension D, so callers keep D small.
"""

from functools import reduce

import numpy as np

from semibroadcast import broadcast, interact, qcore, thermal
from semibroadcast.infotherm import SystemBlocks


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
