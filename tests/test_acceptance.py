"""Acceptance gate.

Each criterion is one test that prints a single PASS/FAIL line past pytest's
capture, so a plain `pytest -v` run shows the verdicts inline.  Tolerances
and budgets are asserted, not just reported.
"""

import math
import sys
import time
import warnings

import numpy as np
import pytest

from semibroadcast import broadcast, cli, interact, qcore, thermal
from semibroadcast.config import InstancesConfig
from semibroadcast.errors import DegenerateOutcomeWarning

LN2 = math.log(2.0)


@pytest.fixture
def announce(capfd):
    def _announce(ok: bool, label: str, detail: str = "") -> None:
        line = f"{'PASS' if ok else 'FAIL'}: {label}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return _announce


def test_criterion_1_correlation_ceiling_convergence(announce):
    beta_omegas = (0.1, 0.25, 0.5, 1.0)
    t0 = time.perf_counter()
    rows = broadcast.sweep_cmax_convergence(range(1, 410, 2), beta_omegas)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    series: dict[float, list[float]] = {}
    for n, bw, c in rows:
        series.setdefault(bw, []).append(c)
    for values in series.values():
        ok = ok and all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        ok = ok and max(values) <= 1.0 + 1e-15
    lookup = {(n, bw): c for n, bw, c in rows}
    # single qubit at beta*omega = 1: ceiling is the ground weight 0.731059...
    ok = ok and abs(lookup[(1, 1.0)] - 1.0 / (1.0 + math.exp(-1.0))) <= 1e-9
    ok = ok and lookup[(409, 1.0)] > 1.0 - 1e-6
    dense_gap = 0.0
    for n in range(1, 12, 2):
        h = thermal.qubit_chain_hamiltonian(n)
        g = thermal.group_energies(h, 2)
        for bw in beta_omegas:
            dense = thermal.c_max(g, thermal.gibbs(h, bw))
            dense_gap = max(dense_gap, abs(dense - thermal.c_max_qubits_analytic(n, bw)))
    ok = ok and dense_gap <= 1e-12
    announce(
        ok,
        "criterion 1: ceiling convergence curves",
        f"{elapsed:.2f}s, dense vs analytic {dense_gap:.2e}",
    )


def test_criterion_2_heat_information_bound(announce):
    t0 = time.perf_counter()
    records = cli.hl_sweep_records(InstancesConfig(), seed=20240814)
    elapsed = time.perf_counter() - t0
    min_gap = min(r["gap"] for r in records)
    max_rw = max(r["reeb_wolf_residual"] for r in records)
    ok = (
        len(records) >= 500
        and min_gap >= -1e-9
        and max_rw <= 1e-10
        and elapsed < 60.0
    )
    announce(
        ok,
        "criterion 2: entropy production bounds readable information",
        f"{len(records)} instances in {elapsed:.1f}s, min gap {min_gap:.2e}, "
        f"max identity residual {max_rw:.2e}",
    )


def test_criterion_3_thermal_memories_obstruct_copying(announce):
    ok = True
    worst_by_temp = {}
    for bw in (0.25, 1.0, 4.0):
        worst = 0.0
        for n in (1, 2):
            h = thermal.qubit_chain_hamiltonian(n)
            mem = broadcast.MemoryArray(
                2, tuple(broadcast.thermal_unit(h, bw, 2) for _ in range(2))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegenerateOutcomeWarning)
                for x in range(2):
                    run = broadcast.run_sequential_local(qcore.basis_state(2, x), mem)
                    worst = max(worst, broadcast.ideal_scb_defect(run))
        worst_by_temp[bw] = worst
        ok = ok and worst > 1e-6
    wit = broadcast.nogo_witness(0.0, 0.58234, 0.0, 2)
    ok = ok and wit.violated and wit.k == 1
    ok = ok and abs(wit.lhs - 1.16468) <= 1e-12
    ok = ok and abs(wit.rhs - LN2) <= 1e-12 and wit.lhs > wit.rhs
    h1 = thermal.qubit_chain_hamiltonian(1)
    pure_mem = broadcast.MemoryArray(
        2,
        tuple(
            broadcast.explicit_unit(h1, [1.0, 0.0], 2, kind="noninvasive")
            for _ in range(2)
        ),
    )
    control = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateOutcomeWarning)
        for x in range(2):
            run = broadcast.run_sequential_local(qcore.basis_state(2, x), pure_mem)
            control = max(control, broadcast.ideal_scb_defect(run))
    ok = ok and control <= 1e-12
    announce(
        ok,
        "criterion 3: copying obstruction and entropy witness",
        "defects "
        + ", ".join(f"bw={bw:g}: {d:.2e}" for bw, d in worst_by_temp.items())
        + f"; witness k={wit.k}; pure control {control:.2e}",
    )


def test_criterion_4_statistics_reconstruction_grid(announce):
    rng = np.random.default_rng(20260814)
    betas = (0.25, 0.5, 1.0, 2.0)
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for d_s in (2, 3, 4):
        h = thermal.MemoryHamiltonian(np.arange(float(d_s)))
        arrays = {
            beta: broadcast.MemoryArray(
                d_s,
                tuple(
                    broadcast.thermal_unit(h, beta, d_s, "cycled", i)
                    for i in range(d_s - 1)
                ),
            )
            for beta in betas
        }
        cmax = {
            beta: thermal.c_max(
                arrays[beta].units[0].grouping, thermal.gibbs(h, beta)
            )
            for beta in betas
        }
        for _ in range(100):
            p = rng.dirichlet(np.ones(d_s))
            p = 0.999 * p + 0.001 / d_s  # keep every outcome populated
            for beta in betas:
                run = broadcast.run_sequential_local(
                    qcore.diag_density(p), arrays[beta]
                )
                p_hat = broadcast.reconstruct_p(run.q, cmax[beta], d_s)
                worst = max(worst, float(np.max(np.abs(p_hat - p))))
                runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    announce(
        ok,
        "criterion 4: dense-simulation reconstruction round trip",
        f"{runs} runs in {elapsed:.1f}s, worst residual {worst:.2e}",
    )


def _top_sector_mass(p: np.ndarray, tau_probs: np.ndarray, d_m: int) -> float:
    joint = np.outer(p, tau_probs).ravel()
    joint.sort()
    return float(joint[-d_m:].sum())


def test_criterion_5_interaction_contracts(announce):
    configs = [
        (2, thermal.qubit_chain_hamiltonian(1), 1.0),
        (2, thermal.qubit_chain_hamiltonian(2), 0.5),
        (3, thermal.MemoryHamiltonian([0.0, 1.0, 2.0]), 1.0),
    ]
    candidates = {
        2: [[0.5, 0.5], [0.42, 0.58], [0.35, 0.65]],
        3: [[1 / 3, 1 / 3, 1 / 3], [0.25, 0.35, 0.40], [0.30, 0.32, 0.38]],
    }
    worst_invasive = 0.0
    worst_bias = 0.0
    worst_excess = -math.inf
    tilted_probed = 0
    ok = True
    for d_s, h, beta in configs:
        tau = thermal.gibbs(h, beta)
        g = thermal.group_energies(h, d_s)
        battery = interact.test_state_battery(d_s)
        ground = qcore.basis_state(h.dim, 0)
        builders = [interact.build_noninvasive_maxcorr(g)] + [
            interact.build_cycled_variant(g, i) for i in range(d_s - 1)
        ]
        for u in builders:
            for sigma in (tau.state, ground):
                worst_invasive = max(
                    worst_invasive, interact.check_noninvasive(u, sigma, battery)
                )
        swap = interact.build_unbiased_swap(g)
        for sigma in (tau.state, ground):
            worst_bias = max(
                worst_bias, interact.check_unbiased(swap, sigma, battery, g)
            )
        c = thermal.c_max(g, tau)
        # the ceiling constrains all unitaries only on diagonal inputs whose
        # spread stays below the sector weight gap; certify each candidate
        eligible = [
            np.asarray(p)
            for p in candidates[d_s]
            if _top_sector_mass(np.asarray(p), tau.probs, h.dim) <= c + 1e-12
        ]
        ok = ok and len(eligible) >= 1
        tilted_probed += sum(1 for p in eligible if np.ptp(p) > 0)
        best = interact.haar_correlation_max(
            g, tau, 200, seed=11, diag_states=[qcore.diag_density(p) for p in eligible]
        )
        worst_excess = max(worst_excess, best - c)
        ok = ok and best <= c + 1e-9
    ok = ok and worst_invasive <= 1e-12 and worst_bias <= 1e-12 and tilted_probed >= 2
    announce(
        ok,
        "criterion 5: interaction contracts and random-unitary ceiling",
        f"invasiveness {worst_invasive:.2e}, bias {worst_bias:.2e}, "
        f"worst ceiling excess {worst_excess:.2e}, tilted inputs {tilted_probed}",
    )


def test_criterion_6_objective_records_carry_full_label_information(announce):
    h = thermal.qubit_chain_hamiltonian(2)
    tau = thermal.gibbs(h, 1.0)
    g = thermal.group_energies(h, 2)
    low = np.array([tau.probs[0], tau.probs[1]])
    low = low / low.sum()
    blocks = [
        np.diag([low[0], low[1], 0.0, 0.0]),  # record for outcome 0, rank 2 of 4
        np.diag([0.0, 0.0, low[0], low[1]]),
    ]
    p = [0.3, 0.7]
    h_x = qcore.shannon_entropy(p)
    worst_mi = 0.0
    worst_defect = 0.0
    for n in (1, 2, 3):
        state = broadcast.ideal_broadcasting_state(p, [blocks] * n)
        for j in range(n):
            mi = broadcast.objectivity_mutual_info(state, j)
            worst_mi = max(worst_mi, abs(mi - h_x))
            reduced = qcore.partial_trace(state, (0, j + 1))
            q = interact.pointer_distribution(reduced, g)
            worst_defect = max(worst_defect, float(np.max(np.abs(q - np.asarray(p)))))
    ok = worst_mi <= 1e-9 and worst_defect <= 1e-12
    announce(
        ok,
        "criterion 6: ideal broadcast states are objective",
        f"|I - H| {worst_mi:.2e}, statistics defect {worst_defect:.2e}",
    )


def test_criterion_7_entropy_functional_properties(announce):
    tol = 1e-9
    worst = {
        "subadditivity": -math.inf,
        "strong subadditivity": -math.inf,
        "data processing": -math.inf,
        "unitary invariance": 0.0,
    }
    for seed in range(200):
        rho = qcore.random_density(6, seed=seed, dims=(2, 3))
        worst["subadditivity"] = max(
            worst["subadditivity"], -qcore.mutual_information(rho, (0,))
        )

        rho3 = qcore.random_density(12, seed=seed, dims=(2, 3, 2))
        s_ab = qcore.von_neumann_entropy(qcore.partial_trace(rho3, (0, 1)))
        s_bc = qcore.von_neumann_entropy(qcore.partial_trace(rho3, (1, 2)))
        s_b = qcore.von_neumann_entropy(qcore.partial_trace(rho3, (1,)))
        s_abc = qcore.von_neumann_entropy(rho3)
        worst["strong subadditivity"] = max(
            worst["strong subadditivity"], s_abc + s_b - s_ab - s_bc
        )

        sigma = qcore.random_density(6, seed=10_000 + seed, dims=(2, 3))
        d_full = qcore.relative_entropy(rho, sigma)
        d_marg = qcore.relative_entropy(
            qcore.partial_trace(rho, (0,)), qcore.partial_trace(sigma, (0,))
        )
        worst["data processing"] = max(worst["data processing"], d_marg - d_full)

        u = qcore.random_unitary(6, seed=seed)
        worst["unitary invariance"] = max(
            worst["unitary invariance"],
            abs(
                qcore.von_neumann_entropy(qcore.evolve(rho, u))
                - qcore.von_neumann_entropy(rho)
            ),
        )
    ok = all(v <= tol for v in worst.values())
    announce(
        ok,
        "criterion 7: entropy functional properties",
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )
