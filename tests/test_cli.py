"""End-to-end command line behavior: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracle
import pytest

import semibroadcast
from semibroadcast import broadcast, cli, infotherm, interact, qcore, thermal
from semibroadcast.config import InstancesConfig, InteractionConfig, build_system_state, parse_config
from semibroadcast.errors import DegenerateOutcomeWarning, SemibroadcastError, WrongKind

LN2 = math.log(2.0)


def run(tmp_path, *argv, config=None, name="cfg.json"):
    args = list(argv)
    if config is not None:
        path = tmp_path / name
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    out = tmp_path / "out"
    rc = cli.main(args + ["--out", str(out)])
    return rc, out


def read_json(out):
    return json.loads((out / "results.json").read_text())


SWEEP_CFG = {
    "experiment": "cmax_sweep",
    "sweep": {"beta_omega": [0.1, 1.0], "n_min": 1, "n_max": 9, "n_step": 2},
}

HL_SMALL = {"experiment": "sequential", "seed": 9, "instances": {"count": 12}}


# ----------------------------------------------------------------- commands


def test_cmax_sweep_outputs(tmp_path, capsys):
    rc, out = run(tmp_path, "cmax-sweep", config=SWEEP_CFG)
    assert rc == 0
    payload = read_json(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "cmax-sweep"
    assert len(payload["rows"]) == 10  # 5 sizes x 2 temperatures
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "n,beta_omega,c_max"
    assert lines[1] == "1,0.1,0.524979187479"  # 12 significant digits
    assert "beta*omega=0.1" in capsys.readouterr().out


def test_hl_bound_sweep_and_summary(tmp_path):
    rc, out = run(tmp_path, "hl-bound", config=HL_SMALL)
    assert rc == 0
    payload = read_json(out)
    assert payload["units"] == "nats"
    assert payload["summary"]["instances"] == 12
    assert payload["summary"]["min_gap"] >= -1e-9
    assert payload["summary"]["max_reeb_wolf_residual"] <= 1e-10
    kinds = {r["kind"] for r in payload["records"]}
    assert kinds == {"noninvasive", "cycled", "swap", "haar"}
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("index,d_S,d_M,beta,kind,")
    assert len(lines) == 13


def test_hl_bound_single_instance(tmp_path):
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": {"N": 1, "beta_omega": 1.0},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    rec = read_json(out)["records"][0]
    # uniform input through the correlating write saturates the bound exactly
    assert rec["gap"] == pytest.approx(0.0, abs=1e-12)
    assert rec["chi"] == pytest.approx(0.11094407167172737, abs=1e-12)


@pytest.mark.parametrize(
    "kind", [{"kind": "noninvasive"}, {"kind": "cycled", "i": 0}, {"kind": "swap"}], ids=lambda k: k["kind"]
)
@pytest.mark.parametrize("beta_omega", [20.0, 40.0, 400.0])
def test_hl_bound_writes_into_cold_memories(tmp_path, kind, beta_omega):
    # two-qubit memories whose excited Gibbs levels fall below EIG_FLOOR, or underflow to 0
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": {"N": 1, "n": 2, "beta_omega": beta_omega},
        "interaction": kind,
    }
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    rec = read_json(out)["records"][0]
    # the write copies one bit into a level beta_omega above the ground level
    assert rec["rel_entropy_to_thermal"] == pytest.approx(beta_omega / 2 - LN2, abs=1e-8)
    assert abs(rec["gap"]) <= 1e-14
    assert rec["reeb_wolf_residual"] <= 1e-14


def test_nogo_defaults_find_witness(tmp_path, capsys):
    rc, out = run(tmp_path, "nogo")
    assert rc == 0
    payload = read_json(out)
    assert payload["worst_defect"] > 1e-6
    wit = payload["witness"]
    assert wit["applicable"] and wit["violated"]
    assert wit["k"] == 1
    assert wit["lhs"] == pytest.approx(2 * 0.5822031088882179, abs=1e-12)
    assert wit["rhs"] == pytest.approx(LN2, abs=1e-12)
    assert "witness at k=1" in capsys.readouterr().out


def test_nogo_ground_memory_is_inapplicable_but_copies(tmp_path):
    cfg = {
        "experiment": "nogo",
        "system": {"d_S": 2, "state": 0},
        "memory": {"N": 2, "n": 1, "beta_omega": 1.0, "state": "ground"},
    }
    rc, out = run(tmp_path, "nogo", config=cfg)
    assert rc == 0
    payload = read_json(out)
    assert payload["witness"] == {"applicable": False, "reason": "memory entropy is zero"}
    assert payload["worst_defect"] <= 1e-12


def test_reconstruct_default_round_trip(tmp_path, capsys):
    rc, out = run(tmp_path, "reconstruct")
    assert rc == 0
    payload = read_json(out)
    assert payload["max_residual"] <= 1e-9
    assert payload["p_reconstructed"] == pytest.approx([0.3, 0.7], abs=1e-9)
    assert payload["c_max"] == pytest.approx(1 / (1 + math.exp(-1.0)), abs=1e-12)
    assert "reconstruction residual" in capsys.readouterr().out


@pytest.mark.parametrize(
    "system, hamiltonian",
    [
        ({"d_S": 2, "state": [0.3, 0.7]}, {"type": "qubit_chain"}),
        ({"d_S": 3, "state": [0.5, 0.3, 0.2]}, {"type": "explicit", "energies": [0.0, 1.0, 2.0]}),
    ],
)
def test_reconstruct_ground_memory_is_exact(tmp_path, system, hamiltonian):
    # c_max comes from the memory the run wrote: a ground memory records perfectly
    cfg = {
        "experiment": "reconstruct",
        "system": system,
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0, "state": "ground", "hamiltonian": hamiltonian},
    }
    rc, out = run(tmp_path, "reconstruct", config=cfg)
    assert rc == 0
    payload = read_json(out)
    assert payload["c_max"] == 1.0
    assert payload["max_residual"] <= 1e-12
    assert payload["p_reconstructed"] == pytest.approx(system["state"], abs=1e-12)


@pytest.mark.parametrize("d_s, n", [(4, 6), (8, 3)])
def test_reconstruct_reads_each_variant_from_its_transition_matrix(tmp_path, d_s, n):
    # one run over the variants' product space drifted off 1 at (4, 6) and exceeded the budget at (8, 3)
    cfg = {
        "experiment": "reconstruct",
        "system": {"d_S": d_s, "state": [1.0 / d_s] * d_s},
        "memory": {"N": 1, "n": n, "beta_omega": 1.0},
    }
    rc, out = run(tmp_path, "reconstruct", config=cfg)
    assert rc == 0
    payload = read_json(out)
    assert payload["max_residual"] <= 1e-12
    assert len(payload["q_variants"]) == d_s - 1
    for q in payload["q_variants"]:
        assert abs(math.fsum(q) - 1.0) <= 1e-15


def test_classify_default_is_locally_noninvasive(tmp_path, capsys):
    rc, out = run(tmp_path, "classify")
    assert rc == 0
    payload = read_json(out)
    assert payload["mode"] == "sequential_local"
    assert payload["components"][0]["class"] == "local_noninvasive"
    assert payload["statistics_defect"] > 1e-6
    assert "component 0: local_noninvasive" in capsys.readouterr().out


def test_classify_ground_memory_reaches_sbs(tmp_path):
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0, "state": "ground"},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 0
    payload = read_json(out)
    assert payload["components"][0]["class"] == "sbs"
    assert payload["sbs_first_component"]["is_sbs"] is True


def test_classify_global_mode(tmp_path):
    cfg = {
        "experiment": "global",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 2, "n": 1, "beta_omega": 1.0},
        "interaction": {"kind": "swap"},
    }
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 0
    assert read_json(out)["mode"] == "global"


def _noninvasive_chi(p, n, beta_omega):
    """H(sum_x p_x V_x tau V_x^dagger) - H(tau) for the noninvasive write into an n-qubit Gibbs memory."""
    h = thermal.qubit_chain_hamiltonian(n)
    tau = thermal.gibbs(h, beta_omega).probs
    levels = interact.build_noninvasive_maxcorr(thermal.group_energies(h, len(p))).table % h.dim
    mix = np.zeros_like(tau)
    for x in range(len(p)):
        mix[levels[x]] += p[x] * tau
    return qcore.shannon_entropy(mix) - qcore.shannon_entropy(tau)


def test_classify_beyond_the_dense_limit_matches_the_closed_form(tmp_path):
    # N = 3 copies of a 4-qubit memory: D = 8192, twice the largest dense state;
    # N = 256 copies of a 6-qubit memory: D = 2^1537, one write step per copy
    for n_units, n in ((3, 4), (256, 6)):
        cfg = {
            "experiment": "sequential",
            "system": {"d_S": 2, "state": "random", "seed": 5},
            "memory": {"N": n_units, "n": n, "beta_omega": 0.7},
            "interaction": {"kind": "noninvasive"},
        }
        rc, out = run(tmp_path, "classify", config=cfg, name=f"cfg-{n_units}.json")
        assert rc == 0
        # the noninvasive write keeps p, so component i holds sum_x p_x V_x tau V_x^dagger
        p = build_system_state(parse_config(cfg).system).matrix.diagonal().real
        chi = _noninvasive_chi(p, n, 0.7)
        components = read_json(out)["components"]
        assert len(components) == n_units
        for c in components:
            assert c["chi"] == pytest.approx(chi, abs=1e-12)
            # the ensembles are diagonal, so the bracket closes exactly; a thermal
            # memory keeps chi below H(X), so the write is only locally noninvasive
            assert c["i_acc_lower"] == pytest.approx(c["chi"], abs=1e-12)
            assert c["i_acc_upper"] == c["chi"]
            assert c["class"] == "local_noninvasive"


@pytest.mark.parametrize("n_units, n", [(1, 12), (1, 16), (3, 16)])
def test_classify_over_large_memories_matches_the_closed_form(tmp_path, n_units, n):
    # a single 12-qubit memory already puts a dense (S, M_1) marginal past the byte budget
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random", "seed": 5},
        "memory": {"N": n_units, "n": n, "beta_omega": 1.0},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 0
    payload = read_json(out)
    chi = _noninvasive_chi(build_system_state(parse_config(cfg).system).matrix.diagonal().real, n, 1.0)
    # the write decoheres S completely, so rho_S' = diag(p); its entropy sums 2^n blocks
    assert payload["s_system_final"] == pytest.approx(payload["h_x"], abs=1e-14)
    assert len(payload["components"]) == n_units
    for c in payload["components"]:
        assert c["chi"] == pytest.approx(chi, abs=1e-12)
        assert c["i_acc_lower"] <= c["chi"]


def test_sequential_classify_over_4096_memories_matches_the_single_unit(tmp_path):
    # 4096 copies of a 6-qubit memory: the noninvasive writes keep p, so every component
    # holds the single unit's ensemble; each unit's members are read and dropped in turn
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 4096, "n": 6, "beta_omega": 1.0},
        "interaction": {"kind": "noninvasive"},
    }
    single = {**cfg, "memory": {**cfg["memory"], "N": 1}}
    rc, out = run(tmp_path, "classify", config=single, name="single.json")
    assert rc == 0
    want = read_json(out)["components"][0]
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    components = read_json(out)["components"]
    assert len(components) == 4096
    for c in components:
        assert c["chi"] == pytest.approx(want["chi"], abs=1e-12)
        assert c["class"] == want["class"]
    assert peak < 32 * 2**20


def test_classify_holds_the_first_marginal_in_a_few_copies(tmp_path):
    # d_S = 16 over two 6-qubit memories: a dense (S, M_1) marginal would be 1024 x 1024,
    # 16 MiB; its blocks over the occupied level pairs are at most as large
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 16, "state": "random", "seed": 3},
        "memory": {"N": 2, "n": 6, "beta_omega": 1.0},
    }
    marginal = broadcast.COMPLEX_BYTES * (16 * 64) ** 2
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(read_json(out)["components"]) == 2
    assert peak < 5 * marginal


def test_nogo_over_a_wide_system_holds_no_full_channel(tmp_path):
    # d_S = 64 over two 6-qubit ground memories: each write copies |x> exactly; the
    # full channel on S would hold 64^4 entries, 128 MiB
    cfg = {
        "experiment": "nogo",
        "system": {"d_S": 64, "state": 0},
        "memory": {"N": 2, "n": 6, "beta_omega": 1.0, "state": "ground"},
    }
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "nogo", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    rows = read_json(out)["basis_defects"]
    assert [r["input"] for r in rows] == list(range(64))
    assert all(r["defect"] <= 1e-12 for r in rows)
    assert peak < 8 * 2**20


def _nogo_512(kind):
    return {
        "experiment": "nogo",
        "system": {"d_S": 2, "state": 0},
        "memory": {"N": 512, "n": 6, "beta_omega": 1.0},
        "interaction": {"kind": kind},
    }


def test_long_noninvasive_nogo_reads_the_transition_matrix_on_every_unit(tmp_path):
    rc, out = run(tmp_path, "nogo", config=_nogo_512("noninvasive"))
    assert rc == 0
    # every unit sees the unchanged input |x>, so it reads row x of the unit's T
    h = thermal.qubit_chain_hamiltonian(6)
    u = interact.build_noninvasive_maxcorr(thermal.group_energies(h, 2))
    t = interact.transition_matrix(u, thermal.gibbs(h, 1.0).probs)
    defects = [r["defect"] for r in read_json(out)["basis_defects"]]
    want = [float(np.max(np.abs(np.eye(2)[x] - t[x]))) for x in range(2)]
    assert defects == pytest.approx(want, abs=1e-12)


def test_long_swap_nogo_reads_the_sector_weights_after_the_first_unit(tmp_path):
    rc, out = run(tmp_path, "nogo", config=_nogo_512("swap"))
    assert rc == 0
    # unit 1 copies |x> exactly and leaves the memory's sector weights (c_max, 1 - c_max)
    # on the system, which every later swap reads and leaves again
    h = thermal.qubit_chain_hamiltonian(6)
    c = thermal.c_max(thermal.group_energies(h, 2), thermal.gibbs(h, 1.0))
    defects = [r["defect"] for r in read_json(out)["basis_defects"]]
    assert defects == pytest.approx([1.0 - c, c], abs=1e-12)


@pytest.mark.parametrize("interaction", [None, "noninvasive"], ids=["global", "global-noninvasive"])
def test_classify_beyond_the_byte_budget_exits_4_before_allocating(tmp_path, capsys, interaction):
    # N = 3 copies of an 8-qubit memory: a global write of 4 * 2^24 entries, swap by default
    cfg = {
        "experiment": "global",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 3, "n": 8, "beta_omega": 1.0},
    }
    if interaction is not None:
        cfg["interaction"] = {"kind": interaction}
    tracemalloc.start()
    try:
        rc, _ = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert peak < broadcast.BYTE_BUDGET // 8


def _memory(**fields):
    return {"experiment": "sequential", "system": {"d_S": 2, "state": "random"}, "memory": fields}


@pytest.mark.parametrize(
    "cfg",
    [
        _memory(N=1, n=30, beta_omega=1.0),  # a 2^31-index interaction table
        _memory(N=1, n=30, beta_omega=1.0, state="ground"),
        # a global write of 4 * 2^20000 entries
        {**_memory(N=20000, n=1, beta_omega=1.0), "experiment": "global"},
        {**_memory(N=25, n=1, beta_omega=1.0, state="ground"), "experiment": "global"},
    ],
    ids=["n30", "n30-ground", "global-N20000", "global-ground-N25"],
)
def test_classify_refuses_oversized_memories_before_building_them(tmp_path, capsys, cfg):
    start = time.perf_counter()
    rc, out = run(tmp_path, "classify", config=cfg)
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("experiment", ["sequential", "global"])
def test_classify_copies_the_statistics_into_a_2_20_level_ground_memory(tmp_path, experiment):
    # a dense (S, M_1) marginal would hold 2^21 x 2^21 entries; the write holds one level, so
    # its blocks are a few d_S x d_S matrices.  Either write copies x into the pointer exactly
    cfg = {**_memory(N=1, n=20, beta_omega=1.0, state="ground"), "experiment": experiment}
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    payload = read_json(out)
    (component,) = payload["components"]
    assert component["chi"] == pytest.approx(payload["h_x"], abs=1e-12)
    assert component["i_acc_lower"] == pytest.approx(payload["h_x"], abs=1e-12)
    assert peak < broadcast.BYTE_BUDGET


def test_classify_refuses_the_first_marginal_blocks_before_allocating_them(tmp_path, capsys):
    # d_S = 128 over a 7-qubit Gibbs memory: the first write occupies all K = 128^2 pairs of
    # M_1 levels, whose blocks need K * 128^2 complex entries, 4 GiB
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 128, "state": "random"},
        "memory": {"N": 1, "n": 7, "beta_omega": 1.0},
    }
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "(S, M_1) blocks needs 4294967296 bytes" in capsys.readouterr().err
    assert not (out / "results.json").exists()
    assert peak < broadcast.BYTE_BUDGET // 2


def test_sequential_classify_refuses_the_blocks_before_sorting_the_first_write(tmp_path, capsys):
    # the first write fills one 7-qubit unit, so its K >= d_S^2 level pairs need at least
    # 128^4 complex entries: refused before the d_S^2 * 128 entry keys are sorted
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 128, "state": "random"},
        "memory": {"N": 2, "n": 7, "beta_omega": 1.0},
    }
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "(S, M_1) blocks needs 4294967296 bytes" in capsys.readouterr().err
    assert not (out / "results.json").exists()
    assert peak < 16 * 2**20


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from semibroadcast import cli
for cmd in cli.COMMANDS:
    rc = cli.main([cmd, "--out", cmd])
    assert rc == 0, (cmd, rc)
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    src = str(Path(semibroadcast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    for cmd in cli.COMMANDS:
        assert (tmp_path / cmd / "results.json").exists()


HL_OVERSIZED = {
    # a 30-qubit memory: its interaction table alone is 16 GiB
    "single": {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": {"N": 1, "n": 30, "beta_omega": 1.0},
    },
    # the sweep may draw d_S = 2 with d_M = 2050
    "sweep": {"experiment": "sequential", "instances": {"count": 3, "d_S": [3, 2], "max_memory_dim": 2050}},
}


@pytest.mark.parametrize("which", sorted(HL_OVERSIZED))
def test_hl_bound_beyond_the_byte_budget_exits_4_before_allocating(tmp_path, capsys, which):
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "hl-bound", config=HL_OVERSIZED[which])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert not (out / "results.json").exists()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("kind", [{"kind": "noninvasive"}, {"kind": "cycled", "i": 0}, {"kind": "swap"}], ids=lambda k: k["kind"])
@pytest.mark.parametrize(
    "memory",
    [
        {"N": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": list(range(2050))}},
        {"N": 1, "n": 20, "beta_omega": 1.0},
    ],
    ids=["levels2050", "n20"],
)
def test_single_instance_hl_bound_writes_beyond_a_dense_joint_state(tmp_path, kind, memory):
    # d_S * d_M = 4100 and 2^21: a permutation write reads its table through the write step,
    # so only the unit's table and entry-list checks bound it
    cfg = {"experiment": "sequential", "system": {"d_S": 2, "state": "random"}, "memory": memory, "interaction": kind}
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    rec = read_json(out)["records"][0]
    assert rec["gap"] >= -cli.GAP_TOL
    assert rec["reeb_wolf_residual"] <= cli.RW_TOL


def test_single_instance_hl_bound_builds_the_gibbs_state_once(tmp_path, monkeypatch):
    # one Gibbs state serves the unit's write and the report; every module's binding is counted
    gibbs, calls = thermal.gibbs, []

    def counted(*args):
        calls.append(args)
        return gibbs(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("semibroadcast") and getattr(module, "gibbs", None) is gibbs:
            monkeypatch.setattr(module, "gibbs", counted)
    cfg = {"experiment": "sequential", "system": {"d_S": 2, "state": [0.3, 0.7]}, "memory": {"N": 1, "n": 3, "beta_omega": 1.0}}
    rc, _ = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    assert len(calls) == 1


def test_hl_bound_refuses_an_instance_count_beyond_the_byte_budget_before_spawning(
    tmp_path, capsys, monkeypatch
):
    # 10^9 instances: their seeds and records alone exceed the budget, so no seed is spawned
    def spawned(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "hl_sweep_records", spawned)
    cfg = {"experiment": "sequential", "instances": {"count": 10**9}}
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 4
    assert "instance records needs" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_an_instance_sweep_peaks_below_its_record_budget(tmp_path):
    # the whole command, records and JSON text, against the bound its count check assumes
    count = 2000
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "hl-bound", config={"experiment": "sequential", "instances": {"count": count}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert read_json(out)["summary"]["instances"] == count
    assert peak / count <= cli.RECORD_BYTES


def test_a_sweep_over_wide_memories_peaks_within_its_records_and_a_stack_of_joints(tmp_path):
    # max_memory_dim = 64 draws haar joints up to D = 3 * 3 * 21 = 189.  Beyond the records, a sweep holds
    # one chunk of draws and one stacked pass at a time: a haar pass writes at most HL_HAAR_DEPTH = 8
    # instances and holds about 5.3 joint-sized arrays per write (6 allowed here), so 48 joints bound it
    count, d = 500, 189
    joints = 6 * cli.HL_HAAR_DEPTH
    cfg = {"experiment": "sequential", "instances": {"count": count, "max_memory_dim": 64}}
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "hl-bound", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert read_json(out)["summary"]["instances"] == count
    assert peak <= cli.RECORD_BYTES * count + joints * broadcast.COMPLEX_BYTES * d * d


HL_WIDE = {"d_s": (2, 3, 4), "max_memory_dim": 16}


@pytest.mark.parametrize("inst", [{}, HL_WIDE, {"beta_range": (0.0, 20.0)}], ids=["default", "wide", "cold"])
def test_the_first_records_of_a_sweep_do_not_depend_on_its_count(inst):
    # k = 37 and 200 cut through a chunk of HL_CHUNK = 128 draws and through its groups
    full = cli.hl_sweep_records(InstancesConfig(count=300, **inst), seed=11)
    for k in (37, 200):
        assert cli.hl_sweep_records(InstancesConfig(count=k, **inst), seed=11) == full[:k]
    # each record is bit-identical to its instance evaluated alone, as a group of one
    cfg = InstancesConfig(count=300, **inst)
    seeds = np.random.SeedSequence(11).spawn(cfg.count)
    for i in range(0, cfg.count, 7):
        draw = cli.hl_instance_record(i, cfg.d_s[i % len(cfg.d_s)], cfg, seeds[i])
        assert cli._hl_stack([draw], False) == [full[i]]


def test_a_wide_sweep_writes_byte_identical_results(tmp_path):
    cfg = {"experiment": "sequential", "instances": {"d_S": [2, 3, 4], "max_memory_dim": 16}}
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["hl-bound", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        outs.append([(tmp_path / name / f).read_bytes() for f in ("results.json", "results.csv")])
    assert outs[0] == outs[1]


ORACLE_FIELDS = {
    "entropy_production": "sigma_prod",
    "beta_heat": "delta_q",
    "delta_s_system": "delta_s_system",
    "delta_s_memory": "delta_s_m",
    "beta_delta_f_memory": "beta_delta_f",
    "mutual_info": "mutual_info",
    "rel_entropy_to_thermal": "rel_entropy_to_thermal",
    "chi": "chi",
}


@pytest.mark.parametrize(
    "inst, bits",
    [({}, False), ({}, True), (HL_WIDE, False), ({"beta_range": (0.0, 20.0)}, False)],
    ids=["default", "bits", "wide", "cold"],
)
def test_every_sweep_record_matches_the_dense_oracle(inst, bits):
    # each instance rebuilt from its draw and written through the dense joint state of tests/oracle.py
    cfg = InstancesConfig(**inst)
    records = cli.hl_sweep_records(cfg, seed=20240814, bits=bits)
    seeds = np.random.SeedSequence(20240814).spawn(cfg.count)
    scale = 1 / LN2 if bits else 1.0
    for i, rec in enumerate(records):
        draw = cli.hl_instance_record(i, cfg.d_s[i % len(cfg.d_s)], cfg, seeds[i])
        h, d_s = draw.hamiltonian, draw.d_s
        if draw.kind == "haar":
            u = qcore.random_unitary(d_s * h.dim, draw.u_seed)
        else:
            u = interact.build(thermal.group_energies(h, d_s), draw.kind, draw.variant)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOutcomeWarning)
            want = oracle.thermo_report(qcore.random_density(d_s, draw.rho_seed), thermal.gibbs(h, draw.beta), u)
        expected = {name: scale * getattr(want, field) for name, field in ORACLE_FIELDS.items()}
        expected["gap"] = scale * infotherm.holevo_landauer_gap(want)
        expected["delta_e_memory"] = want.delta_e_m
        expected["reeb_wolf_residual"] = want.reeb_wolf_residual()
        assert (rec["index"], rec["kind"], rec["d_S"], rec["d_M"], rec["beta"]) == (i, draw.kind, d_s, h.dim, draw.beta)
        for name, value in expected.items():
            assert rec[name] == pytest.approx(value, abs=1e-12), (i, name)


@pytest.mark.parametrize("command", ["classify", "reconstruct"])
def test_a_refused_memory_exits_4_before_the_system_state_is_built(tmp_path, capsys, command):
    # d_S = 1024 over a 10-qubit Gibbs memory: the write's entry list needs 32 GiB, while the
    # random system state alone would be 16 MiB
    cfg = {
        "experiment": "sequential" if command == "classify" else "reconstruct",
        "system": {"d_S": 1024, "state": "random"},
        "memory": {"N": 1, "n": 10, "beta_omega": 1.0},
    }
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, command, config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "joint entry list" in capsys.readouterr().err
    assert not (out / "results.json").exists()
    assert peak < 4 * 2**20


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b"
    rc = cli.main(["cmax-sweep", "--config", _write(tmp_path, SWEEP_CFG), "--out", str(nested)])
    assert rc == 0
    assert (nested / "results.json").exists()


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -------------------------------------------------------------- determinism


def test_runs_are_byte_identical(tmp_path):
    rc1, out1 = run(tmp_path, "hl-bound", config=HL_SMALL)
    rc2 = cli.main(
        ["hl-bound", "--config", _write(tmp_path, HL_SMALL), "--out", str(tmp_path / "out2")]
    )
    assert rc1 == rc2 == 0
    for name in ("results.json", "results.csv"):
        assert (out1 / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_seed_override_changes_the_sample(tmp_path):
    _, out1 = run(tmp_path, "hl-bound", config=HL_SMALL)
    rc = cli.main(
        [
            "hl-bound", "--config", _write(tmp_path, HL_SMALL),
            "--seed", "10", "--out", str(tmp_path / "outs"),
        ]
    )
    assert rc == 0
    first = read_json(out1)["records"]
    second = json.loads((tmp_path / "outs" / "results.json").read_text())["records"]
    assert any(a["beta"] != b["beta"] for a, b in zip(first, second))


def test_seed_override_reseeds_a_random_system_state(tmp_path):
    cfg = _write(tmp_path, {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 2, "n": 1, "beta_omega": 1.0},
    })
    outs = []
    for i, seed in enumerate(["1", "2", "1"]):
        out = tmp_path / f"seed{i}"
        assert cli.main(["classify", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] != outs[1]
    assert outs[0] == outs[2]


def test_bits_flag_rescales_entropic_fields(tmp_path):
    _, out_nats = run(tmp_path, "classify")
    rc = cli.main(["classify", "--bits", "--out", str(tmp_path / "outb")])
    assert rc == 0
    nats = read_json(out_nats)
    bits = json.loads((tmp_path / "outb" / "results.json").read_text())
    assert bits["units"] == "bits"
    assert bits["h_x"] == pytest.approx(nats["h_x"] / LN2, abs=1e-12)
    assert bits["components"][0]["chi"] == pytest.approx(
        nats["components"][0]["chi"] / LN2, abs=1e-12
    )
    # statistics are probabilities, not entropies: no rescaling
    assert bits["statistics_defect"] == nats["statistics_defect"]


# --------------------------------------------------------------- exit codes


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["classify", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["classify", "--config", str(bad)]) == 2
    unknown = _write(tmp_path, {"experiment": "sequential", "mystery": 1}, "unknown.json")
    assert cli.main(["classify", "--config", unknown]) == 2
    mismatch = _write(tmp_path, SWEEP_CFG, "mismatch.json")
    assert cli.main(["classify", "--config", mismatch]) == 2
    assert cli.main(["classify", "--seed", "-1"]) == 2
    sectionless = _write(tmp_path, HL_SMALL, "sectionless.json")
    assert cli.main(["classify", "--config", sectionless]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_cycled_variant_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0},
        "interaction": {"kind": "cycled", "i": 5},
    }
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"system": 5}, "system must be an object, got int"),
        ({"memory": {"N": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": 5}}},
         "energies must be a nonempty list"),
        ({"interaction": "swap"}, "interaction must be an object, got str"),
    ],
    ids=["system-int", "energies-int", "interaction-str"],
)
def test_a_malformed_section_exits_2_and_writes_nothing(tmp_path, capsys, patch, message):
    cfg = {**cli.DEFAULT_CONFIGS["classify"], **patch}
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "reconstruct"])
def test_a_diagonal_off_the_probability_sum_tolerance_exits_2_and_writes_nothing(
    tmp_path, capsys, command
):
    # sums to 1 - 1e-10: within the old parser slack, outside qcore.PROB_SUM_TOL
    cfg = {
        **cli.DEFAULT_CONFIGS[command],
        "system": {"d_S": 3, "state": [0.3333333333] * 3},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": [0, 1, 2]}},
    }
    rc, out = run(tmp_path, command, config=cfg)
    assert rc == 2
    assert "system.state diagonal sums to" in capsys.readouterr().err
    assert not out.exists()


def test_an_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = cli.main(["reconstruct", "--out", str(taken)])
    assert rc == 2
    assert "cannot create --out" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["nogo", "classify"])
def test_a_huge_unit_count_exits_4_before_building_the_units(tmp_path, capsys, command):
    # 10^30 units: the per-unit records alone exceed any budget, and nothing is allocated
    cfg = {
        **cli.DEFAULT_CONFIGS[command],
        "memory": {"N": 10**30, "n": 1, "beta_omega": 1.0},
    }
    rc, out = run(tmp_path, command, config=cfg)
    assert rc == 4
    assert "per-unit run records" in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize(
    "command, experiment, memory",
    [
        ("classify", "sequential", {"N": 1, "hamiltonian": {"type": "explicit", "energies": [0, 1, 2, 3]}}),
        ("nogo", "nogo", {"N": 2, "n": 2}),
        ("reconstruct", "reconstruct", {"N": 1, "n": 2}),
        ("hl-bound", "sequential", {"N": 1, "n": 2}),
    ],
    ids=["classify", "nogo", "reconstruct", "hl-bound"],
)
def test_a_memory_that_d_s_does_not_divide_exits_2_and_writes_nothing(
    tmp_path, capsys, command, experiment, memory
):
    cfg = {
        "experiment": experiment,
        "system": {"d_S": 3, "state": [0.5, 0.3, 0.2]},
        "memory": {**memory, "beta_omega": 1.0},
    }
    rc, out = run(tmp_path, command, config=cfg)
    assert rc == 2
    assert "does not divide" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_refuses_a_cycled_variant_index(tmp_path, capsys):
    # reconstruct runs every cycled variant, so an interaction.i would be ignored
    cfg = {
        "experiment": "reconstruct",
        "system": {"d_S": 3, "state": [0.5, 0.3, 0.2]},
        "memory": {"N": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": [0, 1, 2]}},
        "interaction": {"kind": "cycled", "i": 1},
    }
    rc, out = run(tmp_path, "reconstruct", config=cfg)
    assert rc == 2
    assert "interaction.i" in capsys.readouterr().err
    assert not out.exists()
    cfg["interaction"] = {"kind": "cycled"}
    rc, out = run(tmp_path, "reconstruct", config=cfg)
    assert rc == 0


@pytest.mark.parametrize(
    "memory",
    [{"N": 1, "beta_omega": 1.0, "state": "ground"}, {"N": 3, "beta_omega": 1.0}],
    ids=["ground", "N3"],
)
def test_single_instance_hl_bound_refuses_what_it_would_ignore(tmp_path, capsys, memory):
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": memory,
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg",
    [
        {
            "experiment": "global",
            "system": {"d_S": 2, "state": [0.5, 0.5]},
            "memory": {"N": 1, "n": 1, "beta_omega": 1.0},
            "interaction": {"kind": "swap"},
        },
        {"experiment": "global", "instances": {"count": 4}},
    ],
    ids=["single", "sweep"],
)
def test_hl_bound_refuses_a_global_experiment(tmp_path, capsys, cfg):
    # every hl-bound write is one sequential write: "global" would be ignored
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", ["system", "memory", "interaction"])
def test_an_hl_bound_sweep_refuses_the_sections_it_would_ignore(tmp_path, capsys, section):
    cfg = {
        "experiment": "sequential",
        "instances": {"count": 4},
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0},
        "interaction": {"kind": "swap"},
    }
    cfg = {key: cfg[key] for key in ("experiment", "instances", section)}
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 2
    assert f"takes no {section} section" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "nogo", "reconstruct"])
def test_single_run_subcommands_refuse_an_instances_section(tmp_path, capsys, command):
    cfg = {**cli.DEFAULT_CONFIGS[command], "instances": {"count": 4}}
    rc, out = run(tmp_path, command, config=cfg)
    assert rc == 2
    assert f"{command} takes no instances section" in capsys.readouterr().err
    assert not out.exists()


def test_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir, bits):
        raise cli.InvariantViolation("forced for the exit-code contract")

    monkeypatch.setitem(cli.COMMANDS, "cmax-sweep", broken)
    assert cli.main(["cmax-sweep", "--out", str(tmp_path / "o")]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_domain_errors_exit_4(tmp_path, capsys):
    # at infinite temperature the readout map loses invertibility
    cfg = {
        "experiment": "reconstruct",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "n": 1, "beta_omega": 0.0},
    }
    rc = cli.main(
        ["reconstruct", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]
    )
    assert rc == 4
    assert "domain error" in capsys.readouterr().err


def test_single_instance_rejects_an_unknown_kind():
    # the config parser refuses it first; the dispatch refuses it too
    cfg = parse_config(
        {
            "experiment": "sequential",
            "system": {"d_S": 2, "state": [0.5, 0.5]},
            "memory": {"N": 1, "beta_omega": 1.0},
            "interaction": {"kind": "swap"},
        }
    )
    cli._hl_single(cfg, False)
    with pytest.raises(WrongKind):
        cli._hl_single(replace(cfg, interaction=InteractionConfig("sideways")), False)


def test_invariant_violation_is_a_package_error():
    assert issubclass(cli.InvariantViolation, SemibroadcastError)
