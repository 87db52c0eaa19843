"""End-to-end command line behavior: outputs, determinism, exit codes."""

import collections
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
from semibroadcast.config import (
    InstancesConfig,
    InteractionConfig,
    build_memory_array,
    build_system_state,
    parse_config,
)
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


@pytest.mark.parametrize("command", ["hl-bound", "classify"])
def test_a_beta_that_takes_every_gibbs_weight_out_of_the_float_range_exits_4(tmp_path, capsys, command):
    # -beta E overflows on every level: no finite Gibbs state, so no nan record is written
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.5, 0.5]},
        "memory": {"N": 1, "beta_omega": 1e308, "hamiltonian": {"type": "explicit", "energies": [2, 3, 4, 5]}},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, command, config=cfg)
    assert rc == 4
    assert "float range" in capsys.readouterr().err
    assert not (out / "results.json").exists() and not (out / "results.csv").exists()


def test_classify_on_energies_near_the_float_maximum_exits_0_with_warnings_as_errors(tmp_path):
    # ln Z = 1e308: the Gibbs populations [0, 0, 1] come out of the log domain with no overflow warning
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 3, "state": [0.5, 0.3, 0.2]},
        "memory": {"N": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": [0, 1e308, -1e308]}},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _ = run(tmp_path, "classify", config=cfg)
    assert rc == 0


@pytest.mark.parametrize("record", [{"gap": math.nan}, {"reeb_wolf_residual": math.nan}], ids=["gap", "residual"])
def test_a_nan_hl_record_fails_its_invariant_check(tmp_path, monkeypatch, record):
    # a nan anywhere in a sweep is its summary's value, and a nan fails either check
    records = cli.hl_sweep_records

    def with_nan(*args):
        out = records(*args)
        out[1] = {**out[1], **record}
        return out

    monkeypatch.setattr(cli, "hl_sweep_records", with_nan)
    rc, out = run(tmp_path, "hl-bound", config={"experiment": "sequential", "instances": {"count": 3}})
    assert rc == 3
    summary = read_json(out)["summary"]
    assert math.isnan(summary["min_gap" if "gap" in record else "max_reeb_wolf_residual"])


def cold_sweep(top):
    return {"experiment": "sequential", "seed": 3, "instances": {"count": 200, "d_S": [2, 3, 4], "max_memory_dim": 8, "beta_range": [0, top]}}


@pytest.mark.parametrize("top", [1e6, 1e8, 1e10])
def test_a_cold_hl_sweep_exits_0(tmp_path, top):
    # beta * dE reaches 1e10: the residual (up to 3.8e-6 here) is a few eps times the terms it is built from,
    # far beyond the absolute RW_TOL, and each check allows that rounding on top of its tolerance
    rc, out = run(tmp_path, "hl-bound", config=cold_sweep(top))
    assert rc == 0
    assert read_json(out)["summary"]["max_reeb_wolf_residual"] > cli.RW_TOL


@pytest.mark.parametrize("seed", range(5))
def test_a_cold_hl_sweep_over_16_levels_to_beta_1e10_exits_0(tmp_path, seed):
    # levels drawn from [0, 3] sit up to E_0 above their ground level: the report forms <E> and ln tau from
    # eps = E - E_0, so no term rounds at the size of beta E_0 = 3e10 when the identity's terms are far smaller
    cfg = {"experiment": "sequential", "seed": seed, "instances": {"count": 2000, "d_S": [2, 3, 4], "max_memory_dim": 16, "beta_range": [0, 1e10]}}
    rc, _ = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0


def test_hl_bound_on_an_energy_span_past_the_float_range_exits_4_with_warnings_as_errors(tmp_path, capsys):
    # E - min E = 2e308 is past the float range: the run is refused before any record, with no overflow warning
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 3, "state": [0.5, 0.3, 0.2]},
        "memory": {"N": 1, "beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": [0, 1e308, -1e308]}},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 4
    assert "float range" in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize(
    "field, message",
    [("rel_entropy_to_thermal", "decomposition residual"), ("beta_delta_f", "bound gap")],
    ids=["residual", "gap"],
)
@pytest.mark.parametrize("top", [3.0, 1e6])
def test_an_hl_term_moved_by_1e_9_relative_exits_3(tmp_path, monkeypatch, capsys, field, message, top):
    # moving D moves only the residual, moving beta dF_M only the gap: either check still sees 1e-9 of a term
    report = infotherm.thermo_report

    def moved(*args):
        rep = report(*args)
        return replace(rep, **{field: getattr(rep, field) * (1 + 1e-9)})

    monkeypatch.setattr(infotherm, "thermo_report", moved)
    rc, _ = run(tmp_path, "hl-bound", config=cold_sweep(top))
    assert rc == 3
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("beta_omega", [14.0, 15.0, 20.0, 40.0, 700.0])
def test_nogo_on_a_cold_gibbs_memory_exits_0(tmp_path, beta_omega):
    # the worst defect is the upper sector weight W_1 / (W_0 + W_1) = 1 / (1 + e^(beta omega)) of the
    # one-qubit memory, from 8.3e-7 at beta*omega = 14 down to 9.9e-305 at 700: a floor of 1e-6 refused it
    cfg = {"experiment": "nogo", "system": {"d_S": 2, "state": 0}, "memory": {"N": 2, "n": 1, "beta_omega": beta_omega}}
    rc, out = run(tmp_path, "nogo", config=cfg)
    assert rc == 0
    assert read_json(out)["worst_defect"] == pytest.approx(1.0 / (1.0 + math.exp(beta_omega)), rel=1e-15)


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


def test_reconstruct_reads_the_sector_weights_once(tmp_path, monkeypatch):
    # c_max is the coldest of the sector weights that the pointer maps read: one pass over the unit's levels
    readout, calls = thermal.EnergyGrouping.readout, []

    def counted(self, weights):
        calls.append(np.shape(weights))
        return readout(self, weights)

    monkeypatch.setattr(thermal.EnergyGrouping, "readout", counted)
    rc, out = run(tmp_path, "reconstruct")
    assert rc == 0
    assert calls == [(2,)]
    assert read_json(out)["c_max"] == 1 / (1 + math.exp(-1.0))


@pytest.mark.parametrize("n", [20, 21])
def test_reconstruct_past_19_qubits_exits_0(tmp_path, n):
    # prob_vector accepts each variant only if it sums to 1 within 1e-12, which one sequential
    # sum over 2^20 populations misses by 4e-12; the pointer maps sum d_S pairwise sector weights
    cfg = {
        "experiment": "reconstruct",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 1, "n": n, "beta_omega": 1.0},
    }
    rc, out = run(tmp_path, "reconstruct", config=cfg)
    assert rc == 0
    assert read_json(out)["max_residual"] <= 1e-12


@pytest.mark.parametrize(
    "command, cfg, share",
    [
        ("reconstruct", {"system": {"d_S": 2, "state": "random"}, "memory": {"N": 1, "n": 21, "beta_omega": 1.0}}, 2),
        ("nogo", {"system": {"d_S": 2, "state": 0}, "memory": {"N": 2, "n": 20, "beta_omega": 1.0}}, 4),
    ],
    ids=["reconstruct-n21", "nogo-n20-N2"],
)
def test_one_unit_pointer_maps_peak_within_half_the_byte_budget(tmp_path, command, cfg, share):
    # every d_S x d_S map is a sector map on the pairwise sector weights: reconstruct builds no write
    # step, and nogo's one shared step fills no level images, which only its populations and members
    # read, so beside the memory's own arrays nogo holds a quarter of the budget (49 MiB; 81 MiB with
    # the images filled as the step is built).  With a d_S x d_M image table in every interaction,
    # reconstruct peaked at 145 MiB and nogo at 152 MiB
    tracemalloc.start()
    try:
        rc, _ = run(tmp_path, command, config={"experiment": command, **cfg})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= broadcast.BYTE_BUDGET // share


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
    u = interact.build_noninvasive_maxcorr(thermal.group_energies(h, len(p)))
    levels = u.joint_permutation.reshape(len(p), -1) % h.dim
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
    # 16 MiB; the first write has 16^2 * 64 entries, 1/64 as many
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
    # every unit sees the unchanged input |x>, so it reads row x of the unit's pointer map, its
    # sector map on the sector weights
    h = thermal.qubit_chain_hamiltonian(6)
    g = thermal.group_energies(h, 2)
    mu = interact.build_noninvasive_maxcorr(g).sectors[1]
    t = interact.sector_matrix(mu, g.readout(thermal.gibbs(h, 1.0).probs))
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
        _memory(N=1, n=30, beta_omega=1.0),  # a joint basis of 2^31 indices
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
    # it has d_S^2 entries.  Either write copies x into the pointer exactly
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


def _traced(tmp_path, command, cfg):
    """(exit code, out dir, tracemalloc peak) of one in-process run."""
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, command, config=cfg)
        return rc, out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _label_keeping_off_diagonal(cfg):
    """max_{x != x'} |rho_xx'| max_k p_k: the S-off-diagonal norm of one label-keeping write into a fresh memory."""
    parsed = parse_config(cfg)
    rho = build_system_state(parsed.system).matrix
    probs = build_memory_array(parsed.memory, parsed.interaction, parsed.system.d_s).units[0].probs
    return float(np.abs(rho[~np.eye(len(rho), dtype=bool)]).max() * probs.max())


def test_classify_reads_the_first_marginal_of_a_128_outcome_gibbs_write(tmp_path):
    # d_S = 128 over a 7-qubit Gibbs memory: the first write occupies all 128^2 pairs of M_1
    # levels, so S x M_1 blocks over them would need 4 GiB; the marginal keeps the write's
    # 2^21 entries, and of their S-diagonal blocks only the Gram and the traces
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 128, "state": "random"},
        "memory": {"N": 1, "n": 7, "beta_omega": 1.0},
    }
    rc, out, peak = _traced(tmp_path, "classify", cfg)
    assert rc == 0
    sbs = read_json(out)["sbs_first_component"]
    # each entry (x, x', k) of a one-unit write lands on its own joint pair: nothing sums
    assert sbs["off_diagonal_norm"] == pytest.approx(_label_keeping_off_diagonal(cfg), rel=1e-15)
    assert sbs["is_sbs"] is False
    assert peak < broadcast.BYTE_BUDGET


def _wide_sequential(d_s, n, **memory):
    return {
        "experiment": "sequential",
        "system": {"d_S": d_s, "state": "random"},
        "memory": {"N": 2, "n": n, "beta_omega": 1.0, **memory},
    }


def test_sequential_classify_at_d_s_128_keeps_only_the_s_diagonal_of_the_blocks(tmp_path):
    # d_S = 128 over two 7-qubit Gibbs memories: the second write is a complete record, so it
    # dephases S, and of the first write only the entries (x, x) survive, 128^2 values on the
    # 128 diagonal level pairs, where S x M_1 blocks over all 128^2 pairs of the first write needed 4 GiB
    rc, out, peak = _traced(tmp_path, "classify", _wide_sequential(128, 7))
    assert rc == 0
    assert read_json(out)["sbs_first_component"]["off_diagonal_norm"] == 0.0
    assert peak < 128 * 2**20


def test_sequential_classify_over_two_512_outcome_ground_memories_is_sbs(tmp_path):
    # d_S = 512 over two 9-qubit ground memories: the first write holds one level, so its
    # S-diagonal entries (x, x) are 512 values on 512 diagonal level pairs; S x M_1 blocks over
    # those pairs would need 2 GiB.  Each write copies x into a pure pointer: SBS
    rc, out, peak = _traced(tmp_path, "classify", _wide_sequential(512, 9, state="ground"))
    assert rc == 0
    payload = read_json(out)
    assert payload["sbs_first_component"]["off_diagonal_norm"] == 0.0
    assert payload["sbs_first_component"]["is_sbs"] is True
    assert [c["class"] for c in payload["components"]] == ["sbs", "sbs"]
    assert peak < broadcast.BYTE_BUDGET // 4


def test_classify_swap_into_a_512_outcome_ground_memory_stores_one_row_of_blocks(tmp_path):
    # the swap writes every entry (x, x') of rho_S onto the outcome 0 of the ground level: 512^2
    # S-diagonal entries on 512^2 level pairs, all in the row of outcome 0.  The other 511 rows
    # are empty and stored as no row at all; 512 full rows would need 2 GiB
    cfg = {**_wide_sequential(512, 9, state="ground"), "interaction": {"kind": "swap"}}
    cfg["memory"]["N"] = 1
    rc, out, peak = _traced(tmp_path, "classify", cfg)
    assert rc == 0
    payload = read_json(out)
    assert payload["s_system_final"] == 0.0
    assert payload["sbs_first_component"]["off_diagonal_norm"] == 0.0
    assert payload["sbs_first_component"]["is_sbs"] is True
    assert peak < broadcast.BYTE_BUDGET // 4


def test_the_largest_admitted_sequential_classify_peaks_within_2_25_budgets(tmp_path):
    # d_S = 128 over one 9-qubit Gibbs memory: the write's d_S^2 * 2^9 entries fill the entry
    # list's budget exactly, the largest N = 1 system the entry list admits.  The sort of
    # their keys dominates: 1.83 budgets measured.  (A single 21-qubit memory at d_S = 2 is
    # admitted at the same entry count and peaks higher, 2.6 budgets noninvasive and 3.3 swap)
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 128, "state": "random"},
        "memory": {"N": 1, "n": 9, "beta_omega": 1.0},
    }
    rc, out, peak = _traced(tmp_path, "classify", cfg)
    assert rc == 0
    sbs = read_json(out)["sbs_first_component"]
    assert sbs["off_diagonal_norm"] == pytest.approx(_label_keeping_off_diagonal(cfg), rel=1e-15)
    assert peak <= 2.25 * broadcast.BYTE_BUDGET


@pytest.mark.parametrize("kind", ["swap", "noninvasive"])
def test_the_largest_admitted_single_instance_hl_bound_peaks_within_one_budget(tmp_path, kind):
    # d_S = 2 over one 21-qubit Gibbs memory (n = 22 exits 4): the write step and its report hold
    # a few 2^21-level rows at once, measured at 210.9 MiB for swap and 178.0 MiB for noninvasive
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 1, "n": 21, "beta_omega": 1.0},
        "interaction": {"kind": kind},
    }
    rc, _, peak = _traced(tmp_path, "hl-bound", cfg)
    assert rc == 0
    assert peak <= broadcast.BYTE_BUDGET


@pytest.mark.parametrize("kind", ["swap", "noninvasive"])
def test_the_largest_admitted_two_memory_global_classify_peaks_within_one_budget(tmp_path, kind):
    # two 10-qubit memories merged into one 2^20-level write (n = 11 exits 4 on its entry list):
    # the entry list the budget checks is 96 MiB, the run peaks at 164.1 MiB measured
    cfg = {
        "experiment": "global",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 2, "n": 10, "beta_omega": 1.0},
        "interaction": {"kind": kind},
    }
    rc, _, peak = _traced(tmp_path, "classify", cfg)
    assert rc == 0
    assert peak <= broadcast.BYTE_BUDGET


def test_single_instance_hl_bound_on_a_cold_16_qubit_memory(tmp_path):
    # at beta*omega = 3, 6,885 of the 2^16 Gibbs levels lie below 1e-14 and together carry 3.2e-10
    # nats: every one counts in S(rho_M') and H(tau), as in D(rho_M' || tau), so the Reeb-Wolf
    # identity closes far below RW_TOL
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 1, "n": 16, "beta_omega": 3.0},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    assert read_json(out)["records"][0]["reeb_wolf_residual"] <= 1e-12


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
    # a 30-qubit memory: the indices of its joint basis alone are 16 GiB
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
    # one Gibbs row serves the unit's write and the report; every module's binding of gibbs_rows,
    # which thermal.gibbs calls too, is counted
    gibbs_rows, calls = thermal.gibbs_rows, []

    def counted(*args):
        calls.append(args)
        return gibbs_rows(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("semibroadcast") and getattr(module, "gibbs_rows", None) is gibbs_rows:
            monkeypatch.setattr(module, "gibbs_rows", counted)
    cfg = {"experiment": "sequential", "system": {"d_S": 2, "state": [0.3, 0.7]}, "memory": {"N": 1, "n": 3, "beta_omega": 1.0}}
    rc, _ = run(tmp_path, "hl-bound", config=cfg)
    assert rc == 0
    assert len(calls) == 1


def test_hl_bound_refuses_an_instance_count_beyond_the_byte_budget_before_spawning(
    tmp_path, capsys, monkeypatch
):
    # 10^9 instances: their records alone exceed the budget, so no seed is spawned
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
    # one chunk of HL_CHUNK draws and their seeds, and one stacked pass at a time: a haar pass writes at
    # most HL_HAAR_DEPTH = 8 instances and holds about 5.3 joint-sized arrays per write (6 allowed here),
    # so 48 joints bound it
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
    # 1,100 instances are two chunks of HL_CHUNK = 1,024 draws: k = 37 cuts through the first chunk
    # and its groups, k = 1,024 ends at the first chunk and k = 1,030 cuts through the second
    full = cli.hl_sweep_records(InstancesConfig(count=1100, **inst), seed=11)
    for k in (37, 1024, 1030):
        assert cli.hl_sweep_records(InstancesConfig(count=k, **inst), seed=11) == full[:k]
    # each record is bit-identical to its instance evaluated alone, as a group of one
    cfg = InstancesConfig(count=1100, **inst)
    seeds = np.random.SeedSequence(11).spawn(cfg.count)
    for i in range(0, cfg.count, 7):
        draw = cli.hl_instance_record(i, cfg.d_s[i % len(cfg.d_s)], cfg, seeds[i])
        assert cli._hl_stack([draw], False) == [full[i]]


def test_a_sweep_makes_one_stacked_pass_per_group_of_its_chunk(monkeypatch):
    # the default 500 instances are one chunk: each permutation group is one pass, and a haar
    # group (D <= 3 * 3 * 2 here, far below the budget) is cut only at HL_HAAR_DEPTH writes a pass
    inst = InstancesConfig()
    seeds = np.random.SeedSequence(11).spawn(inst.count)
    sizes = collections.Counter(
        cli._hl_group(cli.hl_instance_record(i, inst.d_s[i % len(inst.d_s)], inst, s)) for i, s in enumerate(seeds)
    )
    stack, passes = cli._hl_stack, []

    def counted(draws, bits):
        passes.append(draws)
        return stack(draws, bits)

    monkeypatch.setattr(cli, "_hl_stack", counted)
    assert len(cli.hl_sweep_records(inst, seed=11)) == inst.count
    keys = [cli._hl_group(draws[0]) for draws in passes]
    assert all(cli._hl_group(d) == key for draws, key in zip(passes, keys) for d in draws)
    permutation = [key for key in keys if key[0] != "haar"]
    assert len(permutation) == len(set(permutation)) == sum(key[0] != "haar" for key in sizes)
    haar = collections.Counter(key for key in keys if key[0] == "haar")
    assert haar == {key: math.ceil(size / cli.HL_HAAR_DEPTH) for key, size in sizes.items() if key[0] == "haar"}


def test_seeds_spawned_chunk_by_chunk_are_the_children_of_one_spawn():
    # a sweep spawns each chunk's seeds as the chunk starts; every draw keeps the seed of one spawn(count)
    count = 2 * cli.HL_CHUNK + 37
    whole = np.random.SeedSequence(11).spawn(count)
    parent = np.random.SeedSequence(11)
    chunked = [s for start in range(0, count, cli.HL_CHUNK) for s in parent.spawn(min(cli.HL_CHUNK, count - start))]
    assert [s.spawn_key for s in chunked] == [s.spawn_key for s in whole]
    assert all(np.array_equal(a.generate_state(4), b.generate_state(4)) for a, b in zip(chunked, whole))


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


def test_one_process_writes_the_bytes_of_fresh_calls(tmp_path):
    # main builds its parser once per process; no flag of one call reaches the next
    calls = [
        ["classify", "--bits"], ["hl-bound"], ["nogo", "--bits"], ["classify"], ["hl-bound", "--bits", "--seed", "3"],
        ["reconstruct"], ["cmax-sweep", "--bits"], ["hl-bound"], ["nogo"], ["reconstruct", "--bits"],
    ]
    cli.build_parser.cache_clear()
    for i, argv in enumerate(calls):
        assert cli.main([*argv, "--out", str(tmp_path / f"shared{i}")]) == 0
    assert cli.build_parser.cache_info().misses == 1
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()
        assert cli.main([*argv, "--out", str(tmp_path / f"fresh{i}")]) == 0
        for name in ("results.json", "results.csv"):
            shared, fresh = (tmp_path / f"{run}{i}" / name for run in ("shared", "fresh"))
            assert shared.read_bytes() == fresh.read_bytes(), (argv, name)


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


INVARIANT_BREAKS = {
    # name: (command, the (object, attribute) its check reads, a value that breaks it, the message)
    "cmax-not-monotone": ("cmax-sweep", (broadcast, "sweep_cmax_convergence"),
                          lambda *a: [(1, 1.0, 0.7), (2, 1.0, 0.6)], "c_max not monotone"),
    "cmax-above-1": ("cmax-sweep", (broadcast, "sweep_cmax_convergence"),
                     lambda *a: [(1, 1.0, 0.9), (2, 1.0, 1.1)], "c_max exceeds 1"),
    "hl-gap": ("hl-bound", (infotherm, "holevo_landauer_gap"), lambda rep: rep.chi * 0.0 - 1.0, "bound gap"),
    "hl-residual": ("hl-bound", (infotherm.ThermoReport, "reeb_wolf_residual"),
                    lambda rep: rep.chi * 0.0 + 1.0, "decomposition residual"),
    "nogo-copies": ("nogo", (broadcast.BroadcastRun, "basis_defects"),
                    property(lambda run: np.zeros(run.dims[0])), "should obstruct copying"),
    "reconstruct-residual": ("reconstruct", (broadcast, "reconstruct_p"),
                             lambda q, c, d: np.full(d, 1.0 / d), "reconstruction residual"),
}


@pytest.mark.parametrize("name", INVARIANT_BREAKS)
def test_each_command_invariant_exits_3_after_writing_its_results(name, tmp_path, monkeypatch, capsys):
    # each command writes its results before it checks its invariants
    command, (owner, attr), broken, message = INVARIANT_BREAKS[name]
    monkeypatch.setattr(owner, attr, broken)
    assert cli.main([command, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err and message in err
    assert (tmp_path / "o" / "results.json").exists()


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
