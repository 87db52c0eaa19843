"""End-to-end command line behavior: outputs, determinism, exit codes."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from semibroadcast import broadcast, cli, interact, qcore, thermal
from semibroadcast.config import InteractionConfig, build_system_state, parse_config
from semibroadcast.errors import SemibroadcastError, WrongKind

LN2 = math.log(2.0)


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("SEMIBROADCAST_THREADS", raising=False)


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


def test_classify_beyond_the_dense_limit_matches_the_closed_form(tmp_path):
    # N = 3 copies of a 4-qubit memory: D = 8192, twice the largest dense state
    cfg = {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random", "seed": 5},
        "memory": {"N": 3, "n": 4, "beta_omega": 0.7},
        "interaction": {"kind": "noninvasive"},
    }
    rc, out = run(tmp_path, "classify", config=cfg)
    assert rc == 0
    # the noninvasive write keeps p, so component i holds sum_x p_x V_x tau V_x^dagger
    p = build_system_state(parse_config(cfg).system).matrix.diagonal().real
    h = thermal.qubit_chain_hamiltonian(4)
    tau = thermal.gibbs(h, 0.7).probs
    perms = interact.build_noninvasive_maxcorr(thermal.group_energies(h, 2)).perms
    mix = np.zeros_like(tau)
    for x in range(2):
        mix[perms[x]] += p[x] * tau
    chi = qcore.shannon_entropy(mix) - qcore.shannon_entropy(tau)
    components = read_json(out)["components"]
    assert len(components) == 3
    for c in components:
        assert c["chi"] == pytest.approx(chi, abs=1e-12)
        # the ensembles are diagonal, so the bracket closes exactly; a thermal
        # memory keeps chi below H(X), so the write is only locally noninvasive
        assert c["i_acc_lower"] == pytest.approx(c["chi"], abs=1e-12)
        assert c["i_acc_upper"] == c["chi"]
        assert c["class"] == "local_noninvasive"


@pytest.mark.parametrize("experiment", ["sequential", "global"])
def test_classify_beyond_the_byte_budget_exits_4_before_allocating(tmp_path, capsys, experiment):
    # N = 3 copies of an 8-qubit memory: an entry list of 4 * 2^24 entries
    cfg = {
        "experiment": experiment,
        "system": {"d_S": 2, "state": "random"},
        "memory": {"N": 3, "n": 8, "beta_omega": 1.0},
    }
    tracemalloc.start()
    try:
        rc, _ = run(tmp_path, "classify", config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "budget" in capsys.readouterr().err
    assert peak < broadcast.BYTE_BUDGET // 8


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


def test_thread_count_does_not_change_results(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMIBROADCAST_THREADS", "1")
    _, out1 = run(tmp_path, "hl-bound", config=HL_SMALL)
    monkeypatch.setenv("SEMIBROADCAST_THREADS", "4")
    rc = cli.main(
        ["hl-bound", "--config", _write(tmp_path, HL_SMALL), "--out", str(tmp_path / "out4")]
    )
    assert rc == 0
    assert (out1 / "results.json").read_bytes() == (tmp_path / "out4" / "results.json").read_bytes()


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


def test_bad_thread_env_exits_2(tmp_path, monkeypatch):
    cfg = _write(tmp_path, HL_SMALL)
    monkeypatch.setenv("SEMIBROADCAST_THREADS", "many")
    assert cli.main(["hl-bound", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    monkeypatch.setenv("SEMIBROADCAST_THREADS", "0")
    assert cli.main(["hl-bound", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2


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
