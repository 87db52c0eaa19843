"""Config schema validation and the builders that turn configs into objects."""

import tracemalloc

import numpy as np
import pytest

from semibroadcast import config as cfgmod
from semibroadcast.broadcast import run_global
from semibroadcast.config import (
    HamiltonianConfig,
    InteractionConfig,
    MemoryConfig,
    SystemConfig,
    build_memory_array,
    build_system_state,
    build_unit_hamiltonian,
    load_config,
    parse_config,
    unit_beta,
)
from semibroadcast.errors import ConfigError, DimensionBudgetExceeded
from semibroadcast.qcore import diag_density


def minimal(experiment="sequential", **extra):
    doc = {
        "experiment": experiment,
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "beta_omega": 1.0},
    }
    doc.update(extra)
    return doc


# a three-level memory, for configs with d_S = 3
LADDER3 = {"beta_omega": 1.0, "hamiltonian": {"type": "explicit", "energies": [0, 1, 2]}}


# ------------------------------------------------------------------ parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(minimal())
    assert cfg.experiment == "sequential"
    assert cfg.seed == cfgmod.DEFAULT_SEED
    assert cfg.system.d_s == 2
    assert cfg.memory.n_components == 1
    assert cfg.memory.n_qubits == 1
    assert cfg.memory.hamiltonian.type == "qubit_chain"
    assert cfg.memory.state == "gibbs"
    assert cfg.interaction is None
    assert cfg.instances is None
    assert cfg.sweep.beta_omega == (0.1, 0.25, 0.5, 1.0)
    assert (cfg.sweep.n_min, cfg.sweep.n_max, cfg.sweep.n_step) == (1, 409, 2)


def test_root_validation():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config(minimal(extra_key=1))
    with pytest.raises(ConfigError):
        parse_config(minimal(experiment="warp"))
    with pytest.raises(ConfigError):
        parse_config(minimal(seed=-1))
    with pytest.raises(ConfigError):
        parse_config(minimal(seed=True))


def test_system_section_validation():
    bad_sections = [
        {"state": [0.5, 0.5]},  # d_S missing
        {"d_S": 1},
        {"d_S": 2, "state": "thermal"},
        {"d_S": 2, "state": [0.3, 0.3, 0.4]},
        {"d_S": 2, "state": [0.3, 0.6]},
        {"d_S": 2, "state": [-0.1, 1.1]},
        {"d_S": 2, "state": 2},
        {"d_S": 2, "state": 1.5},
        {"d_S": 2, "seed": -3},
        {"d_S": 2, "purity": 1},
    ]
    for section in bad_sections:
        with pytest.raises(ConfigError):
            parse_config(minimal(system=section))
    cfg = parse_config(minimal(system={"d_S": 3, "state": 2, "seed": 7}, memory=LADDER3))
    assert cfg.system == SystemConfig(3, 2, 7)


def test_memory_section_validation():
    bad_sections = [
        {},  # beta_omega missing
        {"beta_omega": -0.5},
        {"beta_omega": 1.0, "N": 0},
        {"beta_omega": 1.0, "n": 0},
        {"beta_omega": 1.0, "state": "boiling"},
        {"beta_omega": 1.0, "volume": 3},
    ]
    for section in bad_sections:
        with pytest.raises(ConfigError):
            parse_config(minimal(memory=section))


def test_hamiltonian_section_validation():
    bad_hams = [
        {"type": "harmonic"},
        {"type": "qubit_chain", "n": 2},  # disagrees with memory.n = 1
        {"type": "qubit_chain", "omega": 0.0},
        {"type": "qubit_chain", "energies": [0.0, 1.0]},
        {"type": "explicit"},
        {"type": "explicit", "energies": []},
        {"type": "explicit", "energies": [0.0, 1.0], "n": 1},
        {"type": "explicit", "energies": [0.0, "x"]},
    ]
    for ham in bad_hams:
        with pytest.raises(ConfigError):
            parse_config(minimal(memory={"beta_omega": 1.0, "hamiltonian": ham}))
    cfg = parse_config(
        minimal(memory={"beta_omega": 1.0, "n": 2, "hamiltonian": {"type": "qubit_chain", "omega": 0.5}})
    )
    assert cfg.memory.hamiltonian == HamiltonianConfig("qubit_chain", n=2, omega=0.5)
    cfg = parse_config(minimal(system={"d_S": 3}, memory=LADDER3))
    assert cfg.memory.hamiltonian.energies == (0.0, 1.0, 2.0)


def test_interaction_section_validation():
    with pytest.raises(ConfigError):
        parse_config(minimal(interaction={"kind": "telepathic"}))
    with pytest.raises(ConfigError):
        parse_config(minimal(interaction={"kind": "swap", "i": 1}))
    with pytest.raises(ConfigError):
        parse_config(minimal(interaction={"kind": "cycled", "i": -1}))
    with pytest.raises(ConfigError):
        parse_config(minimal(interaction={"kind": "cycled", "phase": 0}))
    cfg = parse_config(
        minimal(
            interaction={"kind": "cycled", "i": 1}, system={"d_S": 3, "state": [0.2, 0.3, 0.5]}, memory=LADDER3
        )
    )
    assert cfg.interaction == InteractionConfig("cycled", 1)


def test_interaction_variant_must_exist_for_the_system_dimension():
    # d_S = 2 has the single cycled variant 0
    with pytest.raises(ConfigError, match="cycled variants 0..0"):
        parse_config(minimal(interaction={"kind": "cycled", "i": 1}))
    with pytest.raises(ConfigError):
        parse_config(minimal("global", interaction={"kind": "cycled", "i": 5}))
    assert parse_config(minimal(interaction={"kind": "cycled", "i": 0})).interaction.variant == 0


def test_sweep_section_validation():
    base = {"experiment": "cmax_sweep"}
    bad_sweeps = [
        {"beta_omega": []},
        {"beta_omega": 1.0},
        {"n_min": 0},
        {"n_min": 9, "n_max": 5},
        {"n_max": 1030},
        {"n_step": 0},
        {"betas": [1.0]},
    ]
    for sw in bad_sweeps:
        with pytest.raises(ConfigError):
            parse_config({**base, "sweep": sw})
    cfg = parse_config({**base, "sweep": {"beta_omega": [0.5], "n_max": 9}})
    assert cfg.sweep.beta_omega == (0.5,)
    assert cfg.sweep.n_max == 9


def test_instances_section_validation():
    base = {"experiment": "sequential"}
    bad = [
        {"count": 0},
        {"d_S": []},
        {"d_S": 2},
        {"d_S": [1]},
        {"beta_range": [2.0, 1.0]},
        {"beta_range": [-1.0, 1.0]},
        {"beta_range": [0.0]},
        {"max_memory_dim": 1},
        {"replicas": 3},
    ]
    for inst in bad:
        with pytest.raises(ConfigError):
            parse_config({**base, "instances": inst})
    cfg = parse_config({**base, "instances": {}})
    assert cfg.instances.count == 500
    assert cfg.instances.d_s == (2, 3)
    assert cfg.instances.beta_range == (0.0, 3.0)
    assert cfg.instances.max_memory_dim == 8


def test_experiment_section_compatibility_rules():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "cmax_sweep", "system": {"d_S": 2}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "cmax_sweep", "instances": {}})
    with pytest.raises(ConfigError):
        parse_config(minimal(sweep={"n_max": 5}))
    with pytest.raises(ConfigError):
        parse_config({"experiment": "reconstruct", "system": {"d_S": 2}})
    with pytest.raises(ConfigError):
        parse_config(
            {
                "experiment": "reconstruct",
                "system": {"d_S": 2},
                "memory": {"N": 2, "beta_omega": 1.0},
            }
        )
    with pytest.raises(ConfigError):
        parse_config(
            {
                "experiment": "reconstruct",
                "system": {"d_S": 2},
                "memory": {"N": 1, "beta_omega": 1.0},
                "interaction": {"kind": "swap"},
            }
        )
    with pytest.raises(ConfigError):
        parse_config(
            {
                "experiment": "nogo",
                "system": {"d_S": 2},
                "memory": {"N": 1, "beta_omega": 1.0},
            }
        )
    for missing in ("system", "memory"):
        doc = {"experiment": "nogo", "system": {"d_S": 2}, "memory": {"N": 2, "beta_omega": 1.0}}
        del doc[missing]
        with pytest.raises(ConfigError, match="nogo needs system and memory"):
            parse_config(doc)
    with pytest.raises(ConfigError):
        parse_config({"experiment": "sequential"})
    # an instances-only run needs no system or memory section
    cfg = parse_config({"experiment": "sequential", "instances": {"count": 3}})
    assert cfg.system is None and cfg.memory is None


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    # Python's json reads Infinity and NaN as floats: the number check refuses them
    for value in ("Infinity", "-Infinity", "NaN"):
        bad.write_text(f'{{"experiment": "nogo", "system": {{"d_S": 2}}, "memory": {{"N": 2, "beta_omega": {value}}}}}')
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(bad)
    good = tmp_path / "good.json"
    good.write_text('{"experiment": "cmax_sweep", "seed": 5}')
    assert load_config(good).seed == 5


# ----------------------------------------------------------------- builders


def test_build_system_state_variants():
    rand = build_system_state(SystemConfig(3, "random", 11))
    again = build_system_state(SystemConfig(3, "random", 11))
    assert np.array_equal(rand.matrix, again.matrix)
    other = build_system_state(SystemConfig(3, "random", 12))
    assert not np.allclose(other.matrix, rand.matrix)

    diag = build_system_state(SystemConfig(2, [0.3, 0.7], 0))
    assert np.allclose(diag.matrix, np.diag([0.3, 0.7]))

    basis = build_system_state(SystemConfig(4, 2, 0))
    assert basis.matrix[2, 2] == 1.0


def test_build_unit_hamiltonian_and_beta():
    chain = MemoryConfig(1, 2, 1.0, HamiltonianConfig("qubit_chain", n=2, omega=0.5))
    h = build_unit_hamiltonian(chain)
    assert sorted(h.absolute_energies().tolist()) == [0.0, 0.5, 0.5, 1.0]
    assert unit_beta(chain) == pytest.approx(2.0)  # beta = (beta*omega) / omega

    explicit = MemoryConfig(
        1, 1, 0.7, HamiltonianConfig("explicit", energies=(0.0, 0.3, 1.1))
    )
    h = build_unit_hamiltonian(explicit)
    assert h.absolute_energies().tolist() == [0.0, 0.3, 1.1]
    assert unit_beta(explicit) == pytest.approx(0.7)


def test_build_memory_array_components_and_state():
    mem_cfg = MemoryConfig(3, 1, 1.0, HamiltonianConfig("qubit_chain", n=1))
    mem = build_memory_array(mem_cfg, InteractionConfig("swap"), 2)
    assert len(mem.units) == 3
    assert all(u.interaction.kind == "swap" for u in mem.units)
    w0 = 1.0 / (1.0 + np.exp(-1.0))
    assert np.allclose(mem.units[0].probs, [w0, 1.0 - w0])

    ground_cfg = MemoryConfig(
        1, 1, 1.0, HamiltonianConfig("explicit", energies=(0.5, 0.1)), state="ground"
    )
    mem = build_memory_array(ground_cfg, None, 2)
    assert np.allclose(mem.units[0].probs, [0.0, 1.0])


def test_build_memory_array_builds_each_distinct_unit_once():
    mem_cfg = MemoryConfig(3, 1, 1.0, HamiltonianConfig("qubit_chain", n=1))
    mem = build_memory_array(mem_cfg, InteractionConfig("cycled"), 2)
    assert mem.units[0] is mem.units[1] is mem.units[2]


@pytest.mark.parametrize("n", [2, 5])
def test_memory_dim_reads_the_level_count_from_the_config(n):
    chain = MemoryConfig(1, n, 1.0, HamiltonianConfig("qubit_chain", n=n))
    explicit = MemoryConfig(1, 1, 1.0, HamiltonianConfig("explicit", energies=tuple(range(n))))
    for mem_cfg in (chain, explicit):
        assert cfgmod.memory_dim(mem_cfg) == build_unit_hamiltonian(mem_cfg).dim


@pytest.mark.parametrize("state", ["gibbs", "ground"])
def test_build_memory_array_refuses_an_oversized_table_before_building(state):
    # 2^30 levels: the indices of the joint basis alone are 16 GiB, and the Hamiltonian is never built
    mem_cfg = MemoryConfig(1, 30, 1.0, HamiltonianConfig("qubit_chain", n=30), state=state)
    with pytest.raises(DimensionBudgetExceeded):
        build_memory_array(mem_cfg, None, 2)


def test_global_run_bounds_the_entry_list_of_every_occupied_level():
    # N = 3 copies of an 8-qubit memory: the global write holds 4 * 2^24 entries for Gibbs
    # units, 4 for ground units; each unit's own write holds 4 * 2^8
    gibbs_cfg = MemoryConfig(3, 8, 1.0, HamiltonianConfig("qubit_chain", n=8))
    mem = build_memory_array(gibbs_cfg, None, 2)
    assert mem.dims == (256, 256, 256)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded):
            run_global(diag_density([0.4, 0.6]), mem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    ground_cfg = MemoryConfig(3, 8, 1.0, HamiltonianConfig("qubit_chain", n=8), state="ground")
    assert build_memory_array(ground_cfg, None, 2).dims == (256, 256, 256)
