"""Experiment configuration: strict JSON schema and builders for domain objects.

Unknown keys are rejected everywhere; every check happens before any
computation starts so that a bad config never produces partial output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .broadcast import MemoryArray, MemoryUnit, check_entry_list, check_table, check_units
from .errors import ConfigError
from .interact import KINDS as INTERACTION_KINDS, ControlledInteraction, build
from .qcore import PROB_SUM_TOL, DensityOperator, basis_state, diag_density, random_density
from .thermal import ANALYTIC_N_MAX, MemoryHamiltonian, gibbs, group_energies, qubit_chain_hamiltonian

EXPERIMENTS = ("sequential", "global", "reconstruct", "nogo", "cmax_sweep")
MEMORY_STATES = ("gibbs", "ground")
DEFAULT_SEED = 2024


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _as_real(value, where: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return v


@dataclass(frozen=True)
class SystemConfig:
    d_s: int
    state: object  # "random", diagonal list, or pure basis index
    seed: int


@dataclass(frozen=True)
class HamiltonianConfig:
    type: str
    n: int | None = None
    omega: float = 1.0
    energies: tuple[float, ...] | None = None


@dataclass(frozen=True)
class MemoryConfig:
    n_components: int
    n_qubits: int
    beta_omega: float
    hamiltonian: HamiltonianConfig
    state: str = "gibbs"


@dataclass(frozen=True)
class InteractionConfig:
    kind: str
    variant: int = 0


@dataclass(frozen=True)
class SweepConfig:
    beta_omega: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)
    n_min: int = 1
    n_max: int = 409
    n_step: int = 2


@dataclass(frozen=True)
class InstancesConfig:
    count: int = 500
    d_s: tuple[int, ...] = (2, 3)
    beta_range: tuple[float, float] = (0.0, 3.0)
    max_memory_dim: int = 8


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = DEFAULT_SEED
    system: SystemConfig | None = None
    memory: MemoryConfig | None = None
    interaction: InteractionConfig | None = None
    sweep: SweepConfig = field(default_factory=SweepConfig)
    instances: InstancesConfig | None = None


def _parse_system(section: dict) -> SystemConfig:
    _require_keys(section, {"d_S", "state", "seed"}, {"d_S"}, "system")
    d_s = _as_int(section["d_S"], "system.d_S", minimum=2)
    state = section.get("state", "random")
    if isinstance(state, str):
        if state != "random":
            raise ConfigError(f'system.state string must be "random", got {state!r}')
    elif isinstance(state, list):
        if len(state) != d_s:
            raise ConfigError(f"system.state diagonal needs {d_s} entries, got {len(state)}")
        vals = [_as_real(v, "system.state entry", minimum=0.0) for v in state]
        total = float(np.sum(vals))  # summed as prob_vector sums it
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigError(f"system.state diagonal sums to {total}, not 1 within {PROB_SUM_TOL}")
    elif isinstance(state, int) and not isinstance(state, bool):
        if not 0 <= state < d_s:
            raise ConfigError(f"system.state index {state} outside 0..{d_s - 1}")
    else:
        raise ConfigError(f"system.state must be 'random', a list, or an index, got {state!r}")
    seed = _as_int(section.get("seed", DEFAULT_SEED), "system.seed", minimum=0)
    return SystemConfig(d_s, state, seed)


def _parse_hamiltonian(section: dict, n_qubits: int) -> HamiltonianConfig:
    _require_keys(section, {"type", "n", "omega", "energies"}, {"type"}, "memory.hamiltonian")
    htype = section["type"]
    if htype == "qubit_chain":
        n = _as_int(section.get("n", n_qubits), "memory.hamiltonian.n", minimum=1)
        if n != n_qubits:
            raise ConfigError(
                f"memory.hamiltonian.n={n} disagrees with memory.n={n_qubits}"
            )
        if "energies" in section:
            raise ConfigError("qubit_chain takes no explicit energies")
        omega = _as_real(section.get("omega", 1.0), "memory.hamiltonian.omega")
        if omega <= 0:
            raise ConfigError(f"memory.hamiltonian.omega must be positive, got {omega}")
        return HamiltonianConfig("qubit_chain", n=n, omega=omega)
    if htype == "explicit":
        if "energies" not in section:
            raise ConfigError("explicit Hamiltonian needs an energies list")
        if "n" in section or "omega" in section:
            raise ConfigError("explicit Hamiltonian takes only energies")
        energies = section["energies"]
        if not isinstance(energies, list) or not energies:
            raise ConfigError("memory.hamiltonian.energies must be a nonempty list")
        energies = tuple(_as_real(e, "memory.hamiltonian.energies entry") for e in energies)
        return HamiltonianConfig("explicit", energies=energies)
    raise ConfigError(f"memory.hamiltonian.type must be qubit_chain or explicit, got {htype!r}")


def _parse_memory(section: dict) -> MemoryConfig:
    _require_keys(
        section,
        {"N", "n", "beta_omega", "hamiltonian", "state"},
        {"beta_omega"},
        "memory",
    )
    n_components = _as_int(section.get("N", 1), "memory.N", minimum=1)
    n_qubits = _as_int(section.get("n", 1), "memory.n", minimum=1)
    beta_omega = _as_real(section["beta_omega"], "memory.beta_omega", minimum=0.0)
    ham = _parse_hamiltonian(
        section.get("hamiltonian", {"type": "qubit_chain"}), n_qubits
    )
    state = section.get("state", "gibbs")
    if state not in MEMORY_STATES:
        raise ConfigError(f"memory.state must be one of {MEMORY_STATES}, got {state!r}")
    return MemoryConfig(n_components, n_qubits, beta_omega, ham, state)


def _parse_interaction(section: dict) -> InteractionConfig:
    _require_keys(section, {"kind", "i"}, {"kind"}, "interaction")
    kind = section["kind"]
    if kind not in INTERACTION_KINDS:
        raise ConfigError(f"interaction.kind must be one of {INTERACTION_KINDS}, got {kind!r}")
    variant = _as_int(section.get("i", 0), "interaction.i", minimum=0)
    if kind != "cycled" and "i" in section:
        raise ConfigError('interaction.i is only meaningful for kind "cycled"')
    return InteractionConfig(kind, variant)


def _parse_sweep(section: dict) -> SweepConfig:
    _require_keys(section, {"beta_omega", "n_min", "n_max", "n_step"}, set(), "sweep")
    defaults = SweepConfig()
    bw = section.get("beta_omega", list(defaults.beta_omega))
    if not isinstance(bw, list) or not bw:
        raise ConfigError("sweep.beta_omega must be a nonempty list")
    beta_omega = tuple(_as_real(b, "sweep.beta_omega entry", minimum=0.0) for b in bw)
    n_min = _as_int(section.get("n_min", defaults.n_min), "sweep.n_min", minimum=1)
    n_max = _as_int(section.get("n_max", defaults.n_max), "sweep.n_max", minimum=n_min)
    n_step = _as_int(section.get("n_step", defaults.n_step), "sweep.n_step", minimum=1)
    if n_max > ANALYTIC_N_MAX:
        raise ConfigError(f"sweep.n_max={n_max} beyond the stable range ({ANALYTIC_N_MAX})")
    return SweepConfig(beta_omega, n_min, n_max, n_step)


def _parse_instances(section: dict) -> InstancesConfig:
    _require_keys(
        section, {"count", "d_S", "beta_range", "max_memory_dim"}, set(), "instances"
    )
    defaults = InstancesConfig()
    count = _as_int(section.get("count", defaults.count), "instances.count", minimum=1)
    d_s_list = section.get("d_S", list(defaults.d_s))
    if not isinstance(d_s_list, list) or not d_s_list:
        raise ConfigError("instances.d_S must be a nonempty list")
    d_s = tuple(_as_int(d, "instances.d_S entry", minimum=2) for d in d_s_list)
    br = section.get("beta_range", list(defaults.beta_range))
    if not isinstance(br, list) or len(br) != 2:
        raise ConfigError("instances.beta_range must be [low, high]")
    lo = _as_real(br[0], "instances.beta_range[0]", minimum=0.0)
    hi = _as_real(br[1], "instances.beta_range[1]", minimum=lo)
    max_dim = _as_int(
        section.get("max_memory_dim", defaults.max_memory_dim),
        "instances.max_memory_dim",
        minimum=max(d_s),
    )
    return InstancesConfig(count, d_s, (lo, hi), max_dim)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and return the typed configuration."""
    _require_keys(
        doc,
        {"experiment", "seed", "system", "memory", "interaction", "sweep", "instances"},
        {"experiment"},
        "config",
    )
    experiment = doc["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    seed = _as_int(doc.get("seed", DEFAULT_SEED), "seed", minimum=0)
    system = _parse_system(doc["system"]) if "system" in doc else None
    memory = _parse_memory(doc["memory"]) if "memory" in doc else None
    interaction = _parse_interaction(doc["interaction"]) if "interaction" in doc else None
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else SweepConfig()
    instances = _parse_instances(doc["instances"]) if "instances" in doc else None

    if experiment == "cmax_sweep":
        for key in ("system", "memory", "interaction", "instances"):
            if key in doc:
                raise ConfigError(f"cmax_sweep takes no {key} section")
    else:
        if "sweep" in doc:
            raise ConfigError(f"{experiment} takes no sweep section")
    if system is not None and interaction is not None and interaction.variant > system.d_s - 2:
        raise ConfigError(
            f"interaction.i={interaction.variant} outside the cycled variants 0..{system.d_s - 2}"
        )
    if system is not None and memory is not None and memory_dim(memory) % system.d_s:
        raise ConfigError(
            f"system.d_S={system.d_s} does not divide the memory's {memory_dim(memory)} levels"
        )
    if experiment == "reconstruct":
        if system is None or memory is None:
            raise ConfigError("reconstruct needs system and memory sections")
        if memory.n_components != 1:
            raise ConfigError("reconstruct uses a single component (memory.N = 1)")
        if interaction is not None and interaction.kind != "cycled":
            raise ConfigError("reconstruct interactions are the cycled variants")
        if interaction is not None and "i" in doc["interaction"]:
            raise ConfigError("reconstruct runs every cycled variant; it takes no interaction.i")
    if experiment == "nogo":
        if system is None or memory is None:
            raise ConfigError("nogo needs system and memory sections")
        if memory.n_components < 2:
            raise ConfigError("nogo needs at least two memory components (memory.N >= 2)")
    if experiment in ("sequential", "global") and instances is None:
        if system is None or memory is None:
            raise ConfigError(f"{experiment} needs system and memory sections")
    return ExperimentConfig(experiment, seed, system, memory, interaction, sweep, instances)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def build_system_state(cfg: SystemConfig) -> DensityOperator:
    if isinstance(cfg.state, str):
        return random_density(cfg.d_s, cfg.seed)
    if isinstance(cfg.state, list):
        return diag_density(cfg.state)
    return basis_state(cfg.d_s, cfg.state)


def build_unit_hamiltonian(cfg: MemoryConfig) -> MemoryHamiltonian:
    if cfg.hamiltonian.type == "qubit_chain":
        return qubit_chain_hamiltonian(cfg.hamiltonian.n, cfg.hamiltonian.omega)
    return MemoryHamiltonian(np.array(cfg.hamiltonian.energies))


def memory_dim(cfg: MemoryConfig) -> int:
    """Level count of one memory unit, read from the config without building it."""
    if cfg.hamiltonian.type == "qubit_chain":
        return 2**cfg.hamiltonian.n
    return len(cfg.hamiltonian.energies)


def unit_beta(cfg: MemoryConfig) -> float:
    scale = cfg.hamiltonian.omega if cfg.hamiltonian.type == "qubit_chain" else 1.0
    return cfg.beta_omega / scale


def check_memory(memory: MemoryConfig, d_s: int) -> None:
    """Refuse, from the config's dimensions and before anything is built, a unit whose joint basis, write-step
    entry list (every level of a Gibbs memory is occupied, one of a ground memory) or per-unit run state
    exceeds the byte budget; a global run checks the product of the units itself."""
    d_m = memory_dim(memory)
    check_units(d_s, memory.n_components)
    check_table(d_s, d_m)
    check_entry_list(d_s, d_m if memory.state == "gibbs" else 1)


def build_interaction(interaction: InteractionConfig | None, h: MemoryHamiltonian, d_s: int) -> ControlledInteraction:
    """The unit's interaction; without an interaction section, the noninvasive one."""
    kind, variant = (interaction.kind, interaction.variant) if interaction else ("noninvasive", 0)
    return build(group_energies(h, d_s), kind, variant)


def build_memory_array(
    memory: MemoryConfig,
    interaction: InteractionConfig | None,
    d_s: int,
) -> MemoryArray:
    """Assemble the memory array for one scenario, after `check_memory`.

    Every unit starts in the same level populations: Gibbs, or the ground
    state (the lowest level, ties to the lowest index).  The unit is built
    once and shared by every component.
    """
    check_memory(memory, d_s)
    h = build_unit_hamiltonian(memory)
    if memory.state == "gibbs":
        probs = gibbs(h, unit_beta(memory)).probs
    else:
        probs = np.zeros(h.dim)
        probs[np.argmin(h.energies)] = 1.0
    unit = MemoryUnit(h, probs, build_interaction(interaction, h, d_s))
    return MemoryArray(d_s, [unit] * memory.n_components)
