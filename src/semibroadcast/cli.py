"""Command line front end.

Subcommands: cmax-sweep, hl-bound, nogo, reconstruct, classify.
Each writes results.json (full report) and, where tabular, results.csv
(12 significant digits, '.' decimal separator) into --out.  Runs are
deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 invariant violation, 4 domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import broadcast, infotherm, interact, qcore, thermal
from .config import (
    ExperimentConfig,
    InstancesConfig,
    build_interaction,
    build_memory_array,
    build_system_state,
    build_unit_hamiltonian,
    check_memory,
    load_config,
    parse_config,
    unit_beta,
)
from .errors import ConfigError, SemibroadcastError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_DOMAIN = 4

GAP_TOL = 1e-9
RW_TOL = 1e-10
# the peak that cmd_hl_bound holds per instance of a sweep: the instance's record and its CSV
# row (json.dump streams the JSON text), with one chunk's draws, seeds and stacked passes spread
# over the instances.  tracemalloc measures at most 1,985 B per instance through `main` in a
# fresh process on 2,000-instance sweeps (the default, --bits, d_S in {2}, {3}, {4} and
# {2, 3, 4}; 1,044 B at 20,000); the constant is 9% above
RECORD_BYTES = 2160
# instances of a sweep drawn, then evaluated together, at a time
HL_CHUNK = 1024
# the most haar writes in one stacked pass, each holding about 5.3 joint-sized arrays at its peak
HL_HAAR_DEPTH = 8

SCHEMA_VERSION = 1
LN2 = math.log(2.0)


class InvariantViolation(SemibroadcastError):
    """A numerical invariant the command promises did not hold."""


def _write_json(out_dir: Path, payload: dict) -> None:
    with (out_dir / "results.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(out_dir: Path, header: list[str], rows: list[list]) -> None:
    with (out_dir / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def _entropic(value: float, bits: bool) -> float:
    return value / LN2 if bits else value


# ----------------------------------------------------------------- commands


def cmd_cmax_sweep(cfg: ExperimentConfig, out_dir: Path, bits: bool) -> dict:
    sw = cfg.sweep
    n_values = range(sw.n_min, sw.n_max + 1, sw.n_step)
    rows = broadcast.sweep_cmax_convergence(n_values, sw.beta_omega)
    _write_csv(out_dir, ["n", "beta_omega", "c_max"], [list(r) for r in rows])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "cmax-sweep",
        "beta_omega": list(sw.beta_omega),
        "n_range": [sw.n_min, sw.n_max, sw.n_step],
        "rows": [{"n": n, "beta_omega": bw, "c_max": c} for n, bw, c in rows],
    }
    _write_json(out_dir, payload)
    by_bw: dict[float, list] = {}
    for n, bw, c in rows:
        by_bw.setdefault(bw, []).append((n, c))
    for bw, series in by_bw.items():
        values = [c for _, c in series]
        if any(b > a + 1e-12 for a, b in zip(values[1:], values)):
            raise InvariantViolation(f"c_max not monotone for beta_omega={bw}")
        if any(c > 1.0 + 1e-12 for c in values):
            raise InvariantViolation(f"c_max exceeds 1 for beta_omega={bw}")
    for bw in sorted(by_bw):
        series = by_bw[bw]
        print(
            f"beta*omega={bw:g}: c_max {series[0][1]:.9f} (n={series[0][0]}) "
            f"-> {series[-1][1]:.9f} (n={series[-1][0]})"
        )
    return payload


def _hl_rows(rho: np.ndarray, tau: thermal.GibbsRows, kind: str, u, bits: bool, indices) -> list[dict]:
    """The hl-bound records of the writes of the stack rho_S into the Gibbs memories tau, one
    thermo_report for the whole stack; record i carries indices[i].  `bits` converts the
    entropic fields; reeb_wolf_residual stays in nats, the unit of RW_TOL."""
    report = infotherm.thermo_report(rho, tau, u)
    entropic = {
        "entropy_production": report.sigma_prod,
        "beta_heat": report.delta_q,
        "delta_s_system": report.delta_s_system,
        "delta_s_memory": report.delta_s_m,
        "beta_delta_f_memory": report.beta_delta_f,
        "mutual_info": report.mutual_info,
        "rel_entropy_to_thermal": report.rel_entropy_to_thermal,
        "chi": report.chi,
        "gap": infotherm.holevo_landauer_gap(report),
    }
    columns = {name: _entropic(values, bits).tolist() for name, values in entropic.items()}
    columns["beta"] = tau.beta.tolist()
    columns["delta_e_memory"] = report.delta_e_m.tolist()
    columns["reeb_wolf_residual"] = report.reeb_wolf_residual().tolist()
    d_s, d_m = rho.shape[-1], tau.probs.shape[-1]
    return [
        {"d_S": d_s, "d_M": d_m, "kind": kind, **{name: values[i] for name, values in columns.items()}, "index": index}
        for i, index in enumerate(indices)
    ]


def _hl_single(cfg: ExperimentConfig, bits: bool) -> dict:
    d_s = cfg.system.d_s
    # the budget checks first, as for classify: the unit's joint basis and its write step's entry list
    check_memory(cfg.memory, d_s)
    h = build_unit_hamiltonian(cfg.memory)
    tau = thermal.gibbs_rows(h.absolute_energies()[None], [unit_beta(cfg.memory)])
    u = build_interaction(cfg.interaction, h, d_s)
    # the sweep's evaluation, on a stack of one
    return _hl_rows(build_system_state(cfg.system).matrix[None], tau, u.kind, u, bits, [0])[0]


class HLDraw(NamedTuple):
    """One drawn instance of the random sweep: its memory, temperature and write, and the
    seeds of its system state and, for a haar write, of its joint unitary."""

    index: int
    d_s: int
    hamiltonian: thermal.MemoryHamiltonian
    beta: float
    kind: str
    variant: int
    rho_seed: int
    u_seed: int | None


def hl_instance_record(index: int, d_s: int, inst: InstancesConfig, seed) -> HLDraw:
    """Draw instance `index` of the random sweep from its own seed sequence `seed`.

    One call per instance, so that perfbench's tracer can count the draws by
    name.  It draws and builds nothing beyond the memory Hamiltonian:
    hl_sweep_records evaluates the draws group by group.
    """
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, inst.max_memory_dim // d_s + 1))
    d_m = d_s * r
    if d_m >= 2 and (d_m & (d_m - 1)) == 0 and rng.random() < 0.5:
        h = thermal.qubit_chain_hamiltonian(int(math.log2(d_m)), 1.0)
    else:
        h = thermal.MemoryHamiltonian(np.sort(rng.uniform(0.0, 3.0, d_m)))
    beta = float(rng.uniform(*inst.beta_range))
    kinds = interact.KINDS + ("haar",)
    kind = kinds[index % len(kinds)]
    u_seed, variant = None, 0
    if kind == "haar":
        u_seed = rng.integers(0, 2**63 - 1)
    elif kind == "cycled":
        variant = int(rng.integers(0, d_s - 1))
    return HLDraw(index, d_s, h, beta, kind, variant, rng.integers(0, 2**63 - 1), u_seed)


def _hl_group(draw: HLDraw) -> tuple:
    """What the draws of one stacked pass share: a haar write its d_S and d_M, a permutation
    write its interaction, fixed by d_S, the kind, the variant and the grouping's level order."""
    if draw.kind == "haar":
        return draw.kind, draw.d_s, draw.hamiltonian.dim
    order = np.argsort(draw.hamiltonian.energies, kind="stable")
    return draw.kind, draw.d_s, draw.variant, order.tobytes()


def _hl_stack(draws: list[HLDraw], bits: bool) -> list[dict]:
    """The records of draws of one group, in one stacked pass."""
    first = draws[0]
    d_s = first.d_s
    tau = thermal.gibbs_rows(np.stack([d.hamiltonian.absolute_energies() for d in draws]), [d.beta for d in draws])
    rho = qcore.random_states(d_s, [d.rho_seed for d in draws])
    if first.kind == "haar":
        u = qcore.haar_unitaries(d_s * first.hamiltonian.dim, [d.u_seed for d in draws])
    else:
        u = interact.build(thermal.group_energies(first.hamiltonian, d_s), first.kind, first.variant)
    return _hl_rows(rho, tau, first.kind, u, bits, [d.index for d in draws])


def _hl_chunk_records(draws: list[HLDraw], bits: bool) -> list[dict]:
    """The records of `draws`, in their order, one stacked pass per group; a haar group is
    stacked only as deep as keeps its joint states within the byte budget of one."""
    groups: dict[tuple, list[int]] = {}
    for k, draw in enumerate(draws):
        groups.setdefault(_hl_group(draw), []).append(k)
    records = [None] * len(draws)
    for group in groups.values():
        first, depth = draws[group[0]], len(group)
        if first.kind == "haar":
            d = first.d_s * first.hamiltonian.dim
            depth = min(HL_HAAR_DEPTH, max(1, broadcast.BYTE_BUDGET // (broadcast.COMPLEX_BYTES * d * d)))
        for i in range(0, len(group), depth):
            part = group[i : i + depth]
            for k, record in zip(part, _hl_stack([draws[k] for k in part], bits)):
                records[k] = record
    return records


def hl_sweep_records(inst: InstancesConfig, seed: int, bits: bool = False) -> list[dict]:
    """Every record of the random sweep: HL_CHUNK instances are drawn, each from its own seed,
    and then evaluated together.  A chunk spawns its seeds from the sweep's one parent sequence
    as it starts; spawning chunk by chunk gives the children of one spawn(count), in index order."""
    parent = np.random.SeedSequence(seed)
    records = []
    for start in range(0, inst.count, HL_CHUNK):
        seeds = parent.spawn(min(HL_CHUNK, inst.count - start))
        records += _hl_chunk_records(
            [hl_instance_record(i, inst.d_s[i % len(inst.d_s)], inst, s) for i, s in enumerate(seeds, start)], bits
        )
    return records


def cmd_hl_bound(cfg: ExperimentConfig, out_dir: Path, bits: bool) -> dict:
    inst = cfg.instances
    if inst is not None:
        # a sweep's haar writes build dense d_S * d_M joint states, refused at the largest d_S * d_M
        # it can draw (d_M = d_S * r with r <= max_memory_dim // d_S) before the first write
        d = max(d_s * d_s * (inst.max_memory_dim // d_s) for d_s in inst.d_s)
        broadcast.check_budget(broadcast.COMPLEX_BYTES * d * d, "dense joint state")
        broadcast.check_budget(RECORD_BYTES * inst.count, "instance records")
        records = hl_sweep_records(inst, cfg.seed, bits)
    else:
        records = [_hl_single(cfg, bits)]
    # a nan anywhere is the summary's value, so that the invariant checks below fail on it
    min_gap = min((r["gap"] for r in records), key=lambda v: (not math.isnan(v), v))
    max_rw = max((r["reeb_wolf_residual"] for r in records), key=lambda v: (math.isnan(v), v))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "hl-bound",
        "units": "bits" if bits else "nats",
        "records": records,
        "summary": {
            "instances": len(records),
            "min_gap": min_gap,
            "max_reeb_wolf_residual": max_rw,
        },
    }
    _write_json(out_dir, payload)
    header = [
        "index", "d_S", "d_M", "beta", "kind", "entropy_production", "chi",
        "beta_delta_f_memory", "gap", "reeb_wolf_residual",
    ]
    _write_csv(out_dir, header, [[r[k] for k in header] for r in records])
    print(f"{len(records)} instance(s): min gap {min_gap:.3e}, max identity residual {max_rw:.3e}")
    # Each check takes differences of rounded terms that reach beta * dE.  The residual of Sigma, I and D over
    # d_M levels rounds 8 d_M + 7 times (<E> before and after and <ln tau>, 2 d_M - 1 each; ln tau, 2 per level;
    # 10 sums and products), the gap of Sigma, chi and beta dF_M fewer, each within eps / 2 of its result, doubled
    # for rounded inputs: so each allows that many eps times the sum of its terms' magnitudes; no infinite term
    nats = LN2 if bits else 1.0  # the entropic fields in nats, the unit of both tolerances
    for r in records:
        c = (8 * r["d_M"] + 7) * sys.float_info.epsilon * nats
        floor = -GAP_TOL - c * (abs(r["entropy_production"]) + abs(r["chi"]) + abs(r["beta_delta_f_memory"]))
        if not r["gap"] * nats >= floor > -math.inf:
            raise InvariantViolation(f"bound gap {r['gap']} of instance {r['index']} below {floor / nats}")
        ceiling = RW_TOL + c * (abs(r["entropy_production"]) + abs(r["mutual_info"]) + abs(r["rel_entropy_to_thermal"]))
        if not r["reeb_wolf_residual"] <= ceiling < math.inf:
            raise InvariantViolation(f"decomposition residual {r['reeb_wolf_residual']} of instance {r['index']} above {ceiling}")
    return payload


def cmd_nogo(cfg: ExperimentConfig, out_dir: Path, bits: bool) -> dict:
    d_s = cfg.system.d_s
    mem = build_memory_array(cfg.memory, cfg.interaction, d_s)
    # one run from the uniform input carries the run from every basis input
    run = broadcast.run_sequential_local(qcore.diag_density(np.full(d_s, 1.0 / d_s)), mem)
    defect_rows = [{"input": x, "defect": float(d)} for x, d in enumerate(run.basis_defects)]
    worst = max(r["defect"] for r in defect_rows)
    rho_s = build_system_state(cfg.system)
    s_rho = qcore.von_neumann_entropy(rho_s)
    h_x = qcore.shannon_entropy(rho_s.matrix.diagonal().real)
    s_m1 = qcore.shannon_entropy(mem.units[0].probs)
    if s_m1 > 0.0:
        wit = broadcast.nogo_witness(s_rho, s_m1, h_x, d_s)
        witness = {
            "applicable": True,
            "s_rho_s": _entropic(s_rho, bits),
            "s_m1": _entropic(s_m1, bits),
            "h_x": _entropic(h_x, bits),
            "k": wit.k,
            "lhs": _entropic(wit.lhs, bits) if wit.lhs is not None else None,
            "rhs": _entropic(wit.rhs, bits) if wit.rhs is not None else None,
            "violated": wit.violated,
        }
    else:
        witness = {"applicable": False, "reason": "memory entropy is zero"}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "nogo",
        "units": "bits" if bits else "nats",
        "n_components": len(mem.units),
        "memory_state": cfg.memory.state,
        "basis_defects": defect_rows,
        "worst_defect": worst,
        "witness": witness,
    }
    _write_json(out_dir, payload)
    _write_csv(out_dir, ["input", "defect"], [[r["input"], r["defect"]] for r in defect_rows])
    if witness.get("violated"):
        print(
            f"worst statistics defect {worst:.3e}; witness at k={witness['k']}: "
            f"lhs {witness['lhs']:.5f} > rhs {witness['rhs']:.5f}"
        )
    else:
        print(f"worst statistics defect {worst:.3e}; no finite-k witness")
    # from some basis input every kind puts each upper sector weight W_nu / sum(W), nu > 0, of the shared unit on a
    # wrong outcome: no defect is below their largest (0 if they underflow), up to the d_S eps of the rows' sums
    w = mem.units[0].grouping.readout(mem.units[0].probs)
    floor = float((w[1:] / w.sum()).max())
    if not worst >= floor * (1 - d_s * sys.float_info.epsilon):
        raise InvariantViolation(f"thermal memories should obstruct copying by at least {floor}, defect {worst}")
    return payload


def cmd_reconstruct(cfg: ExperimentConfig, out_dir: Path, bits: bool) -> dict:
    d_s = cfg.system.d_s
    # the budget checks first: they bound the d_S x d_S system state too
    unit = build_memory_array(cfg.memory, None, d_s).units[0]
    rho_s = build_system_state(cfg.system)
    p_true = qcore.prob_vector(rho_s.matrix.diagonal().real)
    w = unit.grouping.readout(unit.probs)  # variant i's pointer map is its sector map mu_i on the sector weights
    cmax = float(w[0])  # c_max, the coldest sector's weight
    q_variants = [
        p_true @ interact.sector_matrix(interact.build(unit.grouping, "cycled", i).sectors[1], w) for i in range(d_s - 1)
    ]
    p_hat = broadcast.reconstruct_p(q_variants, cmax, d_s)
    residual = float(np.max(np.abs(p_hat - p_true)))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reconstruct",
        "d_S": d_s,
        "c_max": cmax,
        "q_variants": [list(map(float, q)) for q in q_variants],
        "p_true": list(map(float, p_true)),
        "p_reconstructed": list(map(float, p_hat)),
        "max_residual": residual,
    }
    _write_json(out_dir, payload)
    rows = [[i, y, float(val)] for i, q in enumerate(q_variants) for y, val in enumerate(q)]
    _write_csv(out_dir, ["variant", "outcome", "q"], rows)
    print(f"c_max={cmax:.9f}; reconstruction residual {residual:.3e}")
    if residual > 1e-9:
        raise InvariantViolation(f"reconstruction residual {residual} above 1e-9")
    return payload


def cmd_classify(cfg: ExperimentConfig, out_dir: Path, bits: bool) -> dict:
    # the budget checks first: they bound the d_S x d_S system state too
    mem = build_memory_array(cfg.memory, cfg.interaction, cfg.system.d_s)
    rho_s = build_system_state(cfg.system)
    if cfg.experiment == "global":
        kind = cfg.interaction.kind if cfg.interaction else "swap"
        variant = cfg.interaction.variant if cfg.interaction else 0
        run = broadcast.run_global(rho_s, mem, kind, variant)
    else:
        run = broadcast.run_sequential_local(rho_s, mem)
    h_x = qcore.shannon_entropy(run.p_initial)
    # every write is a complete record, so rho_S' is diagonal: the diagonal the chain carries
    s_final = qcore.shannon_entropy(run.system_diag_history[-1])
    components = []
    for i, rows in enumerate(run.ensembles()):
        lower, chi = infotherm.accessible_info_bracket(run.p_initial, rows)
        evidence = infotherm.Table1Evidence(lower, chi, h_x, s_final, s_final)
        components.append(
            {
                "component": i,
                "class": infotherm.classify_table1(evidence),
                "i_acc_lower": _entropic(lower, bits),
                "i_acc_upper": _entropic(chi, bits),
                "chi": _entropic(chi, bits),
            }
        )
    sbs = infotherm.sbs_test(run.first_marginal)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "units": "bits" if bits else "nats",
        "mode": run.mode,
        "h_x": _entropic(h_x, bits),
        "s_system_final": _entropic(s_final, bits),
        "s_system_final_diag": _entropic(s_final, bits),
        "statistics_defect": broadcast.ideal_scb_defect(run),
        "components": components,
        "sbs_first_component": {
            "off_diagonal_norm": sbs.off_diagonal_norm,
            "conditional_overlap": sbs.conditional_overlap,
            "is_sbs": sbs.is_sbs,
        },
    }
    _write_json(out_dir, payload)
    header = ["component", "class", "i_acc_lower", "i_acc_upper", "chi"]
    _write_csv(out_dir, header, [[c[k] for k in header] for c in components])
    for c in components:
        print(f"component {c['component']}: {c['class']}")
    return payload


# ------------------------------------------------------------------- driver

DEFAULT_CONFIGS = {
    "cmax-sweep": {"experiment": "cmax_sweep"},
    "hl-bound": {"experiment": "sequential", "instances": {}},
    "nogo": {
        "experiment": "nogo",
        "system": {"d_S": 2, "state": 0},
        "memory": {"N": 2, "n": 1, "beta_omega": 1.0},
    },
    "reconstruct": {
        "experiment": "reconstruct",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0},
    },
    "classify": {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": [0.3, 0.7]},
        "memory": {"N": 1, "n": 1, "beta_omega": 1.0},
        "interaction": {"kind": "noninvasive"},
    },
}

COMMANDS = {
    "cmax-sweep": cmd_cmax_sweep,
    "hl-bound": cmd_hl_bound,
    "nogo": cmd_nogo,
    "reconstruct": cmd_reconstruct,
    "classify": cmd_classify,
}

EXPECTED_EXPERIMENTS = {
    "cmax-sweep": ("cmax_sweep",),
    "hl-bound": ("sequential",),
    "nogo": ("nogo",),
    "reconstruct": ("reconstruct",),
    "classify": ("sequential", "global"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args leaves it unchanged, so every
    main call shares it."""
    parser = argparse.ArgumentParser(
        prog="semibroadcast",
        description="Broadcasting measurement statistics into thermal memories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the config seed, and system.seed for a random system state",
        )
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--bits", action="store_true", help="report entropic quantities in bits"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = parse_config(DEFAULT_CONFIGS[args.command])
        if cfg.experiment not in EXPECTED_EXPERIMENTS[args.command]:
            raise ConfigError(
                f"{args.command} expects experiment in "
                f"{EXPECTED_EXPERIMENTS[args.command]}, got {cfg.experiment!r}"
            )
        if cfg.instances is not None:
            # only an hl-bound sweep reads instances, and it reads nothing else
            if args.command != "hl-bound":
                raise ConfigError(f"{args.command} takes no instances section")
            ignored = [key for key in ("system", "memory", "interaction") if getattr(cfg, key) is not None]
            if ignored:
                raise ConfigError(f"an hl-bound instance sweep takes no {', '.join(ignored)} section")
        elif args.command == "hl-bound":
            # one instance writes into one Gibbs memory; beta * dE is undefined for a ground one
            if cfg.memory.state != "gibbs" or cfg.memory.n_components != 1:
                raise ConfigError("single-instance hl-bound needs memory.N = 1 and a gibbs memory")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            system = cfg.system
            if system is not None and system.state == "random":
                system = replace(system, seed=args.seed)
            cfg = replace(cfg, seed=args.seed, system=system)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out}: {exc}") from exc
        COMMANDS[args.command](cfg, args.out, args.bits)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SemibroadcastError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
