"""Workload definitions: the jobs each workload runs and the inputs they get.

Every input is a CLI config built from a pool index.  The pools are finite
so that the reference outputs of every entry can be recorded once
(`record_refs.py`) and checked on every run; the workload seed only chooses
which pool entries a run uses and in which order.  Sizes come in two
scales: "full" is the benchmark, "tiny" is for the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("dense-joint", "small-jobs", "analytic-sweep")
SCALES = ("full", "tiny")

DENSE_POOL = 16       # pool entries per dense job kind
HL_POOL = 64          # hl-bound instance-sweep seeds
SMALL_POOL = 512      # tiny classify problems
ROUNDS = 8            # distinct rounds of inputs written per run; later rounds repeat

SWEEP_BETA_OMEGA = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]

SIZES = {
    "full": {
        "dense_n": 5,             # N=2 components of 5 qubits, D = 2 * 32^2 = 2048
        "reconstruct_n": 11,      # one 11-qubit memory, D = 4096
        "ladder_n": (4, 5, 6),    # N=3: D = 8192, 2^16, 2^19
        "hl_jobs": 4,             # hl-bound jobs per round
        "hl_count": 500,          # instances per hl-bound job
        "small_classify": 50,
        "sweep_n_max": 409,
    },
    "tiny": {
        "dense_n": 2,
        "reconstruct_n": 3,
        "ladder_n": (4, 5, 6),
        "hl_jobs": 4,
        "hl_count": 10,
        "small_classify": 6,
        "sweep_n_max": 21,
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `semibroadcast <command> --config <file>`."""

    slot: str        # position in the round; timings are pooled per slot
    command: str     # CLI subcommand
    pool: str        # reference pool the config comes from
    index: int       # pool entry
    items: int       # work items the job completes
    dim: int         # joint dimension D (0 when no state is built)


def _beta_omega(k: int) -> float:
    return round(0.5 + 0.1 * (k % DENSE_POOL), 6)


def _dense_config(kind: str, k: int, scale: str) -> dict:
    n = SIZES[scale]["dense_n"]
    bw = _beta_omega(k)
    if kind == "classify-seq":
        return {
            "experiment": "sequential",
            "system": {"d_S": 2, "state": "random", "seed": 1000 + k},
            "memory": {"N": 2, "n": n, "beta_omega": bw},
            "interaction": {"kind": "noninvasive"},
        }
    if kind == "classify-global":
        return {
            "experiment": "global",
            "system": {"d_S": 2, "state": "random", "seed": 2000 + k},
            "memory": {"N": 2, "n": n, "beta_omega": bw},
            "interaction": {"kind": "swap"},
        }
    if kind == "nogo":
        return {
            "experiment": "nogo",
            "system": {"d_S": 2, "state": "random", "seed": 3000 + k},
            "memory": {"N": 2, "n": n, "beta_omega": bw},
        }
    if kind == "reconstruct":
        p0 = round(float(np.random.default_rng(7000 + k).uniform(0.05, 0.95)), 6)
        return {
            "experiment": "reconstruct",
            "system": {"d_S": 2, "state": [p0, round(1.0 - p0, 6)]},
            "memory": {"N": 1, "n": SIZES[scale]["reconstruct_n"], "beta_omega": bw},
        }
    raise ValueError(kind)


def _ladder_config(n: int, k: int) -> dict:
    return {
        "experiment": "sequential",
        "system": {"d_S": 2, "state": "random", "seed": 4000 + k},
        "memory": {"N": 3, "n": n, "beta_omega": _beta_omega(k)},
        "interaction": {"kind": "noninvasive"},
    }


def _hl_config(k: int, scale: str) -> dict:
    return {
        "experiment": "sequential",
        "seed": 5000 + k,
        "instances": {"count": SIZES[scale]["hl_count"]},
    }


def _small_config(k: int) -> dict:
    """n=1 qubit memories, N in {1,2,3}; noninvasive and swap alternate."""
    return {
        "experiment": "sequential" if k % 2 == 0 else "global",
        "system": {"d_S": 2, "state": "random", "seed": 6000 + k},
        "memory": {"N": 1 + k % 3, "n": 1, "beta_omega": round(0.25 + 0.25 * (k % 12), 6)},
        "interaction": {"kind": "noninvasive" if k % 2 == 0 else "swap"},
    }


def _sweep_config(k: int, scale: str) -> dict:
    return {
        "experiment": "cmax_sweep",
        "sweep": {
            "beta_omega": [SWEEP_BETA_OMEGA[k]],
            "n_min": 1,
            "n_max": SIZES[scale]["sweep_n_max"],
            "n_step": 1,
        },
    }


def pool_config(pool: str, index: int, scale: str) -> dict:
    """The config document of one pool entry."""
    if pool in ("classify-seq", "classify-global", "nogo", "reconstruct"):
        return _dense_config(pool, index, scale)
    if pool.startswith("ladder-n"):
        return _ladder_config(int(pool[len("ladder-n"):]), index)
    if pool == "hl-bound":
        return _hl_config(index, scale)
    if pool == "small-classify":
        return _small_config(index)
    if pool == "cmax-sweep":
        return _sweep_config(index, scale)
    raise ValueError(pool)


def pool_sizes(scale: str) -> dict[str, int]:
    sizes = {
        "classify-seq": DENSE_POOL,
        "classify-global": DENSE_POOL,
        "nogo": DENSE_POOL,
        "reconstruct": DENSE_POOL,
        "hl-bound": HL_POOL,
        "small-classify": SMALL_POOL,
        "cmax-sweep": len(SWEEP_BETA_OMEGA),
    }
    for n in SIZES[scale]["ladder_n"]:
        sizes[f"ladder-n{n}"] = DENSE_POOL
    return sizes


def pool_command(pool: str) -> str:
    if pool in ("classify-seq", "classify-global", "small-classify") or pool.startswith("ladder"):
        return "classify"
    return pool


def rounds(workload: str, seed: int, scale: str) -> list[list[Job]]:
    """ROUNDS rounds of timed jobs; the seed picks pool entries and their order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    size = SIZES[scale]
    out = []
    if workload == "dense-joint":
        n, rn = size["dense_n"], size["reconstruct_n"]
        d = 2 * (2**n) ** 2
        order = rng.permutation(DENSE_POOL)
        for r in range(ROUNDS):
            k = int(order[r % DENSE_POOL])
            out.append([
                Job("classify-seq", "classify", "classify-seq", k, 1, d),
                Job("classify-global", "classify", "classify-global", k, 1, d),
                Job("nogo", "nogo", "nogo", k, 1, d),
                Job("reconstruct", "reconstruct", "reconstruct", k, 1, 2 * 2**rn),
            ])
    elif workload == "small-jobs":
        hl_order = rng.permutation(HL_POOL)
        for r in range(ROUNDS):
            jobs = [
                Job(f"hl-bound-{j}", "hl-bound", "hl-bound",
                    int(hl_order[(r * size["hl_jobs"] + j) % HL_POOL]), size["hl_count"], 0)
                for j in range(size["hl_jobs"])
            ]
            # slot j always gets the same (N, kind) class k = j mod 6, so every
            # round has the same mix; the seed picks the entry within the class
            for j in range(size["small_classify"]):
                k = j % 6 + 6 * int(rng.integers(SMALL_POOL // 6))
                jobs.append(Job(f"classify-{j:02d}", "classify", "small-classify", k, 1,
                                2 * 2 ** (1 + k % 3)))
            out.append(jobs)
    elif workload == "analytic-sweep":
        n = size["sweep_n_max"]
        jobs = [Job(f"cmax-sweep-{k}", "cmax-sweep", "cmax-sweep", k, n, 0)
                for k in range(len(SWEEP_BETA_OMEGA))]
        out = [jobs] * ROUNDS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def ladder(workload: str, seed: int, scale: str) -> list[Job]:
    """Capability-ladder rungs, run once per run after the timed loop."""
    if workload != "dense-joint":
        return []
    k = int(np.random.default_rng([seed, 99]).integers(DENSE_POOL))
    return [
        Job(f"ladder-n{n}", "classify", f"ladder-n{n}", k, 1, 2 * (2**n) ** 3)
        for n in SIZES[scale]["ladder_n"]
    ]


def config_path(root: Path, job: Job) -> Path:
    return root / "configs" / f"{job.pool}-{job.index}.json"


def write_configs(root: Path, jobs, scale: str) -> None:
    """Write each distinct job config once."""
    for path, job in {config_path(root, job): job for job in jobs}.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(pool_config(job.pool, job.index, scale), sort_keys=True))
