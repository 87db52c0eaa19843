"""One workload in one fresh process, through `semibroadcast.cli.main`.

Started by run.py; not meant to be run by hand.  With --setup-only it
only imports the package and parses the workload's configs (a set-up
sample).  Otherwise it runs the workload's rounds of jobs back to back
until --seconds have passed (at least one round), timing a host-speed
probe (hostspeed.py) between jobs, checks every job's outputs, runs the
capability ladder (each rung in a child process, rung.py), optionally runs
one traced round, and writes its measurements as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from checks import check_ladder, check_output, load_refs  # noqa: E402
from hostspeed import NOMINAL_S, probe  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMPLEX_BYTES = 16
RUNG = HERE / "rung.py"
RUNG_LIMIT_BYTES = 2 << 30     # address space a rung may add to what it maps after import
RUNG_TIMEOUT_S = 30.0
PROBE_EVERY_S = 0.5            # a host-speed probe precedes any job starting this long after the last


def setup(run_dir: Path) -> list:
    """Import the package and parse every config of the run."""
    import semibroadcast  # noqa: F401
    from semibroadcast.config import load_config

    return [load_config(p) for p in sorted((run_dir / "configs").glob("*.json"))]


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all its threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def available_memory() -> int:
    """Bytes this process may still use: MemAvailable, capped by a cgroup limit."""
    avail = None
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    if avail is None:
        avail = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    with contextlib.suppress(OSError, ValueError):
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            avail = min(avail, int(limit) - used)
    return avail


def environment() -> dict:
    import numpy as np
    import scipy
    from semibroadcast import cli

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    resolved = cli._threads() if hasattr(cli, "_threads") else None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "SEMIBROADCAST_THREADS": os.environ.get("SEMIBROADCAST_THREADS"),
        "threads_resolved": resolved,
        **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Runner:
    """Runs jobs through the CLI entry point and checks their outputs."""

    def __init__(self, run_dir: Path, scale: str):
        from semibroadcast.cli import main

        self.main = main
        self.run_dir = run_dir
        self.refs = load_refs(scale)
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, job: wl.Job) -> tuple[int | None, float, float, Path]:
        """Run one job; returns (exit code or None on a crash, wall seconds,
        CPU seconds, out dir)."""
        out = self.out_dir(job)
        argv = [job.command, "--config", str(wl.config_path(self.run_dir, job)), "--out", str(out)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start, cpu = perf_counter(), cpu_seconds()
            try:
                code = self.main(argv)
            except Exception:  # a crash is a failed job, not the end of the run
                code = None
                self.failures.append(f"{job.slot}[{job.index}] crashed:\n{traceback.format_exc()}")
            elapsed, cpu = perf_counter() - start, cpu_seconds() - cpu
        return code, elapsed, cpu, out

    def out_dir(self, job: wl.Job) -> Path:
        out = self.run_dir / "out" / job.slot
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def run(self, job: wl.Job) -> tuple[float, float, bool, Path]:
        """Run and check one timed job; returns (wall s, CPU s, ok, out dir)."""
        self.attempted += 1
        code, elapsed, cpu, out = self.call(job)
        if code is None:
            return elapsed, cpu, False, out
        if code != 0:
            self.failures.append(f"{job.slot}[{job.index}] exited {code}")
            return elapsed, cpu, False, out
        ref = self.refs.get(job.pool, {}).get(str(job.index))
        bad = check_output(job.command, out, ref)
        if bad:
            self.failures.append(f"{job.slot}[{job.index}]: " + "; ".join(bad[:5]))
        return elapsed, cpu, not bad, out

    def rung(self, job: wl.Job) -> dict:
        """One capability-ladder rung: refused, ok or failed.

        The rung runs in a child process (rung.py) whose address space is
        capped, so the refusal is always tried and a dense allocation fails
        there instead of taking the machine's memory.  A budget refusal must
        come before the dense joint state exists, so a refusal that
        allocated one D x D complex matrix or more fails.
        """
        self.attempted += 1
        out = self.out_dir(job)
        limit = min(RUNG_LIMIT_BYTES, available_memory() // 2)
        rec = {"dim": job.dim, "limit_bytes": limit}
        try:
            proc = subprocess.run(
                [sys.executable, str(RUNG), "--config", str(wl.config_path(self.run_dir, job)),
                 "--out", str(out), "--limit-bytes", str(limit)],
                capture_output=True, text=True, timeout=RUNG_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:   # run() has killed and reaped the child
            rec["outcome"] = "failed"
            self.failures.append(f"{job.slot} did not finish within {RUNG_TIMEOUT_S:.0f} s")
            return rec
        if proc.returncode != 0:
            rec["outcome"] = "failed"
            self.failures.append(
                f"{job.slot} rung process exited {proc.returncode}:\n{proc.stderr}")
            return rec
        rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        code, peak = rec["exit"], rec["peak_alloc_bytes"]
        if code == 4 and peak >= COMPLEX_BYTES * job.dim * job.dim:
            rec["outcome"] = "failed"
            self.failures.append(f"{job.slot} refused only after allocating {peak} bytes")
        elif code == 4:
            rec["outcome"] = "refused"
        elif code == 0:
            config = json.loads(wl.config_path(self.run_dir, job).read_text())
            bad = check_ladder(out, config)
            rec["outcome"] = "failed" if bad else "ok"
            if bad:
                self.failures.append(f"{job.slot}: " + "; ".join(bad[:5]))
        else:
            rec["outcome"] = "failed"
            self.failures.append(f"{job.slot} exited {code}:\n{proc.stderr}")
        return rec


def timed_loop(runner: Runner, rounds: list[list[wl.Job]], seconds: float):
    """Rounds back to back for `seconds`.  Round 0 always completes; after
    it, no job starts that would end past the deadline at its last pace.
    A host-speed probe runs first, last, and before any job that starts
    PROBE_EVERY_S or more after the previous probe.

    Returns per-slot wall and CPU durations, the probe readings, the largest
    D that finished correctly and the index of the round in which it stopped.
    """
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    probes = [probe()]
    probed = perf_counter()
    max_dim_ok = 0
    deadline = perf_counter() + seconds
    for r in itertools.count():
        for job in rounds[r % len(rounds)]:
            if r and perf_counter() + walls[job.slot][-1] > deadline:
                probes.append(probe())
                return walls, cpus, probes, max_dim_ok, r
            if perf_counter() - probed >= PROBE_EVERY_S:
                probes.append(probe())
                probed = perf_counter()
            elapsed, cpu, ok, _ = runner.run(job)
            walls.setdefault(job.slot, []).append(elapsed)
            cpus.setdefault(job.slot, []).append(cpu)
            if ok:
                max_dim_ok = max(max_dim_ok, job.dim)


def summarize(rounds: list[list[wl.Job]], walls: dict, cpus: dict, probes: list[float]) -> dict:
    """Round wall and CPU time, each the sum over the round's slots of the
    slot's median; the round wall time at the nominal host speed; and the
    wall time per command."""
    first = rounds[0]
    wall = {slot: statistics.median(v) for slot, v in walls.items()}
    cpu = {slot: statistics.median(v) for slot, v in cpus.items()}
    per_cmd: dict[str, float] = {}
    for job in first:
        key = job.command.replace("-", "_") + "_s"
        per_cmd[key] = per_cmd.get(key, 0.0) + wall[job.slot]
    items = sum(job.items for job in first)
    wall_s = sum(wall[job.slot] for job in first)
    return {
        "wall_s": wall_s,
        "wall_norm_s": wall_s * NOMINAL_S / statistics.mean(probes),
        "cpu_s": sum(cpu[job.slot] for job in first),
        "items_per_s": items / wall_s,
        "items_per_round": items,
        "per_command_s": per_cmd,
        "samples_s": walls,
        "cpu_samples_s": cpus,
        "probes_s": probes,
    }


def traced_round(runner: Runner, jobs: list[wl.Job], untraced_wall: float) -> dict:
    from layers import layer_values
    from tracer import Tracer

    tracer = Tracer()
    traced = 0.0
    results_bytes = 0
    with tracer:
        for job in jobs:
            elapsed, _, _, out = runner.run(job)
            traced += elapsed
            results_bytes += sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    threads = environment()["threads_resolved"] or 0
    return layer_values(tracer, {
        "cli.results.bytes": results_bytes,
        "cli.threads": threads,
        "trace.overhead_frac": traced / untraced_wall - 1.0,
    })


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="full")
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent clock at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()

    setup(args.run_dir)
    setup_s = perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = wl.rounds(args.workload, args.seed, args.scale)
    runner = Runner(args.run_dir, args.scale)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus, probes, max_dim_ok, n_rounds = timed_loop(runner, rounds, budget)
    summary = summarize(rounds, walls, cpus, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ladder = []
    for job in wl.ladder(args.workload, args.seed, args.scale):
        rec = runner.rung(job)
        ladder.append(rec)
        if rec["outcome"] == "ok":
            max_dim_ok = max(max_dim_ok, job.dim)
    layers = traced_round(runner, rounds[0], summary["wall_s"]) if args.trace else None
    result = {
        "setup_s": setup_s,
        **summary,
        "rounds": n_rounds,
        "max_dim_ok": max_dim_ok,
        "ladder": ladder,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "environment": environment(),
        "layers": layers,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
