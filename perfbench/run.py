"""Benchmark of semibroadcast: one command per workload run.

    python3 perfbench/run.py --workload dense-joint --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Writes the workload's configs
from --seed, measures set-up time in fresh interpreters, runs the workload
in one fresh worker process through `semibroadcast.cli.main`, checks every
job's outputs against recorded references, and prints each metric with its
unit.  The last line of standard output is the JSON result: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
ENV_DROP = ("SEMIBROADCAST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """The caller's environment with the package source first on the path and
    the thread settings unset, so the program runs with its defaults."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_DROP}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    t0 = perf_counter()
    return subprocess.run(
        [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="full",
                        help="tiny sizes exist for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "semibroadcast" / "cli.py").is_file():
        print(f"no semibroadcast source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    started = perf_counter()
    run_dir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds = wl.rounds(args.workload, args.seed, args.scale)
    jobs = [j for r in rounds for j in r] + wl.ladder(args.workload, args.seed, args.scale)
    wl.write_configs(run_dir, jobs, args.scale)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
              str(args.seconds), "--scale", args.scale, "--run-dir", str(run_dir)]
    setup = []
    for i in range(SETUP_SAMPLES + 1):   # the first start compiles bytecode; not timed
        start = spawn([*common, "--setup-only"], timeout=60)
        if start.returncode != 0:
            print(f"set-up sample failed:\n{start.stderr}", file=sys.stderr)
            return 1
        if i:
            setup.append(json.loads(start.stdout.strip().splitlines()[-1])["setup_s"])

    result_file = run_dir / "worker.json"
    remaining = RUN_LIMIT_S - (perf_counter() - started)
    try:
        work = spawn([*common, "--trace", str(args.trace), "--result", str(result_file)],
                     timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    if work.returncode != 0:
        print(f"worker exited {work.returncode}:\n{work.stderr}", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text())
    setup.append(res["setup_s"])

    e2e = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": res["wall_norm_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": e2e,
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "items_per_s": res["items_per_s"],
        **res["per_command_s"],
        "failed_frac": res["failed"] / res["attempted"],
        "max_dim_ok": res["max_dim_ok"],
        "setup_samples_s": setup,
        **{k: res[k] for k in ("items_per_round", "rounds", "samples_s", "cpu_samples_s",
                               "probes_s", "ladder", "failures", "environment")},
        "layers": res["layers"],
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))

    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    print(f"wall_s {res['wall_s']:.6g} s")
    print(f"cpu_s {res['cpu_s']:.6g} s")
    print(f"items_per_s {res['items_per_s']:.6g} 1/s")
    for name, value in res["per_command_s"].items():
        print(f"{name} {value:.6g} s")
    print(f"failed_frac {report['failed_frac']:.6g} ratio")
    print(f"max_dim_ok {res['max_dim_ok']} count")
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(res["environment"], sort_keys=True))

    if args.trace:
        from layers import LAYER_METRICS

        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in LAYER_METRICS}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
