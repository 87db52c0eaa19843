"""Tests of the benchmark itself, at tiny sizes.  They check the output
schema, the tracer's coverage and the output checks; never a timing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return result


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_run(w, 1)) for w in wl.WORKLOADS}


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert BENCH["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in LAYER_METRICS
    ]


def test_end_to_end_schema():
    result = _result(_run("small-jobs", 0))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_schema_and_correctness(traced):
    names = {m["name"]: m["unit"] for m in LAYER_METRICS}
    for workload, result in traced.items():
        assert result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


@pytest.mark.parametrize("metric", LAYER_METRICS, ids=lambda m: m["name"])
def test_tracer_coverage(traced, metric):
    """Nonzero where the mapping says the layer works, zero where it predicts none."""
    for workload in metric["on"]:
        assert traced[workload]["metrics"][metric["name"]]["value"] > 0, workload
    for workload in metric["zero_on"]:
        assert traced[workload]["metrics"][metric["name"]]["value"] == 0, workload


def test_tracer_rebinds_every_alias_and_restores():
    import semibroadcast.cli as cli
    from semibroadcast import broadcast, config, infotherm, qcore
    from tracer import Tracer

    originals = (broadcast.partial_trace, infotherm.partial_trace, infotherm.minimize,
                 cli.build_memory_array, cli.COMMANDS["classify"], qcore.DensityOperator.__init__)
    with Tracer():
        for module, name in ((broadcast, "partial_trace"), (infotherm, "partial_trace"),
                             (qcore, "partial_trace"), (infotherm, "minimize"),
                             (cli, "build_memory_array"), (config, "build_memory_array"),
                             (cli, "load_config")):
            assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"
        assert hasattr(cli.COMMANDS["classify"], "__wrapped__")
        assert hasattr(qcore.DensityOperator.__init__, "__wrapped__")
    assert originals == (broadcast.partial_trace, infotherm.partial_trace, infotherm.minimize,
                         cli.build_memory_array, cli.COMMANDS["classify"],
                         qcore.DensityOperator.__init__)


def test_self_time_excludes_child_spans():
    from tracer import _union

    assert _union([(1.0, 2.0), (1.5, 3.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(3.0)


def test_ladder_oracle_agrees_with_recorded_dense_runs():
    for scale in wl.SCALES:
        refs = checks.load_refs(scale)["classify-seq"]
        for k in (0, 5, 15):
            want = checks.ladder_oracle(wl.pool_config("classify-seq", k, scale))
            ref = refs[str(k)]
            assert want["h_x"] == pytest.approx(ref["h_x"], abs=1e-12)
            assert want["chi"] == pytest.approx([c["chi"] for c in ref["components"]], abs=1e-12)


def test_checks_flag_changed_values_and_allow_a_tighter_lower_bound():
    ref = checks.load_refs("tiny")["classify-seq"]["0"]
    got = json.loads(json.dumps(ref))
    assert checks.mismatches(got, ref) == []
    got["components"][0]["i_acc_lower"] = got["components"][0]["chi"]
    assert checks.mismatches(got, ref) == []
    got["components"][1]["chi"] *= 1 + 1e-6
    assert checks.mismatches(got, ref) != []
    got = json.loads(json.dumps(ref))
    got["components"][0]["class"] = "none"
    assert checks.mismatches(got, ref) != []


def test_ladder_rungs_are_refused_in_their_own_process(traced):
    report = json.loads((ROOT / ".perfbench_out" / "dense-joint" / "report.json").read_text())
    assert [r["outcome"] for r in report["ladder"]] == ["refused"] * 3
    assert all(r["exit"] == 4 for r in report["ladder"])


def test_rung_limit_stops_a_dense_allocation():
    """Under the rung's cap, allocating a matrix larger than the cap fails
    with MemoryError in that process only."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import numpy as np; import rung; "
            "rung.cap_address_space(64 << 20); "
            "np.ones(8 << 20, dtype=complex)")   # 128 MiB
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "MemoryError" in proc.stderr


def test_every_pool_entry_has_a_reference():
    for scale in wl.SCALES:
        refs = checks.load_refs(scale)
        for pool, size in wl.pool_sizes(scale).items():
            if not pool.startswith("ladder"):
                assert len(refs[pool]) == size, (scale, pool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("analytic-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
