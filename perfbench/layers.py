"""Per-layer metrics of the traced run and what each one should move.

Each entry: name, unit, better, the end-to-end metrics it should move, the
workloads on which it is nonzero (`on`), and the workloads on which the
mapping predicts exactly zero (`zero_on`).  BENCHMARK.json lists the same
names; the benchmark's tests check both lists against each other and
against traced runs.
"""

from __future__ import annotations

from tracer import CLI_COMMANDS, Tracer, percentile

DJ, SJ, AS = "dense-joint", "small-jobs", "analytic-sweep"
DENSE_WALL = "wall_s, classify_s, nogo_s, reconstruct_s on dense-joint; hl_bound_s on small-jobs"


def _m(name, unit, better, moves, on, zero_on=()):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "on": tuple(on), "zero_on": tuple(zero_on)}


def _pair(span, moves, on, zero_on=()):
    return [
        _m(f"{span}.calls", "count", "lower", moves, on, zero_on),
        _m(f"{span}.self_s", "s", "lower", moves, on, zero_on),
    ]


LAYER_METRICS = [
    *_pair("qcore.DensityOperator", DENSE_WALL, (DJ, SJ), (AS,)),
    _m("qcore.DensityOperator.max_dim", "count", "lower", DENSE_WALL, (DJ, SJ), (AS,)),
    *_pair("qcore.eig", DENSE_WALL, (DJ, SJ), (AS,)),
    _m("qcore.eig.computed_flops", "flop", "lower", DENSE_WALL, (DJ, SJ), (AS,)),
    _m("qcore.eig.validation_share", "ratio", "lower", DENSE_WALL, (DJ, SJ), (AS,)),
    *_pair("qcore.partial_trace", "wall_s on dense-joint and small-jobs", (DJ, SJ), (AS,)),
    *_pair("qcore.von_neumann_entropy", "wall_s on dense-joint and small-jobs", (DJ, SJ), (AS,)),
    *_pair("qcore.relative_entropy", "wall_s (hl_bound_s) on small-jobs", (SJ,), (DJ, AS)),
    *_pair("thermal.gibbs", "hl_bound_s on small-jobs", (DJ, SJ), (AS,)),
    *_pair("thermal.group_energies", "hl_bound_s on small-jobs", (DJ, SJ), (AS,)),
    *_pair("thermal.c_max_qubits_analytic", "cmax_sweep_s and items_per_s on analytic-sweep",
           (AS,), (DJ, SJ)),
    *_pair("interact.apply", "hl_bound_s on small-jobs", (SJ,), (DJ, AS)),
    _m("interact.apply.computed_bytes", "B", "lower", "hl_bound_s on small-jobs", (SJ,), (DJ, AS)),
    *_pair("interact.build", "per-job time on dense-joint and small-jobs", (DJ, SJ), (AS,)),
    *_pair("broadcast.run", "wall_s and peak_rss_mb on dense-joint", (DJ, SJ), (AS,)),
    _m("broadcast.run.max_dim", "count", "higher", "wall_s and peak_rss_mb on dense-joint",
       (DJ, SJ), (AS,)),
    _m("broadcast.run.full_dim_states", "count", "lower",
       "reconstruct_s, nogo_s and peak_rss_mb on dense-joint", (DJ, SJ), (AS,)),
    _m("broadcast.run.computed_bytes", "B", "lower", "wall_s on dense-joint", (DJ, SJ), (AS,)),
    *_pair("broadcast.sweep_cmax_convergence", "cmax_sweep_s on analytic-sweep", (AS,), (DJ, SJ)),
    *_pair("broadcast.reconstruct_p", "reconstruct_s on dense-joint", (DJ,), (SJ, AS)),
    *_pair("infotherm.thermo_report", "hl_bound_s on small-jobs", (SJ,), (DJ, AS)),
    *_pair("infotherm.accessible_info_bracket",
           "classify_s on small-jobs (qubit search) and dense-joint (PGM)", (DJ, SJ), (AS,)),
    _m("infotherm.minimize.calls", "count", "lower", "classify_s on small-jobs", (SJ,), (DJ, AS)),
    _m("infotherm.minimize.nfev", "count", "lower", "classify_s on small-jobs", (SJ,), (DJ, AS)),
    *_pair("infotherm.holevo_chi", "classify_s on dense-joint and small-jobs", (DJ, SJ), (AS,)),
    *_pair("infotherm.sbs_test", "classify_s on dense-joint and small-jobs", (DJ, SJ), (AS,)),
    *_pair("infotherm.conditional_ensemble", "classify_s on dense-joint and small-jobs",
           (DJ, SJ), (AS,)),
    *_pair("config.load_config", "setup_s and per-job time on every workload", (DJ, SJ, AS)),
    *_pair("config.parse_config", "setup_s and per-job time on every workload", (DJ, SJ, AS)),
    *_pair("config.build_memory_array", "setup_s and per-job time on dense-joint and small-jobs",
           (DJ, SJ), (AS,)),
    _m("cli.cmd_classify.self_s", "s", "lower", "classify_s on dense-joint and small-jobs",
       (DJ, SJ), (AS,)),
    _m("cli.cmd_nogo.self_s", "s", "lower", "nogo_s on dense-joint", (DJ,), (SJ, AS)),
    _m("cli.cmd_reconstruct.self_s", "s", "lower", "reconstruct_s on dense-joint", (DJ,), (SJ, AS)),
    _m("cli.cmd_hl_bound.self_s", "s", "lower", "hl_bound_s on small-jobs", (SJ,), (DJ, AS)),
    _m("cli.cmd_cmax_sweep.self_s", "s", "lower", "cmax_sweep_s on analytic-sweep", (AS,), (DJ, SJ)),
    _m("cli.results.bytes", "B", "lower", "each <command>_s on every workload", (DJ, SJ, AS)),
    _m("cli.hl_instance_record.calls", "count", "lower", "hl_bound_s and items_per_s on small-jobs",
       (SJ,), (DJ, AS)),
    _m("cli.hl_instance_record.p50_ms", "ms", "lower", "hl_bound_s and items_per_s on small-jobs",
       (SJ,), (DJ, AS)),
    _m("cli.hl_instance_record.p99_ms", "ms", "lower", "hl_bound_s and items_per_s on small-jobs",
       (SJ,), (DJ, AS)),
    _m("cli.threads", "count", "lower", "hl_bound_s and items_per_s on small-jobs", (DJ, SJ, AS)),
    _m("trace.overhead_frac", "ratio", "lower", "none: traced wall over untraced wall, minus 1", ()),
]

SPAN_PAIRS = {
    m["name"].rsplit(".", 1)[0] for m in LAYER_METRICS if m["name"].endswith(".calls")
}


def layer_values(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from one traced round.

    `extra` supplies what the tracer cannot see: cli.results.bytes,
    cli.threads and trace.overhead_frac.
    """
    stats = tracer.span_stats()
    counters = tracer.counters
    values: dict[str, float] = {}

    def span(name: str) -> dict:
        return stats.get(name, {"calls": 0, "self_s": 0.0, "durations": []})

    for name in SPAN_PAIRS:
        values[f"{name}.calls"] = span(name)["calls"]
        values[f"{name}.self_s"] = span(name)["self_s"]
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.self_s"] = span(f"cli.{cmd}")["self_s"]
    eig_calls = span("qcore.eig")["calls"]
    runs = span("broadcast.run")["calls"]
    values.update({
        "qcore.DensityOperator.max_dim": counters["qcore.DensityOperator.max_dim"],
        "qcore.eig.computed_flops": counters["qcore.eig.computed_flops"],
        "qcore.eig.validation_share":
            counters["qcore.eig.validation_calls"] / eig_calls if eig_calls else 0.0,
        "interact.apply.computed_bytes": counters["interact.apply.computed_bytes"],
        "broadcast.run.max_dim": counters["broadcast.run.max_dim"],
        "broadcast.run.full_dim_states":
            counters["broadcast.run.full_dim_states"] / runs if runs else 0.0,
        "broadcast.run.computed_bytes": counters["broadcast.run.computed_bytes"],
        "infotherm.minimize.nfev": counters["infotherm.minimize.nfev"],
    })
    hl = [d * 1e3 for d in span("cli.hl_instance_record")["durations"]]
    values["cli.hl_instance_record.p50_ms"] = percentile(hl, 50)
    values["cli.hl_instance_record.p99_ms"] = percentile(hl, 99)
    values.update(extra)
    return {m["name"]: values[m["name"]] for m in LAYER_METRICS}
