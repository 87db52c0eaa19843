"""Layer tracer: wraps the public functions of each semibroadcast module.

The package binds names at import time (`from .qcore import partial_trace`,
`from scipy.optimize import minimize`, the `COMMANDS` table in `cli`), so
wrapping the defining module alone would miss most calls.  `install` rebinds
every alias of a wrapped function in every loaded `semibroadcast` module,
including dict values, and `uninstall` restores the originals.

Spans are kept in memory as (name, parent, start, end).  A span's self time
is its duration minus the union of its children's intervals, so work done
in pool threads on behalf of a command is not counted twice.  A span that
starts on a thread with no open span takes the innermost open span of the
installing thread as its parent.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

CLI_COMMANDS = ("cmd_classify", "cmd_nogo", "cmd_reconstruct", "cmd_hl_bound", "cmd_cmax_sweep")

# span name -> (module, attribute) of each function it wraps
SPANS = {
    "qcore.partial_trace": [("qcore", "partial_trace")],
    "qcore.von_neumann_entropy": [("qcore", "von_neumann_entropy")],
    "qcore.relative_entropy": [("qcore", "relative_entropy")],
    "thermal.gibbs": [("thermal", "gibbs")],
    "thermal.group_energies": [("thermal", "group_energies")],
    "thermal.c_max_qubits_analytic": [("thermal", "c_max_qubits_analytic")],
    "interact.apply": [("interact", "apply")],
    "interact.build": [
        ("interact", "build_noninvasive_maxcorr"),
        ("interact", "build_cycled_variant"),
        ("interact", "build_unbiased_swap"),
    ],
    "broadcast.run": [("broadcast", "run_sequential_local"), ("broadcast", "run_global")],
    "broadcast.sweep_cmax_convergence": [("broadcast", "sweep_cmax_convergence")],
    "broadcast.reconstruct_p": [("broadcast", "reconstruct_p")],
    "infotherm.thermo_report": [("infotherm", "thermo_report")],
    "infotherm.accessible_info_bracket": [("infotherm", "accessible_info_bracket")],
    "infotherm.holevo_chi": [("infotherm", "holevo_chi")],
    "infotherm.sbs_test": [("infotherm", "sbs_test")],
    "infotherm.conditional_ensemble": [("infotherm", "conditional_ensemble")],
    "infotherm.minimize": [("infotherm", "minimize")],
    "config.load_config": [("config", "load_config")],
    "config.parse_config": [("config", "parse_config")],
    "config.build_memory_array": [("config", "build_memory_array")],
    "cli.hl_instance_record": [("cli", "hl_instance_record")],
    **{f"cli.{c}": [("cli", c)] for c in CLI_COMMANDS},
}
DENSITY = "qcore.DensityOperator"
EIG = "qcore.eig"
RUN = "broadcast.run"
PERMUTATION_KERNEL = ("broadcast", "_apply_permutation")
COMPLEX_BYTES = 16


class _Frame:
    __slots__ = ("index", "name", "dim")

    def __init__(self, index: int, name: str, dim: int = 0):
        self.index = index
        self.name = name
        self.dim = dim


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, dim: int = 0) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent.index if parent else -1, perf_counter(), None])
        frame = _Frame(index, name, dim)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        self.spans[frame.index][3] = perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def _wrap(self, name: str, func, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            dim = before(args, kwargs) if before else 0
            frame = tracer._open(name, dim)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # ------------------------------------------------------ hooks

    def _density_before(self, args, kwargs):
        matrix = args[1] if len(args) > 1 else kwargs["matrix"]
        dim = int(np.shape(matrix)[0]) if np.ndim(matrix) == 2 else 0
        self.maximum(f"{DENSITY}.max_dim", dim)
        for frame in reversed(self._stack()):
            if frame.name == RUN:
                if dim == frame.dim:
                    self.add(f"{RUN}.full_dim_states", 1)
                break
        return dim

    def _eig_before(self, args, kwargs):
        dim = int(np.shape(args[0])[-1])
        self.add(f"{EIG}.computed_flops", float(dim) ** 3)
        stack = self._stack()
        if stack and stack[-1].name == DENSITY:
            self.add(f"{EIG}.validation_calls", 1)
        return dim

    def _run_before(self, args, kwargs):
        mem = args[1] if len(args) > 1 else kwargs["mem"]
        dim = int(mem.total_dim())
        self.maximum(f"{RUN}.max_dim", dim)
        return dim

    def _apply_before(self, args, kwargs):
        u = args[0] if args else kwargs["u"]
        dim = int(u.d_s * u.d_m)
        self.add("interact.apply.computed_bytes", 2 * dim * dim * COMPLEX_BYTES)
        return dim

    def _minimize_after(self, args, kwargs, result):
        self.add("infotherm.minimize.nfev", int(getattr(result, "nfev", 0)))

    # ------------------------------------------------------ install

    def _rebind(self, original, replacement) -> None:
        """Point every alias of `original` in the package at `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "semibroadcast" or mod_name.startswith("semibroadcast.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = replacement

    def install(self) -> None:
        import semibroadcast
        from semibroadcast import qcore

        self._root_stack = self._stack()
        hooks = {
            RUN: self._run_before,
            "interact.apply": self._apply_before,
        }
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                module = getattr(semibroadcast, mod_name)
                original = getattr(module, attr)
                after = self._minimize_after if name == "infotherm.minimize" else None
                self._rebind(original, self._wrap(name, original, hooks.get(name), after))

        cls = qcore.DensityOperator
        init = cls.__init__
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._wrap(DENSITY, init, self._density_before)

        for attr in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(EIG, original, self._eig_before))

        module, attr = PERMUTATION_KERNEL
        kernel = getattr(getattr(semibroadcast, module), attr, None)
        if kernel is not None:
            def counted(matrix, pi, _kernel=kernel):
                d = int(np.shape(matrix)[0])
                self.add(f"{RUN}.computed_bytes", 2 * d * d * COMPLEX_BYTES)
                return _kernel(matrix, pi)
            self._rebind(kernel, counted)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------ summary

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, parent, start, end in self.spans:
            if parent >= 0 and end is not None:
                children[parent].append((start, end))
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for index, (name, _, start, end) in enumerate(self.spans):
            if end is None:
                continue
            covered = _union(children.get(index, []), start, end)
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["durations"].append(end - start)
        return stats


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
