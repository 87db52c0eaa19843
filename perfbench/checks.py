"""Output checks: the values of each results.json that are compared with references.

Values are compared numerically, not byte for byte, so that fields added to
results.json later (a provenance block, say) do not read as failures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ATOL = 1e-10
RTOL = 1e-9

REFS_DIR = Path(__file__).resolve().parent / "refs"


def extract(command: str, payload: dict) -> dict:
    """The checked values of one command's results.json payload."""
    if command == "classify":
        return {
            "h_x": payload["h_x"],
            "components": [
                {k: c[k] for k in ("class", "chi", "i_acc_lower", "i_acc_upper")}
                for c in payload["components"]
            ],
        }
    if command == "nogo":
        w = payload["witness"]
        return {
            "basis_defects": [r["defect"] for r in payload["basis_defects"]],
            "witness": {k: w.get(k) for k in ("applicable", "k", "lhs", "rhs", "violated")},
        }
    if command == "reconstruct":
        return {k: payload[k] for k in ("c_max", "q_variants", "p_reconstructed", "max_residual")}
    if command == "hl-bound":
        s = payload["summary"]
        return {k: s[k] for k in ("instances", "min_gap", "max_reeb_wolf_residual")}
    if command == "cmax-sweep":
        return {"c_max": [r["c_max"] for r in payload["rows"]]}
    raise ValueError(command)


def _close(a, b) -> bool:
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def mismatches(got, ref, where: str = "") -> list[str]:
    """Paths at which `got` differs from `ref`; empty when they agree."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        if "i_acc_lower" in ref:
            return _component(got, ref, where)
        out = []
        for k in ref:
            out += mismatches(got[k], ref[k], f"{where}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += mismatches(g, r, f"{where}[{i}]")
        return out
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if _close(float(got), ref) else [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def _component(got: dict, ref: dict, where: str) -> list[str]:
    """A classify component.  The accessible-information lower bound is a
    bracket end: it may tighten towards chi but not loosen."""
    out = []
    for k in ("class", "chi", "i_acc_upper"):
        out += mismatches(got[k], ref[k], f"{where}.{k}")
    lower, chi = got["i_acc_lower"], got["chi"]
    slack = ATOL + RTOL * abs(ref["i_acc_lower"])
    if not (ref["i_acc_lower"] - slack <= lower <= chi + ATOL + RTOL * abs(chi)):
        out.append(f"{where}.i_acc_lower: {lower!r} outside [{ref['i_acc_lower']!r}, chi]")
    return out


def _entropy(p) -> float:
    p = p[p > 1e-14]
    return float(-(p * np.log(p)).sum())


def ladder_oracle(config: dict) -> dict:
    """h_x and per-component chi of a sequential noninvasive classify run on
    identical Gibbs qubit-chain memories, from classical distributions only.

    The noninvasive write keeps the system diagonal, so component i holds the
    Gibbs state shifted by the outcome x: chi = H(sum_x p_x V_x tau) - H(tau).
    This needs O(d_S * D_M) work, so it checks rungs far above the dense budget.
    """
    sys_cfg, mem = config["system"], config["memory"]
    d_s, n = sys_cfg["d_S"], mem["n"]
    rng = np.random.default_rng(sys_cfg["seed"])
    g = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
    diag = np.real(np.diag(g @ g.conj().T))
    p = diag / diag.sum()
    energies = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    w = np.exp(-mem["beta_omega"] * energies)
    tau = w / w.sum()
    groups = np.argsort(energies, kind="stable").reshape(d_s, -1)
    mix = np.zeros_like(tau)
    for x in range(d_s):
        if p[x] <= 1e-14:
            continue
        shifted = np.empty_like(tau)
        for nu in range(d_s):
            shifted[groups[(x + nu) % d_s]] = tau[groups[nu]]
        mix += p[x] * shifted
    chi = _entropy(mix) - _entropy(tau)
    return {"h_x": _entropy(p), "chi": [chi] * mem["N"]}


def check_ladder(out_dir: Path, config: dict) -> list[str]:
    """Outputs of a ladder rung that ran, against `ladder_oracle`."""
    try:
        payload = json.loads((out_dir / "results.json").read_text())
        got = extract("classify", payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable results: {exc}"]
    want = ladder_oracle(config)
    out = mismatches(got["h_x"], want["h_x"], ".h_x")
    out += mismatches([c["chi"] for c in got["components"]], want["chi"], ".chi")
    for i, c in enumerate(got["components"]):
        if not c["i_acc_lower"] <= c["i_acc_upper"] + ATOL:
            out.append(f".components[{i}]: bracket inverted")
    return out


def load_refs(scale: str) -> dict:
    path = REFS_DIR / f"{scale}.json"
    return json.loads(path.read_text())["pools"]


def check_output(command: str, out_dir: Path, ref) -> list[str]:
    """Compare the results.json in `out_dir` with a reference entry."""
    try:
        payload = json.loads((out_dir / "results.json").read_text())
        got = extract(command, payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable results: {exc}"]
    if ref is None:
        return ["no reference recorded"]
    return mismatches(got, ref)
