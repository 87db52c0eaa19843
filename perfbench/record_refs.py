"""Record the reference outputs of every pool entry into perfbench/refs/<scale>.json.

    python3 perfbench/record_refs.py --scale full

Run it only on a commit whose outputs are trusted; the committed files were
recorded from the source tree that this benchmark was first added to.
Ladder pools are not recorded: their rungs are checked by an oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from semibroadcast.cli import main  # noqa: E402

from checks import REFS_DIR, extract  # noqa: E402
from workloads import SCALES, pool_command, pool_config, pool_sizes  # noqa: E402


def record(scale: str) -> None:
    doc = {"pools": {}}
    work = ROOT / ".perfbench_out" / "record"
    for pool, size in pool_sizes(scale).items():
        if pool.startswith("ladder"):
            continue
        command = pool_command(pool)
        entries = {}
        for k in range(size):
            shutil.rmtree(work, ignore_errors=True)
            (work / "out").mkdir(parents=True)
            cfg = work / "config.json"
            cfg.write_text(json.dumps(pool_config(pool, k, scale)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(work / "out")])
            if code != 0:
                raise SystemExit(f"{pool}[{k}] exited {code}; not recording")
            payload = json.loads((work / "out" / "results.json").read_text())
            entries[str(k)] = extract(command, payload)
        doc["pools"][pool] = entries
        print(f"recorded {pool}: {size} entries", file=sys.stderr)
    doc["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    REFS_DIR.mkdir(exist_ok=True)
    (REFS_DIR / f"{scale}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=SCALES, required=True)
    args = parser.parse_args()
    record(args.scale)
