"""One capability-ladder rung in a process of its own, under an address-space limit.

Started by worker.py; not meant to be run by hand.  It imports the package,
then caps its own address space (RLIMIT_AS) at what it already maps plus
--limit-bytes, so a dense allocation fails inside this process instead of
exhausting the machine.  It runs one CLI job under tracemalloc and prints
`{"exit", "ms", "peak_alloc_bytes"}` as JSON; exit is null on a crash.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter


def mapped_bytes() -> int:
    """Virtual memory this process maps now (VmSize)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmSize:"):
            return int(line.split()[1]) * 1024
    raise OSError("no VmSize in /proc/self/status")


def cap_address_space(extra_bytes: int) -> None:
    """Let this process map at most `extra_bytes` more than it maps now."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (mapped_bytes() + extra_bytes, hard))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--limit-bytes", type=int, required=True)
    args = parser.parse_args()

    from semibroadcast.cli import main as cli_main

    cap_address_space(args.limit_bytes)
    tracemalloc.start()
    start = perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            code = cli_main(["classify", "--config", args.config, "--out", args.out])
        except BaseException:  # MemoryError under the limit included: a crash, reported as such
            code = None
            traceback.print_exc()
    elapsed = perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    print(json.dumps({"exit": code, "ms": elapsed * 1e3, "peak_alloc_bytes": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
