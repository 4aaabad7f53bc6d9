#!/usr/bin/env python
"""CI smoke run of the QD-loop benchmark.

Runs every qdbench workload for a few seconds, untraced and traced::

    python3 qdbench/run.py --workload all --seconds 5 --trace 1

and fails unless that exits 0 with ``"failed": 0`` in its last line.
The traced run wraps program functions by name, so this is the run that
breaks when an internal name the benchmark hooks into moves.  Run via
``make qdbench-smoke`` or directly (about a minute on two cores):

    python scripts/qdbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMAND = ["qdbench/run.py", "--workload", "all", "--seconds", "5", "--trace", "1"]


def main() -> int:
    proc = subprocess.run(
        [sys.executable, *COMMAND], cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
        check=False,
    )
    print(proc.stdout, end="", flush=True)
    try:
        failed = json.loads(proc.stdout.strip().splitlines()[-1])["failed"]
    except (IndexError, KeyError, ValueError):
        failed = None
    if proc.returncode != 0 or failed != 0:
        print(
            f"qdbench smoke: exit code {proc.returncode}, failed operations {failed}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
