"""Benchmark of the real DCMESH QD-step loop (``Simulation.run``).

Run one workload from the repository root::

    python3 qdbench/run.py --workload fp32_lfd --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  ``--workload all`` runs every workload, untraced
then traced, each in a fresh interpreter.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every trajectory passed its
checks.  See ``qdbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Ambient switches of the program that would change what is measured.
CLEARED_ENV = (
    "MKL_BLAS_COMPUTE_MODE",
    "MKL_VERBOSE",
    "REPRO_OZAKI_SLICES",
    "REPRO_BACKEND",
    "REPRO_TELEMETRY",
    "REPRO_TELEMETRY_MAX_EVENTS",
    "REPRO_DRIFT",
    "REPRO_ADAPTIVE",
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]

    from qdbench import report, selfcheck, spec
    from qdbench.host import provenance
    from qdbench.workloads import (
        ACCURACY_SEED,
        DigestStore,
        Run,
        as_timed,
        end_to_end,
        execute,
        per_layer,
    )

    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    problems = selfcheck.run_all()
    if problems:
        print("error: self-checks failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 3

    prov = provenance(ROOT, args.seed)
    digests = DigestStore(OUT / "digests.json", prov["source_sha256"])
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), digests)
    execute(run)
    e2e = end_to_end(run)
    timed = as_timed(run)
    layer = per_layer(run) if run.trace else {}
    digests.save()

    lines = report.header(prov, run, ACCURACY_SEED) + report.trajectories(run)
    if run.trace:
        metrics, wanted = layer, [n for n, _ in spec.PER_LAYER]
    else:
        metrics, wanted = e2e, [n for n, _, _ in spec.END_TO_END]
        lines += report.end_to_end(e2e, timed, run)
    lines += report.envelope(run) + report.mode_table(run)
    if run.trace:
        lines += report.per_layer(layer, run)
    print("\n".join(lines))

    result = report.result_line(run, {n: metrics[n] for n in wanted if n in metrics})
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        result["correct"] = False

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        provenance=prov,
        end_to_end=e2e,
        as_timed=timed,
        per_layer=layer,
        trajectories=[
            {k: v for k, v in vars(t).items() if k != "step_ms"}
            for t in run.trajectories
        ],
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.trace:
        run.tracer.write(OUT / f"{tag}-spans.csv.gz")

    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter
    (``ru_maxrss`` only ever rises within one)."""
    sys.path[:0] = [str(ROOT)]
    from qdbench.spec import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            proc = subprocess.run(
                cmd + ["--trace", trace], stdout=subprocess.PIPE, text=True, check=False
            )
            print(proc.stdout, end="", flush=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    # Single-threaded BLAS baseline: set before NumPy first loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    # Import the benchmark as the ``qdbench`` package from the repository
    # root, not as loose modules from this script's directory.
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        del sys.path[0]
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
