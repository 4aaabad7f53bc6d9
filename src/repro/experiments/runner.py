"""``dcmesh-repro`` console entry point.

Usage::

    dcmesh-repro list                    # show experiment ids
    dcmesh-repro table6                  # run one experiment
    dcmesh-repro all --output results/   # run everything, save CSVs
    dcmesh-repro figure1 --full          # slower, larger accuracy run
    dcmesh-repro table6 --telemetry out/ # + JSONL/Chrome traces, summary
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import List, Optional

from repro.context import fan_out
from repro.core.scheduler import set_adaptive_enabled
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.telemetry.drift import set_drift_enabled


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcmesh-repro",
        description="Reproduce the tables and figures of 'Impact of Varying "
        "BLAS Precision on DCMESH' (SC 2024).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (tableN / figureN), 'all', or 'list'",
    )
    parser.add_argument(
        "--output", "-o", default=None, metavar="DIR",
        help="directory for CSV outputs (created if missing)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the larger (slower) variant of simulation-backed experiments",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="run up to N experiments concurrently (they are independent; "
        "each passes its compute mode explicitly, so the fan-out is safe)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="collect telemetry for the run and export a JSONL event "
        "trace, a Chrome/Perfetto trace, a text summary and a "
        "run_report.md into DIR",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="enable the adaptive precision scheduler ambiently "
        "(REPRO_ADAPTIVE=1 equivalent) for mode-free simulation runs: "
        "every labelled call site starts at BF16 and escalates only when "
        "the live drift approaches the error budget; mode-switch events "
        "land in the telemetry trace and run report.  Runs that pin an "
        "explicit compute mode (the paper's static tables/figures) are "
        "unaffected; the `pareto` experiment always includes an adaptive "
        "run",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="array backend executing the level-3 BLAS products for the "
        "whole invocation: 'numpy' (reference, default), 'torch' "
        "(auto-selects CUDA when available, else CPU), 'torch-cpu' or "
        "'torch-cuda'.  Equivalent to REPRO_BACKEND=NAME but strict: an "
        "unavailable backend aborts instead of degrading to numpy.  "
        "Numerics policy (rounding, splitting, pair ordering) is "
        "backend-independent; see docs/BACKENDS.md for the tolerance "
        "contracts",
    )
    parser.add_argument(
        "--drift-budget", action="store_true",
        help="monitor observable drift against the per-mode error budget "
        "during simulation-backed experiments (REPRO_DRIFT=1 equivalent); "
        "gauges/alerts land in the telemetry trace and run report",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for name, (_, desc) in sorted(EXPERIMENTS.items()):
            print(f"{name:<{width}}  {desc}")
        return 0
    if args.experiment == "all":
        # "report" already runs everything; keep "all" to the artifacts.
        names = sorted(n for n in EXPERIMENTS if n != "report")
    else:
        names = [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid ids: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    if args.backend is not None:
        # Strict selection: a CLI request for an unavailable backend is
        # an error the user wants to hear about, unlike the ambient
        # REPRO_BACKEND env which degrades to numpy with a warning.
        from repro.blas.backend import BackendUnavailable, get_backend, use_backend

        try:
            backend_scope = use_backend(get_backend(args.backend))
        except (BackendUnavailable, ValueError) as exc:
            print(f"--backend {args.backend}: {exc}", file=sys.stderr)
            return 2
    else:
        backend_scope = contextlib.nullcontext()

    if args.telemetry is not None:
        # One collector spans every requested experiment; the traces
        # and the summary table land in the directory on exit.  The
        # collector is thread-safe, so --jobs fan-out is covered too.
        from repro.telemetry import telemetry as telemetry_scope

        scope = telemetry_scope(out_dir=args.telemetry)
    else:
        scope = contextlib.nullcontext()

    # Ambient enablement (reset on every exit path): Simulation.run sees
    # no installed monitor and auto-creates one per run (budget from the
    # first SCF block's ||H_nl||), as REPRO_DRIFT=1 would; --adaptive
    # likewise auto-creates a default AdaptiveScheduler (and the drift
    # monitor it feeds on), as REPRO_ADAPTIVE=1 would.
    if args.drift_budget:
        set_drift_enabled(True)
    if args.adaptive:
        set_adaptive_enabled(True)
    try:
        with backend_scope, scope:
            _run(names, args)
    finally:
        if args.drift_budget:
            set_drift_enabled(None)
        if args.adaptive:
            set_adaptive_enabled(None)
    if args.telemetry is not None:
        print(f"telemetry exported to {args.telemetry}/ "
              "(trace.jsonl, trace.chrome.json, summary.txt, run_report.md)")
    return 0


def _run(names: List[str], args: argparse.Namespace) -> None:
    """Run ``names`` and print their outputs in the serial order."""
    # Independent artifacts fan out over threads (NumPy releases the
    # GIL in the GEMMs); each worker runs in a copy of this context, so
    # --backend applies to it.
    results = fan_out(
        functools.partial(run_experiment, fast=not args.full, output_dir=args.output),
        names,
        max_workers=args.jobs,
    )
    for result in results:
        print(result["text"])
        print()


if __name__ == "__main__":
    raise SystemExit(main())
