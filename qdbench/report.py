"""Human-readable report: machine and software first, then tables."""

from __future__ import annotations

import statistics
from typing import Dict, List

from qdbench.spec import END_TO_END, PER_LAYER, UNITS
from qdbench.yardstick import REFERENCE_PERCENTILE_S


def _fmt(value: float) -> str:
    if value == 0 or 1e-3 <= abs(value) < 1e5:
        return f"{value:.6g}"
    return f"{value:.4e}"


def _table(title: str, rows: List[tuple], head: tuple) -> List[str]:
    lines = [title, "| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return lines + [""]


def header(prov: dict, run, accuracy_seed: int) -> List[str]:
    mode = "traced" if run.trace else "untraced"
    return [
        f"# qdbench · {run.workload} · seed {run.seed} · {run.seconds:g} s · {mode}",
        "",
        "Machine and software",
        f"- CPU: {prov['cpu']}; nproc {prov['nproc']}; {prov['caches']}",
        f"- Python {prov['python']}, NumPy {prov['numpy']}, SciPy {prov['scipy']}",
        f"- BLAS: {prov['blas']}, OPENBLAS_NUM_THREADS={prov['blas_threads']}",
        f"- Program: git {prov['git_sha']}; src sha256 {prov['source_sha256'][:16]}",
        f"- Workload seed {prov['seed']}; accuracy operation at "
        f"SimulationConfig.seed={accuracy_seed}",
        "",
    ]


def trajectories(run) -> List[str]:
    lines = [
        "Trajectories",
        f"- attempted {run.attempted}, failed {run.failed} ({run.ops} operations)",
    ]
    if "escalations" in run.accuracy:
        lines.append(
            "- adaptive schedule of the accuracy operation: "
            f"{run.accuracy['escalations']:g} escalations"
        )
    for t in run.trajectories:
        if t.failure:
            lines.append(f"- FAILED {t.label} seed {t.config_seed}: {t.failure}")
    return lines + [""]


def end_to_end(metrics: Dict[str, float], timed: Dict[str, float], run) -> List[str]:
    rows = [
        (
            name,
            _fmt(metrics[name]) if name in metrics else "missing",
            _fmt(timed[name]) if name in timed else "",
            unit,
            better,
        )
        for name, unit, better in END_TO_END
    ]
    head = ("metric", "value", "as timed", "unit", "better")
    lines = _table("End-to-end metrics (untraced)", rows, head)
    lines[-1:-1] = [
        f"step-interval samples: {run.step_samples}",
        "times are scaled to the reference host's speed by the yardstick "
        f"(median pass here {_fmt(timed.get('yardstick_p50_ms', 0.0))} ms, "
        f"reference {_fmt(1e3 * REFERENCE_PERCENTILE_S[50])} ms); "
        "see qdbench/yardstick.py",
    ]
    return lines


def envelope(run) -> List[str]:
    if not run.envelope:
        return []
    rows = [(label, _fmt(final), _fmt(worst)) for label, final, worst in run.envelope]
    return _table(
        "Analytic envelope utilization, |dev|/|ref| / envelope, of the accuracy "
        "operation (information only)",
        rows,
        ("trajectory", "final step", "max over steps"),
    )


def mode_table(run) -> List[str]:
    if not run.mode_ms:
        return []
    fp32 = statistics.mean(run.mode_ms["STANDARD"])
    rows = [
        (mode, _fmt(statistics.mean(v)), f"{statistics.mean(v) / fp32:.2f}x")
        for mode, v in run.mode_ms.items()
    ]
    return _table(
        "Per-mode wall time in mode_study (measured on this host, 2 workers)",
        rows,
        ("mode", "ms/step", "vs FP32"),
    )


def per_layer(metrics: Dict[str, float], run) -> List[str]:
    rows = [(name, _fmt(metrics.get(name, 0.0)), unit) for name, unit in PER_LAYER]
    head = ("metric", "value", "unit")
    lines = _table("Per-layer metrics (traced operations)", rows, head)
    return lines + [
        f"- modelled Max 1550: gpu.model_ms {_fmt(metrics['gpu.model_ms'])} ms/step "
        f"beside measured lfd.step_ms {_fmt(metrics['lfd.step_ms'])} ms/step",
        "- tracing overhead, untraced / traced qd_steps_per_s: "
        f"{_fmt(metrics['trace.overhead'])}",
        "- explained, 1 - self(Simulation.run) / Simulation.run: "
        f"{_fmt(metrics['trace.explained'])}",
        "",
    ]


def result_line(run, metrics: Dict[str, float]) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }
