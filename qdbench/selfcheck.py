"""Self-checks of the benchmark's own arithmetic.

They run at the start of every benchmark invocation (a few
milliseconds) and on their own with ``python3 qdbench/selfcheck.py``.
Each check returns a list of failure messages.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_percentiles() -> List[str]:
    """The ten-samples-beyond rule and the interpolation."""
    from qdbench.stats import percentile

    bad = []
    ramp = list(range(1, 101))
    p90 = percentile(ramp, 90)
    if p90 is None or not _close(p90, 90.1):
        bad.append(f"p90 of 1..100 is {p90}, expected 90.1")
    elif sum(1 for v in ramp if v > p90) < 10:
        bad.append("fewer than ten samples beyond p90 of 100")
    if percentile(ramp[:99], 90) is not None:
        bad.append("p90 reported from 99 samples")
    if percentile(ramp[:19], 50) is not None or percentile(ramp[:20], 50) is None:
        bad.append("p50 availability does not follow the 20-sample threshold")
    return bad


def _scripted(tracer, events):
    """Replay ('b', name) / ('e',) events; the clock ticks once per event."""
    stack = []
    for ev in events:
        if ev[0] == "b":
            stack.append(tracer.begin(ev[1]))
        else:
            tracer.end(stack.pop())


def check_self_time() -> List[str]:
    """Nested and re-entrant spans: self time and outermost-only totals."""
    from qdbench.tracer import Tracer

    bad = []
    clock = itertools.count()
    tr = Tracer(clock=lambda: float(next(clock)))
    # sim.run
    #   energy.calc -> mesh.fft; blas.gemm -> fused.matmul (from gemm)
    #   fused.engine -> fused.matmul (batched) -> fused.matmul (re-entrant)
    #                -> fused.matmul (from fused_pair_products)
    _scripted(tr, [
        ("b", "sim.run"),
        ("b", "energy.calc"),
        ("b", "mesh.fft"), ("e",),
        ("b", "blas.gemm@calc_energy"), ("b", "fused.matmul"), ("e",), ("e",),
        ("e",),
        ("b", "fused.engine"),
        ("b", "fused.matmul"), ("b", "fused.matmul"), ("e",), ("e",),
        ("b", "fused.matmul"), ("e",),
        ("e",),
        ("e",),
    ])
    t = tr.analyse()
    expect = {
        # One clock tick per event: run 17, energy 7, fft 1, gemm 3,
        # matmul under gemm 1, engine 7, batched 3, inner 1, loop 1.
        "run self": (t.self_total(["sim.run"]), 17 - 7 - 7),
        "energy self": (t.self_total(["energy.calc"]), 7 - 1 - 3),
        "gemm self": (t.self_total(["blas.gemm"]), 3 - 1),
        "matmul total": (t.total(["fused.matmul"]), 1 + 3 + 1),
        "matmul self": (t.self_total(["fused.matmul"]), 1 + (3 - 1) + 1 + 1),
        "engine self": (t.self_total(["fused.engine"]), 7 - 3 - 1),
        "fft under energy": (t.total(["mesh.fft"], under=["energy.calc"]), 1),
        "gemm at site": (t.total(["blas.gemm@calc_energy"]), 3),
        "matmul under engine": (t.count(["fused.matmul"], under=["fused.engine"]), 3),
    }
    for label, (got, want) in expect.items():
        if not _close(got, want):
            bad.append(f"{label}: {got}, expected {want}")
    if t.count_under_each(["blas.gemm"], "sim.run") != {0: 1}:
        bad.append("gemm count per sim.run root is wrong")

    # The wrapper itself, on a recursive (re-entrant) function.
    clock = itertools.count()
    tr = Tracer(clock=lambda: float(next(clock)))

    def rec(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = tr.wrap("rec", rec)
    wrapped(2)
    t = tr.analyse()
    if not (_close(t.total(["rec"]), 5) and _close(t.self_total(["rec"]), 5)
            and t.count(["rec"]) == 3):
        bad.append("wrapped re-entrant spans do not nest")
    return bad


def check_geomean() -> List[str]:
    from qdbench.stats import geomean

    bad = []
    if not _close(geomean([1e-6, 1e-4]), 1e-5):
        bad.append("geomean(1e-6, 1e-4) != 1e-5")
    if not _close(geomean([2.0, 8.0, 4.0]), 4.0):
        bad.append("geomean(2, 8, 4) != 4")
    if geomean([3.0, 0.0]) != 0.0:
        bad.append("geomean with an exact zero is not 0")
    try:
        geomean([1.0, -1.0])
        bad.append("geomean accepted a negative value")
    except ValueError:
        pass
    return bad


def check_failed_operation() -> List[str]:
    """A raising operation counts as failed and the run goes on."""
    import contextlib
    import io

    from qdbench.workloads import DigestStore, Run, Trajectory, end_to_end
    from qdbench.yardstick import REFERENCE_MEAN_S

    run = Run("fp32_lfd", 1, 1.0, False, DigestStore(None, "selfcheck"))

    def boom():
        raise RuntimeError("injected")

    with contextlib.redirect_stderr(io.StringIO()):
        run.attempt(["A", "B"], boom)
    run.attempt(["C"], lambda: [Trajectory("C", 1, 10, timed=True, wall_s=0.5)])
    run.yard.passes.append(REFERENCE_MEAN_S)  # unit scale
    bad = []
    if (run.attempted, run.failed) != (3, 2):
        bad.append(f"attempted/failed {run.attempted}/{run.failed}, expected 3/2")
    metrics = end_to_end(run)
    if not _close(metrics.get("qd_steps_per_s", 0.0), 20.0):
        bad.append("the operation after a failed one was not measured")
    store = DigestStore(None, "selfcheck")
    if store.check("k", "a") or not store.check("k", "b"):
        bad.append("a disagreeing digest was not reported")
    return bad


def check_yardstick() -> List[str]:
    """Scale factors, and sampling paused out of a timed call."""
    from qdbench import yardstick as ys

    bad = []
    ref = ys.REFERENCE_MEAN_S
    if not _close(ys.sum_scale([2 * ref, 2 * ref]), 0.5):
        bad.append("sum_scale of passes at half speed is not 0.5")
    # Passes at the reference p90 and 3x it: mean 2x the p90 reference.
    ref = ys.REFERENCE_PERCENTILE_S[90]
    mean = ys.REFERENCE_MEAN_S / (2 * ref)
    got = ys.percentile_scale([ref, 3 * ref], [9, 1], 90)
    if not _close(got, (1.0 * mean) ** 0.5):
        bad.append(f"percentile_scale {got} does not weight passes by their steps")
    got = ys.percentile_scale([ref, 3 * ref], [8, 2], 90)
    if not _close(got, (mean / 3) ** 0.5):
        bad.append(f"percentile_scale {got} is not sqrt(matched x mean factor)")
    # A fake clock: each kernel pass takes 10 ms, each QD step 300 ms.
    now = [0.0]

    def tick(dt):
        now[0] += dt

    yard = ys.Yardstick(clock=lambda: now[0])
    yard._pass = lambda: tick(0.01)

    def three_steps(progress):
        for step in range(1, 4):
            tick(0.3 if step > 1 else 0.0)
            progress(step, None)
        return "done"

    result, seconds, step_ms = ys.timed(yard, three_steps, sample=True)
    if result != "done" or not _close(seconds, 0.6):
        bad.append(f"timed call took {seconds} s without its sampling, expected 0.6")
    if len(step_ms) != 2 or not all(_close(ms, 300.0) for ms in step_ms):
        bad.append(f"step intervals {step_ms}, expected [300, 300] ms")
    want = [0, 2, 1, 0]  # before, two inside, after (no step left over)
    if yard.steps != [n for n in want for _ in range(ys.PASSES)]:
        bad.append(f"passes stand for {yard.steps} steps, expected {want} per sample")
    return bad


def check_real_products() -> List[str]:
    """Computed real products per GEMM, the base of blas.gflop."""
    from qdbench.tracer import real_products
    from repro.blas.modes import ComputeMode as M

    want = {
        (M.STANDARD, True, True): 4,
        (M.FLOAT_TO_BF16X3, True, True): 24,
        (M.FLOAT_TO_BF16X3, True, False): 4,
        (M.FLOAT_TO_BF16X2, False, True): 3,
        (M.COMPLEX_3M, True, True): 3,
        (M.EMULATED_FP64, True, True): 4,
        (M.EMULATED_FP64, False, False): 6,
        (M.OZAKI_INT8, True, True): 4 * M.OZAKI_INT8.n_component_products,
    }
    return [
        f"real_products{key} = {real_products(*key)}, expected {n}"
        for key, n in want.items() if real_products(*key) != n
    ]


def check_benchmark_json(root: Path = ROOT) -> List[str]:
    """BENCHMARK.json names exactly the metrics and workloads of spec.py."""
    from qdbench.spec import END_TO_END, PER_LAYER, WORKLOADS

    data = json.loads((root / "BENCHMARK.json").read_text())
    bad = []
    if [w["name"] for w in data["workloads"]] != list(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"]) for m in data["end_to_end"]]
    if e2e != list(END_TO_END):
        bad.append("BENCHMARK.json end_to_end differs from spec.END_TO_END")
    layer = [(m["name"], m["unit"]) for m in data["per_layer"]]
    if layer != list(PER_LAYER):
        bad.append("BENCHMARK.json per_layer differs from spec.PER_LAYER")
    return bad


CHECKS = (
    check_percentiles,
    check_self_time,
    check_geomean,
    check_failed_operation,
    check_yardstick,
    check_real_products,
    check_benchmark_json,
)


def run_all() -> List[str]:
    failures = []
    for check in CHECKS:
        failures += [f"{check.__name__}: {msg}" for msg in check()]
    return failures


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    problems = run_all()
    for p in problems:
        print(p)
    print(f"{len(CHECKS)} self-checks, {len(problems)} failures")
    sys.exit(1 if problems else 0)
