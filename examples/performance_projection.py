#!/usr/bin/env python
"""Performance projection: Fig. 3a/3b for arbitrary system sizes.

Uses the calibrated Max 1550 device model to answer the scaling
question behind the paper's Fig. 3: at what problem size do the
alternative compute modes start paying off, and by how much?

Run:  python examples/performance_projection.py
"""


from repro.blas.modes import ComputeMode
from repro.core.blas_sweep import BlasSweep
from repro.core.perfstudy import PerfStudy
from repro.core.report import render_table
from repro.gpu import Device
from repro.types import Precision


def fig3a_projection() -> None:
    study = PerfStudy()
    systems = {
        "40-atom (64^3, 256 orb)": (64**3, 256, 128),
        "135-atom (96^3, 1024 orb)": (96**3, 1024, 432),
        "hypothetical 320-atom (128^3, 2048 orb)": (128**3, 2048, 1024),
    }
    fig = study.figure_3a(systems=systems)
    rows = []
    for system, timings in fig.items():
        speedups = study.speedup_over_fp32(timings)
        for t in timings:
            rows.append((system, t.label, t.block_seconds(500),
                         speedups[t.label], t.blas_fraction))
    print(render_table(
        ("System", "Config", "500 QD steps (s)", "vs FP32", "BLAS frac"),
        rows,
        title="Fig. 3a projection (modelled single Max 1550 stack)",
    ))


def fig3b_projection() -> None:
    sweep = BlasSweep()
    norbs = (256, 512, 1024, 2048, 4096, 8192)
    points = sweep.sweep(norbs=norbs)
    by_norb = {}
    for p in points:
        by_norb.setdefault(p.n_orb, {})[p.mode.env_value] = p.speedup
    modes = [m.env_value for m in
             (ComputeMode.FLOAT_TO_BF16, ComputeMode.FLOAT_TO_TF32,
              ComputeMode.FLOAT_TO_BF16X2, ComputeMode.FLOAT_TO_BF16X3,
              ComputeMode.COMPLEX_3M)]
    rows = [(n, *[by_norb[n][m] for m in modes]) for n in norbs]
    print()
    print(render_table(("N_orb", *modes), rows,
                       title="Fig. 3b projection, extended to N_orb = 8192"))


def unitrace_view() -> None:
    """Where does one modelled 135-atom QD step spend its time?"""
    from repro.core.schedule import psi_bytes, qd_step_schedule

    device = Device()
    gemms, streams = qd_step_schedule(96**3, 1024, 432, Precision.FP32)
    for g in gemms:
        device.record_gemm(g.routine, g.m, g.n, g.k, ComputeMode.STANDARD, site=g.site)
    buf = psi_bytes(96**3, 1024, Precision.FP32)
    for s in streams:
        device.record_stream(s.name, s.passes * buf, buffer_bytes=buf, site=s.site)
    total = device.total_l0_time()
    rows = sorted(device.timeline.time_by_name().items(), key=lambda kv: -kv[1])
    print()
    print(render_table(
        ("Kernel", "Time (s)", "Share"),
        [(name, secs, secs / total) for name, secs in rows],
        title=f"One modelled 135-atom FP32 QD step: Total L0 Time {total:.6f} s, "
        f"{len(device.timeline)} kernels",
    ))
    by_kind = device.timeline.time_by_kind()
    for kind, secs in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        print(f"kind:{kind:<19s} {secs:>12.6f}")


def main() -> None:
    fig3a_projection()
    fig3b_projection()
    unitrace_view()


if __name__ == "__main__":
    main()
