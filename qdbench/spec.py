"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-checks fail when the two disagree.  ``README.md`` in this
directory explains each one.
"""

from __future__ import annotations

WORKLOADS = ("fp32_lfd", "bf16x3_lfd", "adaptive_lfd", "mode_study")

#: (name, unit, better) of the untraced, end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("qd_steps_per_s", "steps/s", "higher"),
    ("qd_step_ms_p50", "ms", "lower"),
    ("qd_step_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("nexc_dev", "electrons", "lower"),
    ("ekin_dev", "Ha", "lower"),
    ("javg_dev", "a.u.", "lower"),
    ("gram_err", "1", "lower"),
)

#: (name, unit) of the traced, per-layer metrics.  "/step" is per QD
#: step of the traced trajectories; "/traj" per traced trajectory.
PER_LAYER = (
    ("scf.solve_s", "s"),
    ("scf.fft_s", "s"),
    ("scf.iterations", "count"),
    ("qxmd.refresh_ms", "ms/block"),
    ("lfd.step_ms", "ms/step"),
    ("lfd.kick_ms", "ms/step"),
    ("mesh.fft_ms", "ms/step"),
    ("mesh.fft_calls", "count/step"),
    ("nlp.apply_ms", "ms/step"),
    ("energy.calc_ms", "ms/step"),
    ("occ.remap_ms", "ms/step"),
    ("current.density_ms", "ms/step"),
    ("driver.self_ms", "ms/step"),
    ("blas.gemm_calls", "count/step"),
    ("blas.gemm_ms.nlp_prop", "ms/step"),
    ("blas.gemm_ms.calc_energy", "ms/step"),
    ("blas.gemm_ms.remap_occ", "ms/step"),
    ("blas.dispatch_ms", "ms/step"),
    ("blas.gflop", "GFLOP/step"),
    ("plan.anon_lookups", "count/step"),
    ("plan.anon_hit_ratio", "1"),
    ("plan.hash_ms", "ms/step"),
    ("plan.hash_mb", "MiB/step"),
    ("round.ms", "ms/step"),
    ("round.mb", "MiB/step"),
    ("round.full_splits", "count/traj"),
    ("round.extends", "count/traj"),
    ("fused.gather_ms", "ms/step"),
    ("fused.gather_mb", "MiB/step"),
    ("fused.matmul_ms", "ms/step"),
    ("fused.matmul_gflops", "GFLOP/s"),
    ("fused.accumulate_ms", "ms/step"),
    ("fused.overhead_ms", "ms/step"),
    ("workspace.mb", "MiB"),
    ("c4m.assemble_ms", "ms/step"),
    ("drift.observe_ms", "ms/step"),
    ("sched.ms", "ms/step"),
    ("sched.switches", "count/traj"),
    ("gpu.model_ms", "ms/step"),
    ("fanout.busy_s", "s"),
    ("fanout.idle_s", "s"),
    ("fanout.efficiency", "1"),
    ("trace.explained", "1"),
    ("trace.overhead", "1"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END}
UNITS.update(PER_LAYER)
