"""The four workloads: their operations, references and metrics.

An operation is one timed unit of work: a fresh ``Simulation`` whose
set-up is timed and whose trajectory is timed, or for ``mode_study``
one whole ``PrecisionStudy``.  Every trajectory an operation runs is
attempted and checked (finite observables, digest, GEMM count when
traced, unhandled breaches for the adaptive run).

Operation 0 of every run uses the fixed ground state
``SimulationConfig.seed = ACCURACY_SEED`` and supplies the accuracy
metrics; operation ``i >= 1`` uses ``SimulationConfig.seed =
op_seed(--seed, i)``, which cycles through :data:`GROUND_STATES` from
an offset set by ``--seed``.  The accuracy metrics are deterministic
per ground state but move a lot between ground states (per-seed
IQR/median of ``nexc_dev`` on ``bf16x3_lfd`` is 0.75 over seeds 1-10),
so pinning their ground state is what keeps them comparable between
runs.  The adaptive schedule, and with it the work per step and the
mix of step times, also depends on the ground state: with seven new
ground states per run, ``adaptive_lfd``'s median step spread by
IQR/median 0.17 over five runs.  Every run cycling through the same
eight is what keeps the timing metrics comparable.

On the three ``*_lfd`` workloads operation 0 is also the warm-up: its
trajectories are checked but not timed, so first-call costs of the
process stay out of the timing metrics.  Every end-to-end time is
scaled to the reference host's speed by the yardstick passes sampled
throughout the run (``qdbench/yardstick.py``); the per-layer metrics
and the tracing overhead are as timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from qdbench.stats import (
    columns_finite,
    geomean,
    max_abs_dev,
    percentile,
    trajectory_digest,
)
from qdbench.tracer import Patches, Tracer
from qdbench.yardstick import (
    Yardstick,
    percentile_scale,
    sum_scale,
    timed,
    weighted_percentile,
)

#: Ground state of the accuracy operation (the repository's default seed).
ACCURACY_SEED = 7
#: Ground states (``SimulationConfig.seed``) the timed operations cycle
#: through: the first eight, taken in order, not chosen by their cost.
GROUND_STATES = tuple(range(1, 9))
#: Untimed warm-up operations at the start of a run (operation 0 is
#: the accuracy operation).  ``mode_study``'s pool workers start fresh
#: for every study, so its first study is timed.
WARMUP_OPS = {"mode_study": 0}
#: Timed operations per run whatever ``--seconds`` says (in a traced
#: run, one untraced and one traced): two trajectories of one label are
#: the 100 step intervals a p90 needs.
MIN_TIMED_OPS = 2
#: Set-up-only operations before each untraced study, so that
#: ``setup_s`` is a median of several set-ups on ``mode_study`` too.
STUDY_EXTRA_SETUPS = 1
#: Pool workers of ``mode_study`` (= nproc of the reference host).
STUDY_WORKERS = 2
ACCURACY_OBSERVABLES = ("nexc", "ekin", "javg")
#: The traced-run check: nine GEMMs per QD step plus six for the
#: step-0 observation.
GEMMS_PER_STEP = 9
GEMMS_STEP0 = 6
MIB = float(1 << 20)


@dataclasses.dataclass
class Trajectory:
    """One attempted trajectory and what was checked about it."""

    label: str
    config_seed: int
    steps: int
    timed: bool
    traced: bool = False
    #: Yardstick samples paused out of both.
    wall_s: float = 0.0
    step_ms: List[float] = dataclasses.field(default_factory=list)
    digest: str = ""
    failure: str = ""


class DigestStore:
    """Trajectory digests of one program revision, kept across runs.

    Keyed by the source digest, so runs of one revision must agree and
    another revision starts fresh.  A store that cannot be written only
    loses the cross-run check; the in-run check still applies.
    """

    def __init__(self, path: Optional[Path], revision: str):
        self.path = path
        self.revision = revision
        self.seen: Dict[str, str] = {}
        self._all: Dict[str, Dict[str, str]] = {}
        if path is not None and path.exists():
            try:
                self._all = json.loads(path.read_text())
            except (OSError, ValueError):
                self._all = {}
        self.stored = dict(self._all.get(revision, {}))

    def check(self, key: str, digest: str) -> str:
        """Record ``digest`` for ``key``; a failure message on disagreement."""
        for where, known in (("this run", self.seen), ("an earlier run", self.stored)):
            prev = known.get(key)
            if prev is not None and prev != digest:
                return (
                    f"digest {digest[:12]} disagrees with {where} "
                    f"({prev[:12]}) for {key}"
                )
        self.seen[key] = digest
        return ""

    def save(self) -> None:
        if self.path is None:
            return
        self._all[self.revision] = {**self.stored, **self.seen}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._all, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        except OSError as exc:
            print(f"warning: digest store not written: {exc}", file=sys.stderr)


class Run:
    """State and results of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, digests):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.digests = digests
        self.tracer = Tracer() if trace else None
        self.yard = Yardstick()
        #: Yardstick passes of ``mode_study``'s pool workers, and the
        #: QD steps each stands for.
        self.worker_passes: List[float] = []
        self.worker_steps: List[int] = []
        self.ops = 0
        self.trajectories: List[Trajectory] = []
        self.setup_s: List[float] = []
        self.accuracy: Dict[str, float] = {}
        self.envelope: List[tuple] = []
        self.mode_ms: Dict[str, List[float]] = defaultdict(list)
        self.studies: List[dict] = []
        self.step_samples = 0
        # Traced operations only.
        self.traced_trajs: List[Trajectory] = []
        self.traced_setups = 0
        self.scf_iterations: List[int] = []
        self.anon = {"hits": 0, "misses": 0}
        self.gpu_seconds = 0.0
        self.sched_switches = 0
        self.workspace_bytes = 0

    def attempt(self, labels: List[str], op: Callable[[], List[Trajectory]]) -> None:
        """Run ``op``; if it raises, its ``labels`` count as failed
        trajectories and the run goes on."""
        try:
            self.trajectories.extend(op())
        except Exception as exc:  # noqa: BLE001 - one failed operation
            traceback.print_exc(file=sys.stderr)
            reason = f"raised {type(exc).__name__}: {exc}"
            self.trajectories.extend(
                Trajectory(label, -1, 0, False, failure=reason) for label in labels
            )

    def check(self, traj: Trajectory, result, storage: str = "fp32") -> None:
        """Finite observables and a digest that agrees across runs."""
        if not columns_finite(result):
            traj.failure = traj.failure or "non-finite observable"
        traj.digest = trajectory_digest(result)
        key = f"{traj.label}|seed={traj.config_seed}|steps={traj.steps}|{storage}"
        traj.failure = traj.failure or self.digests.check(key, traj.digest)

    @property
    def passes(self) -> List[float]:
        """Every yardstick pass of the run's timed, untraced work."""
        return self.yard.passes + self.worker_passes

    @property
    def pass_steps(self) -> List[int]:
        """The QD steps each of :attr:`passes` stands for."""
        return self.yard.steps + self.worker_steps

    @property
    def attempted(self) -> int:
        return len(self.trajectories)

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trajectories if t.failure)

    def tracing(self, on: bool):
        return Patches(self.tracer) if on else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Shared pieces of the operations.
# ----------------------------------------------------------------------


def _config(seed: int, **overrides):
    from repro.dcmesh.simulation import SimulationConfig

    return SimulationConfig.small_test(seed=seed, **overrides)


def _timed_setup(run: Run, setup: Callable):
    """``setup()`` between yardstick samples; returns its result and
    records its time."""
    run.yard.maybe_sample()
    t0 = time.perf_counter()
    ground = setup()
    run.setup_s.append(time.perf_counter() - t0)
    run.yard.maybe_sample()
    return ground


def _setup(run: Run, cfg, traced: bool, timed: bool = True):
    """A fresh ``Simulation`` (``setup()`` caches its ground state)."""
    from repro.dcmesh.simulation import Simulation

    sim = Simulation(cfg)
    if traced:
        with run.tracing(True):
            ground = sim.setup()
        run.traced_setups += 1
        run.scf_iterations.append(ground.n_iter)
    elif timed:
        _timed_setup(run, sim.setup)
    else:
        sim.setup()
    return sim


def _timed_run(run: Run, sim, traj: Trajectory, **kwargs):
    """The timed trajectory; traced, it also books on a device model."""
    from repro.blas.plan import plan_cache_info
    from repro.blas.workspace import get_workspace
    from repro.gpu import Device

    if traj.traced:
        sim.device = Device()
        before = plan_cache_info()
    with run.tracing(traj.traced):
        # Traced, a sample would count as the driver's self time.
        result, traj.wall_s, traj.step_ms = timed(
            run.yard,
            lambda progress: sim.run(progress=progress, **kwargs),
            sample=traj.timed and not traj.traced,
        )
    if traj.traced:
        after = plan_cache_info()
        for k in ("hits", "misses"):
            run.anon[k] += after[k] - before[k]
        run.gpu_seconds += sim.device.total_l0_time()
        run.workspace_bytes = get_workspace().nbytes
        sim.device = None
        run.traced_trajs.append(traj)
    run.check(traj, result)
    return result


def _reference(run: Run, sim, config_seed: int):
    """Untimed FP32 trajectory from ``sim``'s ground state."""
    traj = Trajectory("STANDARD", config_seed, sim.config.n_qd_steps, timed=False)
    ref = sim.run(mode="STANDARD")
    run.check(traj, ref)
    run.trajectories.append(traj)
    if traj.failure:
        raise RuntimeError(f"reference trajectory failed: {traj.failure}")
    return ref


def _h_nl_norm(sim) -> float:
    """||H_nl|| of the first SCF block, as ``Simulation.run`` computes it."""
    from repro.dcmesh.projectors import build_projectors
    from repro.types import complex_dtype

    psi0 = sim.setup().orbitals.psi.astype(complex_dtype(sim.config.storage))
    proj = build_projectors(sim.material, sim.mesh)
    return float(np.linalg.norm(proj.subspace_matrix(psi0.astype(np.complex128))))


def envelope_utilization(result, reference, mode, dt, h_nl_norm, headroom=1.0):
    """(final step, max over steps) of relative deviation / envelope,
    each the worst over the observables; the max over steps is what a
    DriftMonitor alerts on.

    Information only: several modes exceed their analytic envelope at
    headroom 1 on this system, and EMULATED_FP64's distance from FP32
    is FP32's own error.
    """
    from repro.telemetry.drift import ErrorBudget

    budget = ErrorBudget.for_mode(mode, dt, h_nl_norm, headroom=headroom)
    env = np.array([budget.envelope(int(s)) for s in result.column("step")])
    ok = env > 0
    final = worst = 0.0
    for obs in ACCURACY_OBSERVABLES:
        ref = reference.column(obs)
        scale = np.maximum(np.abs(ref), np.finfo(float).tiny)
        util = (np.abs(result.column(obs) - ref) / scale)[ok] / env[ok]
        final = max(final, float(util[-1]))
        worst = max(worst, float(util.max()))
    return final, worst


def _record_accuracy(run: Run, result, reference) -> None:
    for obs in ACCURACY_OBSERVABLES:
        run.accuracy[f"{obs}_dev"] = max_abs_dev(result, reference, obs)
    run.accuracy["gram_err"] = result.final_gram_error()


# ----------------------------------------------------------------------
# Operations, one per workload.
# ----------------------------------------------------------------------


def op_fp32(run: Run, config_seed: int, traced: bool, accuracy: bool, timed: bool):
    """One STANDARD trajectory; accuracy against an FP64-storage run."""
    from repro.dcmesh.simulation import Simulation
    from repro.types import Precision

    cfg = _config(config_seed)
    sim = _setup(run, cfg, traced, timed)
    traj = Trajectory("STANDARD", config_seed, cfg.n_qd_steps, timed, traced)
    result = _timed_run(run, sim, traj, mode="STANDARD")
    out = [traj]
    if accuracy:
        # FP32 against itself is identically 0, so the baseline's
        # deviation is its distance from the same run at FP64 storage.
        ref_sim = Simulation(_config(config_seed, storage=Precision.FP64))
        ref_traj = Trajectory("STANDARD", config_seed, cfg.n_qd_steps, timed=False)
        ref = ref_sim.run(mode="STANDARD")
        run.check(ref_traj, ref, storage="fp64")
        out.append(ref_traj)
        _record_accuracy(run, result, ref)
        util = envelope_utilization(result, ref, "STANDARD", cfg.dt, _h_nl_norm(sim))
        run.envelope.append(("STANDARD vs FP64 storage", *util))
    return out


def op_bf16x3(run: Run, config_seed: int, traced: bool, accuracy: bool, timed: bool):
    """One FLOAT_TO_BF16X3 trajectory; untimed FP32 reference for accuracy."""
    mode = "FLOAT_TO_BF16X3"
    cfg = _config(config_seed)
    sim = _setup(run, cfg, traced, timed)
    traj = Trajectory(mode, config_seed, cfg.n_qd_steps, timed, traced)
    result = _timed_run(run, sim, traj, mode=mode)
    if accuracy:
        ref = _reference(run, sim, config_seed)
        _record_accuracy(run, result, ref)
        util = envelope_utilization(result, ref, mode, cfg.dt, _h_nl_norm(sim))
        run.envelope.append((mode, *util))
    return [traj]


def op_adaptive(run: Run, config_seed: int, traced: bool, accuracy: bool, timed: bool):
    """``Simulation.run(adaptive=AdaptiveScheduler())`` policed by a
    DriftMonitor against an untimed FP32 reference of the same ground
    state.  ``Simulation.run`` sets the monitor's budget from the first
    SCF block: the scheduler's contract, the same one
    ``benchmarks/test_adaptive_sched.py`` builds by hand."""
    from repro.core.scheduler import AdaptiveScheduler
    from repro.telemetry.drift import DriftMonitor, ReferenceTrajectory

    cfg = _config(config_seed)
    sim = _setup(run, cfg, traced, timed)
    ref = _reference(run, sim, config_seed)
    sched = AdaptiveScheduler()
    monitor = DriftMonitor(reference=ReferenceTrajectory.from_result(ref))
    traj = Trajectory("ADAPTIVE", config_seed, cfg.n_qd_steps, timed, traced)
    result = _timed_run(run, sim, traj, adaptive=sched, drift=monitor)
    summary = sched.summary()
    if summary["unhandled_breaches"] > 0:
        traj.failure = traj.failure or (
            f"{summary['unhandled_breaches']} unhandled breaches"
        )
    if traced:
        run.sched_switches += len(summary["switches"])
    if accuracy:
        _record_accuracy(run, result, ref)
        run.accuracy["escalations"] = summary["escalations"]
        headroom = sched.config.budget_headroom
        util = envelope_utilization(
            result, ref, sched.budget_mode, cfg.dt, _h_nl_norm(sim), headroom
        )
        label = f"ADAPTIVE (contract {sched.budget_mode.env_value} x{headroom:g})"
        run.envelope.append((label, *util))
    return [traj]


def _run_one_mode_timed(sim, mode, n_steps):
    """Worker body of the study, timing the trajectory as ``_timed_run``
    does, against the worker's own yardstick.

    Stands in for ``repro.core.study._run_one_mode`` during a study;
    module-level so the pool pickles it by reference.  The timings
    travel back on the pickled result.
    """
    yard = Yardstick()
    result, wall, step_ms = timed(
        yard,
        lambda progress: sim.run(mode=mode, n_steps=n_steps, progress=progress),
        sample=True,
    )
    result.qdbench = {
        "pid": os.getpid(),
        "wall_s": wall,
        "step_ms": step_ms,
        "paused_s": yard.paused,
        "passes": yard.passes,
        "pass_steps": yard.steps,
    }
    return result


@contextlib.contextmanager
def _study_hooks(run: Run, timed: bool):
    """Time ``Simulation.setup`` (as a timed set-up when ``timed``) and
    each mode's trajectory inside a study."""
    import repro.core.study as study_mod
    from repro.dcmesh.simulation import Simulation

    seen = {"setup_span_s": 0.0, "sims": []}
    setup = Simulation.setup
    run_one = study_mod._run_one_mode

    def timed_setup(self):
        t0 = time.perf_counter()
        out = _timed_setup(run, lambda: setup(self)) if timed else setup(self)
        seen["setup_span_s"] += time.perf_counter() - t0
        seen["sims"].append(self)
        return out

    Simulation.setup = timed_setup
    study_mod._run_one_mode = _run_one_mode_timed
    try:
        yield seen
    finally:
        Simulation.setup = setup
        study_mod._run_one_mode = run_one


def op_study(run: Run, config_seed: int, traced: bool, accuracy: bool, timed: bool):
    """``PrecisionStudy(cfg, STUDY_MODES).run(parallel=True, max_workers=2)``,
    after :data:`STUDY_EXTRA_SETUPS` set-up-only operations when untraced."""
    from repro.blas.modes import ComputeMode
    from repro.core.study import STUDY_MODES, PrecisionStudy

    if timed and not traced:
        for j in range(STUDY_EXTRA_SETUPS):
            # Half a cycle away from the studies' own ground states.
            i = STUDY_EXTRA_SETUPS * run.ops + j + len(GROUND_STATES) // 2
            _setup(run, _config(op_seed(run.seed, i)), False)
    cfg = _config(config_seed)
    with run.tracing(traced), _study_hooks(run, timed and not traced) as seen:
        t0 = time.perf_counter()
        study = PrecisionStudy(cfg, STUDY_MODES).run(
            parallel=True, max_workers=STUDY_WORKERS
        )
        wall = time.perf_counter() - t0
    out = []
    paused: Dict[int, float] = defaultdict(float)
    for mode, result in study.results.items():
        steps = len(result.records) - 1
        timing = result.qdbench
        traj = Trajectory(mode.env_value, config_seed, steps, timed, traced)
        traj.wall_s = timing["wall_s"]
        traj.step_ms = timing["step_ms"]
        paused[timing["pid"]] += timing["paused_s"]
        if timed and not traced:
            run.worker_passes += timing["passes"]
            run.worker_steps += timing["pass_steps"]
        run.check(traj, result)
        run.mode_ms[mode.env_value].append(1e3 * traj.wall_s / steps)
        out.append(traj)
    # The busiest worker's yardstick samples lie on the pool's critical path.
    pool_wall = wall - seen["setup_span_s"] - max(paused.values())
    run.studies.append(
        {
            "traced": traced,
            "pool_wall_s": pool_wall,
            "steps": sum(t.steps for t in out),
            "busy_s": sum(t.wall_s for t in out),
            "workers": STUDY_WORKERS,
        }
    )
    if traced:
        run.traced_setups += 1
        run.scf_iterations.append(study.results[ComputeMode.STANDARD].scf.n_iter)
    if accuracy:
        ref = study.results[ComputeMode.STANDARD]
        others = [m for m in study.results if m is not ComputeMode.STANDARD]
        for obs in ACCURACY_OBSERVABLES:
            run.accuracy[f"{obs}_dev"] = geomean(
                [max_abs_dev(study.results[m], ref, obs) for m in others]
            )
        run.accuracy["gram_err"] = geomean(
            [r.final_gram_error() for r in study.results.values()]
        )
        h_nl = _h_nl_norm(seen["sims"][0])
        for m in others:
            util = envelope_utilization(study.results[m], ref, m, cfg.dt, h_nl)
            run.envelope.append((m.env_value, *util))
    return out


OPERATIONS = {
    "fp32_lfd": op_fp32,
    "bf16x3_lfd": op_bf16x3,
    "adaptive_lfd": op_adaptive,
    "mode_study": op_study,
}


def _labels(workload: str) -> List[str]:
    """The timed trajectories one operation of ``workload`` attempts."""
    from repro.core.study import STUDY_MODES

    if workload == "mode_study":
        return ["STANDARD"] + [m.env_value for m in STUDY_MODES]
    return [workload]


def op_seed(seed: int, i: int) -> int:
    """``SimulationConfig.seed`` of operation ``i >= 1`` of a run."""
    return GROUND_STATES[(seed + i) % len(GROUND_STATES)]


def execute(run: Run) -> Run:
    """Operations until another would overrun ``run.seconds``, at least
    the warm-up and :data:`MIN_TIMED_OPS`.  Traced runs alternate
    untraced and traced timed operations, so the overhead compares like
    with like."""
    from repro.blas.plan import plan_cache_clear
    from repro.blas.workspace import clear_workspace

    op = OPERATIONS[run.workload]
    labels = _labels(run.workload)
    warmup = WARMUP_OPS.get(run.workload, 1)
    min_ops = warmup + MIN_TIMED_OPS
    t_start = time.perf_counter()
    while True:
        t_op = time.perf_counter()
        i = run.ops
        seed = ACCURACY_SEED if i == 0 else op_seed(run.seed, i)
        timed = i >= warmup
        traced = run.trace and timed and (i - warmup) % 2 == 1
        # Every operation starts from cold caches, as a fresh process would.
        plan_cache_clear()
        clear_workspace()
        run.attempt(labels, lambda: op(run, seed, traced, i == 0, timed))
        run.ops += 1
        now = time.perf_counter()
        if run.ops >= min_ops and (now - t_start) + (now - t_op) > run.seconds:
            return run


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def peak_rss_mb(include_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0  # ru_maxrss is KiB on Linux


def _rate(run: Run, traced: bool) -> Optional[float]:
    """QD steps of the timed trajectories / their total time, set-up
    excluded (``mode_study``: the studies' steps / their pool wall
    time), as timed.  A ratio of sums, not a median of rates, so that
    it stays linear in the host's mix of speed states (a median of
    rates picks whichever state held most trajectories)."""
    if run.workload == "mode_study":
        parts = [
            (s["steps"], s["pool_wall_s"]) for s in run.studies if s["traced"] == traced
        ]
    else:
        parts = [
            (t.steps, t.wall_s)
            for t in run.trajectories
            if t.timed and t.traced == traced and not t.failure
        ]
    seconds = sum(sec for _, sec in parts)
    return sum(n for n, _ in parts) / seconds if seconds > 0 else None


#: (metric, percentile) of the step intervals.
PERCENTILES = (("qd_step_ms_p50", 50), ("qd_step_ms_p90", 90))


def as_timed(run: Run) -> Dict[str, float]:
    """The four timing metrics before scaling, and the run's yardstick
    passes (ms): their mean, and their step-weighted median and p90."""
    out: Dict[str, float] = {}
    if run.setup_s:
        out["setup_s"] = statistics.median(run.setup_s)
    rate = _rate(run, traced=False)
    if rate is not None:
        out["qd_steps_per_s"] = rate
    intervals: Dict[str, List[float]] = defaultdict(list)
    for t in run.trajectories:
        if t.timed and not t.traced and not t.failure:
            intervals[t.label].extend(t.step_ms)
    run.step_samples = sum(len(v) for v in intervals.values())
    for key, q in PERCENTILES:
        # mode_study's pooled intervals are eight clusters, one per mode,
        # so a pooled percentile can jump between clusters; it takes the
        # geometric mean of the per-mode percentiles instead.
        values = [percentile(v, q) for v in intervals.values()]
        if values and None not in values:
            out[key] = geomean(values)
    if run.passes:
        out["yardstick_mean_ms"] = 1e3 * float(np.mean(run.passes))
    if sum(run.pass_steps):
        for q in (50, 90):
            value = weighted_percentile(run.passes, run.pass_steps, q)
            out[f"yardstick_p{q}_ms"] = 1e3 * value
    return out


def end_to_end(run: Run) -> Dict[str, float]:
    """The untraced metrics, times scaled to the reference host's speed
    by the run's yardstick passes; a missing one means its operations
    failed."""
    raw = as_timed(run)
    passes = run.passes
    out: Dict[str, float] = {}
    if passes and "setup_s" in raw:
        out["setup_s"] = raw["setup_s"] * sum_scale(passes)
    if passes and "qd_steps_per_s" in raw:
        out["qd_steps_per_s"] = raw["qd_steps_per_s"] / sum_scale(passes)
    for key, q in PERCENTILES:
        if sum(run.pass_steps) and key in raw:
            out[key] = raw[key] * percentile_scale(passes, run.pass_steps, q)
    out["peak_rss_mb"] = peak_rss_mb(include_children=run.workload == "mode_study")
    for key in ("nexc_dev", "ekin_dev", "javg_dev", "gram_err"):
        if key in run.accuracy:
            out[key] = run.accuracy[key]
    return out


def check_gemm_counts(run: Run, table) -> None:
    """Fail a traced trajectory whose GEMM count breaks 9 n + 6."""
    counts = list(table.count_under_each(["blas.gemm"], "sim.run").values())
    if len(counts) != len(run.traced_trajs):
        return  # an operation raised inside sim.run; it already failed
    for traj, n in zip(run.traced_trajs, counts):
        expected = GEMMS_PER_STEP * traj.steps + GEMMS_STEP0
        if n != expected:
            traj.failure = traj.failure or f"{n} gemm calls, expected {expected}"


def per_layer(run: Run) -> Dict[str, float]:
    """The traced metrics, from the spans of the traced operations
    (which also get their GEMM-count check here)."""
    table = run.tracer.analyse()
    check_gemm_counts(run, table)
    tally = run.tracer.tally
    trajs = run.traced_trajs
    n_traj = len(trajs)
    steps = sum(t.steps for t in trajs)
    nscf = _config(ACCURACY_SEED).nscf
    blocks = sum(math.ceil(t.steps / nscf) for t in trajs)
    setups = max(run.traced_setups, 1)
    loop = ["sim.run"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_step(seconds: float) -> float:
        return ratio(1e3 * seconds, steps)

    def inclusive(names, under=None) -> float:
        # The device model books from inside the program's functions,
        # in traced runs only; its time is not the program's.
        return table.total(names, under) - table.total(["gpu.model"], under=names)

    matmul_s = table.total(["fused.matmul"], under=loop)
    lookups = run.anon["hits"] + run.anon["misses"]
    m = {
        "scf.solve_s": table.total(["scf.solve"]) / setups,
        "scf.fft_s": table.total(["mesh.fft"], under=["scf.solve"]) / setups,
        "scf.iterations": ratio(sum(run.scf_iterations), len(run.scf_iterations)),
        "qxmd.refresh_ms": ratio(1e3 * inclusive(["qxmd"], under=loop), blocks),
        "lfd.step_ms": per_step(inclusive(["lfd.step"])),
        "lfd.kick_ms": per_step(table.self_total(["lfd.step"])),
        "mesh.fft_ms": per_step(table.total(["mesh.fft"], under=loop)),
        "mesh.fft_calls": ratio(table.count(["mesh.fft"], under=loop), steps),
        "nlp.apply_ms": per_step(inclusive(["nlp.apply"])),
        "energy.calc_ms": per_step(inclusive(["energy.calc"])),
        "occ.remap_ms": per_step(inclusive(["occ.remap"])),
        "current.density_ms": per_step(inclusive(["current.density"])),
        "driver.self_ms": per_step(table.self_total(loop)),
        "blas.gemm_calls": ratio(
            table.count(["blas.gemm"], under=loop) - GEMMS_STEP0 * n_traj, steps
        ),
    }
    for site in ("nlp_prop", "calc_energy", "remap_occ"):
        m[f"blas.gemm_ms.{site}"] = per_step(inclusive([f"blas.gemm@{site}"]))
    m.update(
        {
            "blas.dispatch_ms": per_step(table.self_total(["blas.gemm"])),
            "blas.gflop": ratio(tally["blas.flop"] / 1e9, steps),
            "plan.anon_lookups": ratio(lookups, steps),
            "plan.anon_hit_ratio": ratio(run.anon["hits"], lookups),
            "plan.hash_ms": per_step(table.total(["plan.hash"], under=loop)),
            "plan.hash_mb": ratio(tally["plan.hash_bytes"] / MIB, steps),
            "round.ms": per_step(table.total(["round"], under=loop)),
            "round.mb": ratio(tally["round.bytes"] / MIB, steps),
            "round.full_splits": ratio(tally["round.full_splits"], n_traj),
            "round.extends": ratio(tally["round.extends"], n_traj),
            "fused.gather_ms": per_step(table.total(["fused.gather"], under=loop)),
            "fused.gather_mb": ratio(tally["fused.gather_bytes"] / MIB, steps),
            "fused.matmul_ms": per_step(matmul_s),
            "fused.matmul_gflops": ratio(tally["fused.flop"] / 1e9, matmul_s),
            "fused.accumulate_ms": per_step(
                table.total(["fused.accumulate"], under=loop)
            ),
            "fused.overhead_ms": per_step(
                table.self_total(["fused.engine"], under=loop)
            ),
            "workspace.mb": run.workspace_bytes / MIB,
            "c4m.assemble_ms": per_step(table.self_total(["c4m"], under=loop)),
            "drift.observe_ms": per_step(table.total(["drift.observe"], under=loop)),
            "sched.ms": per_step(table.total(["sched"], under=loop)),
            "sched.switches": ratio(run.sched_switches, n_traj),
            "gpu.model_ms": per_step(run.gpu_seconds),
        }
    )
    studies = [s for s in run.studies if s["traced"]]
    busy = sum(s["busy_s"] for s in studies)
    capacity = sum(s["workers"] * s["pool_wall_s"] for s in studies)
    m["fanout.busy_s"] = ratio(busy, len(studies))
    m["fanout.idle_s"] = ratio(capacity - busy, len(studies))
    m["fanout.efficiency"] = ratio(busy, capacity)
    root = table.total(loop)
    m["trace.explained"] = 1.0 - table.self_total(loop) / root if root > 0 else 0.0
    untraced, traced = _rate(run, traced=False), _rate(run, traced=True)
    m["trace.overhead"] = ratio(untraced or 0.0, traced or 0.0)
    return m
