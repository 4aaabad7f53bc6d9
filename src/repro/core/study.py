"""Accuracy precision study: one system, every compute mode.

This orchestrates the paper's Artifact A2 workflow: run the identical
simulation once per ``MKL_BLAS_COMPUTE_MODE`` value (plus the FP32
reference) and extract the deviation of the key observables.  The
ground state is converged once (FP64 QXMD) and shared by every run,
exactly as re-running the same binary with a different environment
variable would.

The per-mode runs are embarrassingly parallel (the paper executes
them as independent jobs); ``run(parallel=True)`` distributes them
over a process pool and — because every run is bitwise deterministic —
produces exactly the serial results.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Iterable, List, Optional

from repro.blas.modes import ComputeMode
from repro.context import fan_out
from repro.core.deviation import OBSERVABLES, DeviationSeries, deviation_from_reference
from repro.dcmesh.simulation import Simulation, SimulationConfig, SimulationResult

__all__ = [
    "STUDY_MODES",
    "PAPER_STUDY_MODES",
    "PrecisionStudy",
    "StudyResult",
    "DistributedStudyResult",
    "run_distributed_study",
]

#: The five alternative modes of Fig. 1, in the paper's order, plus
#: the post-paper rungs (Ozaki INT8 between BF16X2 and FP32 on the
#: analytic error ladder; emulated FP64 above everything).
STUDY_MODES = (
    ComputeMode.FLOAT_TO_BF16,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.FLOAT_TO_BF16X3,
    ComputeMode.FLOAT_TO_TF32,
    ComputeMode.COMPLEX_3M,
    ComputeMode.OZAKI_INT8,
    ComputeMode.EMULATED_FP64,
)

#: The paper's original five (Fig. 1/2 pinning tests use these).
PAPER_STUDY_MODES = STUDY_MODES[:5]


@dataclasses.dataclass
class StudyResult:
    """All runs of a study plus their deviation series."""

    config: SimulationConfig
    results: Dict[ComputeMode, SimulationResult]
    deviations: Dict[str, List[DeviationSeries]]

    def series(self, observable: str, mode: ComputeMode) -> DeviationSeries:
        """Deviation series for one (observable, mode) pair."""
        for s in self.deviations[observable]:
            if s.mode is mode:
                return s
        raise KeyError(f"no deviation series for {observable}/{mode}")

    def max_deviation_table(self) -> List[tuple]:
        """(observable, mode, max deviation) rows — Fig. 1's headline
        numbers (e.g. the near-5-Hartree BF16 kinetic-energy case)."""
        rows = []
        for obs, series_list in self.deviations.items():
            for s in series_list:
                rows.append((obs, s.mode.env_value, s.max_deviation))
        return rows


class PrecisionStudy:
    """Run the full Fig. 1 / Fig. 2 accuracy sweep."""

    def __init__(
        self,
        config: SimulationConfig,
        modes: Iterable[ComputeMode] = STUDY_MODES,
        observables: Iterable[str] = OBSERVABLES,
    ):
        self.config = config
        self.modes = tuple(modes)
        self.observables = tuple(observables)
        if ComputeMode.STANDARD in self.modes:
            raise ValueError("STANDARD is the implicit reference; list only alternatives")

    def run(
        self,
        n_steps: Optional[int] = None,
        progress: Optional[Callable[[ComputeMode], None]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> StudyResult:
        """Execute the reference plus every alternative-mode run.

        ``parallel=True`` fans the per-mode runs out over a process
        pool (:func:`repro.context.fan_out`; one worker per mode by
        default, capped at the CPU count) that receives the set-up
        simulation and the caller's execution snapshot; results are
        bitwise identical to the serial path.
        """
        sim = Simulation(self.config)
        sim.setup()  # one shared FP64 ground state
        all_modes = (ComputeMode.STANDARD, *self.modes)
        if parallel:
            if progress is not None:
                for mode in all_modes:
                    progress(mode)
            # _run_one_mode is looked up now, not at import: harnesses
            # swap it to time each worker's trajectory.
            runs = fan_out(
                functools.partial(_run_mode_of, _run_one_mode, sim, n_steps),
                all_modes,
                max_workers=max_workers,
                processes=True,
            )
        else:
            runs = []
            for mode in all_modes:
                if progress is not None:
                    progress(mode)
                runs.append(sim.run(mode=mode, n_steps=n_steps))
        results = dict(zip(all_modes, runs))
        deviations = deviation_from_reference(results, self.observables)
        return StudyResult(config=self.config, results=results, deviations=deviations)

    def run_distributed(
        self,
        n_steps: Optional[int] = None,
        seeds: Iterable[int] = (),
        n_workers: int = 2,
        queue_dir=None,
        inline: bool = False,
    ) -> "DistributedStudyResult":
        """The study as a :mod:`repro.distrib` job — one worker
        *process* per in-flight (mode, seed) trajectory, checkpointable
        via ``queue_dir``.  See :func:`run_distributed_study`."""
        return run_distributed_study(
            self.config,
            modes=self.modes,
            seeds=seeds,
            n_steps=n_steps,
            n_workers=n_workers,
            queue_dir=queue_dir,
            inline=inline,
        )


def _run_one_mode(
    sim: Simulation, mode: ComputeMode, n_steps: Optional[int]
) -> SimulationResult:
    """Worker body for the parallel study (module-level: picklable)."""
    return sim.run(mode=mode, n_steps=n_steps)


def _run_mode_of(run_one, sim, n_steps, mode) -> SimulationResult:
    """``run_one(sim, mode, n_steps)`` with the mode last, for fan_out."""
    return run_one(sim, mode, n_steps)


# ----------------------------------------------------------------------
# Distributed execution (repro.distrib).
# ----------------------------------------------------------------------

#: SimulationConfig fields a study cell can carry through the queue's
#: JSON manifest (plain scalars/tuples; ``laser``/``scf``/``storage``
#: are objects, so distributed studies are pinned to their
#: ``small_test`` defaults).
_JSON_CONFIG_FIELDS = (
    "ncells",
    "mesh_shape",
    "n_orb",
    "dt",
    "n_qd_steps",
    "nscf",
    "lattice",
    "move_ions",
    "jitter",
    "seed",
    "induced_field",
    "induced_coupling",
)


@dataclasses.dataclass
class DistributedStudyResult:
    """A study ensemble merged back from the distributed queue.

    Cells carry the observable columns (JSON floats round-trip
    exactly) plus a sha256 digest of their raw float64 bytes, so
    bitwise agreement with a serial :meth:`PrecisionStudy.run` is
    checkable without shipping wavefunctions between processes.
    """

    modes: tuple
    seeds: tuple
    merged: object  #: the underlying repro.distrib MergedResult

    def _payload(self, mode: ComputeMode, seed: Optional[int] = None) -> dict:
        seed = self.seeds[0] if seed is None else int(seed)
        key = f"study:{mode.env_value}:-:{seed}:-"
        return self.merged.cells[key]

    def column(self, observable: str, mode: ComputeMode, seed=None):
        """Observable column of one (mode, seed) trajectory."""
        import numpy as np

        payload = self._payload(mode, seed)
        return np.array(payload["columns"][observable], dtype=np.float64)

    def digest(self, mode: ComputeMode, seed=None) -> str:
        """sha256 over the trajectory's raw observable bytes."""
        return self._payload(mode, seed)["digest"]

    def max_deviation_table(self) -> List[tuple]:
        """(observable, mode, max |dev| vs FP32) rows, per seed-0 run —
        the same shape :meth:`StudyResult.max_deviation_table` returns."""
        import numpy as np

        rows = []
        for obs in OBSERVABLES:
            ref = self.column(obs, ComputeMode.STANDARD)
            for mode in self.modes:
                if mode is ComputeMode.STANDARD:
                    continue
                dev = np.abs(self.column(obs, mode) - ref)
                rows.append((obs, mode.env_value, float(dev.max())))
        return rows


def _small_test_overrides(config: SimulationConfig) -> Dict[str, object]:
    """Express ``config`` as ``small_test(**overrides)``, JSON-safely.

    Raises when the config differs from the ``small_test`` baseline in
    a non-serialisable field (laser pulse, SCF params, storage
    precision) — those runs must use the in-process paths.
    """
    base = SimulationConfig.small_test()
    for field in ("laser", "scf", "storage"):
        if getattr(config, field) != getattr(base, field):
            raise ValueError(
                f"distributed studies cannot serialise a custom {field!r}; "
                "use run() / run(parallel=True) for this configuration"
            )
    overrides: Dict[str, object] = {}
    for field in _JSON_CONFIG_FIELDS:
        value = getattr(config, field)
        if value != getattr(base, field):
            overrides[field] = list(value) if isinstance(value, tuple) else value
    return overrides


def run_distributed_study(
    config: SimulationConfig,
    modes: Iterable[ComputeMode] = STUDY_MODES,
    seeds: Iterable[int] = (),
    n_steps: Optional[int] = None,
    n_workers: int = 2,
    queue_dir=None,
    inline: bool = False,
) -> DistributedStudyResult:
    """Run a (mode x seed) study ensemble through :mod:`repro.distrib`.

    One queue cell per (mode, seed) trajectory — the FP32 reference is
    a cell like any other — sharded over ``n_workers`` worker
    processes.  Every cell re-runs the deterministic FP64 ground-state
    setup for its config, so trajectories are bitwise-identical to the
    serial path's (which shares one setup; determinism makes the two
    indistinguishable).  ``seeds`` defaults to the config's own seed;
    pass several for a trajectory ensemble — that axis is what the
    process pool scales that threads cannot.
    """
    all_modes = (ComputeMode.STANDARD, *tuple(modes))
    seeds = tuple(int(s) for s in seeds) or (int(config.seed),)
    from repro.distrib import SweepSpec, submit

    spec = SweepSpec(
        kind="study",
        modes=tuple(m.env_value for m in all_modes),
        seeds=seeds,
        params={"config": _small_test_overrides(config), "n_steps": n_steps},
    )
    handle = submit(spec, n_workers=n_workers, queue_dir=queue_dir, inline=inline)
    return DistributedStudyResult(modes=all_modes, seeds=seeds, merged=handle.result())
