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


def _run_one_mode(
    sim: Simulation, mode: ComputeMode, n_steps: Optional[int]
) -> SimulationResult:
    """Worker body for the parallel study (module-level: picklable)."""
    return sim.run(mode=mode, n_steps=n_steps)


def _run_mode_of(run_one, sim, n_steps, mode) -> SimulationResult:
    """``run_one(sim, mode, n_steps)`` with the mode last, for fan_out."""
    return run_one(sim, mode, n_steps)

