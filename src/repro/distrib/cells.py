"""The unit of distributed work: sweep specs, cells, and cell bodies.

A :class:`SweepSpec` describes a grid of independent evaluations; its
:meth:`~SweepSpec.cells` explosion produces one :class:`Cell` per grid
point.  Cells are plain JSON-safe records (never pickles), so a worker
on another host can reconstruct them from the queue's ``manifest.json``
alone.

:func:`run_cell` is the single dispatch point every worker executes.
Heavy imports (numpy, the simulation, the experiment registry) happen
*inside* the kind branches so that a worker processing synthetic cells
never pays for them — this keeps worker start-up cheap enough that the
engine wins on small grids too.

Determinism contract: the ``sweep`` / ``study`` / ``experiment`` cell
bodies are the *same code* the serial paths run, with the cell's
parameters passed explicitly (never via ambient mutable state), and
JSON round-trips Python floats exactly (``json.loads(json.dumps(x)) ==
x`` bitwise for finite floats).  Merged distributed artifacts are
therefore bitwise-identical to the serial ones — pinned by the
``distrib-serial-equivalence`` claim.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["CELL_KINDS", "Cell", "SweepSpec", "run_cell"]

#: Recognised cell kinds (see :func:`run_cell` for the bodies).
CELL_KINDS = ("sweep", "study", "experiment", "probe", "synthetic")


@dataclasses.dataclass(frozen=True)
class Cell:
    """One grid point of a sweep/ensemble: the unit of lease and merge.

    Every axis is optional — a kind uses the axes that apply to it and
    leaves the rest ``None``.  The :attr:`key` is the stable identity
    duplicates are discarded by.
    """

    kind: str
    mode: Optional[str] = None  #: ComputeMode.env_value, never the enum
    n_orb: Optional[int] = None
    seed: Optional[int] = None
    experiment: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; valid: {', '.join(CELL_KINDS)}"
            )

    @property
    def key(self) -> str:
        """Stable cell identity, e.g. ``sweep:FLOAT_TO_BF16:1024:0:-``."""
        parts = (self.kind, self.mode, self.n_orb, self.seed, self.experiment)
        return ":".join("-" if v is None else str(v) for v in parts)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "n_orb": self.n_orb,
            "seed": self.seed,
            "experiment": self.experiment,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cell":
        return cls(
            kind=data["kind"],
            mode=data.get("mode"),
            n_orb=data.get("n_orb"),
            seed=data.get("seed"),
            experiment=data.get("experiment"),
        )


@dataclasses.dataclass
class SweepSpec:
    """A grid of independent cells plus the knobs their bodies need.

    ``params`` must stay JSON-safe — it is stored verbatim in the
    queue manifest and handed to :func:`run_cell` in every worker.
    """

    kind: str = "sweep"
    modes: Tuple[str, ...] = ()
    norbs: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    experiments: Tuple[str, ...] = ()
    n_cells: int = 0  #: grid size for synthetic/probe kinds
    params: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown spec kind {self.kind!r}; valid: {', '.join(CELL_KINDS)}"
            )
        self.modes = tuple(str(m) for m in self.modes)
        self.norbs = tuple(int(n) for n in self.norbs)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.experiments = tuple(str(e) for e in self.experiments)

    def cells(self) -> List[Cell]:
        """Explode the grid, in the canonical (manifest) order.

        The order is deterministic so a resumed driver reconstructs
        the identical cell list; merge-time reordering (e.g. into the
        serial sweep's n_orb-major layout) happens on top of it.
        """
        if self.kind == "experiment":
            if not self.experiments:
                raise ValueError("experiment spec needs at least one experiment id")
            return [Cell(kind=self.kind, experiment=e) for e in self.experiments]
        if self.kind in ("synthetic", "probe"):
            if self.n_cells < 1:
                raise ValueError(f"{self.kind} spec needs n_cells >= 1")
            return [Cell(kind=self.kind, seed=i) for i in range(self.n_cells)]
        if self.kind == "study":
            if not self.modes:
                raise ValueError("study spec needs at least one mode")
            return [
                Cell(kind=self.kind, mode=m, seed=s)
                for s in self.seeds
                for m in self.modes
            ]
        # "sweep": mode x n_orb x seed.
        if not self.modes or not self.norbs:
            raise ValueError("sweep spec needs modes and norbs")
        return [
            Cell(kind=self.kind, mode=m, n_orb=n, seed=s)
            for s in self.seeds
            for n in self.norbs
            for m in self.modes
        ]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "modes": list(self.modes),
            "norbs": list(self.norbs),
            "seeds": list(self.seeds),
            "experiments": list(self.experiments),
            "n_cells": self.n_cells,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SweepSpec":
        return cls(
            kind=data["kind"],
            modes=tuple(data.get("modes", ())),
            norbs=tuple(data.get("norbs", ())),
            seeds=tuple(data.get("seeds", (0,))),
            experiments=tuple(data.get("experiments", ())),
            n_cells=int(data.get("n_cells", 0)),
            params=dict(data.get("params", {})),
        )


# ----------------------------------------------------------------------
# Cell bodies.
# ----------------------------------------------------------------------


def _run_sweep_cell(cell: Cell, params: dict) -> dict:
    """One (mode, n_orb) point of the Fig. 3b device-model sweep:
    :meth:`repro.core.blas_sweep.BlasSweep.point`, so the merged grid is
    the serial sweep, bit for bit."""
    from repro.blas.modes import ComputeMode
    from repro.core.blas_sweep import BlasSweep

    sweep = BlasSweep(routine=str(params.get("routine", "cgemm")))
    point = sweep.point(ComputeMode.parse(cell.mode), int(cell.n_orb))
    return {**dataclasses.asdict(point), "mode": point.mode.env_value}


def _run_study_cell(cell: Cell, params: dict) -> dict:
    """One (mode, seed) trajectory of a precision-study ensemble.

    Returns the observable columns (JSON floats round-trip exactly)
    plus a digest of their raw bytes, so equivalence with a serial run
    is checkable without shipping the wavefunction.
    """
    from repro.blas.modes import ComputeMode
    from repro.dcmesh.simulation import Simulation, SimulationConfig

    overrides = dict(params.get("config", {}))
    for key in ("ncells", "mesh_shape"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    if cell.seed is not None:
        overrides["seed"] = int(cell.seed)
    config = SimulationConfig.small_test(**overrides)
    sim = Simulation(config)
    sim.setup()
    n_steps = params.get("n_steps")
    result = sim.run(
        mode=ComputeMode.parse(cell.mode),
        n_steps=None if n_steps is None else int(n_steps),
    )
    columns = {
        obs: [float(v) for v in result.column(obs)]
        for obs in ("nexc", "javg", "ekin")
    }
    digest = hashlib.sha256()
    for obs in ("nexc", "javg", "ekin"):
        digest.update(result.column(obs).astype("float64").tobytes())
    return {
        "mode": cell.mode,
        "seed": cell.seed,
        "columns": columns,
        "digest": digest.hexdigest(),
        "wall_seconds": result.wall_seconds,
    }


def _run_experiment_cell(cell: Cell, params: dict) -> dict:
    """One experiment-registry artifact (the ``runner --distrib`` path).

    Output files (CSVs, figures) are written straight into the shared
    ``output_dir`` — per-experiment filenames are disjoint, so workers
    never contend, and re-executions of deterministic artifacts
    rewrite identical bytes.
    """
    from repro.experiments.registry import run_experiment

    result = run_experiment(
        cell.experiment,
        fast=bool(params.get("fast", True)),
        output_dir=params.get("output_dir"),
    )
    return {"experiment": cell.experiment, "text": result["text"]}


def _run_probe_cell(cell: Cell, params: dict) -> dict:
    """Report the ambient settings a worker restored.

    Used by the propagation regression tests: the driver snapshots
    backend/telemetry/precision state, the worker restores it, and
    this cell proves what actually took effect — including one real
    (tiny) GEMM so the telemetry stream carries correctly-labelled
    ``blas.calls`` for the cell.
    """
    import numpy as np

    from repro.blas.backend import active_backend
    from repro.blas.gemm import finite_checks_enabled, sgemm
    from repro.blas.modes import get_compute_mode, get_ozaki_slices
    from repro.core.scheduler import adaptive_enabled
    from repro.telemetry.drift import drift_enabled
    from repro.telemetry.registry import telemetry_enabled

    rng = np.random.default_rng(int(cell.seed or 0))
    a = rng.standard_normal((16, 16)).astype(np.float32)
    sgemm(a, a)
    return {
        "index": cell.seed,
        "backend": active_backend().cache_key,
        "ozaki_slices": get_ozaki_slices(),
        "check_finite": finite_checks_enabled(),
        "telemetry": telemetry_enabled(),
        "drift": drift_enabled(),
        "adaptive": adaptive_enabled(),
        "mode": get_compute_mode().env_value,
        "pid": os.getpid(),
    }


def _run_synthetic_cell(cell: Cell, params: dict) -> dict:
    """A cell with a fixed service time (engine benchmarks and tests).

    The body blocks without burning host CPU, modelling device- or
    IO-bound cells, so scheduler behaviour (sharding, stealing, resume)
    is measurable independently of the host's core count.
    """
    seconds = float(params.get("cell_seconds", 0.05))
    if seconds > 0.0:
        time.sleep(seconds)
    return {"index": cell.seed, "slept": seconds, "pid": os.getpid()}


_BODIES = {
    "sweep": _run_sweep_cell,
    "study": _run_study_cell,
    "experiment": _run_experiment_cell,
    "probe": _run_probe_cell,
    "synthetic": _run_synthetic_cell,
}


def run_cell(cell: Cell, params: Optional[dict] = None) -> dict:
    """Execute one cell body; returns its JSON-safe result payload."""
    return _BODIES[cell.kind](cell, params or {})
