"""Per-call BLAS speedup sweep over orbital counts (Fig. 3b, Tables VI-VII).

Artifact A3: run the 40-atom system at N_orb in {256, 1024, 2048,
4096} under ``MKL_VERBOSE=2`` and compare the remap_occ GEMM timing of
each compute mode against FP32.  Table VII documents the GEMM shape:
``m = 128`` (occupied orbitals), ``k = 64^3`` (the mesh) and ``n``
tracking the virtual block.

Two evaluation paths are provided:

* **model** — the Max 1550 device model (the numbers the reproduction
  reports at paper scale);
* **software** — wall-clock of the actual software emulation on small
  shapes (used by the pytest benchmarks to show the *relative*
  component-count costs: x3 runs ~6 GEMMs per GEMM, 3M saves one of
  four).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.blas.modes import ComputeMode
from repro.context import fan_out
from repro.core.theoretical import peak_theoretical_speedup
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import DeviceSpec, MAX_1550_STACK
from repro.telemetry.registry import active as _telemetry_active

__all__ = [
    "SweepPoint",
    "BlasSweep",
    "FIG3B_NORBS",
    "remap_gemm_shape",
    "SWEEP_MODES",
    "PAPER_SWEEP_MODES",
    "parallel_mode_sweep",
]

_T = TypeVar("_T")


def parallel_mode_sweep(
    worker: Callable[[ComputeMode], _T],
    modes: Optional[Iterable[ComputeMode]] = None,
    max_workers: Optional[int] = None,
) -> List[_T]:
    """Evaluate ``worker(mode)`` for every mode concurrently.

    The compute modes are independent of each other — each run reads
    its own inputs and the mode is passed explicitly — so they fan out
    over threads (:func:`repro.context.fan_out`; NumPy's BLAS releases
    the GIL inside the matmuls).  Each worker runs in a copy of the
    caller's execution context, so scoped state (``use_backend``,
    ``mkl_verbose``, ``use_device``, ``call_site``) applies exactly as
    in the serial loop.  Results come back in mode order.
    """
    modes = list(SWEEP_MODES if modes is None else modes)

    def run_one(mode: ComputeMode) -> _T:
        # Per-mode span so a sweep's phase structure shows up in the
        # exported traces; a plain passthrough while telemetry is off.
        t = _telemetry_active()
        if t is None:
            return worker(mode)
        with t.span(
            "mode_sweep", cat="sweep", mode=getattr(mode, "env_value", str(mode))
        ):
            return worker(mode)

    return fan_out(run_one, modes, max_workers=max_workers)


#: Orbital counts of Fig. 3b / Table VII.
FIG3B_NORBS = (256, 1024, 2048, 4096)

#: Modes compared against FP32 in Fig. 3b — the paper's five plus the
#: post-paper split rungs (Ozaki INT8 and emulated FP64), which appear
#: in every sweep artifact the paper modes do.
SWEEP_MODES = (
    ComputeMode.FLOAT_TO_BF16,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.FLOAT_TO_BF16X3,
    ComputeMode.FLOAT_TO_TF32,
    ComputeMode.COMPLEX_3M,
    ComputeMode.OZAKI_INT8,
    ComputeMode.EMULATED_FP64,
)

#: The paper's original five (Tables VI/VII pin these exactly).
PAPER_SWEEP_MODES = SWEEP_MODES[:5]

#: The 40-atom system's occupied-orbital count and mesh size.
_N_OCC_40 = 128
_N_GRID_40 = 64**3


def remap_gemm_shape(n_orb: int, n_occ: int = _N_OCC_40, n_grid: int = _N_GRID_40):
    """Table VII: (m, n, k) of the remap_occ GEMM at ``n_orb`` orbitals.

    ``m`` stays pinned at the occupied count, ``k`` at the mesh size;
    only ``n`` (the virtual block) grows with the orbital count.
    """
    if n_orb <= n_occ:
        raise ValueError(f"n_orb={n_orb} must exceed n_occ={n_occ}")
    return (n_occ, n_orb - n_occ, n_grid)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One (N_orb, mode) cell of Fig. 3b."""

    n_orb: int
    mode: ComputeMode
    m: int
    n: int
    k: int
    fp32_seconds: float
    mode_seconds: float

    @property
    def speedup(self) -> float:
        return self.fp32_seconds / self.mode_seconds


class BlasSweep:
    """Evaluates the Fig. 3b sweep and the Table VI maxima."""

    def __init__(self, spec: DeviceSpec = MAX_1550_STACK, routine: str = "cgemm"):
        self.spec = spec
        self.model = GemmModel(spec)
        self.routine = routine

    def point(self, mode: ComputeMode, n_orb: int) -> SweepPoint:
        """One Fig. 3b point on the device model: the remap_occ shape at
        ``n_orb`` orbitals, timed under STANDARD and under ``mode``."""
        m, n, k = remap_gemm_shape(n_orb)
        fp32 = self.model.seconds(self.routine, m, n, k, ComputeMode.STANDARD)
        alt = self.model.seconds(self.routine, m, n, k, mode)
        t = _telemetry_active()
        if t is not None:
            # Device-model evaluations are not emulation calls; they get
            # their own counter series.
            t.count("blas.model_calls", 2, routine=self.routine, mode=mode.env_value)
        return SweepPoint(
            n_orb=n_orb, mode=mode, m=m, n=n, k=k, fp32_seconds=fp32, mode_seconds=alt
        )

    def sweep(
        self,
        norbs: Sequence[int] = FIG3B_NORBS,
        modes: Iterable[ComputeMode] = SWEEP_MODES,
        max_workers: Optional[int] = None,
    ) -> List[SweepPoint]:
        """All Fig. 3b points on the device model.

        ``max_workers > 1`` fans the (independent) modes out over a
        thread pool via :func:`parallel_mode_sweep`; the returned point
        order is identical to the serial evaluation.
        """
        modes = list(modes)

        def eval_mode(mode: ComputeMode) -> List[SweepPoint]:
            return [self.point(mode, n_orb) for n_orb in norbs]

        # Serial unless explicitly asked (None -> 1): keeps the default
        # behaviour identical to the historical loop.
        per_mode = parallel_mode_sweep(eval_mode, modes, max_workers=max_workers or 1)
        # Reassemble in the serial loop's (n_orb-major) order.
        by_mode = dict(zip(modes, per_mode))
        return [
            by_mode[mode][i]
            for i in range(len(list(norbs)))
            for mode in modes
        ]

    def table6(
        self,
        norbs: Sequence[int] = FIG3B_NORBS,
        modes: Iterable[ComputeMode] = PAPER_SWEEP_MODES,
    ) -> List[Tuple[str, float, float]]:
        """Table VI: (mode, max observed speedup, peak theoretical).

        "Maximum observed" is over the orbital sweep, exactly as the
        paper takes its 3.91x from the largest N_orb case.  Defaults to
        the paper's five modes — ``EMULATED_FP64``'s theoretical column
        is quoted against native FP64, so mixing it into this table
        would compare two different baselines (the extended modes live
        in :func:`repro.core.theoretical.table2_extended_rows` and the
        full Fig. 3b sweep instead).
        """
        points = self.sweep(norbs, modes)
        best: Dict[ComputeMode, float] = {}
        for p in points:
            best[p.mode] = max(best.get(p.mode, 0.0), p.speedup)
        return [
            (mode.env_value, best[mode], peak_theoretical_speedup(mode, self.spec))
            for mode in modes
        ]

    def table7(self, norbs: Sequence[int] = FIG3B_NORBS) -> List[Tuple[int, int, int, int]]:
        """Table VII: (N_orb, m, n, k) of the remap_occ GEMM."""
        return [(n_orb, *remap_gemm_shape(n_orb)) for n_orb in norbs]

    def sweep_software(
        self,
        norbs: Sequence[int] = (256, 512),
        modes: Iterable[ComputeMode] = SWEEP_MODES,
        shrink: int = 512,
        repeats: int = 3,
        seed: int = 0,
        max_workers: Optional[int] = None,
    ) -> List[SweepPoint]:
        """Fig. 3b evaluated by *actually timing the software emulation*
        on shrunken shapes (``k`` divided by ``shrink``).

        This path measures a different thing than the device model: on
        a CPU the split modes cost extra component products rather than
        saving silicon, so mode "speedups" come out *below* one in
        proportion to their product counts — which is itself a useful
        check that the emulation does the work it claims.

        Each repeat passes plain arrays, so every timing includes the
        operands' rounding and splitting: GEMMs do not cache plain
        operands (only :func:`repro.blas.prepare`-d ones).

        ``max_workers > 1`` times the modes concurrently (they are
        independent; each call passes its mode explicitly).  Use it for
        throughput when scanning many shapes — for publication-grade
        wall-clock numbers keep the default serial path, where timings
        cannot contend for cores.
        """
        import time

        import numpy as np

        from repro.blas.gemm import gemm

        modes = list(modes)
        rng = np.random.default_rng(seed)
        points: List[SweepPoint] = []
        for n_orb in norbs:
            m, n, k = remap_gemm_shape(n_orb)
            k = max(k // shrink, 8)
            a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))).astype(np.complex64)
            b = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))).astype(np.complex64)

            def best_time(mode):
                best = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    gemm(a, b, mode=mode)
                    best = min(best, time.perf_counter() - t0)
                return best

            fp32 = best_time(ComputeMode.STANDARD)
            mode_seconds = parallel_mode_sweep(
                best_time, modes, max_workers=max_workers or 1
            )
            for mode, secs in zip(modes, mode_seconds):
                points.append(
                    SweepPoint(
                        n_orb=n_orb, mode=mode, m=m, n=n, k=k,
                        fp32_seconds=fp32, mode_seconds=secs,
                    )
                )
        return points
