"""The modelled device: ties the GEMM model to a timeline.

:class:`Device` is what the application attaches via
:func:`repro.blas.gemm.use_device`.  Every BLAS call then reports its
(m, n, k, mode) here; the device predicts the execution time on the
modelled Max 1550 stack and books a kernel event.  Non-BLAS application
kernels (stencils, pointwise updates, FFTs) and host<->device copies
are booked through :meth:`record_stream` and :meth:`record_copy`, so
the end-to-end Fig. 3a times contain the same constituents as the
paper's unitrace measurements.
"""

from __future__ import annotations

from typing import Optional

from repro.blas.modes import ComputeMode
from repro.gpu.gemm_model import GemmCost, GemmModel
from repro.gpu.specs import DeviceSpec, MAX_1550_STACK
from repro.gpu.timeline import Timeline

__all__ = ["Device"]

#: PCIe-attached host link (one direction), bytes/s — used for the
#: shadow-dynamics transfer accounting (CPU<->GPU copies the paper
#: minimises).
_HOST_LINK_BANDWIDTH = 55e9


class Device:
    """A modelled single stack of the Intel Data Center GPU Max 1550."""

    def __init__(self, spec: DeviceSpec = MAX_1550_STACK, model: Optional[GemmModel] = None):
        self.spec = spec
        self.model = model or GemmModel(spec)
        self.timeline = Timeline()
        self._allocated = 0

    # ------------------------------------------------------------------
    # Memory accounting (Table V: largest system fits in 64 GB).
    # ------------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    def allocate(self, nbytes: int) -> None:
        """Book a device allocation; raises MemoryError beyond HBM capacity."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self._allocated + nbytes > self.spec.hbm_bytes:
            raise MemoryError(
                f"device OOM: {self._allocated + nbytes} bytes requested, "
                f"{self.spec.hbm_bytes} available on {self.spec.name}"
            )
        self._allocated += nbytes

    def free(self, nbytes: int) -> None:
        """Release a device allocation."""
        if nbytes < 0 or nbytes > self._allocated:
            raise ValueError(f"cannot free {nbytes} of {self._allocated} allocated bytes")
        self._allocated -= nbytes

    # ------------------------------------------------------------------
    # Kernel booking.
    # ------------------------------------------------------------------

    def record_gemm(
        self,
        routine: str,
        m: int,
        n: int,
        k: int,
        mode: ComputeMode,
        site: str = "",
    ) -> float:
        """Book a BLAS call; returns the modelled seconds.

        This is the hook :mod:`repro.blas.gemm` calls when this device
        is attached with ``use_device``.
        """
        cost: GemmCost = self.model.cost(routine, m, n, k, mode)
        self.timeline.append(routine, cost.seconds, kind="blas", site=site)
        return cost.seconds

    def record_stream(
        self,
        name: str,
        bytes_moved: float,
        buffer_bytes: Optional[float] = None,
        site: str = "",
    ) -> float:
        """Book a bandwidth-bound application kernel (stencil/pointwise/FFT pass).

        These are LFD's non-BLAS kernels; their cost scales with the
        data volume swept, which is why FP64 storage roughly doubles
        the whole step time (Fig. 3a, FP64 vs FP32).  ``buffer_bytes``
        (default: ``bytes_moved``) sets the occupancy point of the
        saturating stream-rate model.
        """
        if bytes_moved < 0:
            raise ValueError(f"negative bytes_moved: {bytes_moved}")
        buf = bytes_moved if buffer_bytes is None else buffer_bytes
        rate = self.spec.stream_rate(max(buf, 1.0))
        seconds = bytes_moved / rate + self.spec.kernel_launch_overhead
        self.timeline.append(name, seconds, kind="app", site=site)
        return seconds

    def record_copy(self, name: str, bytes_moved: float, site: str = "") -> float:
        """Book a host<->device transfer over the PCIe link."""
        seconds = bytes_moved / _HOST_LINK_BANDWIDTH + self.spec.kernel_launch_overhead
        self.timeline.append(name, seconds, kind="copy", site=site)
        return seconds

    # ------------------------------------------------------------------

    def total_l0_time(self) -> float:
        """unitrace's Total L0 Time for everything booked so far."""
        return self.timeline.total_l0_time()

    def reset(self) -> None:
        """Clear the timeline (allocations are left as-is)."""
        self.timeline.reset()
