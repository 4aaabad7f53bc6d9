"""Compute-mode vocabulary and selection, mirroring oneMKL's contract.

oneMKL enables alternative compute modes either through dedicated APIs
or the ``MKL_BLAS_COMPUTE_MODE`` environment variable; the paper relies
exclusively on the environment variable so that *no source change* is
needed.  We reproduce both paths:

* environment: ``MKL_BLAS_COMPUTE_MODE=FLOAT_TO_BF16`` etc., consulted
  on every call (lowest priority);
* API: :func:`set_compute_mode` (process-wide) and
  :func:`compute_mode` (scoped context manager), which take precedence
  over the environment;
* per-call: an explicit ``mode=`` argument to the GEMM entry points,
  which wins over everything (the paper leaves per-call mixing to
  future work because the env var is global; the API layer here has no
  such restriction).
"""

from __future__ import annotations

import contextlib
import enum
import os
import threading
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from repro import context as _context
from repro.blas.rounding import OZAKI_MAX_SLICES
from repro.types import Precision

__all__ = [
    "ComputeMode",
    "Lowering",
    "MKL_COMPUTE_MODE_ENV",
    "OZAKI_SLICES_ENV",
    "UnknownComputeModeError",
    "resolve_mode",
    "get_compute_mode",
    "set_compute_mode",
    "compute_mode",
    "mode_from_env",
    "get_ozaki_slices",
    "set_ozaki_slices",
]

#: The environment variable the paper sets before each run.
MKL_COMPUTE_MODE_ENV = "MKL_BLAS_COMPUTE_MODE"

#: Slice count of the ``OZAKI_INT8`` split (default 3); consulted on
#: every call like the mode variable itself, so a sweep can vary it
#: without source changes.
OZAKI_SLICES_ENV = "REPRO_OZAKI_SLICES"

_ozaki_slices_override: Optional[int] = None


def _validate_slices(n: int) -> int:
    n = int(n)
    if not 1 <= n <= OZAKI_MAX_SLICES:
        raise ValueError(
            f"ozaki slice count must be in [1, {OZAKI_MAX_SLICES}], got {n}"
        )
    return n


def get_ozaki_slices(environ=None) -> int:
    """Effective ``OZAKI_INT8`` slice count (API > env > default 3)."""
    if _ozaki_slices_override is not None:
        return _ozaki_slices_override
    env = os.environ if environ is None else environ
    raw = env.get(OZAKI_SLICES_ENV)
    if raw is None or not str(raw).strip():
        return 3
    try:
        return _validate_slices(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{OZAKI_SLICES_ENV} must be an integer in "
            f"[1, {OZAKI_MAX_SLICES}], got {raw!r}"
        ) from None


def set_ozaki_slices(n: Optional[int]) -> None:
    """Set (or clear, with ``None``) the process-wide slice count."""
    global _ozaki_slices_override
    _ozaki_slices_override = None if n is None else _validate_slices(n)


class UnknownComputeModeError(ValueError):
    """Raised when an environment value or mode string is not recognised."""


#: The single-precision storage dtypes: the routines ``FLOAT_TO_*`` and
#: ``OZAKI_INT8`` act on, and those ``EMULATED_FP64`` splits into one term.
_SINGLE = (np.dtype(np.float32), np.dtype(np.complex64))


class Lowering(NamedTuple):
    """How one GEMM routine runs under a compute mode
    (:meth:`ComputeMode.lower`): the one decision the emulation runs,
    the call record names and the device model prices."""

    #: Mode honoured: ``STANDARD`` where the requested mode does not
    #: apply to the routine; ``None`` for a direct engine call
    #: (:func:`repro.blas.split.split_gemm_real`).
    mode: Optional[ComputeMode]
    #: ``None`` (native products), ``"3m"``, or the split family that
    #: runs the products: ``"split"`` (BF16/TF32 mantissa terms),
    #: ``"ozaki"`` (scaled INT8 slices) or ``"efp64"`` (FP32 terms,
    #: FP64 accumulation).
    family: Optional[str]
    #: Format of the multiply stage.
    multiply: Precision
    #: Terms (slices) each operand is split into; 1 when unsplit.
    n_terms: int

    @property
    def n_pairs(self) -> int:
        """Component products per real product: the ``n(n+1)/2`` pairs
        of :func:`repro.blas.split.component_pairs`, 1 when unsplit."""
        return self.n_terms * (self.n_terms + 1) // 2

    def n_products(self, is_complex: bool) -> int:
        """Real component products of one GEMM: :attr:`n_pairs` per real
        product, of which a complex GEMM has four (4M), or three under
        ``"3m"``."""
        if self.family == "3m":
            return 3
        return (4 if is_complex else 1) * self.n_pairs


class ComputeMode(enum.Enum):
    """oneMKL alternative compute modes studied in the paper (Table II).

    ``STANDARD`` is MKL's default — no alternative mode, i.e. plain
    FP32 (or FP64) arithmetic on the vector engines.
    """

    STANDARD = "STANDARD"
    FLOAT_TO_BF16 = "FLOAT_TO_BF16"
    FLOAT_TO_BF16X2 = "FLOAT_TO_BF16X2"
    FLOAT_TO_BF16X3 = "FLOAT_TO_BF16X3"
    FLOAT_TO_TF32 = "FLOAT_TO_TF32"
    COMPLEX_3M = "COMPLEX_3M"
    # Post-paper rungs of the same split-accumulate ladder: per-slice
    # scaled INT8 split GEMM with exact integer accumulation (Ozaki
    # scheme), and multi-term FP32 splitting of FP64 operands with
    # compensated accumulation (emulated FP64).
    OZAKI_INT8 = "OZAKI_INT8"
    EMULATED_FP64 = "EMULATED_FP64"

    # ------------------------------------------------------------------
    # Structural properties used by the numerics and the device model.
    # ------------------------------------------------------------------

    @property
    def env_value(self) -> str:
        """The string assigned to ``MKL_BLAS_COMPUTE_MODE``."""
        return self.value

    @property
    def is_low_precision(self) -> bool:
        """Whether inputs are rounded below FP32 before multiplying."""
        return self in (
            ComputeMode.FLOAT_TO_BF16,
            ComputeMode.FLOAT_TO_BF16X2,
            ComputeMode.FLOAT_TO_BF16X3,
            ComputeMode.FLOAT_TO_TF32,
        )

    @property
    def uses_int8(self) -> bool:
        """Whether the multiply stage runs on INT8 engines (Ozaki split)."""
        return self is ComputeMode.OZAKI_INT8

    @property
    def uses_fp64_emulation(self) -> bool:
        """Whether FP64-grade results are built from FP32-term products."""
        return self is ComputeMode.EMULATED_FP64

    @property
    def component_precision(self) -> Optional[Precision]:
        """Format of the multiply-stage components, or ``None``."""
        if self in (
            ComputeMode.FLOAT_TO_BF16,
            ComputeMode.FLOAT_TO_BF16X2,
            ComputeMode.FLOAT_TO_BF16X3,
        ):
            return Precision.BF16
        if self is ComputeMode.FLOAT_TO_TF32:
            return Precision.TF32
        if self is ComputeMode.OZAKI_INT8:
            return Precision.INT8
        if self is ComputeMode.EMULATED_FP64:
            return Precision.FP32
        return None

    @property
    def n_terms(self) -> int:
        """Number of reduced-precision terms each input is split into.

        ``OZAKI_INT8`` is configurable (:func:`get_ozaki_slices`);
        ``EMULATED_FP64`` reports its FP64-operand term count (3 FP32
        terms carry all 53 significand bits) — single-precision routines
        need only one FP64-accumulated term (:meth:`lower`).
        """
        if self is ComputeMode.OZAKI_INT8:
            return get_ozaki_slices()
        return {
            ComputeMode.FLOAT_TO_BF16: 1,
            ComputeMode.FLOAT_TO_BF16X2: 2,
            ComputeMode.FLOAT_TO_BF16X3: 3,
            ComputeMode.FLOAT_TO_TF32: 1,
            ComputeMode.EMULATED_FP64: 3,
        }.get(self, 1)

    @property
    def n_component_products(self) -> int:
        """Real component GEMMs per logical real GEMM.

        With an ``n``-term split, oneMKL multiplies the component pairs
        ``(i, j)`` with ``i + j <= n + 1`` (the cheapest set that keeps
        the result error at the ``O(2^-8n)`` level): 1 product for x1,
        3 for x2, 6 for x3.  This is what makes the peak theoretical
        speedups in Table II 16x, (16/3)x and (8/3)x.
        """
        n = self.n_terms
        return n * (n + 1) // 2

    @property
    def uses_3m(self) -> bool:
        """Whether complex GEMMs use the 3-multiplication algorithm."""
        return self is ComputeMode.COMPLEX_3M

    def lower(self, dtype) -> Lowering:
        """How a GEMM on ``dtype`` storage runs under this mode.

        oneMKL's contract: ``FLOAT_TO_*`` and ``OZAKI_INT8`` act only on
        single-precision routines and ``COMPLEX_3M`` only on complex
        ones; those calls run ``STANDARD`` elsewhere.  ``EMULATED_FP64``
        applies at either width: three FP32 terms reconstruct an FP64
        operand exactly, one is exact for an FP32 operand.
        """
        dtype = np.dtype(dtype)
        single = dtype in _SINGLE
        if single and self.is_low_precision:
            return Lowering(self, "split", self.component_precision, self.n_terms)
        if single and self.uses_int8:
            return Lowering(self, "ozaki", self.component_precision, self.n_terms)
        if self.uses_fp64_emulation:
            return Lowering(self, "efp64", self.component_precision, 1 if single else 3)
        native = Precision.FP32 if single else Precision.FP64
        if self.uses_3m and dtype.kind == "c":
            return Lowering(self, "3m", native, 1)
        return Lowering(ComputeMode.STANDARD, None, native, 1)

    @classmethod
    def parse(cls, value: Union[str, "ComputeMode", None]) -> "ComputeMode":
        """Parse a mode from a string (case-insensitive) or pass through."""
        if value is None:
            return cls.STANDARD
        if isinstance(value, cls):
            return value
        key = str(value).strip().upper()
        if not key:
            return cls.STANDARD
        # Accept both the env spelling and a few obvious aliases.
        aliases = {
            "FP32": "STANDARD",
            "DEFAULT": "STANDARD",
            "BF16": "FLOAT_TO_BF16",
            "BF16X2": "FLOAT_TO_BF16X2",
            "BF16X3": "FLOAT_TO_BF16X3",
            "TF32": "FLOAT_TO_TF32",
            "3M": "COMPLEX_3M",
            "OZAKI": "OZAKI_INT8",
            "INT8": "OZAKI_INT8",
            "EMU_FP64": "EMULATED_FP64",
            "EFP64": "EMULATED_FP64",
        }
        # Normalise separators so OZAKI-INT8 / "emulated fp64" parse too.
        key = key.replace("-", "_").replace(" ", "_")
        key = aliases.get(key, key)
        try:
            return cls[key]
        except KeyError:
            valid = ", ".join(m.value for m in cls)
            raise UnknownComputeModeError(
                f"unknown compute mode {value!r}; valid values: {valid}"
            ) from None


# ----------------------------------------------------------------------
# Selection machinery: per-call > scoped/global API > environment.
# ----------------------------------------------------------------------

_global_mode: Optional[ComputeMode] = None
_global_lock = threading.Lock()


def mode_from_env(environ=None) -> Optional[ComputeMode]:
    """Read ``MKL_BLAS_COMPUTE_MODE``; ``None`` when unset/empty."""
    env = os.environ if environ is None else environ
    raw = env.get(MKL_COMPUTE_MODE_ENV)
    if raw is None or not raw.strip():
        return None
    return ComputeMode.parse(raw)


def set_compute_mode(mode: Union[str, ComputeMode, None]) -> None:
    """Set (or clear, with ``None``) the process-wide compute mode."""
    global _global_mode
    with _global_lock:
        _global_mode = None if mode is None else ComputeMode.parse(mode)


def get_compute_mode() -> ComputeMode:
    """Mode that a BLAS call issued right now would run under."""
    return resolve_mode(None)


def resolve_mode(explicit: Union[str, ComputeMode, None]) -> ComputeMode:
    """Resolve the effective mode for one BLAS call.

    Priority: explicit per-call argument, then the innermost active
    :func:`compute_mode` context, then :func:`set_compute_mode`, then
    the environment variable, then ``STANDARD``.
    """
    return _resolve(explicit, _context.current().mode)


def _resolve(
    explicit: Union[str, ComputeMode, None], scoped: Optional[ComputeMode]
) -> ComputeMode:
    """:func:`resolve_mode` with the ``compute_mode`` scope's value
    (``scoped``) already read from the execution context."""
    if explicit is not None:
        return ComputeMode.parse(explicit)
    if scoped is not None:
        return scoped
    if _global_mode is not None:
        return _global_mode
    env = mode_from_env()
    if env is not None:
        return env
    return ComputeMode.STANDARD


@contextlib.contextmanager
def compute_mode(mode: Union[str, ComputeMode]) -> Iterator[ComputeMode]:
    """Scoped compute-mode override (per execution context, re-entrant).

    >>> with compute_mode("FLOAT_TO_BF16"):
    ...     C = cgemm(A, B)          # runs in BF16 mode
    """
    parsed = ComputeMode.parse(mode)
    with _context.scoped(mode=parsed):
        yield parsed
