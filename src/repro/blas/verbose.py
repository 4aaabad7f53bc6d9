"""``MKL_VERBOSE``-style per-call BLAS logging.

The paper's Artifact A3 extracts every Table VI / VII / Fig. 3b number
from ``MKL_VERBOSE=2`` output: one line per BLAS call carrying the
routine name, matrix dimensions and synchronous timing.  We reproduce
the mechanism: when verbosity is enabled (environment variable
``MKL_VERBOSE`` or the :func:`mkl_verbose` context manager), every GEMM
appends a :class:`VerboseRecord` to a log and can render it in an
MKL-look-alike text form.  Inside an :func:`mkl_verbose` scope the log
is that scope's list, held in the execution context
(:mod:`repro.context`), so workers started with
:func:`repro.context.fan_out` write into it too; outside any scope,
``MKL_VERBOSE``-driven records go to one process log.

Records carry *two* timings: ``seconds`` (wall-clock of the emulation
itself, only meaningful for relative software cost) and
``model_seconds`` (the Intel Max 1550 device-model prediction, the
number the reproduction actually reports — see
:mod:`repro.gpu.gemm_model`).

Since the telemetry subsystem landed, this log is one *consumer* of a
unified per-call event stream: the GEMM entry points emit each
:class:`VerboseRecord` once through :func:`emit_call`, which feeds the
verbose log (when logging is on) and the installed
:class:`repro.telemetry.Telemetry` collector (when telemetry is on).
The MKL-look-alike line format (:func:`format_verbose_line`) is
unchanged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Iterator, List, Optional

from repro import context as _context
from repro.blas.modes import ComputeMode
from repro.telemetry.registry import active as _telemetry_active

__all__ = [
    "VerboseRecord",
    "mkl_verbose",
    "verbose_enabled",
    "observing",
    "get_verbose_log",
    "clear_verbose_log",
    "record_call",
    "emit_call",
    "format_verbose_line",
]

MKL_VERBOSE_ENV = "MKL_VERBOSE"


@dataclasses.dataclass(frozen=True)
class VerboseRecord:
    """One BLAS call as MKL_VERBOSE would report it."""

    routine: str          #: e.g. ``"cgemm"``
    trans_a: str          #: 'N', 'T' or 'C'
    trans_b: str
    m: int
    n: int
    k: int
    mode: ComputeMode     #: mode the call honoured (ComputeMode.lower)
    seconds: float        #: wall-clock time of the software emulation
    model_seconds: Optional[float] = None  #: device-model predicted time
    site: str = ""        #: application call site (nlp_prop / calc_energy / remap_occ)
    site_id: str = ""     #: stable provenance ID (repro.telemetry.provenance)
    backend: str = "numpy"  #: executing array backend (ArrayBackend.cache_key)

    @property
    def flops(self) -> float:
        """Nominal FLOP count of the logical GEMM (complex counts 4M)."""
        mults = 8.0 if self.routine.startswith(("c", "z")) else 2.0
        return mults * self.m * self.n * self.k

    @property
    def reported_seconds(self) -> float:
        """Timing the study uses: model time if available, else wall."""
        return self.model_seconds if self.model_seconds is not None else self.seconds


#: Where ``MKL_VERBOSE``-driven records go outside any mkl_verbose scope.
_process_log: List[VerboseRecord] = []


def _log_for(ctx) -> Optional[List[VerboseRecord]]:
    """The log a call issued in ``ctx`` appends to; ``None`` when off."""
    if ctx.verbose_log is not None:
        return ctx.verbose_log
    if os.environ.get(MKL_VERBOSE_ENV, "").strip() not in ("", "0"):
        return _process_log
    return None


def verbose_enabled() -> bool:
    """Whether calls are currently being logged."""
    return _log_for(_context.current()) is not None


def get_verbose_log() -> List[VerboseRecord]:
    """The innermost :func:`mkl_verbose` scope's records, else the
    process log."""
    log = _context.current().verbose_log
    return _process_log if log is None else log


def clear_verbose_log() -> None:
    """Drop all records of :func:`get_verbose_log`."""
    get_verbose_log().clear()


def observing() -> bool:
    """Whether any consumer (verbose log, telemetry) wants call records.

    With both consumers off the per-call cost is two cheap checks and no
    allocation.
    """
    return _telemetry_active() is not None or verbose_enabled()


def emit_call(record: VerboseRecord) -> None:
    """Publish one BLAS call record to every active consumer.

    This is the unified per-call event stream: the verbose log
    (MKL_VERBOSE look-alike) and the telemetry registry both receive
    the *same* record object, so the two views can never disagree
    about what ran.
    """
    _emit(record, _log_for(_context.current()))


def _emit(record: VerboseRecord, log: Optional[List[VerboseRecord]]) -> None:
    if log is not None:
        log.append(record)
    collector = _telemetry_active()
    if collector is not None:
        collector.blas_call(record)


def record_call(record: VerboseRecord) -> None:
    """Historical alias for :func:`emit_call`."""
    emit_call(record)


@contextlib.contextmanager
def mkl_verbose(clear: bool = True) -> Iterator[List[VerboseRecord]]:
    """Enable per-call logging for a scope and yield the live log.

    ``clear=True`` starts a fresh list; ``clear=False`` keeps appending
    to the enclosing scope's list (or the process log).

    >>> with mkl_verbose() as log:
    ...     cgemm(A, B)
    >>> log[0].routine, log[0].m
    """
    log = [] if clear else get_verbose_log()
    with _context.scoped(verbose_log=log):
        yield log


def format_verbose_line(rec: VerboseRecord) -> str:
    """Render a record in an ``MKL_VERBOSE``-look-alike single line."""
    t = rec.reported_seconds
    if t >= 1.0:
        timing = f"{t:.6f}s"
    elif t >= 1e-3:
        timing = f"{t * 1e3:.3f}ms"
    else:
        timing = f"{t * 1e6:.2f}us"
    mode = "" if rec.mode is ComputeMode.STANDARD else f" mode:{rec.mode.env_value}"
    site = f" site:{rec.site}" if rec.site else ""
    # The default (numpy) backend is silent so the MKL look-alike line
    # format stays bit-for-bit what the pre-backend parser expects.
    backend = f" backend:{rec.backend}" if rec.backend not in ("", "numpy") else ""
    return (
        f"MKL_VERBOSE {rec.routine.upper()}"
        f"({rec.trans_a},{rec.trans_b},{rec.m},{rec.n},{rec.k}) "
        f"{timing}{mode}{site}{backend}"
    )
