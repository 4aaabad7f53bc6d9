"""One execution context: the ambient state every BLAS call reads.

The paper selects BLAS precision only through ambient state
(``MKL_BLAS_COMPUTE_MODE``, ``MKL_VERBOSE``), so every worker that
issues a BLAS call must see its caller's settings.  All *scoped*
ambient state lives in one immutable :class:`ExecutionContext` held in
one :class:`contextvars.ContextVar`; each public scope (``compute_mode``,
``SitePolicy.active``, ``use_backend``, ``call_site``, ``site_scope``,
``use_device``, ``mkl_verbose``, ``drift_monitoring``) is one
:func:`scoped` call and each getter one read of :func:`current`.

A plain :class:`threading.Thread` starts with an empty context, so
scopes never leak between unrelated threads.  :func:`fan_out` runs each
thread task in a copy of the submitting context and each process task
under the caller's :func:`snapshot`, so ambient state reaches every
worker by construction.  Process-wide settings (``set_compute_mode``,
``set_backend``, ``set_ozaki_slices``, ``check_finite``, the
drift/adaptive switches, the telemetry collector) stay in their
modules.  This module imports nothing from ``repro`` at module level.
"""

from __future__ import annotations

import contextvars
import os
from typing import Any, Callable, Iterable, List, NamedTuple, Optional

__all__ = [
    "ExecutionContext",
    "current",
    "scoped",
    "update",
    "snapshot",
    "restore",
    "fan_out",
]


class ExecutionContext(NamedTuple):
    """The scoped ambient state of one thread or task (immutable)."""

    mode: Any = None  #: ComputeMode of the innermost compute_mode scope
    policy: Any = None  #: SitePolicy of the innermost SitePolicy.active()
    backend: Any = None  #: ArrayBackend of the innermost use_backend
    site: str = ""  #: call_site label
    site_id: str = ""  #: provenance ID of the executing BLAS call
    device: Any = None  #: repro.gpu Device attached by use_device
    verbose_log: Optional[list] = None  #: record list of the innermost mkl_verbose
    drift_monitor: Any = None  #: the ambient DriftMonitor


_CONTEXT: contextvars.ContextVar[ExecutionContext] = contextvars.ContextVar(
    "repro_execution_context", default=ExecutionContext()
)

#: The caller's :class:`ExecutionContext` (one C-level read).
current = _CONTEXT.get


class scoped:
    """Replace ``fields`` of the current context for the with-block.

    A class, not a generator: ``call_site`` returns one directly, and a
    QD step enters several.
    """

    __slots__ = ("_fields", "_token")

    def __init__(self, **fields) -> None:
        self._fields = fields

    def __enter__(self) -> None:
        self._token = _CONTEXT.set(_CONTEXT.get()._replace(**self._fields))

    def __exit__(self, *exc) -> None:
        _CONTEXT.reset(self._token)


def update(**fields) -> ExecutionContext:
    """Replace ``fields`` without a scope (it ends with any enclosing
    :func:`scoped` block); returns the previous context."""
    prev = _CONTEXT.get()
    _CONTEXT.set(prev._replace(**fields))
    return prev


def snapshot() -> dict:
    """The caller's effective configuration as JSON-safe values.

    Sinks in the caller's memory (device, verbose log, drift monitor,
    telemetry collector) are left out: another process cannot write
    into them.
    """
    from repro.blas.backend import active_backend
    from repro.blas.gemm import finite_checks_enabled
    from repro.blas.modes import get_compute_mode, get_ozaki_slices
    from repro.core.scheduler import adaptive_enabled
    from repro.telemetry.drift import drift_enabled
    from repro.telemetry.registry import MAX_EVENTS_ENV, telemetry_enabled

    ctx = _CONTEXT.get()
    policy = None
    if ctx.policy is not None:
        default = ctx.policy.default
        policy = {
            "sites": {s: m.env_value for s, m in ctx.policy.sites.items()},
            "default": None if default is None else default.env_value,
        }
    snap = {
        "mode": get_compute_mode().env_value,
        "policy": policy,
        "site": ctx.site,
        "backend": active_backend().cache_key,
        "ozaki_slices": get_ozaki_slices(),
        "check_finite": finite_checks_enabled(),
        "telemetry": telemetry_enabled(),
        "drift": drift_enabled(),
        "adaptive": adaptive_enabled(),
    }
    max_events = os.environ.get(MAX_EVENTS_ENV, "").strip()
    if max_events:
        snap["telemetry_max_events"] = max_events
    return snap


def restore(snap: dict) -> None:
    """Apply a :func:`snapshot` in this (fresh) process.

    A backend this host cannot run degrades to NumPy with a warning,
    like ``REPRO_BACKEND``.  The telemetry switch is not applied: the
    caller decides where worker telemetry goes.  An empty snapshot
    applies nothing.
    """
    if not snap:
        return
    from repro.blas.backend import backend_or_numpy
    from repro.blas.gemm import check_finite
    from repro.blas.modes import ComputeMode, set_ozaki_slices
    from repro.blas.policy import SitePolicy
    from repro.core.scheduler import set_adaptive_enabled
    from repro.telemetry.drift import set_drift_enabled
    from repro.telemetry.registry import MAX_EVENTS_ENV

    backend = snap.get("backend")
    policy = snap.get("policy")
    _CONTEXT.set(
        ExecutionContext(
            mode=ComputeMode.parse(snap["mode"]) if snap.get("mode") else None,
            policy=SitePolicy(policy["sites"], policy["default"]) if policy else None,
            backend=backend_or_numpy(backend, "snapshot backend") if backend else None,
            site=snap.get("site", ""),
        )
    )
    if "ozaki_slices" in snap:
        set_ozaki_slices(snap["ozaki_slices"])
    if "check_finite" in snap:
        check_finite(snap["check_finite"])
    if "drift" in snap:
        set_drift_enabled(snap["drift"])
    if "adaptive" in snap:
        set_adaptive_enabled(snap["adaptive"])
    if "telemetry_max_events" in snap:
        os.environ[MAX_EVENTS_ENV] = str(snap["telemetry_max_events"])


def _restored_call(snap: dict, fn: Callable[[Any], Any], item: Any) -> Any:
    restore(snap)
    return fn(item)


def fan_out(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    max_workers: Optional[int] = None,
    processes: bool = False,
) -> List[Any]:
    """``[fn(item) for item in items]``, evaluated concurrently.

    Results come back in input order.  ``max_workers`` (default: the CPU
    count) is capped at the number of items; one worker runs the items
    in the caller.  Each thread task runs in a copy of the caller's
    context taken at submission; each process task (default start
    method) first restores the caller's :func:`snapshot`, so ``fn`` and
    the items must pickle.
    """
    items = list(items)
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    workers = min(len(items), max_workers)
    if workers <= 1:
        return [fn(item) for item in items]
    # The executors are imported here, not at module level: every
    # process imports this module, few fan out, and the process pool
    # would load multiprocessing into all of them.
    if processes:
        from concurrent.futures import ProcessPoolExecutor

        snap = snapshot()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_restored_call, snap, fn, item) for item in items]
            return [f.result() for f in futures]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, fn, item) for item in items
        ]
        return [f.result() for f in futures]
