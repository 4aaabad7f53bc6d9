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
    """The caller's configuration as plain values, each at its own rank.

    Scoped fields come from the execution context.  Each process-wide
    setting is the value its setter installed (``None`` when it defers
    to the environment), not the effective value: a worker process
    inherits the environment, so it then resolves every setting as its
    caller would, also after it sets ``MKL_BLAS_COMPUTE_MODE`` itself.
    Sinks in the caller's memory (device, verbose log, drift monitor,
    telemetry collector) are left out: another process cannot write
    into them.
    """
    from repro.blas import modes
    from repro.blas.backend import active_backend
    from repro.blas.gemm import finite_checks_enabled
    from repro.core import scheduler
    from repro.telemetry import drift

    ctx = _CONTEXT.get()
    policy = None
    if ctx.policy is not None:
        default = ctx.policy.default
        policy = {
            "sites": {s: m.env_value for s, m in ctx.policy.sites.items()},
            "default": None if default is None else default.env_value,
        }
    process_mode = modes._global_mode
    return {
        "mode": None if ctx.mode is None else ctx.mode.env_value,
        "process_mode": None if process_mode is None else process_mode.env_value,
        "policy": policy,
        "site": ctx.site,
        "backend": active_backend().cache_key,
        "ozaki_slices": modes._ozaki_slices_override,
        "check_finite": finite_checks_enabled(),
        "drift": drift._enabled_override,
        "adaptive": scheduler._enabled_override,
    }


def restore(snap: dict) -> None:
    """Apply a :func:`snapshot` in this worker process.

    A backend this process cannot run degrades to NumPy with a warning,
    like ``REPRO_BACKEND``.  An empty snapshot applies nothing.
    """
    if not snap:
        return
    from repro.blas.backend import backend_or_numpy
    from repro.blas.gemm import check_finite
    from repro.blas.modes import ComputeMode, set_compute_mode, set_ozaki_slices
    from repro.blas.policy import SitePolicy
    from repro.core.scheduler import set_adaptive_enabled
    from repro.telemetry.drift import set_drift_enabled

    mode, policy = snap["mode"], snap["policy"]
    if policy is not None:
        policy = SitePolicy(policy["sites"], policy["default"])
    _CONTEXT.set(
        ExecutionContext(
            mode=None if mode is None else ComputeMode.parse(mode),
            policy=policy,
            backend=backend_or_numpy(snap["backend"], "snapshot backend"),
            site=snap["site"],
        )
    )
    set_compute_mode(snap["process_mode"])
    set_ozaki_slices(snap["ozaki_slices"])
    check_finite(snap["check_finite"])
    set_drift_enabled(snap["drift"])
    set_adaptive_enabled(snap["adaptive"])


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
