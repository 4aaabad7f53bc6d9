"""Call-site provenance: stable identities for BLAS invocations.

The telemetry registry's ``blas.calls{routine,site,mode}`` counters key
per-call data by the *application* anchor (``nlp_prop`` /
``calc_energy`` / ``remap_occ``) — coarse enough that the two very
different GEMMs inside ``nlp_prop`` (the ``(N_orb, N_orb, N_grid)``
reduction and the ``(N_orb, N_orb, N_orb)`` subspace product) land in
one bucket.  Any *per-site* precision policy (ROADMAP item 2: escalate
BF16 -> BF16x2 -> FP32 only where drift approaches budget) needs a
finer, stable key.

This module assigns every BLAS invocation a **call-site ID**::

    <anchor>@<function>/<routine>/<shape class>

* ``anchor`` — the application label installed by
  :func:`repro.blas.gemm.call_site` (``-`` when unlabeled);
* ``function`` — the BLAS entry point the call flowed through
  (``gemm`` or ``gemm_batch``);
* ``routine`` — the effective BLAS routine (``sgemm`` ... ``zgemm``);
* ``shape class`` — the operand dimensions bucketed to the next power
  of two (``m x n x k``, plus ``b<batch>`` for batched calls), so the
  ID is stable across small lattice-size changes while still
  separating the big grid-contracted GEMMs from the small subspace
  ones.

Example: ``nlp_prop@gemm/cgemm/32x32x2048``.

IDs are deterministic functions of those fields — the same run always
produces the same IDs, and two runs of different sizes share IDs
whenever their shapes fall in the same class.  The registry interns
every site it sees (:func:`register_call_site`), so the run-report
generator can enumerate them with first-seen exact dimensions attached.

A scope of the execution context (:func:`site_scope` /
:func:`current_site_id`) carries the active ID through the compute
kernels, letting the plan-cache, workspace and complex-kernel counters
in ``repro.blas.{plan,workspace,complex3m}`` attribute their work to
the BLAS call that triggered it.  All of this is only exercised while a
telemetry collector is installed; the disabled hot path never calls
into this module.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import ContextManager, Dict, List, Optional

from repro import context as _context

__all__ = [
    "CallSite",
    "shape_class",
    "call_site_id",
    "register_call_site",
    "lookup_site",
    "all_sites",
    "clear_sites",
    "site_scope",
    "current_site_id",
]


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One interned BLAS call site.

    ``m``/``n``/``k``/``batch`` are the exact dimensions of the *first*
    call registered under this ID (the class buckets them; the report
    shows both).
    """

    site_id: str
    anchor: str
    function: str
    routine: str
    shape_class: str
    m: int
    n: int
    k: int
    batch: int = 1


def _pow2_ceil(x: int) -> int:
    x = int(x)
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


def shape_class(m: int, n: int, k: int, batch: int = 1) -> str:
    """Bucket GEMM dimensions into a stable shape-class string.

    Each dimension rounds up to the next power of two; the batch count
    is appended only for genuinely batched calls.  The buckets keep the
    ID stable under the small per-lattice variations of one study while
    separating the structurally different shapes (grid-inner reduction
    vs subspace-sized product) the per-site machinery must distinguish.
    """
    cls = f"{_pow2_ceil(m)}x{_pow2_ceil(n)}x{_pow2_ceil(k)}"
    if batch > 1:
        cls += f"b{_pow2_ceil(batch)}"
    return cls


_lock = threading.Lock()
_sites: Dict[str, CallSite] = {}


def call_site_id(
    anchor: str,
    function: str,
    routine: str,
    m: int,
    n: int,
    k: int,
    batch: int = 1,
) -> str:
    """The stable ID for one invocation's provenance fields.

    Pure string derivation — no registration.  Use
    :func:`register_call_site` on the emission path so the registry
    also learns the site.
    """
    return f"{anchor or '-'}@{function}/{routine}/{shape_class(m, n, k, batch)}"


def register_call_site(
    anchor: str,
    function: str,
    routine: str,
    m: int,
    n: int,
    k: int,
    batch: int = 1,
) -> str:
    """Intern the call site and return its stable ID.

    First registration stores the exact first-seen dimensions;
    subsequent calls with the same derived ID are no-ops beyond the
    dictionary probe.
    """
    sid = call_site_id(anchor, function, routine, m, n, k, batch)
    if sid not in _sites:
        site = CallSite(
            site_id=sid,
            anchor=anchor or "-",
            function=function,
            routine=routine,
            shape_class=shape_class(m, n, k, batch),
            m=int(m),
            n=int(n),
            k=int(k),
            batch=int(batch),
        )
        with _lock:
            _sites.setdefault(sid, site)
    return sid


def lookup_site(site_id: str) -> Optional[CallSite]:
    """The interned :class:`CallSite` for ``site_id``, if registered."""
    with _lock:
        return _sites.get(site_id)


def all_sites() -> List[CallSite]:
    """Snapshot of every registered site, sorted by ID."""
    with _lock:
        return sorted(_sites.values(), key=lambda s: s.site_id)


def clear_sites() -> None:
    """Empty the registry (test isolation)."""
    with _lock:
        _sites.clear()


# ----------------------------------------------------------------------
# Propagation through the compute kernels (the execution context).
# ----------------------------------------------------------------------


def current_site_id() -> str:
    """The call-site ID of the BLAS invocation currently executing in
    this context (empty outside any :func:`site_scope`)."""
    return _context.current().site_id


def site_scope(site_id: str) -> ContextManager[None]:
    """Attribute kernel-level telemetry to ``site_id`` for the scope.

    The GEMM entry points enter this scope around their compute
    dispatch (only while telemetry is installed), so the plan-derive,
    workspace and complex-kernel counters can carry a ``site`` label.
    """
    return _context.scoped(site_id=site_id)
