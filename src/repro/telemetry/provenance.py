"""Call-site provenance: stable identities for BLAS invocations.

The telemetry registry's ``blas.calls{routine,site,mode}`` counters key
per-call data by the *application* anchor (``nlp_prop`` /
``calc_energy`` / ``remap_occ``) — coarse enough that the two very
different GEMMs inside ``nlp_prop`` (the ``(N_orb, N_orb, N_grid)``
reduction and the ``(N_orb, N_orb, N_orb)`` subspace product) land in
one bucket.  The per-site counters need a finer, stable key.

This module derives every BLAS invocation's **call-site ID**::

    <anchor>@gemm/<routine>/<shape class>

* ``anchor`` — the application label installed by
  :func:`repro.blas.gemm.call_site` (``-`` when unlabeled);
* ``gemm`` — the BLAS entry point every call flows through;
* ``routine`` — the effective BLAS routine (``sgemm`` ... ``zgemm``);
* ``shape class`` — the operand dimensions bucketed to the next power
  of two (``m x n x k``), so the ID is stable across small lattice-size
  changes while still separating the big grid-contracted GEMMs from the
  small subspace ones.

Example: ``nlp_prop@gemm/cgemm/32x32x2048``.

IDs are pure functions of those fields — the same run always produces
the same IDs, and two runs of different sizes share IDs whenever their
shapes fall in the same class.  Nothing is interned: the ``blas.site.*``
counters and the run report's hot-site table are keyed by the string.

A scope of the execution context (:func:`site_scope` /
:func:`current_site_id`) carries the active ID through the compute
kernels, letting the plan-cache, workspace and complex-kernel counters
in ``repro.blas.{plan,workspace,complex3m}`` attribute their work to
the BLAS call that triggered it.  All of this is only exercised while a
telemetry collector is installed; the disabled hot path never calls
into this module.
"""

from __future__ import annotations

from typing import ContextManager

from repro import context as _context

__all__ = [
    "shape_class",
    "call_site_id",
    "site_scope",
    "current_site_id",
]


def _pow2_ceil(x: int) -> int:
    x = int(x)
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


def shape_class(m: int, n: int, k: int) -> str:
    """Bucket GEMM dimensions into a stable shape-class string.

    Each dimension rounds up to the next power of two.  The buckets
    keep the ID stable under the small per-lattice variations of one
    study while separating the structurally different shapes
    (grid-inner reduction vs subspace-sized product).
    """
    return f"{_pow2_ceil(m)}x{_pow2_ceil(n)}x{_pow2_ceil(k)}"


def call_site_id(anchor: str, routine: str, m: int, n: int, k: int) -> str:
    """The stable ID for one invocation's provenance fields."""
    return f"{anchor or '-'}@gemm/{routine}/{shape_class(m, n, k)}"


# ----------------------------------------------------------------------
# Propagation through the compute kernels (the execution context).
# ----------------------------------------------------------------------


def current_site_id() -> str:
    """The call-site ID of the BLAS invocation currently executing in
    this context (empty outside any :func:`site_scope`)."""
    return _context.current().site_id


def site_scope(site_id: str) -> ContextManager[None]:
    """Attribute kernel-level telemetry to ``site_id`` for the scope.

    :func:`repro.blas.gemm.gemm` enters this scope around its compute
    dispatch (only while telemetry is installed), so the plan-derive,
    workspace and complex-kernel counters can carry a ``site`` label.
    """
    return _context.scoped(site_id=site_id)
