"""Preallocated workspaces and the fused split-GEMM component engine.

A BF16X3 ``sgemm`` is six FP32 component products; composed with the
4M complex decomposition a single ``cgemm`` issues 24 of them.  This
module runs them with no per-product allocation:

* a thread-local :class:`Workspace` hands out reusable scratch buffers
  keyed by ``(backend, tag, shape, dtype)`` — the product temporary
  lives there across calls;
* :func:`fused_pair_products` evaluates the ``n(n+1)/2`` component
  pairs as 2-D matmuls straight from the operands' term stacks: the
  first product allocates the result, every later one is written into
  the workspace buffer with ``out=`` and added in place, in pair order.

The term stacks come from :mod:`repro.blas.plan`, already C-contiguous
with one term per slot, so the engine reads ``stack[i]`` as is: nothing
is gathered or repacked per call.  The split, Ozaki and emulated-FP64
families all run on this one engine.

Bit-exactness is the hard contract.  ``out=`` writes the identical
product bytes the 2-D call returns, and in-place ``np.add`` is the same
IEEE addition as the cold path's ``out + prod``.  The accumulation
visits pairs in :func:`repro.blas.split.component_pairs` order, so
every intermediate sum matches the naive loop bit-for-bit.  The golden
property tests (``tests/property/test_prop_plan_golden.py``) enforce
this against the naive reference for every mode.

Backend dispatch: every array operation here (allocate, matmul,
in-place accumulate) goes through an
:class:`~repro.blas.backend.ArrayBackend`.  The NumPy backend's
methods are the literal calls described above, so the bitwise contract
is untouched; device backends trade it for the documented tolerance
contracts in docs/BACKENDS.md while keeping the identical pair order.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.blas import backend as _backend
from repro.blas.plan import PAIR
from repro.telemetry.provenance import current_site_id as _current_site_id
from repro.telemetry.registry import active as _telemetry_active
from repro.types import MANTISSA_BITS, Precision

__all__ = [
    "Workspace",
    "fused_pair_products",
    "split_gemm_fused",
    "get_workspace",
    "clear_workspace",
]

_tls = threading.local()


class Workspace:
    """Reusable scratch buffers keyed by ``(backend, tag, shape, dtype)``.

    Buffers are only ever lent out for the duration of one engine call
    and never returned to callers, so reuse cannot alias results.

    Invariant: the key *must* include the owning backend's
    ``cache_key``.  Buffers are backend-native arrays (``np.empty`` for
    NumPy, device tensors for torch-cuda); a ``(tag, shape, dtype)``
    match across backends is a different allocation entirely, and a
    backend switch mid-process must never hand one backend's buffer to
    another's kernels.  ``tests/unit/test_blas_backend.py`` pins this.
    """

    def __init__(self):
        self._buffers = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype, backend=None):
        be = _backend.NUMPY_BACKEND if backend is None else backend
        key = (be.cache_key, tag, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        t = _telemetry_active()
        if buf is None:
            buf = be.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            if t is not None:
                site = _current_site_id() or "-"
                t.count(
                    "blas.workspace.allocations", tag=tag, site=site, backend=be.cache_key
                )
                t.count(
                    "blas.workspace.allocated_bytes",
                    be.nbytes(buf),
                    tag=tag,
                    site=site,
                    backend=be.cache_key,
                )
        elif t is not None:
            t.count(
                "blas.workspace.reuses",
                tag=tag,
                site=_current_site_id() or "-",
                backend=be.cache_key,
            )
        return buf

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        return sum(
            buf.nbytes if isinstance(buf, np.ndarray) else buf.numel() * buf.element_size()
            for buf in self._buffers.values()
        )


def get_workspace() -> Workspace:
    """The calling thread's workspace (created on first use)."""
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def clear_workspace() -> None:
    """Release the calling thread's scratch buffers."""
    ws = getattr(_tls, "ws", None)
    if ws is not None:
        ws.clear()


def fused_pair_products(
    a_terms,
    b_terms,
    pairs: Sequence[Tuple[int, int]],
    backend=None,
) -> np.ndarray:
    """``sum(a_terms[i-1] @ b_terms[j-1] for (i, j) in pairs)``, in order.

    Parameters
    ----------
    a_terms, b_terms:
        C-contiguous stacked split terms, ``(n_terms, ..., m, k)`` and
        ``(n_terms, ..., k, n)`` (the trailing two axes are the matrix;
        any leading batch axes broadcast through the matmul), in
        ``backend``'s native array type.
    pairs:
        1-based component pairs in most-significant-first order
        (:func:`repro.blas.split.component_pairs`).
    backend:
        The :class:`~repro.blas.backend.ArrayBackend` executing the
        products (default: NumPy — matching plain-ndarray callers).
        Every matmul and in-place accumulate goes through it.

    Returns a freshly allocated NumPy array (never a workspace buffer).
    """
    be = _backend.NUMPY_BACKEND if backend is None else backend
    i0, j0 = pairs[0]
    out = be.matmul(a_terms[i0 - 1], b_terms[j0 - 1])
    if len(pairs) > 1:
        # Workspace keys/allocations speak NumPy dtypes; the stacks are
        # backend-native (a torch tensor's .dtype would not survive the
        # np.dtype() in Workspace.get), so ask the backend.
        prod = get_workspace().get(
            "prod", tuple(out.shape), be.result_dtype(a_terms, b_terms), be
        )
        for i, j in pairs[1:]:
            be.matmul(a_terms[i - 1], b_terms[j - 1], out=prod)
            be.add_(out, prod)
    return be.to_numpy(out)


def _outer_pair_views(a_terms, b_terms):
    """Views of two ``(n_terms, 2, ..., r, c)`` pair stacks whose matmul is
    the outer product of the pairs: ``(n_terms, 2, 1, ...)`` against
    ``(n_terms, 1, 2, ...)``, batch axes padded to one rank."""
    rank = max(a_terms.ndim, b_terms.ndim)
    a_shape, b_shape = tuple(a_terms.shape), tuple(b_terms.shape)
    pad_a = (1,) * (rank - a_terms.ndim)
    pad_b = (1,) * (rank - b_terms.ndim)
    return (
        a_terms.reshape(a_shape[:2] + (1,) + pad_a + a_shape[2:]),
        b_terms.reshape(b_shape[:1] + (1,) + b_shape[1:2] + pad_b + b_shape[2:]),
    )


def split_gemm_fused(
    a_handle,
    b_handle,
    precision: Precision,
    n_terms: int,
    *,
    part_a: Optional[str] = None,
    part_b: Optional[str] = None,
    backend=None,
) -> np.ndarray:
    """Split-precision real GEMM over prepared operand handles.

    ``part_a``/``part_b`` select the real/imag component of a complex
    operand (``'re'``/``'im'``); ``None`` means the operand itself is
    real.  With both set to :data:`repro.blas.plan.PAIR` the terms carry
    each operand's re/im pair, and every component pair is one
    broadcast matmul ``A[i][:, None] @ B[j][None]``: the result is the
    ``(2, 2, m, n)`` block of all four part products (``[p, q]`` is part
    ``p`` of A times part ``q`` of B), each its own 2-D product
    accumulated in pair order.

    Split stacks come from the handles' plans, so a frozen
    operand's rounding/splitting work is paid once per SCF block
    instead of once per call.  The splits themselves are always derived
    in NumPy (bit-exact everywhere); ``backend`` only executes the
    component products, consuming per-backend native mirrors of the
    stacks (cached on the plan, so device staging is once per block).

    ``precision`` selects the splitting family: ``BF16``/``TF32`` use
    the mantissa-truncation split; the marker values ``Precision.INT8``
    (Ozaki scaled-slice split, FP32 result) and ``Precision.FP64``
    (emulated-FP64 FP32-term split, result in the handles' real working
    width) route to their own plan-cached stacks.  All families share
    the same fused pair-product engine and accumulation order.
    """
    from repro.blas.split import component_pairs

    be = _backend.active_backend() if backend is None else backend
    t = _telemetry_active()
    if t is not None:
        t.count(
            "blas.split_gemm_fused",
            precision=precision.name,
            n_terms=n_terms,
            site=_current_site_id() or "-",
            backend=be.cache_key,
        )
    if precision is Precision.INT8:
        a_terms = a_handle.ozaki_stack_native(be, n_terms, part=part_a, operand="a")
        b_terms = b_handle.ozaki_stack_native(be, n_terms, part=part_b, operand="b")
        out_dtype = np.float32
    elif precision is Precision.FP64:
        a_terms = a_handle.efp64_stack_native(be, n_terms, part=part_a)
        b_terms = b_handle.efp64_stack_native(be, n_terms, part=part_b)
        double = np.dtype(a_handle.dtype) in (
            np.dtype(np.float64),
            np.dtype(np.complex128),
        )
        out_dtype = np.float64 if double else np.float32
    else:
        keep = MANTISSA_BITS[precision]
        a_terms = a_handle.split_stack_native(be, keep, n_terms, part=part_a)
        b_terms = b_handle.split_stack_native(be, keep, n_terms, part=part_b)
        out_dtype = None
    if a_terms.shape[-1] != b_terms.shape[-2]:
        raise ValueError(
            f"inner dimensions differ: {tuple(a_terms.shape[1:])} @ {tuple(b_terms.shape[1:])}"
        )
    if part_a == PAIR and part_b == PAIR:
        a_terms, b_terms = _outer_pair_views(a_terms, b_terms)
    out = fused_pair_products(a_terms, b_terms, component_pairs(n_terms), backend=be)
    if out_dtype is not None:
        out = out.astype(out_dtype, copy=False)
    return out
