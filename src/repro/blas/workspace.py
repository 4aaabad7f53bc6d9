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
is gathered or repacked per call.  The split and emulated-FP64
families run on this one engine.  Ozaki INT8's slices multiply as exact
GEMMs instead (:func:`_ozaki_gemm`), summed in FP64 in the same pair
order and then scaled by their fibre exponents.

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
from repro.blas.rounding import OZAKI_EXACT_K
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
    (Ozaki scaled-slice split, FP32 result; see :func:`_ozaki_gemm`)
    and ``Precision.FP64`` (emulated-FP64 FP32-term split, result in the
    handles' real working width) route to their own plan-cached stacks.
    All families accumulate their pair products in
    :func:`repro.blas.split.component_pairs` order.
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
        return _ozaki_gemm(a_handle, b_handle, n_terms, part_a, part_b, be)
    if precision is Precision.FP64:
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


# ----------------------------------------------------------------------
# Ozaki INT8: exact slice products.
#
# A slice is an integer |q| <= 127 times its level 2**(-7i), so every
# partial sum of a slice-pair product is an integer number of the pair's
# level unit.  Over a contraction of at most OZAKI_EXACT_K those sums
# stay below 2**24: an FP32 GEMM of float32 slices is exact whatever
# order the BLAS sums in, and exact sums of its k-chunks in FP64 give
# the exact product (float64 slices need no chunks: k * 127**2 < 2**53).
# Each pair product then equals the float64 formulation's one scaled by
# 2**-(e_row + e_col), and power-of-two scaling commutes with every
# FP64 rounding while no value leaves FP64's normal range: nonzero
# magnitudes stay between 2**-359 (kept pairs of up to eight slices
# have units down to 2**-63, FP32 exponents go down to -148) and
# k * 2**256.  So adding the pairs in component_pairs order and scaling
# the sum once, by 2**e_row and then 2**e_col into the FP32 cast, gives
# the float64 formulation's bits.
# ----------------------------------------------------------------------


def _exact_product(a, b, be, step, prod):
    """``a @ b`` of Ozaki slices, exactly: one GEMM into ``prod``, or
    GEMMs over k-chunks of at most ``step`` summed in FP64 (a fresh
    float64 array)."""
    k = a.shape[-1]
    if k <= step:
        return be.matmul(a, b, out=prod)
    pair = None
    for start in range(0, k, step):
        ks = slice(start, start + step)
        chunk = be.matmul(a[..., ks], b[..., ks, :], out=prod)
        if pair is None:
            pair = be.cast(chunk, np.float64)
        else:
            be.add_(pair, chunk)
    return pair


def _exact_pair_sum(a_slices, b_slices, pairs, be) -> np.ndarray:
    """``sum(a_slices[i-1] @ b_slices[j-1] for (i, j) in pairs)``, in
    order, in FP64, each product exact (:func:`_exact_product`).

    Float32 slices multiply as FP32 GEMMs over k-chunks of at most
    ``OZAKI_EXACT_K`` into one workspace buffer; float64 slices as FP64
    GEMMs.  The sum stays native until the one copy to NumPy.
    """
    k = a_slices.shape[-1]
    shape = np.broadcast_shapes(
        tuple(a_slices.shape[1:-2]), tuple(b_slices.shape[1:-2])
    ) + (a_slices.shape[-2], b_slices.shape[-1])
    prod = None
    n_chunks = 1
    if be.result_dtype(a_slices, b_slices) == np.float32:
        prod = get_workspace().get("prod", shape, np.float32, be)
        n_chunks = -(-k // OZAKI_EXACT_K)
    step = -(-k // n_chunks)
    out = None
    for i, j in pairs:
        product = _exact_product(a_slices[i - 1], b_slices[j - 1], be, step, prod)
        if out is None:
            out = be.cast(product, np.float64)  # a fresh array: prod is float32
        else:
            be.add_(out, product)
    return be.to_numpy(out)


def _ozaki_gemm(a_handle, b_handle, n_slices, part_a, part_b, be) -> np.ndarray:
    """Ozaki INT8 GEMM over prepared operand handles, FP32 result.

    The slice pairs' exact products are summed in FP64 by
    :func:`_exact_pair_sum` — as FP32 GEMMs when both operands were
    sliced in float32, as FP64 GEMMs when either was sliced in float64
    (non-finite or out-of-range fibres) — and the sum is scaled by the
    fibre exponents.  Either way the result is the float64
    formulation's.
    """
    from repro.blas.split import component_pairs

    a_stack, a_exp = a_handle.ozaki_stack_native(be, n_slices, part=part_a, operand="a")
    b_stack, b_exp = b_handle.ozaki_stack_native(be, n_slices, part=part_b, operand="b")
    if a_stack.shape[-1] != b_stack.shape[-2]:
        raise ValueError(
            f"inner dimensions differ: {tuple(a_stack.shape[1:])} @ {tuple(b_stack.shape[1:])}"
        )
    dtype = be.result_dtype(a_stack, b_stack)
    a_stack, b_stack = be.cast(a_stack, dtype), be.cast(b_stack, dtype)
    if part_a == PAIR and part_b == PAIR:
        a_stack, b_stack = _outer_pair_views(a_stack, b_stack)
        # The scales broadcast like the part products: (2, 1, ...) and (1, 2, ...).
        a_exp, b_exp = (x[0] for x in _outer_pair_views(a_exp[None], b_exp[None]))
    acc = _exact_pair_sum(a_stack, b_stack, component_pairs(n_slices), be)
    np.multiply(acc, np.ldexp(1.0, a_exp), out=acc)  # row scales freed before the result
    out = np.empty(acc.shape, np.float32)
    np.multiply(acc, np.swapaxes(np.ldexp(1.0, b_exp), -1, -2), out=out, casting="same_kind")
    return out
