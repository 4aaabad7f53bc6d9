"""Torch array backend: offload the level-3 products to ``torch.matmul``.

This is the first real executor behind the :mod:`repro.blas.backend`
seam.  The numerics policy (rounding, splitting, component selection,
accumulation order *across* products) stays in NumPy — it is cheap,
element-wise and bit-exact everywhere — while the O(n^3) component
products run wherever torch puts them:

* **CPU** (works everywhere, including CI): ``torch.matmul`` over
  FP32/FP64 tensors.  Multiplication and accumulation are IEEE FP32 /
  FP64, so the ``ieee_fp32_accumulation`` capability holds; results may
  still differ from NumPy in the low-order bits because the two
  libraries block/accumulate the ``k`` dimension in different orders —
  that freedom is exactly the one any BLAS implementation has, and the
  cross-backend oracle suite pins the documented tolerance contract
  (docs/BACKENDS.md, tolerance table).
* **CUDA** (auto-detected): tensors are staged onto the device once
  per frozen operand (the plan layer caches native mirrors per
  backend) and the products run on cuBLAS.  TF32 tensor-core matmul is
  **disabled** by default (``allow_tf32=False``): reduced precision is
  *our emulation's* job; the executor underneath must be a faithful
  IEEE FP32 machine or the error model stops being analytic.  Pass
  ``allow_tf32=True`` to measure real tensor-core behaviour — the
  backend then reports ``ieee_fp32_accumulation=False`` and only the
  relaxed tolerance contract applies.  The switch itself
  (``torch.backends.cuda.matmul.allow_tf32``) is process-global in
  torch, so the backend never sets it at construction; each matmul
  dispatch pins it to the instance's setting and restores it after,
  so two instances with different settings (or foreign torch code)
  can never flip each other's arithmetic.

Import of this module requires torch; :func:`repro.blas.backend.get_backend`
wraps the import so ``repro.blas`` itself never pays for (or fails on)
it.  A missing torch raises :class:`~repro.blas.backend.BackendUnavailable`
with the install hint; ``REPRO_BACKEND=torch`` on a host without torch
degrades to NumPy with a warning instead (see ``refresh_from_env``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blas.backend import ArrayBackend, BackendCapabilities, BackendUnavailable

__all__ = ["TorchBackend"]


def _import_torch():
    try:
        import torch
    except ImportError as exc:
        raise BackendUnavailable(
            "torch is not installed — the torch backend needs the optional "
            "dependency (pip install 'repro[torch]' or pip install torch); "
            "the numpy backend is always available"
        ) from exc
    return torch


class TorchBackend(ArrayBackend):
    """Execute the hot-path array ops on torch (CPU or CUDA).

    Parameters
    ----------
    device:
        ``"cpu"``, ``"cuda"`` or ``None`` (auto: CUDA when available).
        Requesting ``"cuda"`` on a host without one raises
        :class:`BackendUnavailable`.
    allow_tf32:
        Permit cuBLAS to use TF32 tensor cores for FP32 matmuls.  Off
        by default — see the module docstring.  Ignored on CPU.
    """

    name = "torch"

    def __init__(self, device: Optional[str] = None, allow_tf32: bool = False):
        torch = _import_torch()
        self.torch = torch
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        if device.startswith("cuda") and not torch.cuda.is_available():
            raise BackendUnavailable(
                "torch is installed but no CUDA device is available; "
                "use the torch-cpu backend instead"
            )
        self.device = torch.device(device)
        self._is_cuda = self.device.type == "cuda"
        # Never written to torch's process-global switch here: a second
        # instance with a different setting would silently change the
        # arithmetic of every cached one.  matmul() pins the global to
        # this value per dispatch instead.
        self.allow_tf32 = bool(allow_tf32) and self._is_cuda
        self.capabilities = BackendCapabilities(
            ieee_fp32_accumulation=not self.allow_tf32,
            bitwise_numpy=False,
            device=self.device.type,
            native_is_numpy=False,
        )
        self._np_to_torch = {
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
            np.dtype(np.complex64): torch.complex64,
            np.dtype(np.complex128): torch.complex128,
            np.dtype(np.int64): torch.int64,
        }
        self._torch_to_np = {v: k for k, v in self._np_to_torch.items()}

    @property
    def cache_key(self) -> str:
        key = f"torch-{self.device.type}"
        return key + "-tf32" if self.allow_tf32 else key

    # -- conversion seam ----------------------------------------------

    def to_native(self, x: np.ndarray):
        t = self.torch.as_tensor(np.ascontiguousarray(x))
        return t.to(self.device) if self._is_cuda else t

    def to_numpy(self, x) -> np.ndarray:
        if self._is_cuda:
            x = x.cpu()
        return x.numpy()

    # -- allocation / dtype -------------------------------------------

    def _dtype(self, dtype):
        dt = np.dtype(dtype)
        try:
            return self._np_to_torch[dt]
        except KeyError:
            raise TypeError(f"torch backend has no mapping for dtype {dt}") from None

    def empty(self, shape, dtype):
        return self.torch.empty(tuple(shape), dtype=self._dtype(dtype), device=self.device)

    def cast(self, x, dtype):
        return x.to(self._dtype(dtype))

    def nbytes(self, x) -> int:
        return x.numel() * x.element_size()

    def result_dtype(self, a, b) -> np.dtype:
        return self._torch_to_np[self.torch.result_type(a, b)]

    # -- compute -------------------------------------------------------

    def matmul(self, a, b, out=None):
        if not self._is_cuda:
            if out is None:
                return self.torch.matmul(a, b)
            return self.torch.matmul(a, b, out=out)
        # allow_tf32 is process-global in torch: pin it to this
        # instance's setting for the duration of the dispatch and
        # restore it after, so the capability flag always states what
        # actually ran regardless of what else touched the global.
        mm = self.torch.backends.cuda.matmul
        prev = mm.allow_tf32
        mm.allow_tf32 = self.allow_tf32
        try:
            if out is None:
                return self.torch.matmul(a, b)
            return self.torch.matmul(a, b, out=out)
        finally:
            mm.allow_tf32 = prev

    def add_(self, out, x):
        return out.add_(x)

    def synchronize(self) -> None:
        if self._is_cuda:
            self.torch.cuda.synchronize()
