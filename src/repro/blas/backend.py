"""Pluggable array backends under the BLAS plan engine.

The split/3M/plan machinery is *numerics policy*: which reduced-precision
terms to form, which component products to run, in which order to
accumulate.  None of that cares where the O(n^3) work executes.  This
module is the seam between the two: every hot-path array operation the
compute kernels issue (allocate, cast, matmul, accumulate) goes
through an :class:`ArrayBackend`, so the same
precision policy can ride ``np.matmul`` today and a tensor-core GEMM
tomorrow — the "automatic BLAS offloading" direction of the TACC pilot
study, with NumPy as the always-on reference.

Two implementations ship:

* :class:`NumpyBackend` — the reference.  Every method is *exactly* the
  NumPy call the pre-backend code ran, so routing through it is bitwise
  invisible (the golden property suite is the oracle).  Its
  ``native_is_numpy`` capability short-circuits all conversion hooks.
* ``TorchBackend`` (:mod:`repro.blas.backend_torch`) — offloads the
  level-3 products to ``torch.matmul``; CPU everywhere, CUDA
  auto-detected.  Registered lazily so importing :mod:`repro.blas`
  never imports torch.

Selection contract (see docs/BACKENDS.md):

* ``REPRO_BACKEND=numpy|torch|torch-cpu|torch-cuda`` — read once at
  import (and on :func:`refresh_from_env`); an unavailable backend
  degrades to NumPy with a warning rather than breaking the run.
* ``set_backend(name)`` / ``use_backend(name)`` — explicit selection;
  unavailable backends raise :class:`BackendUnavailable` with the
  reason (e.g. "torch is not installed").
* ``runner --backend`` / ``Simulation.run(backend=...)`` — thin
  wrappers over the two above.

Scoping: ``set_backend`` (and the env var) install the **process-wide
default**, visible to every thread; ``use_backend`` replaces the
``backend`` field of the execution context (:mod:`repro.context`) and
restores it on exit.  A plain thread starts with no override, so
concurrent scoped selections in different threads never interleave;
workers started through :func:`repro.context.fan_out` run in a copy of
the caller's context and so see its ``use_backend`` scope.

Hot-path contract: the default path costs one context read per GEMM
(the entry points read the context once and take the backend from it);
every kernel receives the backend as an argument, so no per-operation
lookups happen inside the fused engine.  Caches that hold backend-owned buffers (the workspace pool, the plan
layer's native mirrors) key by :attr:`ArrayBackend.cache_key`, so
switching backends mid-process can never hand one backend's arrays
to another.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import warnings
from typing import Callable, Dict, Iterator, Optional, Union

import numpy as np

from repro import context as _context

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "BackendUnavailable",
    "NumpyBackend",
    "NUMPY_BACKEND",
    "REPRO_BACKEND_ENV",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "refresh_from_env",
    "set_backend",
    "use_backend",
]

REPRO_BACKEND_ENV = "REPRO_BACKEND"


class BackendUnavailable(RuntimeError):
    """Requested backend cannot run here (missing package / no device)."""


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What a backend guarantees about its arithmetic and its arrays.

    ieee_fp32_accumulation:
        FP32 GEMMs multiply and accumulate in IEEE FP32 — no hidden
        TF32 downcast, no block-FP tricks.  This is the property the
        split emulation's exactness argument needs (BF16 x BF16 and
        TF32 x TF32 products are exact in FP32); backends without it
        only satisfy the documented tolerance contracts in
        docs/BACKENDS.md.
    bitwise_numpy:
        Results are guaranteed bit-identical to :class:`NumpyBackend`
        for every operation (same kernels, same accumulation order).
        Only NumPy-native backends can promise this; the cross-backend
        oracle suite asserts it where claimed.
    device:
        Where the level-3 work runs: ``"cpu"`` or ``"cuda"``.
    native_is_numpy:
        Native arrays *are* ``numpy.ndarray``; all to/from-native hooks
        are identities and the plan layer skips native mirroring.
    """

    ieee_fp32_accumulation: bool
    bitwise_numpy: bool
    device: str
    native_is_numpy: bool


class ArrayBackend:
    """Executor interface for the hot-path array operations.

    Kernels hold *native* arrays (whatever the backend computes on)
    between operations and convert at the seam: ``to_native`` on entry
    (cached per backend by the plan layer for frozen operands),
    ``to_numpy`` on the final result.  For :class:`NumpyBackend` every
    hook is the identity and every op is the literal NumPy call the
    pre-backend code ran.
    """

    name: str = "abstract"
    capabilities: BackendCapabilities

    @property
    def cache_key(self) -> str:
        """Key under which caches segregate this backend's buffers.

        Distinct per (backend, device): a ``torch-cuda`` buffer must
        never be handed to a ``torch-cpu`` consumer either.
        """
        return self.name

    # -- conversion seam ----------------------------------------------

    def to_native(self, x: np.ndarray):
        """Adopt a (C-contiguous) ndarray into the backend's array type."""
        raise NotImplementedError

    def to_numpy(self, x) -> np.ndarray:
        """Materialise a native array back into an ndarray."""
        raise NotImplementedError

    # -- allocation / dtype -------------------------------------------

    def empty(self, shape, dtype) -> object:
        """Uninitialised native array (workspace buffers)."""
        raise NotImplementedError

    def cast(self, x, dtype):
        """``x`` as ``dtype`` without copying when already right."""
        raise NotImplementedError

    def nbytes(self, x) -> int:
        """Byte size of a native array (workspace accounting)."""
        raise NotImplementedError

    def result_dtype(self, a, b) -> np.dtype:
        """NumPy result dtype of combining two native arrays."""
        raise NotImplementedError

    # -- compute -------------------------------------------------------

    def matmul(self, a, b, out=None):
        """``a @ b`` over the trailing two axes (allocates when out is None)."""
        raise NotImplementedError

    def batched_matmul(self, a, b, out=None):
        """Stacked ``a[i] @ b[i]``; same semantics as :meth:`matmul`
        over 3-D stacks.  Nothing in the package calls it; it stays
        because qdbench's tracer wraps it by name."""
        return self.matmul(a, b, out=out)

    def add_(self, out, x):
        """In-place accumulate ``out += x`` (returns ``out``)."""
        raise NotImplementedError

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on CPU)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.cache_key!r}>"


class NumpyBackend(ArrayBackend):
    """Always-on reference backend: the literal pre-backend NumPy calls.

    Bitwise contract: every method body is exactly the operation the
    compute kernels ran before the backend seam existed, so routing
    through this class cannot change a single output bit (DESIGN.md,
    "Why backend dispatch cannot change NumPy-path results").
    """

    name = "numpy"
    capabilities = BackendCapabilities(
        ieee_fp32_accumulation=True,
        bitwise_numpy=True,
        device="cpu",
        native_is_numpy=True,
    )

    def to_native(self, x: np.ndarray) -> np.ndarray:
        return x

    def to_numpy(self, x: np.ndarray) -> np.ndarray:
        return x

    def empty(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def cast(self, x: np.ndarray, dtype) -> np.ndarray:
        return x.astype(dtype, copy=False)

    def nbytes(self, x: np.ndarray) -> int:
        return x.nbytes

    def result_dtype(self, a, b) -> np.dtype:
        return np.result_type(a.dtype, b.dtype)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def add_(self, out, x):
        np.add(out, x, out=out)
        return out

    # ``take`` and ``copy`` are called by nothing in the package; they
    # stay only because qdbench's tracer wraps them by name.

    def take(self, x, indices, out):
        np.take(x, indices, axis=0, out=out)
        return out

    def copy(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


#: The singleton reference backend; also the fallback for every
#: degradation path.
NUMPY_BACKEND = NumpyBackend()


# ----------------------------------------------------------------------
# Registry and selection.
# ----------------------------------------------------------------------


def _make_torch(device: Optional[str]) -> ArrayBackend:
    from repro.blas.backend_torch import TorchBackend

    return TorchBackend(device=device)


#: name -> factory.  Factories may raise :class:`BackendUnavailable`.
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": lambda: NUMPY_BACKEND,
    "torch": lambda: _make_torch(None),
    "torch-cpu": lambda: _make_torch("cpu"),
    "torch-cuda": lambda: _make_torch("cuda"),
}

_instances_lock = threading.Lock()
_instances: Dict[str, ArrayBackend] = {"numpy": NUMPY_BACKEND}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (tests, plugins)."""
    with _instances_lock:
        _FACTORIES[name] = factory
        _instances.pop(name, None)


def get_backend(name: Union[str, ArrayBackend, None]) -> ArrayBackend:
    """Resolve a backend by name (instantiated once, then cached).

    Raises :class:`BackendUnavailable` with the concrete reason when
    the backend cannot run here, and ``ValueError`` for unknown names.
    ``None`` and backend instances pass through.
    """
    if name is None:
        return active_backend()
    if isinstance(name, ArrayBackend):
        return name
    key = name.strip().lower()
    with _instances_lock:
        got = _instances.get(key)
        if got is not None:
            return got
        factory = _FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown array backend {name!r}; known: {sorted(_FACTORIES)}"
        )
    backend = factory()  # may raise BackendUnavailable
    with _instances_lock:
        return _instances.setdefault(key, backend)


def available_backends() -> Dict[str, str]:
    """Probe every registered backend: name -> "ok" or the failure reason."""
    out = {}
    for name in sorted(_FACTORIES):
        try:
            get_backend(name)
        except BackendUnavailable as exc:
            out[name] = str(exc)
        except Exception as exc:  # defensive: a broken plugin factory
            out[name] = f"{type(exc).__name__}: {exc}"
        else:
            out[name] = "ok"
    return out


#: The process-wide default backend (``set_backend`` / the env var).
#: Threads with no scoped override dispatch here.
_default: ArrayBackend = NUMPY_BACKEND


def active_backend() -> ArrayBackend:
    """The backend this context's GEMMs currently dispatch to."""
    override = _context.current().backend
    return _default if override is None else override


def set_backend(name: Union[str, ArrayBackend]) -> ArrayBackend:
    """Select the process-wide default backend; returns the instance.

    Visible to every thread that has no :func:`use_backend` override in
    effect.  Explicit selection is strict: an unavailable backend
    raises :class:`BackendUnavailable` (use :data:`REPRO_BACKEND_ENV`
    for the degrade-to-numpy behaviour).
    """
    global _default
    _default = get_backend(name)
    return _default


@contextlib.contextmanager
def use_backend(name: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Scoped backend selection for the calling execution context.

    Concurrent scopes in different threads cannot observe or clobber
    each other; :func:`repro.context.fan_out` workers inherit the scope.
    """
    backend = get_backend(name)
    with _context.scoped(backend=backend):
        yield backend


def refresh_from_env() -> ArrayBackend:
    """Re-read :data:`REPRO_BACKEND_ENV` and install the default.

    Called once at import.  Unlike :func:`set_backend`, an environment
    request that cannot be satisfied degrades to NumPy with a warning:
    a globally exported ``REPRO_BACKEND=torch`` must not break hosts
    without torch.
    """
    global _default
    _default = backend_or_numpy(
        os.environ.get(REPRO_BACKEND_ENV, "").strip(), REPRO_BACKEND_ENV
    )
    return _default


def backend_or_numpy(name: str, source: str) -> ArrayBackend:
    """:func:`get_backend`, degrading to NumPy with a warning naming
    ``source`` when ``name`` is empty, unknown or unavailable here."""
    if not name:
        return NUMPY_BACKEND
    try:
        return get_backend(name)
    except (BackendUnavailable, ValueError) as exc:
        warnings.warn(
            f"{source}={name!r} unavailable ({exc}); "
            "falling back to the numpy backend",
            RuntimeWarning,
            stacklevel=3,
        )
        return NUMPY_BACKEND


refresh_from_env()
