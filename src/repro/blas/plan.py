"""Split-plan caching: prepared operands for the split-GEMM fast path.

The LFD hot loop multiplies a *frozen* operand — ``Psi(0)``, fixed for
the 500 QD steps of an SCF block — against a fresh ``Psi(t)`` in all
three paper functions.  The naive emulation re-derives everything about
the frozen side on every call: contiguous real/imag parts, the
reduced-precision split terms, even the plain contiguous copy the
standard path wants.  All of that work is *pure* in the operand's
bytes, so it can be computed once and cached.

Two layers serve the GEMMs:

* :class:`PreparedOperand` — wraps one array and memoises every derived
  form the GEMM kernels ask for, keyed by ``(kind, trans, dtype, ...)``,
  including cached child plans of column blocks (:meth:`columns`),
  which keep only their split stacks and slice their parent's cached
  forms where they can.  A complex operand's real and imaginary parts
  are packed, split and stacked together (:data:`PAIR`), so each
  orientation of an operand is converted in one call.
  Mutating the array without telling the plan would silently
  desynchronise the cache, so the class offers an explicit
  :meth:`invalidate` plus a content fingerprint (:meth:`fingerprint`,
  :meth:`refresh_if_changed`) for callers that cannot prove frozenness.
* :func:`prepare` — identity-keyed registry so repeated ``prepare(x)``
  on the same live array returns the same plan.  ``Simulation.run``
  hands the :class:`~repro.dcmesh.nlp.NonlocalPropagator`'s plan of
  ``Psi(0)`` to ``calc_energy`` and ``remap_occ`` as well.

A plain ``ndarray`` passed to a GEMM gets a throwaway plan for that one
call: nothing is hashed, and its forms are derived once per call.
``Simulation.run`` wraps each observed ``Psi(t)`` in one unregistered
``keep_bases=False`` plan instead, so the GEMMs of one observation
share its split stacks and free them with the plan.

No GEMM entry point consults the anonymous content-keyed LRU
(:func:`lookup_anonymous`); its statistics stay readable through
:func:`plan_cache_info`.

Caching cannot change results: every derived form is produced by
exactly the array operations the cold path would run (same casts, same
packing, same split order), so downstream ``np.matmul`` calls see
byte-identical inputs either way.

Backend-native mirrors: when a non-NumPy :class:`~repro.blas.backend.
ArrayBackend` is active, the compute kernels ask the plan for *native*
copies of these derived forms (``contiguous_native`` / ``part_native``
/ ``split_stack_native``).  Mirrors are cached under keys that include
``backend.cache_key``, so a frozen operand is staged onto a device once
per SCF block and a backend switch can never serve another backend's
arrays (see :meth:`PreparedOperand.native_mirror`).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.blas.rounding import (
    OzakiSlices,
    emulated_fp64_split_terms,
    extend_split,
    ozaki_slice_terms,
    split_terms_residual,
)
from repro.telemetry.provenance import current_site_id as _current_site_id
from repro.telemetry.registry import active as _telemetry_active

__all__ = [
    "PreparedOperand",
    "OrientedOperand",
    "PAIR",
    "prepare",
    "release",
    "operand_handle",
    "lookup_anonymous",
    "plan_cache_enabled",
    "plan_cache_clear",
    "plan_cache_info",
]

#: :func:`lookup_anonymous` ignores arrays below this byte count.
ANON_MIN_BYTES = 1 << 16

#: Anonymous plans kept alive (LRU).  Each holds its operand's splits,
#: so keep the window small: the hot loop only ever re-uses a handful
#: of frozen matrices.
ANON_CACHE_SIZE = 8


def _fingerprint_array(x: np.ndarray) -> bytes:
    """Content digest of ``x`` (bytes + shape + dtype).

    blake2b at 16 bytes: fast (single read-only pass) and wide enough
    that an accidental collision is never the explanation for anything.
    """
    t = _telemetry_active()
    if t is not None:
        t.count("blas.plan.fingerprints")
        t.count("blas.plan.fingerprint_bytes", x.nbytes)
    h = hashlib.blake2b(digest_size=16)
    h.update(str((x.shape, x.dtype.str)).encode())
    h.update(np.ascontiguousarray(x).view(np.uint8).reshape(-1).data)
    return h.digest()


def _split_mode_label(keep_bits: int, n_terms: int) -> str:
    """Human-readable label for a split's precision family (counters)."""
    base = {7: "bf16", 10: "tf32"}.get(keep_bits, f"kb{keep_bits}")
    return base if n_terms == 1 else f"{base}x{n_terms}"


def _swapped(x: np.ndarray, trans: str) -> np.ndarray:
    """``x`` with its last two axes swapped for ``'T'``/``'C'`` (a view)."""
    if trans == "N":
        return x
    if trans in ("T", "C"):
        return np.swapaxes(x, -1, -2)
    raise ValueError(f"trans must be 'N', 'T' or 'C', got {trans!r}")


def _op_shape(shape: Tuple[int, ...], trans: str) -> Tuple[int, ...]:
    """Shape of ``op(A)`` from ``A``'s shape (no array is touched)."""
    if trans == "N":
        return shape
    if trans in ("T", "C"):
        return shape[:-2] + (shape[-1], shape[-2])
    raise ValueError(f"trans must be 'N', 'T' or 'C', got {trans!r}")


#: Kinds of derived form a GEMM reads directly or splits from: the
#: packed/conjugated operand, its real/imaginary parts and their pair.
_BASE_KINDS = ("oriented", "part", "parts")

#: ``part`` label of a complex operand's real and imaginary parts taken
#: together.  The split families convert the ``(2, ...)`` pair
#: (:meth:`PreparedOperand.parts`) in one call into an
#: ``(n_terms, 2, ...)`` stack; ``'re'``/``'im'`` requests are views into
#: it, so no part is converted twice.
PAIR = "re/im"
_PAIR_INDEX = {"re": 0, "im": 1}

#: Kinds a :meth:`PreparedOperand.columns` child can slice from its
#: parent's cached form: every form that is elementwise in the operand,
#: plus Ozaki stacks when the cut runs across their fibres.
_SLICEABLE_KINDS = ("oriented", "parts", "split", "ozaki", "efp64")

#: The ``trans`` whose packing of ``B`` is ``op(B)``ᵀ (for ``'C'`` up to
#: the conjugation, which :meth:`PreparedOperand.ozaki_stack` applies).
_TRANSPOSED = {"N": "T", "T": "N", "C": "N"}


class PreparedOperand:
    """Caches every derived form of one (frozen) GEMM operand.

    The plan never copies the wrapped array up front; each derived form
    is built on first use and kept until :meth:`invalidate`.  All
    derivations replicate the cold path's exact array operations, so a
    cached form is byte-identical to what an uncached call would build.

    With ``keep_bases=False`` the plan keeps only its split-family forms
    (split, Ozaki and emulated-FP64 stacks), without the residuals that
    would let a split be extended to more terms; the base forms it
    splits from, which STANDARD and 3M multiply directly, are derived
    once per GEMM call (see :meth:`_for_call`) and dropped with it,
    exactly as for a plain array.  :meth:`columns` children and the
    per-step plan of ``Psi(t)`` are made this way.
    """

    __slots__ = (
        "array",
        "version",
        "_derived",
        "_bases",
        "_lock",
        "_fingerprint",
        "_parent",
        "_cols",
        "__weakref__",
    )

    def __init__(self, array: np.ndarray, *, keep_bases: bool = True):
        self.array = np.asarray(array)
        self.version = 0
        self._derived: Dict[tuple, object] = {}
        # Where base forms are cached: with everything else, or nowhere.
        self._bases: Optional[Dict[tuple, object]] = (
            self._derived if keep_bases else None
        )
        self._lock = threading.Lock()
        self._fingerprint: Optional[bytes] = None
        # A column block's parent plan (held weakly) and its column range.
        self._parent: Optional[weakref.ref] = None
        self._cols: Optional[Tuple[int, int]] = None

    def _for_call(self) -> "PreparedOperand":
        """The plan one GEMM call reads this operand's forms from.

        A plan that keeps its base forms is its own.  Otherwise this is
        a throwaway plan over the same array that shares this plan's
        lock, cached forms and parent but holds base forms in its own
        dict, so a call derives each at most once and nothing outlives
        the call.
        """
        if self._bases is not None:
            return self
        view = PreparedOperand(self.array)  # its _bases: a fresh dict
        view._derived = self._derived
        view._lock = self._lock
        view._parent = self._parent
        view._cols = self._cols
        return view

    def _store(self, kind: str) -> Optional[Dict[tuple, object]]:
        return self._bases if kind in _BASE_KINDS else self._derived

    def _from_parent(self, key: tuple):
        """Form ``key`` of this column block, sliced from its parent's.

        ``None`` unless this plan is a :meth:`columns` child whose live
        parent has cached that very form.  Ozaki stacks are sliced only
        when the cut runs across their fibres (``'T'``/``'C'`` for
        operand ``a``, ``'N'`` for ``b``); along them, the block's fibre
        scales differ from the parent's.  Across them the block is a
        block of the stack's rows (its fibres), so the slice is a row
        view.  Every other form is elementwise in the operand, so the
        slice holds exactly the values the block would derive itself: a
        row view for ``'T'``/``'C'``, a packed copy of the columns for
        ``'N'``.
        """
        kind = key[0]
        parent = self._parent() if self._parent is not None else None
        if parent is None or kind not in _SLICEABLE_KINDS:
            return None
        trans = key[1]
        if kind == "ozaki" and (trans == "N") != (key[4] == "b"):
            return None
        store = parent._store(kind)
        form = None if store is None else store.get(key)
        if form is None:
            return None
        start, stop = self._cols
        if kind == "ozaki":
            return form.select((..., slice(start, stop), slice(None)))
        if trans == "N":
            return np.ascontiguousarray(form[..., start:stop])
        return form[..., start:stop, :]

    # -- lifecycle -----------------------------------------------------

    def invalidate(self) -> None:
        """Drop all cached derived forms (call after mutating the array)."""
        t = _telemetry_active()
        if t is not None:
            t.count("blas.plan.invalidated")
        with self._lock:
            self._derived.clear()
            self._fingerprint = None
            self.version += 1

    def fingerprint(self) -> bytes:
        """Content digest of the wrapped array (cached until invalidated)."""
        fp = self._fingerprint
        if fp is None:
            fp = _fingerprint_array(self.array)
            with self._lock:
                self._fingerprint = fp
        return fp

    def refresh_if_changed(self) -> bool:
        """Re-fingerprint the array; invalidate and return True if its
        content no longer matches the cached plans.

        With no baseline fingerprint there is no way to prove the cached
        forms match the current bytes, so the plan is conservatively
        invalidated (and a baseline established for the next call).
        Callers that want the cheap no-op path must fingerprint eagerly
        — :class:`~repro.dcmesh.nlp.NonlocalPropagator` does so at
        construction.
        """
        old = self._fingerprint
        new = _fingerprint_array(self.array)
        t = _telemetry_active()
        if t is not None:
            t.count("blas.plan.refreshes")
        if old is None or new != old:
            if t is not None:
                t.count("blas.plan.refresh_invalidations")
            self.invalidate()
            with self._lock:
                self._fingerprint = new
            return True
        return False

    # -- derived forms -------------------------------------------------

    def _derive(self, key: tuple, builder):
        store = self._store(key[0])
        got = None if store is None else store.get(key)
        t = _telemetry_active()
        if got is None:
            got = self._from_parent(key)
            if t is not None:
                t.count(
                    "blas.plan.derive",
                    result="build" if got is None else "slice",
                    kind=key[0],
                    site=_current_site_id() or "-",
                )
            if got is None:
                got = builder()
            if store is not None:
                with self._lock:
                    got = store.setdefault(key, got)
        elif t is not None:
            t.count(
                "blas.plan.derive",
                result="hit",
                kind=key[0],
                site=_current_site_id() or "-",
            )
        return got

    def oriented(self, trans: str, dtype: np.dtype) -> np.ndarray:
        """``op(A)`` cast to ``dtype`` and packed C-contiguous."""
        dtype = np.dtype(dtype)

        def build():
            op = _swapped(self.array.astype(dtype, copy=False), trans)
            if trans == "C" and dtype.kind == "c":
                # Conjugate straight into the packed buffer (one pass).
                return np.conjugate(op, out=np.empty(op.shape, dtype))
            return np.ascontiguousarray(op)

        return self._derive(("oriented", trans, dtype.str), build)

    def parts(self, trans: str, dtype: np.dtype) -> np.ndarray:
        """Real and imaginary parts of ``op(A)`` as one ``(2, ...)`` array.

        ``dtype`` is the *complex* working dtype; the parts are stored in
        the matching real dtype, exactly as
        :func:`repro.blas.complex3m._parts` packs them.  ``'C'`` reads
        both parts from the swapped view and packs ``-im`` directly: a
        sign flip is exact, so this is bitwise the conjugated copy's
        imaginary part without building that copy.
        """
        dtype = np.dtype(dtype)
        rdt = np.float64 if dtype == np.complex128 else np.float32

        def build():
            op = _swapped(self.array.astype(dtype, copy=False), trans)
            out = np.empty((2,) + op.shape, rdt)
            np.copyto(out[0], op.real)
            if trans == "C":
                np.negative(op.imag, out=out[1])
            else:
                np.copyto(out[1], op.imag)
            return out

        return self._derive(("parts", trans, dtype.str), build)

    def part(self, trans: str, dtype: np.dtype, which: str) -> np.ndarray:
        """Contiguous real/imag part of ``op(A)`` (4M/3M decomposition).

        ``which`` is ``'re'`` or ``'im'`` (a view into :meth:`parts`) or
        ``'re+im'`` (the 3M sum term).
        """
        dtype = np.dtype(dtype)
        if which in _PAIR_INDEX:
            return self.parts(trans, dtype)[_PAIR_INDEX[which]]
        if which != "re+im":
            raise ValueError(f"which must be 're', 'im' or 're+im', got {which!r}")

        def build():
            pair = self.parts(trans, dtype)
            return pair[0] + pair[1]

        return self._derive(("part", trans, dtype.str, which), build)

    def _family_base(self, trans: str, part, real_dtype, pair_dtype) -> np.ndarray:
        """What a split family converts: ``op(A)`` cast to ``real_dtype``
        (``part=None``) or the re/im pair of ``op(A)`` in ``pair_dtype``
        (``part=PAIR``)."""
        if part is None:
            return self.oriented(trans, real_dtype)
        if part == PAIR:
            return self.parts(trans, pair_dtype)
        raise ValueError(f"part must be None, 're', 'im' or {PAIR!r}, got {part!r}")

    def columns(self, start: int, stop: int) -> "PreparedOperand":
        """Cached child plan of the column block ``array[..., start:stop]``.

        The child wraps a view and keeps only split-family forms
        (``keep_bases=False``).  It serves each form from this plan's
        cached one where it can (:meth:`_from_parent`) and otherwise
        derives it from its view, so either way it holds exactly the
        forms a plain slice would.  It refers to this plan weakly: a
        strong back-reference would make every plan with children a
        reference cycle, freed only by the cycle collector.  It is
        stored among this plan's derived forms: :meth:`invalidate` (and
        a :meth:`refresh_if_changed` that finds the bytes changed) drops
        it with everything else.
        """

        def build():
            child = PreparedOperand(self.array[..., start:stop], keep_bases=False)
            child._parent = weakref.ref(self)
            child._cols = (start, stop)
            return child

        return self._derive(("columns", start, stop), build)

    def split_stack(
        self,
        trans: str,
        keep_bits: int,
        n_terms: int,
        *,
        part: Optional[str] = None,
        dtype: Optional[np.dtype] = None,
    ) -> np.ndarray:
        """Stacked split terms, shape ``(n_terms, *op_shape)``.

        ``part=None`` splits the (real) operand itself; :data:`PAIR`
        splits the complex operand's re/im pair into one
        ``(n_terms, 2, *op_shape)`` stack, and ``'re'``/``'im'`` return
        views into that stack.  Each ``stack[i]`` is a C-contiguous
        array bit-identical to ``split_terms(...)[i]``.

        Splits of the same operand at different term counts share work:
        because term ``i`` of a split depends only on the running
        residual (prefix property, see
        :func:`repro.blas.rounding.split_terms_residual`), a request for
        ``n`` terms when a ``k < n``-term split is already cached only
        computes the ``n - k`` missing terms from the cached residual —
        the path a precision escalation (BF16 → BF16X2/X3) takes, so a
        mode switch never re-prepares the whole operand.  Extension is
        bitwise-exact: the FP32 rounding/subtraction sequence is the
        same one a from-scratch split would run.  Only plans that keep
        their base forms keep residuals.
        """
        if part in _PAIR_INDEX:
            pair = self.split_stack(trans, keep_bits, n_terms, part=PAIR, dtype=dtype)
            return pair[:, _PAIR_INDEX[part]]
        key = ("split", trans, keep_bits, n_terms, part)
        got = self._derived.get(key)
        result = "hit"
        if got is None:
            got = self._from_parent(key)
            result = "slice"
        if got is None:
            got, result = self._build_split(trans, keep_bits, n_terms, part, dtype)
        t = _telemetry_active()
        if t is not None:
            t.count(
                "blas.plan.split",
                result=result,
                mode=_split_mode_label(keep_bits, n_terms),
                site=_current_site_id() or "-",
            )
        if result != "hit":
            with self._lock:
                got = self._derived.setdefault(key, got)
        return got

    def _build_split(self, trans, keep_bits, n_terms, part, dtype):
        """A new split stack and how it was made (``'extend'``/``'full'``)."""
        # Extend the widest cached shorter split (needs its residual)
        # before falling back to a from-scratch decomposition.
        for n in range(n_terms - 1, 0, -1):
            resid = self._derived.get(("split_resid", trans, keep_bits, n, part))
            stack = self._derived.get(("split", trans, keep_bits, n, part))
            if resid is not None and stack is not None:
                built, residual = extend_split(stack, resid, keep_bits, n_terms - n)
                result = "extend"
                break
        else:
            base = self._family_base(
                trans, part, np.float32, np.dtype(dtype or np.complex64)
            )
            built, residual = split_terms_residual(base, keep_bits, n_terms)
            result = "full"
        if self._bases is self._derived:
            with self._lock:
                self._derived.setdefault(
                    ("split_resid", trans, keep_bits, n_terms, part), residual
                )
        return built, result

    def ozaki_stack(
        self,
        trans: str,
        n_slices: int,
        *,
        part: Optional[str] = None,
        operand: str = "a",
        dtype: Optional[np.dtype] = None,
    ) -> OzakiSlices:
        """Ozaki INT8 slices with the contraction axis last.

        ``operand`` selects the layout: ``'a'`` slices ``op(A)``, whose
        rows are its fibres; ``'b'`` slices ``op(B)``ᵀ, so the fibres —
        ``op(B)``'s columns — are rows there too and :meth:`columns`
        children of either take a row view.  Each fibre has one
        power-of-two scale, so every output dot product sees one fixed
        scale per slice pair.  ``part`` works as for :meth:`split_stack`
        (the pair's fibres never mix its parts).  The form is the
        :class:`~repro.blas.rounding.OzakiSlices` that
        :func:`repro.blas.rounding.ozaki_slice_terms` returns for the
        exact values the cold path would slice, so cached and fresh
        forms are bitwise identical.
        """
        if operand not in ("a", "b"):
            raise ValueError(f"operand must be 'a' or 'b', got {operand!r}")
        if part in _PAIR_INDEX:
            pair = self.ozaki_stack(
                trans, n_slices, part=PAIR, operand=operand, dtype=dtype
            )
            return pair.select(_PAIR_INDEX[part])

        def build():
            cdt = np.dtype(dtype or np.complex64)
            if operand == "a":
                base = self._family_base(trans, part, np.float32, cdt)
            else:
                base = self._family_base(_TRANSPOSED[trans], part, np.float32, cdt)
                if trans == "C" and part == PAIR:
                    base = base.copy()  # op(B)ᵀ = conj(B): negate the im part
                    np.negative(base[1], out=base[1])
            return ozaki_slice_terms(base, n_slices)

        return self._derive(("ozaki", trans, n_slices, part, operand), build)

    def efp64_stack(
        self,
        trans: str,
        n_terms: int,
        *,
        part: Optional[str] = None,
        dtype: Optional[np.dtype] = None,
    ) -> np.ndarray:
        """Stacked emulated-FP64 split terms, ``(n_terms, *op_shape)``.

        FP64 operands split into FP32-representable float64 terms
        (:func:`repro.blas.rounding.emulated_fp64_split_terms`); single
        precision degenerates to one exact float64 cast.  ``dtype`` is
        the *working* dtype of the call (real or complex; complex when
        ``part`` selects a component) — it decides whether the base
        array is the FP64 or FP32 packing.  ``part`` works as for
        :meth:`split_stack`.
        """
        wdt = np.dtype(dtype or np.float64)
        double = wdt in (np.dtype(np.float64), np.dtype(np.complex128))
        if part in _PAIR_INDEX:
            pair = self.efp64_stack(trans, n_terms, part=PAIR, dtype=dtype)
            return pair[:, _PAIR_INDEX[part]]

        def build():
            base = self._family_base(
                trans, part, np.float64 if double else np.float32, wdt
            )
            return emulated_fp64_split_terms(base, n_terms)

        return self._derive(("efp64", trans, n_terms, part, double), build)

    def native_mirror(self, backend, key: tuple, array: np.ndarray):
        """Backend-native copy of a derived NumPy form, cached per backend.

        ``key`` must be the derived form's own cache key; the native
        entry lives under ``("native", backend.cache_key) + key``, so
        (a) a frozen operand is staged onto a device at most once per
        SCF block, and (b) two backends can never alias one cached
        buffer — the cache key *is* the isolation boundary (the same
        invariant the workspace pool enforces, see
        :class:`repro.blas.workspace.Workspace`).  Mirrors are derived
        forms like any other: :meth:`invalidate` drops them with the
        NumPy originals.

        NumPy-native backends short-circuit: the derived form is
        already the native array, so this is one attribute check.
        """
        if backend.capabilities.native_is_numpy:
            return array
        k = ("native", backend.cache_key) + key
        store = self._store(key[0])
        got = None if store is None else store.get(k)
        t = _telemetry_active()
        if got is None:
            if t is not None:
                t.count(
                    "blas.plan.native",
                    result="build",
                    backend=backend.cache_key,
                    site=_current_site_id() or "-",
                )
            got = backend.to_native(array)
            if store is not None:
                with self._lock:
                    got = store.setdefault(k, got)
        elif t is not None:
            t.count(
                "blas.plan.native",
                result="hit",
                backend=backend.cache_key,
                site=_current_site_id() or "-",
            )
        return got

    def is_finite(self) -> bool:
        """Memoised ``np.isfinite(A).all()`` (the opt-in input check)."""
        return self._derive(("finite",), lambda: bool(np.isfinite(self.array).all()))


class OrientedOperand:
    """A ``(plan, trans, dtype)`` handle passed through the compute kernels.

    Thin and ephemeral: it exists so the mode-dispatch code can ask for
    exactly the derived form it needs without knowing whether the
    backing plan is cached or throwaway.
    """

    __slots__ = ("plan", "trans", "dtype")

    def __init__(self, plan: PreparedOperand, trans: str, dtype: np.dtype):
        self.plan = plan
        self.trans = trans
        self.dtype = np.dtype(dtype)

    @property
    def shape(self) -> Tuple[int, ...]:
        return _op_shape(self.plan.array.shape, self.trans)

    def contiguous(self) -> np.ndarray:
        return self.plan.oriented(self.trans, self.dtype)

    def part(self, which: str) -> np.ndarray:
        return self.plan.part(self.trans, self.dtype, which)

    def split_stack(self, keep_bits: int, n_terms: int, part: Optional[str] = None) -> np.ndarray:
        return self.plan.split_stack(
            self.trans, keep_bits, n_terms, part=part, dtype=self.dtype
        )

    # -- backend-native forms ------------------------------------------
    #
    # Same derived forms, staged into the active backend's array type.
    # For the NumPy backend these return the arrays above unchanged
    # (one capability-flag check); for device backends the plan caches
    # the converted/staged copy per backend (see ``native_mirror``).

    def contiguous_native(self, backend):
        arr = self.contiguous()
        return self.plan.native_mirror(
            backend, ("oriented", self.trans, self.dtype.str), arr
        )

    def part_native(self, backend, which: str):
        arr = self.part(which)
        return self.plan.native_mirror(
            backend, ("part", self.trans, self.dtype.str, which), arr
        )

    def split_stack_native(
        self, backend, keep_bits: int, n_terms: int, part: Optional[str] = None
    ):
        arr = self.split_stack(keep_bits, n_terms, part=part)
        return self.plan.native_mirror(
            backend, ("split", self.trans, keep_bits, n_terms, part), arr
        )

    def ozaki_stack(
        self, n_slices: int, part: Optional[str] = None, operand: str = "a"
    ) -> OzakiSlices:
        return self.plan.ozaki_stack(
            self.trans, n_slices, part=part, operand=operand, dtype=self.dtype
        )

    def ozaki_stack_native(
        self, backend, n_slices: int, part: Optional[str] = None, operand: str = "a"
    ):
        """``(slices, exponents)`` of the Ozaki form in ``op(X)``'s layout.

        The slice stack, with ``op(B)``ᵀ swapped back to ``op(B)`` for
        operand ``'b'`` (a view), is mirrored into ``backend``; the
        exponents stay NumPy.
        """
        stack, exponents = self.ozaki_stack(n_slices, part=part, operand=operand)
        if operand == "b":
            stack = np.swapaxes(stack, -1, -2)
        native = self.plan.native_mirror(
            backend, ("ozaki", self.trans, n_slices, part, operand), stack
        )
        return native, exponents

    def efp64_stack(self, n_terms: int, part: Optional[str] = None) -> np.ndarray:
        return self.plan.efp64_stack(
            self.trans, n_terms, part=part, dtype=self.dtype
        )

    def efp64_stack_native(self, backend, n_terms: int, part: Optional[str] = None):
        arr = self.efp64_stack(n_terms, part=part)
        double = self.dtype in (np.dtype(np.float64), np.dtype(np.complex128))
        return self.plan.native_mirror(
            backend, ("efp64", self.trans, n_terms, part, double), arr
        )


# ----------------------------------------------------------------------
# Identity registry (explicit prepare()) and anonymous content LRU.
# ----------------------------------------------------------------------

_registry_lock = threading.Lock()
_registry: "OrderedDict[int, PreparedOperand]" = OrderedDict()
_REGISTRY_SIZE = 8

_anon_lock = threading.Lock()
_anon: "OrderedDict[bytes, PreparedOperand]" = OrderedDict()
_anon_stats = {"hits": 0, "misses": 0}


def prepare(array: Union[np.ndarray, PreparedOperand]) -> PreparedOperand:
    """Return the :class:`PreparedOperand` for ``array``, creating one.

    Identity-keyed: calling ``prepare`` twice on the same live array
    returns the same plan (so separately constructed consumers share
    the cached splits).  The caller owns the freshness contract — call
    :meth:`PreparedOperand.invalidate` (or ``refresh_if_changed``)
    after mutating the array.
    """
    if isinstance(array, PreparedOperand):
        return array
    array = np.asarray(array)
    key = id(array)
    t = _telemetry_active()
    with _registry_lock:
        plan = _registry.get(key)
        if plan is not None and plan.array is array:
            _registry.move_to_end(key)
            if t is not None:
                t.count("blas.plan.prepare", result="hit")
            return plan
        plan = PreparedOperand(array)
        _registry[key] = plan
        if t is not None:
            t.count("blas.plan.prepare", result="miss")
        while len(_registry) > _REGISTRY_SIZE:
            _registry.popitem(last=False)
            if t is not None:
                t.count("blas.plan.registry_evictions")
        return plan


def release(array: Union[np.ndarray, PreparedOperand]) -> None:
    """Drop the registry entry (and cached forms) for ``array``."""
    if isinstance(array, PreparedOperand):
        array.invalidate()
        with _registry_lock:
            for k, v in list(_registry.items()):
                if v is array:
                    del _registry[k]
        return
    with _registry_lock:
        plan = _registry.pop(id(np.asarray(array)), None)
    if plan is not None:
        plan.invalidate()


def lookup_anonymous(array: np.ndarray) -> Optional[PreparedOperand]:
    """Content-keyed LRU lookup for a plain ndarray operand.

    Returns a plan whose wrapped array had byte-identical content, or
    ``None`` when the array is below :data:`ANON_MIN_BYTES`.  The
    fingerprint is recomputed on every call, so a mutated array can
    never be served stale derived forms.  The GEMM entry points do not
    call this; pass a :func:`prepare`-d operand to reuse its splits.
    """
    if array.nbytes < ANON_MIN_BYTES:
        return None
    fp = _fingerprint_array(array)
    t = _telemetry_active()
    with _anon_lock:
        plan = _anon.get(fp)
        if plan is not None:
            _anon.move_to_end(fp)
            _anon_stats["hits"] += 1
            if t is not None:
                t.count("blas.plan.anon", result="hit")
            return plan
        _anon_stats["misses"] += 1
        if t is not None:
            t.count("blas.plan.anon", result="miss")
        plan = PreparedOperand(array)
        plan._fingerprint = fp
        _anon[fp] = plan
        while len(_anon) > ANON_CACHE_SIZE:
            _anon.popitem(last=False)
            if t is not None:
                t.count("blas.plan.anon_evictions")
    return plan


def plan_cache_enabled() -> bool:
    """Always ``True``: :func:`lookup_anonymous` has no off switch."""
    return True


def plan_cache_clear() -> None:
    """Empty the anonymous plan cache and reset its statistics."""
    with _anon_lock:
        _anon.clear()
        _anon_stats["hits"] = 0
        _anon_stats["misses"] = 0


def plan_cache_info() -> dict:
    """Hit/miss counters and current size of the anonymous cache."""
    with _anon_lock:
        return dict(_anon_stats, size=len(_anon), maxsize=ANON_CACHE_SIZE)


def operand_handle(
    x: Union[np.ndarray, PreparedOperand], trans: str, dtype: np.dtype
) -> OrientedOperand:
    """Build the compute-kernel handle for one operand.

    Prepared operands use their own plan; plain arrays get a throwaway
    plan, which still pays off *within* the call, because the 4M/3M
    decompositions ask for each part's splits more than once.  Plain
    arrays are never content-hashed: a caller that reuses a frozen
    operand passes it :func:`prepare`-d.
    """
    if isinstance(x, PreparedOperand):
        return OrientedOperand(x._for_call(), trans, dtype)
    return OrientedOperand(PreparedOperand(x), trans, dtype)
