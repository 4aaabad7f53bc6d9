"""In-memory span tracer and the table of calls the traced run wraps.

The traced run replaces each public function or method listed in
:func:`patch_table` with a wrapper that records one span per call:
``(name, start, end, parent)``.  Spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; spans of one thread nest strictly,
so the children never overlap.  A layer's time counts only the
outermost spans of its group, so re-entrant calls (``batched_matmul``
calling ``matmul``) are not counted twice.

Each name is patched where its caller looks it up: a module that did
``from x import f`` holds its own reference, so the wrapper is set on
that module, not on ``x``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: Span names of the paper functions that label a GEMM's call site.
SITE_SPANS = {
    "nlp.apply": "nlp_prop",
    "energy.calc": "calc_energy",
    "occ.remap": "remap_occ",
}


class Tracer:
    """Spans of one thread, stored as parallel lists."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tally: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._owner = (os.getpid(), threading.get_ident())

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def site(self) -> str:
        """Call site of a GEMM issued now: the innermost paper function."""
        for idx in reversed(self._stack):
            site = SITE_SPANS.get(self.names[idx])
            if site is not None:
                return site
        return "other"

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` recording a span per call made from the owner thread.

        Calls from other threads, or from forked pool workers that
        inherited the wrapper, pass straight through.

        ``name`` is a string or a callable of the tracer (GEMMs take
        their site from the open spans).  ``post(tracer, args, kwargs,
        out, state)`` runs after the span closes, with ``state`` from
        ``pre(args, kwargs)``; both tally computed bytes and flops.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (os.getpid(), threading.get_ident()) != tracer._owner:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            idx = tracer.begin(name(tracer) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if post is not None:
                post(tracer, args, kwargs, out, state)
            return out

        return traced

    # -- analysis ------------------------------------------------------

    def analyse(self) -> "SpanTable":
        return SpanTable(self.names, self.starts, self.ends, self.parents)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: index,name,start,end,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{n},{s:.9f},{e:.9f},{p}\n")


class SpanTable:
    """Durations, self times and group aggregates of recorded spans."""

    def __init__(self, names, starts, ends, parents):
        self.names = list(names)
        self.base = [nm.split("@")[0] for nm in self.names]
        self.parents = list(parents)
        n = len(self.names)
        self.dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]

    def _in(self, names: Iterable[str]):
        names = set(names)
        return [nm in names or b in names for nm, b in zip(self.names, self.base)]

    def _below(self, mask):
        """below[i]: some proper ancestor of span i is in ``mask``."""
        below = [False] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                below[i] = mask[p] or below[p]
        return below

    def select(self, names, under: Optional[Iterable[str]] = None):
        """Indices of spans named in ``names`` (optionally below ``under``)."""
        mask = self._in(names)
        if under is None:
            return [i for i, m in enumerate(mask) if m]
        below = self._below(self._in(under))
        return [i for i, m in enumerate(mask) if m and below[i]]

    def total(self, names, under=None) -> float:
        """Seconds covered by the group: outermost spans only."""
        mask = self._in(names)
        nested = self._below(mask)
        return sum(self.dur[i] for i in self.select(names, under) if not nested[i])

    def self_total(self, names, under=None) -> float:
        return sum(self.self_time[i] for i in self.select(names, under))

    def count(self, names, under=None) -> int:
        return len(self.select(names, under))

    def count_under_each(self, names, root: str) -> Dict[int, int]:
        """Spans of ``names`` below each ``root`` span, keyed by root index."""
        owner = [-1] * len(self.names)
        for i, (nm, p) in enumerate(zip(self.names, self.parents)):
            owner[i] = i if nm == root else (owner[p] if p >= 0 else -1)
        out = {i: 0 for i, nm in enumerate(self.names) if nm == root}
        mask = self._in(names)
        for i, m in enumerate(mask):
            if m and owner[i] >= 0:
                out[owner[i]] += 1
        return out


# ----------------------------------------------------------------------
# What the traced run wraps.
# ----------------------------------------------------------------------


def _mod(name: str):
    # import_module returns the module even where a package re-exports a
    # function of the same name (``repro.blas.gemm``).
    return importlib.import_module(name)


def _op_shape(x, trans: str):
    arr = getattr(x, "array", x)
    m, k = arr.shape[-2], arr.shape[-1]
    return (k, m) if trans in ("T", "C") else (m, k)


def real_products(mode, is_complex: bool, single: bool) -> int:
    """Real component products one GEMM of ``mode`` performs (computed)."""
    if is_complex and mode.uses_3m:
        return 3
    pairs = 1
    if mode.is_low_precision or mode.uses_int8:
        pairs = mode.n_component_products if single else 1
    elif mode.uses_fp64_emulation:
        pairs = 1 if single else mode.n_component_products
    return 4 * pairs if is_complex else pairs


def _gemm_post(tracer, args, kwargs, out, state):
    """Computed flops of one ``gemm``: 2 m n k x the mode's real products."""
    import numpy as np

    from repro.blas.modes import resolve_mode
    from repro.blas.policy import active_policy

    m, k = _op_shape(args[0], kwargs.get("trans_a", "N"))
    n = _op_shape(args[1], kwargs.get("trans_b", "N"))[1]
    mode = kwargs.get("mode")
    if mode is None:
        # Same resolution order as gemm: site policy, then ambient mode.
        policy = active_policy()
        mode = policy.mode_for(tracer.site()) if policy is not None else None
    dt = np.asarray(out).dtype
    single = dt in (np.dtype(np.float32), np.dtype(np.complex64))
    products = real_products(resolve_mode(mode), dt.kind == "c", single)
    tracer.tally["blas.flop"] += 2.0 * m * n * k * products


def _matmul_post(tracer, args, kwargs, out, state):
    """Computed flops of one backend matmul (args: backend, a, b)."""
    import numpy as np

    if tracer.current() == "fused.matmul":
        return  # batched_matmul delegating to matmul: counted once
    o = np.asarray(out)
    flops = 2.0 * o.size * args[1].shape[-1]
    tracer.tally["fused.flop"] += flops * (4 if o.dtype.kind == "c" else 1)


def _gather_post(tracer, args, kwargs, out, state):
    tracer.tally["fused.gather_bytes"] += out.nbytes


def _full_split_post(tracer, args, kwargs, out, state):
    tracer.tally["round.full_splits"] += 1
    tracer.tally["round.bytes"] += args[0].nbytes  # the base operand


def _extend_post(tracer, args, kwargs, out, state):
    tracer.tally["round.extends"] += 1
    tracer.tally["round.bytes"] += args[1].nbytes  # the residual


def _anon_hash_post(tracer, args, kwargs, out, state):
    from repro.blas.plan import ANON_MIN_BYTES, plan_cache_enabled

    nbytes = args[0].nbytes
    if plan_cache_enabled() and nbytes >= ANON_MIN_BYTES:
        tracer.tally["plan.hash_bytes"] += nbytes


def _cold_fingerprint(args, kwargs):
    return args[0]._fingerprint is None  # only a cold fingerprint hashes


def _fingerprint_post(tracer, args, kwargs, out, cold):
    if cold:
        tracer.tally["plan.hash_bytes"] += args[0].array.nbytes


def _refresh_post(tracer, args, kwargs, out, state):
    tracer.tally["plan.hash_bytes"] += args[0].array.nbytes


def _gemm_span(tracer) -> str:
    return "blas.gemm@" + tracer.site()


def patch_table():
    """``(owner, attribute, span name, pre, post)`` for every wrapped call."""
    from repro.blas.backend import NumpyBackend
    from repro.core.scheduler import AdaptiveScheduler
    from repro.core.study import PrecisionStudy
    from repro.dcmesh.ions import IonDynamics
    from repro.dcmesh.laser import LaserPulse
    from repro.dcmesh.mesh import Mesh
    from repro.dcmesh.nlp import NonlocalPropagator
    from repro.dcmesh.projectors import ProjectorSet
    from repro.dcmesh.propagate import LFDPropagator
    from repro.dcmesh.scf import SCFSolver
    from repro.dcmesh.simulation import Simulation
    from repro.dcmesh.wavefunction import OrbitalSet
    from repro.gpu import Device
    from repro.telemetry.drift import DriftMonitor

    sim_mod = _mod("repro.dcmesh.simulation")
    gemm_mod = _mod("repro.blas.gemm")
    plan_mod = _mod("repro.blas.plan")
    ws_mod = _mod("repro.blas.workspace")
    prepared = plan_mod.PreparedOperand
    return [
        (Simulation, "run", "sim.run", None, None),
        (Simulation, "setup", "sim.setup", None, None),
        (PrecisionStudy, "run", "study.run", None, None),
        (SCFSolver, "solve", "scf.solve", None, None),
        # QXMD refresh: what Simulation.run does at an SCF block boundary.
        (SCFSolver, "__init__", "qxmd", None, None),
        (SCFSolver, "update", "qxmd", None, None),
        (SCFSolver, "refresh_ionic", "qxmd", None, None),
        (IonDynamics, "step", "qxmd", None, None),
        (sim_mod, "build_projectors", "qxmd", None, None),
        (ProjectorSet, "subspace_matrix", "qxmd", None, None),
        (OrbitalSet, "density", "qxmd", None, None),
        (NonlocalPropagator, "__init__", "qxmd", None, None),
        (LFDPropagator, "__init__", "qxmd", None, None),
        # The LFD step and the paper functions.
        (LFDPropagator, "step", "lfd.step", None, None),
        (NonlocalPropagator, "apply", "nlp.apply", None, None),
        (sim_mod, "calc_energy", "energy.calc", None, None),
        (sim_mod, "remap_occ", "occ.remap", None, None),
        (sim_mod, "current_density", "current.density", None, None),
        (Mesh, "fft", "mesh.fft", None, None),
        (Mesh, "ifft", "mesh.fft", None, None),
        (LaserPulse, "vector_potential", "laser", None, None),
        (LaserPulse, "scalar_amplitude", "laser", None, None),
        # BLAS dispatch, where the three paper modules look gemm up.
        (_mod("repro.dcmesh.nlp"), "gemm", _gemm_span, None, _gemm_post),
        (_mod("repro.dcmesh.energy"), "gemm", _gemm_span, None, _gemm_post),
        (_mod("repro.dcmesh.occupation"), "gemm", _gemm_span, None, _gemm_post),
        (gemm_mod, "gemm_4m_split_planned", "c4m", None, None),
        (gemm_mod, "gemm_3m_planned", "c4m", None, None),
        (gemm_mod, "split_gemm_fused", "fused.engine", None, None),
        # complex3m imports split_gemm_fused inside its function body.
        (ws_mod, "split_gemm_fused", "fused.engine", None, None),
        (ws_mod, "fused_pair_products", "fused.engine", None, None),
        # Plan layer: content hashing and the rounding kernels.
        (plan_mod, "lookup_anonymous", "plan.hash", None, _anon_hash_post),
        (prepared, "fingerprint", "plan.hash", _cold_fingerprint, _fingerprint_post),
        (prepared, "refresh_if_changed", "plan.hash", None, _refresh_post),
        (plan_mod, "release", "plan.release", None, None),
        (plan_mod, "split_terms_residual", "round", None, _full_split_post),
        (plan_mod, "ozaki_slice_terms", "round", None, _full_split_post),
        (plan_mod, "emulated_fp64_split_terms", "round", None, _full_split_post),
        (plan_mod, "extend_split", "round", None, _extend_post),
        # Backend primitives under the fused engine, 3M and standard paths.
        (NumpyBackend, "take", "fused.gather", None, _gather_post),
        (NumpyBackend, "matmul", "fused.matmul", None, _matmul_post),
        (NumpyBackend, "batched_matmul", "fused.matmul", None, _matmul_post),
        (NumpyBackend, "add_", "fused.accumulate", None, None),
        (NumpyBackend, "copy", "fused.accumulate", None, None),
        # Drift monitor, scheduler and the device model.
        (DriftMonitor, "observe", "drift.observe", None, None),
        (DriftMonitor, "finalize", "drift.observe", None, None),
        (AdaptiveScheduler, "on_step", "sched", None, None),
        (AdaptiveScheduler, "on_scf_boundary", "sched", None, None),
        (AdaptiveScheduler, "summary", "sched", None, None),
        (Device, "record_gemm", "gpu.model", None, None),
        (Device, "record_stream", "gpu.model", None, None),
        (Device, "record_copy", "gpu.model", None, None),
        (Device, "allocate", "gpu.model", None, None),
    ]


class Patches:
    """Install the wrappers of :func:`patch_table`; restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for owner, attr, name, pre, post in patch_table():
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self.tracer.wrap(name, original, pre, post))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
        return False
