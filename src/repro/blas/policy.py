"""Per-call-site compute-mode policies — the paper's future work.

Section IV-D: "because the Intel MKL controls are environment
variables affecting the library as a whole, our study here is limited
to configurations where all BLAS calls are run at the same precision.
The effects of running different BLAS calls at different levels of
precision is left to future work."

The API layer has no such restriction: a :class:`SitePolicy` maps
application call sites (``nlp_prop`` / ``calc_energy`` / ``remap_occ``
— the labels attached by :func:`repro.blas.gemm.call_site`) to compute
modes, so e.g. the state-mutating ``nlp_prop`` can run at BF16x3 while
the observable-only ``remap_occ`` runs at BF16::

    policy = SitePolicy({"nlp_prop": "FLOAT_TO_BF16X3",
                         "remap_occ": "FLOAT_TO_BF16"},
                        default="STANDARD")
    with policy.active():
        sim.run()

Resolution priority (most to least specific): explicit per-call
``mode=`` argument > active site policy > ``compute_mode`` context >
process-wide setting > environment variable.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, Optional, Union

from repro import context as _context
from repro.blas.modes import ComputeMode

__all__ = ["SitePolicy", "AdaptiveSitePolicy", "active_policy"]


class SitePolicy:
    """Immutable mapping from call-site labels to compute modes."""

    def __init__(
        self,
        site_modes: Dict[str, Union[str, ComputeMode]],
        default: Union[str, ComputeMode, None] = None,
    ):
        self._modes = {
            str(site): ComputeMode.parse(mode) for site, mode in site_modes.items()
        }
        self._default = None if default is None else ComputeMode.parse(default)

    @property
    def sites(self) -> Dict[str, ComputeMode]:
        return dict(self._modes)

    @property
    def default(self) -> Optional[ComputeMode]:
        return self._default

    def mode_for(self, site: str) -> Optional[ComputeMode]:
        """Mode for a call issued at ``site``; ``None`` = no opinion."""
        if site in self._modes:
            return self._modes[site]
        return self._default

    @contextlib.contextmanager
    def active(self) -> Iterator["SitePolicy"]:
        """Install this policy for the scope (per execution context, nestable)."""
        with _context.scoped(policy=self):
            yield self

    def __repr__(self) -> str:
        parts = ", ".join(f"{s}={m.env_value}" for s, m in self._modes.items())
        dflt = "" if self._default is None else f", default={self._default.env_value}"
        return f"SitePolicy({parts}{dflt})"


class AdaptiveSitePolicy(SitePolicy):
    """Mutable site policy driven by a controller between steps.

    The GEMM fast path reads the policy once per call
    (``policy.mode_for(site)``), so mutation must be cheap *and* safe
    against concurrent readers.  ``set_mode`` therefore never edits the
    mapping in place — it publishes a fresh dict in one reference
    assignment (atomic under CPython), so a reader observes either the
    old or the new mapping, never a half-written one.  No lock is taken
    on the read path; the write path serialises writers only.

    The controller (:class:`repro.core.scheduler.AdaptiveScheduler`)
    mutates this object only at QD-step / SCF boundaries; the hot loop
    between boundaries sees a frozen mapping.
    """

    def __init__(
        self,
        site_modes: Dict[str, Union[str, ComputeMode]],
        default: Union[str, ComputeMode, None] = None,
    ):
        super().__init__(site_modes, default)
        self._write_lock = threading.Lock()

    def set_mode(self, site: str, mode: Union[str, ComputeMode]) -> None:
        """Publish a new mode for ``site`` (atomic dict replacement)."""
        parsed = ComputeMode.parse(mode)
        with self._write_lock:
            modes = dict(self._modes)
            modes[str(site)] = parsed
            self._modes = modes

    def set_default(self, mode: Union[str, ComputeMode, None]) -> None:
        """Publish a new fallback mode for unmapped sites."""
        with self._write_lock:
            self._default = None if mode is None else ComputeMode.parse(mode)

    def snapshot(self) -> Dict[str, ComputeMode]:
        """Point-in-time copy of the site → mode mapping."""
        return dict(self._modes)

    def __repr__(self) -> str:
        return "Adaptive" + super().__repr__()


def active_policy() -> Optional[SitePolicy]:
    """The innermost installed policy, if any."""
    return _context.current().policy
