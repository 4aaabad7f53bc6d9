"""``remap_occ`` — occupation remapping and the excited-electron count.

"Nexc is computed through a BLAS call in function remap_occ and is
based on a matrix-matrix multiplication" (Section V-A); Table VII
pins the GEMM shape for the 40-atom system: ``m = 128`` (the number of
doubly-occupied orbitals), ``n = N_orb - 128`` (the virtual block) and
``k = 64^3`` (the mesh).

The calculation projects the time-evolved, initially-occupied orbitals
onto the initial *virtual* manifold:

    P = Psi_occ^H(t) Psi0_virt dV   cgemm  (N_occ, N_virt, N_grid)  [big]
    Q = Psi0_occ^H Psi_occ(t) dV    cgemm  (N_occ, N_occ, N_grid)   [big]
    W = P P^H                       cgemm  (N_occ, N_occ, N_virt)   [small]

``nexc = sum_i f_i sum_a |P_ia|^2`` — occupation leaked into the
virtuals; ``Q`` gives the remapped occupation of each initial orbital
(and a completeness check: diag(Q Q^H) + diag(W) ~ 1 per orbital for a
unitary propagation); ``W``'s diagonal is the per-orbital excitation.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from repro.blas.gemm import call_site, gemm
from repro.blas.plan import PreparedOperand
from repro.dcmesh.mesh import Mesh

__all__ = ["RemapResult", "remap_occ"]


@dataclasses.dataclass(frozen=True)
class RemapResult:
    """Occupation-remap outputs for one QD step."""

    nexc: float                 #: number of excited electrons
    occ_remapped: np.ndarray    #: occupation carried by each initial occupied orbital
    per_orbital_exc: np.ndarray #: excitation per (initially occupied) orbital
    p_shape: tuple              #: (m, n, k) of the headline GEMM (Table VII)


def remap_occ(
    psi: Union[np.ndarray, PreparedOperand],
    psi0: Union[np.ndarray, PreparedOperand],
    occupations: np.ndarray,
    mesh: Mesh,
) -> RemapResult:
    """Remap final wavefunctions to occupation numbers.

    Parameters
    ----------
    psi:
        Propagating orbitals ``(N_grid, N_orb)`` at LFD precision: a
        plain array or a :class:`~repro.blas.plan.PreparedOperand`
        (``Simulation.run`` passes the observation's plan of ``Psi(t)``,
        whose occupied block then slices the forms ``calc_energy``
        already built).
    psi0:
        SCF reference orbitals, same shape/precision: a plain array
        (split per call) or a :class:`~repro.blas.plan.PreparedOperand`,
        whose occupied and virtual column blocks are cached child plans.
    occupations:
        Reference occupations: ``N_occ`` positive entries first, then
        zeros (2.0 for the first ``N_occ`` columns).
    """
    if not isinstance(psi, PreparedOperand):
        psi = PreparedOperand(psi, keep_bases=False)
    if not isinstance(psi0, PreparedOperand):
        psi0 = PreparedOperand(psi0)
    shape = psi.array.shape
    if shape != psi0.array.shape:
        raise ValueError(f"psi {shape} and psi0 {psi0.array.shape} differ")
    f = np.asarray(occupations, dtype=np.float64)
    n_orb = shape[1]
    n_occ = int(np.count_nonzero(f > 0))
    if n_occ == 0 or n_occ >= n_orb:
        raise ValueError(
            f"remap_occ needs both occupied and virtual orbitals, got "
            f"{n_occ} occupied of {n_orb}"
        )
    f_occ = f[:n_occ]
    if not (f_occ > 0).all():
        i = int(np.argmin(f_occ > 0))
        raise ValueError(
            f"remap_occ needs the {n_occ} occupied orbitals first, but "
            f"orbital {i} has occupation {f[i]}"
        )
    dv = mesh.dv
    psi_occ = psi.columns(0, n_occ)

    with call_site("remap_occ"):
        # Table VII shape: (m=N_occ, n=N_virt, k=N_grid).
        p = gemm(psi_occ, psi0.columns(n_occ, n_orb), trans_a="C", alpha=dv)
        # Remapped occupations of the initial occupied manifold.
        q = gemm(psi0.columns(0, n_occ), psi_occ, trans_a="C", alpha=dv)
        # Per-orbital excitation matrix (small).  One plan serves both
        # operands, so under OZAKI_INT8 P^H's slices are P's negated
        # conjugate twin, not a second slicing.
        p_plan = PreparedOperand(p, keep_bases=False)
        w = gemm(p_plan, p_plan, trans_b="C")

    per_orbital = f_occ * np.real(np.diagonal(w))
    nexc = float(per_orbital.sum())
    occ_remapped = f_occ * np.real(np.sum(np.abs(q) ** 2, axis=0))
    return RemapResult(
        nexc=nexc,
        occ_remapped=occ_remapped,
        per_orbital_exc=per_orbital,
        p_shape=(n_occ, n_orb - n_occ, shape[0]),
    )
