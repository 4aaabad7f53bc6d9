"""``calc_energy`` — BLASified energy evaluation.

"BLASified nonlocal correction appears in the energy calculation in
calc_energy" (Section IV-D); "Kinetic energy is computed through the
BLAS call in function calc_energy, and is based on a matrix-matrix
multiplication with tensor size N_grid x N_orb" (Section V-A).

Per QD step this function issues three GEMMs at LFD precision:

    K = Psi^H (T_A Psi) dV          cgemm  (N_orb, N_orb, N_grid)  [big]
    S = Psi0^H Psi dV               cgemm  (N_orb, N_orb, N_grid)  [big]
    M = H_nl S                      cgemm  (N_orb, N_orb, N_orb)   [small]

``ekin = Re tr(f K)``; the nonlocal energy is ``Re tr(f S^H M)``
(an elementwise contraction once M exists).  The local potential
energy is a pointwise mesh sum (a streaming kernel, not BLAS).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from repro.blas.gemm import call_site, gemm
from repro.blas.plan import PreparedOperand
from repro.dcmesh.mesh import Mesh

__all__ = ["EnergyBreakdown", "calc_energy"]


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Energy components of one QD step, Hartree."""

    ekin: float       #: kinetic energy (BLAS, velocity-gauge (k+A)^2/2)
    epot: float       #: local potential energy (pointwise)
    enl: float        #: nonlocal energy (BLAS, subspace)
    etot: float       #: ekin + epot + enl


def calc_energy(
    psi: Union[np.ndarray, PreparedOperand],
    psi0: Union[np.ndarray, PreparedOperand],
    occupations: np.ndarray,
    mesh: Mesh,
    v_eff: np.ndarray,
    h_nl_sub: Union[np.ndarray, PreparedOperand],
    a_field: Optional[np.ndarray] = None,
    device=None,
    psig: Optional[np.ndarray] = None,
) -> EnergyBreakdown:
    """Evaluate the energy of the current LFD state.

    Parameters mirror the DCMESH internals: ``psi`` is the propagating
    wavefunction matrix, ``psi0`` the SCF reference, ``h_nl_sub`` the
    FP64-built nonlocal subspace operator cast to storage precision,
    ``v_eff`` the frozen effective potential of the current SCF block
    and ``a_field`` the instantaneous laser vector potential.  Each of
    ``psi``, ``psi0`` and ``h_nl_sub`` may be a plain array or a
    :class:`~repro.blas.plan.PreparedOperand`, so that its conversions
    are shared with other GEMMs (``Psi(0)`` and ``H_nl`` across a
    block's steps, ``Psi(t)`` across one observation); an ``h_nl_sub``
    plan of another dtype is cast.  ``psig``, when given, must be
    ``mesh.fft(psi)``; it is scaled in place.
    """
    psi_op = psi if isinstance(psi, PreparedOperand) else np.asarray(psi)
    psi = getattr(psi_op, "array", psi_op)
    n_orb = psi.shape[1]
    f = np.asarray(occupations, dtype=np.float64)
    if f.shape != (n_orb,):
        raise ValueError(f"occupations shape {f.shape} != ({n_orb},)")
    dv = mesh.dv

    # Kinetic operator application is spectral (streaming kernels on
    # the modelled device), matching the LFD split-operator machinery.
    if a_field is None:
        disp = 0.5 * mesh.k2
    else:
        a = np.asarray(a_field, dtype=np.float64)
        disp = 0.5 * (mesh.k2 + 2.0 * (mesh.kvecs @ a) + a @ a)
    if psig is None:
        psig = mesh.fft(psi)
    psig *= disp[:, None].astype(psig.real.dtype)
    tpsi = mesh.ifft(psig).astype(psi.dtype, copy=False)
    if device is not None:
        device.record_stream("fft_energy", 12 * psi.nbytes, buffer_bytes=psi.nbytes,
                             site="calc_energy")

    prepared = isinstance(h_nl_sub, PreparedOperand)
    if not (prepared and h_nl_sub.array.dtype == psi.dtype):
        h_nl_sub = np.asarray(getattr(h_nl_sub, "array", h_nl_sub), dtype=psi.dtype)

    with call_site("calc_energy"):
        k = gemm(psi_op, tpsi, trans_a="C", alpha=dv)      # (N_orb, N_orb, N_grid)
        s = gemm(psi0, psi_op, trans_a="C", alpha=dv)
        m = gemm(h_nl_sub, s)                              # small

    ekin = float(np.real(np.diagonal(k)) @ f)
    enl = float(np.real(np.sum(s.conj() * m, axis=0)) @ f)

    # Local potential energy: pointwise density contraction.
    density = (np.abs(psi) ** 2 @ f).astype(np.float64)
    epot = float(np.sum(density * np.asarray(v_eff, dtype=np.float64)) * dv)
    if device is not None:
        device.record_stream("density_pot", 2 * psi.nbytes, buffer_bytes=psi.nbytes,
                             site="calc_energy")

    return EnergyBreakdown(ekin=ekin, epot=epot, enl=enl, etot=ekin + epot + enl)
