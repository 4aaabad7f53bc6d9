"""Current density — the third observable of Fig. 1/2.

"The latter is not directly computed through BLAS, but is still
influenced by computations within BLAS calls, and can be used as a
reference."  (Section V-A.)

In the velocity gauge the (macroscopic, volume-averaged) current along
the laser polarisation is

    j = (1/V) sum_j f_j < psi_j | (k_hat + A) | psi_j >
      = (1/V) [ sum_G (G . e) rho(G) + (A . e) N_el ]

evaluated spectrally: ``rho(G) = sum_j f_j |psi_j(G)|^2 dV-weighted``.
No GEMM is involved — deviations in javg arise solely because the
BLASified ``nlp_prop`` perturbed ``psi``, which is exactly why the
paper treats it as the reference observable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dcmesh.mesh import Mesh

__all__ = ["current_density"]


def current_density(
    psi: np.ndarray,
    occupations: np.ndarray,
    mesh: Mesh,
    a_field: Optional[np.ndarray] = None,
    polarization: np.ndarray = (0.0, 0.0, 1.0),
    device=None,
    psig: Optional[np.ndarray] = None,
) -> float:
    """Volume-averaged electronic current along ``polarization`` (a.u.).

    ``psig`` may pass in ``mesh.fft(psi)`` when the caller has it (it is
    only read); otherwise it is computed here.
    """
    psi = np.asarray(psi)
    f = np.asarray(occupations, dtype=np.float64)
    if f.shape != (psi.shape[1],):
        raise ValueError(f"occupations shape {f.shape} != ({psi.shape[1]},)")
    pol = np.asarray(polarization, dtype=np.float64)
    norm = np.linalg.norm(pol)
    if pol.shape != (3,) or norm == 0:
        raise ValueError(f"polarization must be a non-zero 3-vector, got {polarization}")
    pol = pol / norm

    # Spectral momentum density.  Parseval: sum_G |psi(G)|^2 / N = sum_r |psi(r)|^2.
    # The derivative k-grid zeroes the Nyquist modes so a real-valued
    # state carries exactly zero canonical current.
    if psig is None:
        psig = mesh.fft(psi)
    weights = (np.abs(psig) ** 2 @ f) * (mesh.dv / mesh.n_grid)
    k_par = mesh.kvecs_deriv @ pol
    j_canonical = float(k_par @ weights)
    if device is not None:
        device.record_stream("fft_current", 8 * psi.nbytes, buffer_bytes=psi.nbytes,
                             site="current_density")

    n_el = float(f.sum())
    a_par = float(np.asarray(a_field, dtype=np.float64) @ pol) if a_field is not None else 0.0
    return (j_canonical + a_par * n_el) / mesh.volume
