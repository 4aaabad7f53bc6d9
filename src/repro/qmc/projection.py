"""Imaginary-time projection QMC over :mod:`repro.blas` GEMMs.

The method: start from a trial Slater determinant ``Phi`` (an ``M x N``
orthonormal matrix of ``N`` occupied one-particle states on ``M``
sites) and repeatedly apply ``B = exp(-tau H)``:

    Phi <- B Phi

Each application filters out excited components; as ``n tau`` grows the
span of ``Phi`` converges to the lowest-``N`` eigenspace and the energy
estimator

    E = tr[(Phi^H Phi)^{-1} Phi^H H Phi]

converges to the exact ground-state energy (the sum of the ``N``
lowest eigenvalues).  Periodic QR re-orthonormalisation keeps the
columns from collapsing onto the single lowest state — the exact
analogue of AFQMC walker re-orthogonalisation.

Every matrix product goes through :func:`repro.blas.gemm.gemm` at the
chosen storage precision, under whatever compute mode is ambient: this
is deliberately the *same* precision surface as DCMESH's LFD, so the
environment-variable study transfers verbatim.
"""

from __future__ import annotations

import dataclasses
from typing import List, Union

import numpy as np

from repro.blas.gemm import call_site, gemm
from repro.blas.modes import ComputeMode, compute_mode, resolve_mode
from repro.blas.plan import PreparedOperand
from repro.qmc.lattice import LatticeHamiltonian
from repro.types import Precision, real_dtype

__all__ = ["ProjectionResult", "ProjectionQMC", "exact_ground_state_energy"]


def exact_ground_state_energy(h: LatticeHamiltonian, n_particles: int) -> float:
    """Closed-form target: sum of the ``n_particles`` lowest eigenvalues."""
    if not 0 < n_particles <= h.n_sites:
        raise ValueError(
            f"n_particles must be in (0, {h.n_sites}], got {n_particles}"
        )
    return float(np.sort(h.eigenvalues())[:n_particles].sum())


@dataclasses.dataclass
class ProjectionResult:
    """Outcome of one projection run."""

    energies: List[float]          #: energy estimator per measurement
    final_energy: float
    exact_energy: float
    n_steps: int
    mode: ComputeMode

    @property
    def error(self) -> float:
        """|final - exact| — projection + precision error combined."""
        return abs(self.final_energy - self.exact_energy)


class ProjectionQMC:
    """BLAS-dominated imaginary-time projector."""

    def __init__(
        self,
        hamiltonian: LatticeHamiltonian,
        n_particles: int,
        tau: float = 0.05,
        storage: Precision = Precision.FP32,
        reortho_every: int = 10,
        seed: int = 0,
    ):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if reortho_every < 1:
            raise ValueError(f"reortho_every must be >= 1, got {reortho_every}")
        if not 0 < n_particles <= hamiltonian.n_sites:
            raise ValueError(
                f"n_particles must be in (0, {hamiltonian.n_sites}], "
                f"got {n_particles}"
            )
        self.h = hamiltonian
        self.n_particles = n_particles
        self.tau = float(tau)
        self.storage = storage
        self.reortho_every = reortho_every
        self.seed = seed
        dt = real_dtype(storage)
        # FP64 once-per-run setup (the QXMD-analogue): the propagator
        # and the Hamiltonian, then cast to storage.
        self.b = hamiltonian.propagator(tau).astype(dt)
        self.h_storage = hamiltonian.matrix.astype(dt)
        # Both are frozen for the life of the projector: their plans
        # derive the split/cast forms on first use and reuse them in
        # every step and measurement.  They are not registered with
        # prepare(), so they die with the projector.  The eager
        # fingerprint gives run()'s freshness check its baseline, so
        # unchanged bytes keep the cached forms.
        self.b_plan = PreparedOperand(self.b)
        self.h_plan = PreparedOperand(self.h_storage)
        self.b_plan.fingerprint()
        self.h_plan.fingerprint()
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((hamiltonian.n_sites, n_particles))
        q, _ = np.linalg.qr(phi)
        self.phi0 = q.astype(dt)

    # ------------------------------------------------------------------

    def energy(self, phi: np.ndarray) -> float:
        """Mixed estimator ``tr[(Phi^H Phi)^{-1} (Phi^H H Phi)]``."""
        with call_site("qmc_energy"):
            hphi = gemm(self.h_plan, phi)
            num = gemm(phi, hphi, trans_a="C")
            den = gemm(phi, phi, trans_a="C")
        # Small N x N solve in FP64 (the "QXMD side" of this workload).
        sol = np.linalg.solve(den.astype(np.float64), num.astype(np.float64))
        return float(np.trace(sol))

    def run(
        self,
        n_steps: int = 200,
        measure_every: int = 10,
        mode: Union[str, ComputeMode, None] = None,
    ) -> ProjectionResult:
        """Project for ``n_steps`` imaginary-time steps."""
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        effective = resolve_mode(mode)
        # Re-derive the cached forms if b or h_storage was written to
        # since the last run.
        self.b_plan.refresh_if_changed()
        self.h_plan.refresh_if_changed()
        phi = self.phi0.copy()
        energies: List[float] = []
        with compute_mode(effective):
            for step in range(1, n_steps + 1):
                with call_site("qmc_propagate"):
                    phi = gemm(self.b_plan, phi)
                if step % self.reortho_every == 0:
                    # FP64 QR: the stabilisation step, like the paper's
                    # periodic FP64 SCF update.
                    q, _ = np.linalg.qr(phi.astype(np.float64))
                    phi = q.astype(phi.dtype)
                if step % measure_every == 0 or step == n_steps:
                    energies.append(self.energy(phi))
        return ProjectionResult(
            energies=energies,
            final_energy=energies[-1],
            exact_energy=exact_ground_state_energy(self.h, self.n_particles),
            n_steps=n_steps,
            mode=effective,
        )
