"""From-scratch implementation of the DCMESH application.

DCMESH (divide-and-conquer Maxwell–Ehrenfest surface hopping) couples a
CPU-resident FP64 **QXMD** phase — Self-Consistent-Field (SCF)
initialisation and periodic re-convergence of the Kohn–Sham
wavefunctions, plus Ehrenfest ion dynamics — with a GPU-resident
**LFD** (Local Field Dynamics) phase that propagates the electronic
wavefunctions on a finite-difference mesh under a laser pulse.

The LFD phase is where the paper's BLAS calls live.  Wavefunctions are
stored as an ``N_grid x N_orb`` complex matrix and the nonlocal
correction is applied in the subspace spanned by the t=0 Kohn–Sham
orbitals (Eq. 1 of the paper): three functions — ``nlp_prop``,
``calc_energy`` and ``remap_occ`` — issue nine ``cgemm`` calls per
quantum-dynamical step, exactly the structure the paper's
MKL_VERBOSE analysis reports.

Public surface::

    cfg = SimulationConfig.small_test()
    sim = Simulation(cfg)
    result = sim.run()                      # LFD storage FP32
    result.records[-1].nexc                 # observables per QD step
"""

from repro.dcmesh.constants import AU_PER_FS, FS_PER_AU, HARTREE_EV
from repro.dcmesh.mesh import Mesh
from repro.dcmesh.material import (
    AtomSpec,
    Material,
    PTO_SPECIES,
    build_pto_supercell,
)
from repro.dcmesh.laser import LaserPulse
from repro.dcmesh.projectors import ProjectorSet, build_projectors
from repro.dcmesh.wavefunction import OrbitalSet
from repro.dcmesh.hamiltonian import Hamiltonian
from repro.dcmesh.scf import SCFSolver, SCFResult
from repro.dcmesh.nlp import NonlocalPropagator
from repro.dcmesh.energy import EnergyBreakdown, calc_energy
from repro.dcmesh.occupation import RemapResult, remap_occ
from repro.dcmesh.current import current_density
from repro.dcmesh.ions import IonDynamics
from repro.dcmesh.shadow import TransferLedger
from repro.dcmesh.maxwell import InducedField
from repro.dcmesh.propagate import LFDPropagator
from repro.dcmesh.observables import QDRecord, format_qd_line
from repro.dcmesh.simulation import Simulation, SimulationConfig, SimulationResult

__all__ = [
    "AU_PER_FS",
    "FS_PER_AU",
    "HARTREE_EV",
    "Mesh",
    "AtomSpec",
    "Material",
    "PTO_SPECIES",
    "build_pto_supercell",
    "LaserPulse",
    "ProjectorSet",
    "build_projectors",
    "OrbitalSet",
    "Hamiltonian",
    "SCFSolver",
    "SCFResult",
    "NonlocalPropagator",
    "EnergyBreakdown",
    "calc_energy",
    "RemapResult",
    "remap_occ",
    "current_density",
    "IonDynamics",
    "TransferLedger",
    "InducedField",
    "LFDPropagator",
    "QDRecord",
    "format_qd_line",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
]
