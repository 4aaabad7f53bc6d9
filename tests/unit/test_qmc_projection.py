"""Unit tests: imaginary-time projection QMC."""

import numpy as np
import pytest

from repro.blas.modes import ComputeMode
from repro.blas.verbose import mkl_verbose
from repro.qmc.lattice import tight_binding_hamiltonian
from repro.qmc.projection import (
    ProjectionQMC,
    exact_ground_state_energy,
)
from repro.types import Precision


@pytest.fixture(scope="module")
def h():
    return tight_binding_hamiltonian((4, 4, 4), disorder=0.5, seed=3)


class TestExactEnergy:
    def test_sum_of_lowest(self, h):
        vals = np.sort(h.eigenvalues())
        assert exact_ground_state_energy(h, 5) == pytest.approx(vals[:5].sum())

    def test_validation(self, h):
        with pytest.raises(ValueError):
            exact_ground_state_energy(h, 0)
        with pytest.raises(ValueError):
            exact_ground_state_energy(h, h.n_sites + 1)


class TestProjection:
    def test_converges_to_exact_fp64(self, h):
        # N = 7 sits at a ~1.7 gap in this spectrum: the projection
        # converges as exp(-2 gap tau n).
        qmc = ProjectionQMC(h, n_particles=7, tau=0.1, storage=Precision.FP64)
        res = qmc.run(n_steps=500, mode=ComputeMode.STANDARD)
        assert res.error < 1e-8

    def test_energy_decreases_towards_exact(self, h):
        qmc = ProjectionQMC(h, n_particles=6, tau=0.1)
        res = qmc.run(n_steps=400, measure_every=50)
        errors = [abs(e - res.exact_energy) for e in res.energies]
        assert errors[-1] < errors[0]

    def test_variational_bound(self, h):
        # The estimator over an N-dim subspace is >= the exact sum.
        qmc = ProjectionQMC(h, n_particles=6, tau=0.1, storage=Precision.FP64)
        res = qmc.run(n_steps=600)
        assert res.final_energy >= res.exact_energy - 1e-9

    def test_deterministic(self, h):
        a = ProjectionQMC(h, 6, seed=5).run(n_steps=50, mode="FLOAT_TO_BF16")
        b = ProjectionQMC(h, 6, seed=5).run(n_steps=50, mode="FLOAT_TO_BF16")
        assert a.energies == b.energies

    def test_run_sees_in_place_edits_of_frozen_operands(self, h):
        # b and h_storage are prepared once; a later write must not be
        # served the splits cached from the old bytes.
        qmc = ProjectionQMC(h, 6, tau=0.1, seed=2)
        other = ProjectionQMC(h, 6, tau=0.2, seed=2)
        qmc.run(n_steps=20, mode="FLOAT_TO_BF16X3")  # caches b's split
        qmc.b[...] = other.b
        got = qmc.run(n_steps=20, mode="FLOAT_TO_BF16X3")
        want = other.run(n_steps=20, mode="FLOAT_TO_BF16X3")
        assert got.energies == want.energies

    def test_mode_sensitivity_ladder(self, h):
        qmc = ProjectionQMC(h, n_particles=6, tau=0.1, seed=1)
        ref = qmc.run(n_steps=200, mode=ComputeMode.STANDARD)
        devs = {}
        for mode in (ComputeMode.FLOAT_TO_BF16, ComputeMode.FLOAT_TO_TF32,
                     ComputeMode.FLOAT_TO_BF16X3):
            res = qmc.run(n_steps=200, mode=mode)
            devs[mode] = abs(res.final_energy - ref.final_energy)
        assert (devs[ComputeMode.FLOAT_TO_BF16]
                > devs[ComputeMode.FLOAT_TO_TF32]
                > devs[ComputeMode.FLOAT_TO_BF16X3])

    def test_blas_call_structure(self, h, clean_mode_env):
        qmc = ProjectionQMC(h, n_particles=6)
        with mkl_verbose() as log:
            qmc.run(n_steps=10, measure_every=10)
        sites = {r.site for r in log}
        assert sites == {"qmc_propagate", "qmc_energy"}
        props = [r for r in log if r.site == "qmc_propagate"]
        assert len(props) == 10
        assert all(r.routine == "sgemm" for r in props)
        assert props[0].m == props[0].k == h.n_sites

    def test_fp64_storage_uses_dgemm(self, h, clean_mode_env):
        qmc = ProjectionQMC(h, n_particles=4, storage=Precision.FP64)
        with mkl_verbose() as log:
            qmc.run(n_steps=2, measure_every=2)
        assert {r.routine for r in log} == {"dgemm"}

    def test_validation(self, h):
        with pytest.raises(ValueError, match="tau"):
            ProjectionQMC(h, 4, tau=0.0)
        with pytest.raises(ValueError, match="reortho"):
            ProjectionQMC(h, 4, reortho_every=0)
        with pytest.raises(ValueError, match="n_particles"):
            ProjectionQMC(h, 0)
        qmc = ProjectionQMC(h, 4)
        with pytest.raises(ValueError, match="n_steps"):
            qmc.run(n_steps=0)
