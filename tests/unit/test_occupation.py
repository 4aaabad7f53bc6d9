"""Unit tests: remap_occ and nexc."""

import numpy as np
import pytest

from repro.blas.verbose import mkl_verbose
from repro.dcmesh.mesh import Mesh
from repro.dcmesh.occupation import remap_occ
from repro.dcmesh.wavefunction import OrbitalSet


@pytest.fixture(scope="module")
def setup():
    mesh = Mesh((8, 8, 8), (5.0, 5.0, 5.0))
    orb = OrbitalSet.random(mesh, 8, 4, seed=0)
    return mesh, orb


class TestNexc:
    def test_ground_state_has_zero_nexc(self, setup):
        mesh, orb = setup
        r = remap_occ(orb.psi, orb.psi, orb.occupations, mesh)
        assert r.nexc == pytest.approx(0.0, abs=1e-12)

    def test_full_promotion_counts_all_electrons(self, setup):
        # Swap occupied and virtual manifolds: every electron excited.
        mesh, orb = setup
        swapped = orb.psi[:, [4, 5, 6, 7, 0, 1, 2, 3]]
        r = remap_occ(swapped, orb.psi, orb.occupations, mesh)
        assert r.nexc == pytest.approx(orb.n_electrons, rel=1e-10)

    def test_partial_mixing_fraction(self, setup):
        # Rotate orbital 0 halfway into virtual 4: |c_virt|^2 = 1/2,
        # carrying f=2 electrons -> nexc = 1.
        mesh, orb = setup
        psi = orb.psi.copy()
        psi[:, 0] = (orb.psi[:, 0] + orb.psi[:, 4]) / np.sqrt(2)
        r = remap_occ(psi, orb.psi, orb.occupations, mesh)
        assert r.nexc == pytest.approx(1.0, rel=1e-10)
        np.testing.assert_allclose(r.per_orbital_exc, [1.0, 0, 0, 0], atol=1e-10)

    def test_nexc_bounded_by_electron_count(self, setup, rng):
        mesh, orb = setup
        other = OrbitalSet.random(mesh, 8, 4, seed=99)
        r = remap_occ(other.psi, orb.psi, orb.occupations, mesh)
        assert 0 <= r.nexc <= orb.n_electrons + 1e-9

    def test_occ_remapped_complements_exc(self, setup):
        # For a unitary rotation within the full space, occupation on
        # initial-occupied + leaked-to-virtual = f per orbital.
        mesh, orb = setup
        psi = orb.psi.copy()
        psi[:, 1] = (orb.psi[:, 1] + orb.psi[:, 6]) / np.sqrt(2)
        r = remap_occ(psi, orb.psi, orb.occupations, mesh)
        total = r.occ_remapped + r.per_orbital_exc
        np.testing.assert_allclose(total, [2, 2, 2, 2], rtol=1e-10)


class TestStructure:
    def test_table7_headline_shape(self, setup, clean_mode_env):
        mesh, orb = setup
        psi32 = orb.psi.astype(np.complex64)
        with mkl_verbose() as log:
            r = remap_occ(psi32, psi32, orb.occupations, mesh)
        assert len(log) == 3
        assert all(rec.site == "remap_occ" for rec in log)
        # Headline GEMM: (m=N_occ, n=N_virt, k=N_grid) — Table VII.
        assert (log[0].m, log[0].n, log[0].k) == (4, 4, 512)
        assert r.p_shape == (4, 4, 512)

    def test_requires_occupied_and_virtual(self, setup):
        mesh, orb = setup
        with pytest.raises(ValueError, match="occupied and virtual"):
            remap_occ(orb.psi, orb.psi, np.full(8, 2.0), mesh)
        with pytest.raises(ValueError, match="occupied and virtual"):
            remap_occ(orb.psi, orb.psi, np.zeros(8), mesh)
        # Occupied orbitals not first (a hand-written or loaded
        # checkpoint): the first n_occ columns are not the occupied set.
        with pytest.raises(ValueError, match="occupied orbitals first"):
            remap_occ(orb.psi, orb.psi, np.array([0, 2, 2, 2, 2, 0, 0, 0.0]), mesh)

    def test_shape_mismatch(self, setup):
        mesh, orb = setup
        with pytest.raises(ValueError, match="differ"):
            remap_occ(orb.psi[:, :6], orb.psi, orb.occupations, mesh)
