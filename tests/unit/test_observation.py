"""Unit tests: one QD-step observation (``observe_state``).

An observation converts ``Psi(t)`` once — one unregistered
``keep_bases=False`` plan serves ``calc_energy`` and ``remap_occ`` — and
FFTs it once for the current and the kinetic energy.  These tests pin
that this changes no bit of any observable, that the step's plan is
freed by reference counting alone, and that the shared plan costs no
more peak memory than converting ``Psi(t)`` in every GEMM did.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.dcmesh.simulation as sim_mod
from repro.blas.gemm import call_site, gemm
from repro.blas.modes import compute_mode
from repro.blas.plan import PreparedOperand, release
from repro.dcmesh.current import current_density
from repro.dcmesh.energy import calc_energy
from repro.dcmesh.mesh import Mesh
from repro.dcmesh.nlp import NonlocalPropagator
from repro.dcmesh.occupation import remap_occ

MODES = [
    "STANDARD",
    "FLOAT_TO_BF16",
    "FLOAT_TO_BF16X3",
    "FLOAT_TO_TF32",
    "COMPLEX_3M",
    "OZAKI_INT8",
    "EMULATED_FP64",
]


class _State:
    """A random orbital state with everything an observation reads."""

    def __init__(self, mesh_shape, n_orb, n_occ, seed=5):
        self.mesh = Mesh(mesh_shape, (10.0, 10.0, 10.0))
        rng = np.random.default_rng(seed)
        shape = (self.mesh.n_grid, n_orb)
        psi0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.psi0 = psi0.astype(np.complex64)
        self.psi = (self.psi0 + 0.01 * rng.standard_normal(shape)).astype(np.complex64)
        h = rng.standard_normal((n_orb, n_orb)) + 1j * rng.standard_normal((n_orb, n_orb))
        self.h_nl = 0.05 * (h + h.conj().T)
        self.f = np.array([2.0] * n_occ + [0.0] * (n_orb - n_occ))
        self.v_eff = rng.standard_normal(self.mesh.n_grid)
        self.a = np.array([0.0, 0.0, 0.1])
        self.pol = np.array([0.0, 0.0, 1.0])

    def propagator(self):
        return NonlocalPropagator(self.psi0, self.h_nl, 0.04, self.mesh)

    def observe(self, nlp, h_plan):
        return sim_mod.observe_state(
            self.psi, nlp.psi0_plan, h_plan, self.f, self.mesh, self.v_eff,
            self.a, self.pol,
        )


@pytest.fixture()
def small():
    state = _State((8, 8, 8), 12, 8)
    yield state
    release(state.psi0)


class TestObserveState:
    @pytest.mark.parametrize("mode", MODES)
    def test_bitwise_equal_to_separate_calls(self, small, mode):
        s = small
        nlp = s.propagator()
        h_plan = PreparedOperand(s.h_nl.astype(np.complex64))
        with compute_mode(mode):
            for _ in range(2):  # the second pass reads Psi(0)'s cached forms
                e, r, j = s.observe(nlp, h_plan)
                want_e = calc_energy(
                    s.psi, s.psi0, s.f, s.mesh, s.v_eff, s.h_nl, a_field=s.a
                )
                want_r = remap_occ(s.psi, s.psi0, s.f, s.mesh)
                want_j = current_density(
                    s.psi, s.f, s.mesh, a_field=s.a, polarization=s.pol
                )
                assert e == want_e and j == want_j and r.nexc == want_r.nexc
                np.testing.assert_array_equal(r.occ_remapped, want_r.occ_remapped)
                np.testing.assert_array_equal(
                    r.per_orbital_exc, want_r.per_orbital_exc
                )

    @pytest.mark.parametrize("mode", ["STANDARD", "FLOAT_TO_BF16X3", "OZAKI_INT8"])
    def test_step_plan_freed_by_reference_counting(self, small, monkeypatch, mode):
        made = []

        def recording(array, **kwargs):
            plan = PreparedOperand(array, **kwargs)
            made.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(sim_mod, "PreparedOperand", recording)
        nlp = small.propagator()
        h_plan = PreparedOperand(small.h_nl.astype(np.complex64))
        gc.disable()
        try:
            with compute_mode(mode):
                small.observe(nlp, h_plan)
            assert len(made) == 1
            assert made[0]() is None
        finally:
            gc.enable()


#: Peak traced bytes, in multiples of Psi's, of one observation and of
#: nlp_prop's Psi-update GEMM at a 32^3 mesh and 64 orbitals, measured
#: this way before Psi(t) was shared (calc_energy, remap_occ and
#: current_density each converting and FFT-ing Psi(t) themselves), and
#: rounded up: STANDARD 3.537 / 2.000, BF16X3 12.142 / 2.010,
#: EMULATED_FP64 10.017 / 2.506 and OZAKI_INT8 19.019 / 2.514.  The
#: Ozaki observation entry is ratcheted to its float32 slice stacks'
#: measured 11.016 (18.020 with float64 stacks); its Psi update
#: measured 2.516.
CEILINGS = {
    "STANDARD": (3.54, 2.01),
    "FLOAT_TO_BF16X3": (12.15, 2.01),
    "EMULATED_FP64": (10.02, 2.51),
    "OZAKI_INT8": (11.02, 2.52),
}


class TestObservationMemory:
    @pytest.mark.parametrize("mode", sorted(CEILINGS))
    def test_peaks_no_higher_than_unshared(self, mode):
        s = _State((32, 32, 32), 64, 48)
        nlp = s.propagator()
        h_plan = PreparedOperand(s.h_nl.astype(np.complex64))

        def update():
            with call_site("nlp_prop"):
                return gemm(nlp.psi0_plan, nlp.w, beta=1.0, c=s.psi)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1] / s.psi.nbytes
            finally:
                tracemalloc.stop()

        try:
            with compute_mode(mode):
                # Warm Psi(0)'s plan, its column blocks and the workspace.
                s.observe(nlp, h_plan)
                nlp.apply(s.psi)
                update()
                observation = peak(lambda: s.observe(nlp, h_plan))
                psi_update = peak(update)
        finally:
            release(s.psi0)
        assert observation <= CEILINGS[mode][0] and psi_update <= CEILINGS[mode][1]
