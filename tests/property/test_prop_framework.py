"""Property-based tests: framework-layer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.blas.modes import ComputeMode
from repro.blas.policy import SitePolicy
from repro.core.schedule import qd_step_schedule
from repro.dcmesh.io.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.types import Precision

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestScheduleProperties:
    @given(
        st.integers(min_value=8, max_value=10**6),
        st.integers(min_value=2, max_value=4096),
        st.integers(min_value=1, max_value=4095),
        st.sampled_from([Precision.FP32, Precision.FP64]),
    )
    @settings(max_examples=60)
    def test_always_nine_calls_three_sites(self, n_grid, n_orb, n_occ, storage):
        if not n_occ < n_orb:
            n_occ = n_orb - 1
        gemms, streams = qd_step_schedule(n_grid, n_orb, n_occ, storage)
        assert len(gemms) == 9
        assert sum(s.passes for s in streams) == 40
        assert {g.site for g in gemms} == {"nlp_prop", "calc_energy", "remap_occ"}
        # Every GEMM dimension is positive and the Table VII shape holds.
        assert all(g.m > 0 and g.n > 0 and g.k > 0 for g in gemms)
        remap = [g for g in gemms if g.site == "remap_occ"][0]
        assert (remap.m, remap.n, remap.k) == (n_occ, n_orb - n_occ, n_grid)


class TestCheckpointProperties:
    @given(
        seeds,
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25)
    def test_roundtrip_lossless(self, tmp_path_factory, seed, m, n, atoms):
        rng = np.random.default_rng(seed)
        ckpt = Checkpoint(
            step=0,
            psi=(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))),
            psi0=(rng.standard_normal((m, n)).astype(np.complex64)),
            occupations=rng.uniform(0, 2, n),
            positions=rng.uniform(0, 10, (atoms, 3)),
            velocities=rng.standard_normal((atoms, 3)),
            etot0=float(rng.standard_normal()),
            field_a=float(rng.standard_normal()),
            field_a_dot=float(rng.standard_normal()),
            field_last_j=float(rng.standard_normal()),
        )
        path = tmp_path_factory.mktemp("ck") / "c.npz"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.psi, ckpt.psi)
        np.testing.assert_array_equal(back.psi0, ckpt.psi0)
        np.testing.assert_array_equal(back.positions, ckpt.positions)
        assert back.etot0 == ckpt.etot0
        assert back.field_last_j == ckpt.field_last_j


class TestPolicyProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["nlp_prop", "calc_energy", "remap_occ", "other"]),
            st.sampled_from([m.env_value for m in ComputeMode]),
            max_size=4,
        ),
        st.sampled_from([None] + [m.env_value for m in ComputeMode]),
        st.sampled_from(["nlp_prop", "calc_energy", "remap_occ", "other", "unknown"]),
    )
    def test_mode_for_total_and_consistent(self, mapping, default, site):
        policy = SitePolicy(mapping, default=default)
        out = policy.mode_for(site)
        if site in mapping:
            assert out is ComputeMode.parse(mapping[site])
        elif default is not None:
            assert out is ComputeMode.parse(default)
        else:
            assert out is None
