"""Integration: extension features riding on the full simulation."""

import numpy as np
import pytest

from repro.blas.modes import ComputeMode
from repro.dcmesh.simulation import Simulation, SimulationConfig


@pytest.fixture(scope="module")
def base_cfg():
    return dict(mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=20, nscf=10)


class TestInducedField:
    def test_feedback_changes_dynamics(self, base_cfg):
        ref = Simulation(SimulationConfig.small_test(**base_cfg)).run(mode="STANDARD")
        fed = Simulation(
            SimulationConfig.small_test(**base_cfg, induced_field=True)
        ).run(mode="STANDARD")
        assert not np.array_equal(ref.column("javg"), fed.column("javg"))
        assert np.isfinite(fed.column("etot")).all()

    def test_zero_coupling_matches_reference(self, base_cfg):
        ref = Simulation(SimulationConfig.small_test(**base_cfg)).run(mode="STANDARD")
        off = Simulation(
            SimulationConfig.small_test(
                **base_cfg, induced_field=True, induced_coupling=0.0
            )
        ).run(mode="STANDARD")
        np.testing.assert_array_equal(ref.column("javg"), off.column("javg"))

    def test_deterministic(self, base_cfg):
        cfg = SimulationConfig.small_test(**base_cfg, induced_field=True)
        sim = Simulation(cfg)
        sim.setup()
        a = sim.run(mode="STANDARD")
        b = sim.run(mode="STANDARD")
        np.testing.assert_array_equal(a.column("javg"), b.column("javg"))

    def test_mode_sensitivity_survives_feedback(self, base_cfg):
        cfg = SimulationConfig.small_test(**base_cfg, induced_field=True)
        sim = Simulation(cfg)
        sim.setup()
        std = sim.run(mode=ComputeMode.STANDARD)
        bf16 = sim.run(mode=ComputeMode.FLOAT_TO_BF16)
        dev = np.abs(bf16.column("ekin") - std.column("ekin"))
        assert dev.max() > 0
        assert np.isfinite(dev).all()


class TestSurfaceHoppingWorkflow:
    """A full run's final-state accessors."""

    def test_final_gram_error_accessible(self, base_cfg):
        cfg = SimulationConfig.small_test(**base_cfg)
        result = Simulation(cfg).run(mode="FLOAT_TO_BF16")
        err = result.final_gram_error()
        assert 0 < err < 1e-2
