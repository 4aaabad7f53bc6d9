"""Shared fixtures for the test suite.

The expensive pieces — an SCF-converged small simulation and a full
multi-mode study — are session-scoped: `Simulation.run` is stateless
with respect to the simulation object (verified by the determinism
tests), so sharing the ground state across tests is safe and mirrors
the paper's methodology of re-running one binary per mode.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.blas.gemm import check_finite
from repro.blas.modes import ComputeMode
from repro.dcmesh.simulation import Simulation, SimulationConfig

# Shared test-only modules (gemm_oracles) import by name from any suite.
_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture(scope="session", autouse=True)
def _finite_checks_on():
    """The per-call Inf/NaN input scans are opt-in (off on the hot
    path); the test suite runs with them enabled so numerical escapes
    fail loudly."""
    check_finite(True)
    yield
    check_finite(False)


@pytest.fixture(scope="session")
def tiny_config() -> SimulationConfig:
    """Smallest structurally-complete config: 5 atoms, 10^3 mesh."""
    return SimulationConfig.small_test(
        mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=20, nscf=10
    )


@pytest.fixture(scope="session")
def tiny_sim(tiny_config) -> Simulation:
    """A set-up simulation sharing one FP64 ground state."""
    sim = Simulation(tiny_config)
    sim.setup()
    return sim


@pytest.fixture(scope="session")
def tiny_fp32_run(tiny_sim):
    """Reference FP32 run of the tiny system."""
    return tiny_sim.run(mode=ComputeMode.STANDARD)


@pytest.fixture(scope="session")
def tiny_bf16_run(tiny_sim):
    """BF16-mode run of the tiny system."""
    return tiny_sim.run(mode=ComputeMode.FLOAT_TO_BF16)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for per-test data."""
    return np.random.default_rng(12345)


@pytest.fixture()
def clean_mode_env(monkeypatch):
    """Guarantee no ambient compute-mode state leaks into a test."""
    from repro.blas.verbose import clear_verbose_log

    monkeypatch.delenv("MKL_BLAS_COMPUTE_MODE", raising=False)
    monkeypatch.delenv("MKL_VERBOSE", raising=False)
    clear_verbose_log()
    yield
    clear_verbose_log()
