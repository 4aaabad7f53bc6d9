"""Export-integrity tests: every name in every ``__all__`` resolves.

Catches export rot — a renamed function whose ``__all__`` entry or
``__init__`` re-export went stale.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.blas",
    "repro.gpu",
    "repro.dcmesh",
    "repro.dcmesh.io",
    "repro.core",
    "repro.experiments",
]

MODULES = [
    "repro.types",
    "repro.context",
    "repro.blas.rounding",
    "repro.blas.modes",
    "repro.blas.gemm",
    "repro.blas.split",
    "repro.blas.complex3m",
    "repro.blas.verbose",
    "repro.blas.env",
    "repro.blas.policy",
    "repro.gpu.specs",
    "repro.gpu.roofline",
    "repro.gpu.gemm_model",
    "repro.gpu.timeline",
    "repro.gpu.executor",
    "repro.dcmesh.constants",
    "repro.dcmesh.mesh",
    "repro.dcmesh.material",
    "repro.dcmesh.projectors",
    "repro.dcmesh.hamiltonian",
    "repro.dcmesh.wavefunction",
    "repro.dcmesh.laser",
    "repro.dcmesh.nlp",
    "repro.dcmesh.energy",
    "repro.dcmesh.occupation",
    "repro.dcmesh.current",
    "repro.dcmesh.scf",
    "repro.dcmesh.ions",
    "repro.dcmesh.shadow",
    "repro.dcmesh.propagate",
    "repro.dcmesh.simulation",
    "repro.dcmesh.observables",
    "repro.dcmesh.maxwell",
    "repro.dcmesh.cli",
    "repro.dcmesh.io.checkpoint",
    "repro.core.theoretical",
    "repro.core.schedule",
    "repro.core.deviation",
    "repro.core.study",
    "repro.core.perfstudy",
    "repro.core.blas_sweep",
    "repro.core.error_model",
    "repro.core.error_budget",
    "repro.core.ablation",
    "repro.core.plots",
    "repro.core.report",
    "repro.experiments.registry",
    "repro.experiments.runner",
    "repro.experiments.report",
    "repro.experiments.claims",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for entry in exported:
        assert hasattr(module, entry) or entry in getattr(
            module, "_SUBPACKAGES", ()
        ), f"{name}.__all__ lists missing name {entry!r}"


def test_every_public_module_has_docstring():
    for name in PACKAGES + MODULES:
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name
