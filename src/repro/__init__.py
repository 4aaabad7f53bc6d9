"""Reproduction of *Impact of Varying BLAS Precision on DCMESH* (SC 2024).

The package is organised as four layers, bottom-up:

``repro.blas``
    A software emulation of Intel oneMKL's *alternative compute modes*
    for level-3 BLAS: ``FLOAT_TO_BF16``, ``FLOAT_TO_BF16X2``,
    ``FLOAT_TO_BF16X3``, ``FLOAT_TO_TF32`` and ``COMPLEX_3M``.  Mode
    selection follows the paper: the ``MKL_BLAS_COMPUTE_MODE``
    environment variable, with no source change required, or an
    explicit API.

``repro.gpu``
    An analytical single-stack performance model of the Intel Data
    Center GPU Max Series 1550 ("Ponte Vecchio"): per-precision peak
    throughput, XMX matrix engines, HBM bandwidth, power caps, and a
    roofline GEMM timing model.  It stands in for the hardware the
    paper measured on.

``repro.dcmesh``
    A from-scratch implementation of the DCMESH application: the
    LFD (Local Field Dynamics) wavefunction propagation with its
    BLASified nonlocal correction (``nlp_prop``, ``calc_energy``,
    ``remap_occ``), the FP64 QXMD/SCF phase, laser coupling, Ehrenfest
    ion dynamics and the paper's input/output formats.

``repro.core``
    The paper's study itself: precision sweeps, deviation-from-FP32
    accuracy series (Figs. 1-2), QD-step timing (Fig. 3a), per-call
    BLAS speedup sweeps (Fig. 3b, Tables VI-VII) and the static
    theoretical tables (Tables I, II, IV).

Quickstart::

    from repro import dcmesh, blas

    cfg = dcmesh.SimulationConfig.small_test()
    sim = dcmesh.Simulation(cfg)
    with blas.compute_mode("FLOAT_TO_BF16"):
        result = sim.run()
    print(result.records[-1].nexc)
"""

import importlib

from repro._version import __version__

_SUBPACKAGES = ("blas", "gpu", "dcmesh", "core", "experiments")

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name):
    # Lazy subpackage loading keeps `import repro` cheap and avoids
    # bottom-up import cycles while the layers boot.
    if name in _SUBPACKAGES:
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
