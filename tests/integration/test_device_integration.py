"""Integration: simulation + device model + profiling substrates."""

import pytest

from repro.blas.modes import ComputeMode
from repro.blas.verbose import mkl_verbose
from repro.dcmesh.simulation import Simulation, SimulationConfig, estimate_device_bytes
from repro.gpu import Device


@pytest.fixture(scope="module")
def device_runs():
    cfg = SimulationConfig.small_test(
        mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=20, nscf=10
    )
    base = Simulation(cfg)
    base.setup()
    out = {}
    for mode in (ComputeMode.STANDARD, ComputeMode.FLOAT_TO_BF16):
        device = Device()
        sim = Simulation(cfg, device=device)
        sim._ground = base._ground
        sim.material = base.material
        sim.mesh = base.mesh
        sim._solver = base._solver
        with mkl_verbose() as log:
            result = sim.run(mode=mode)
        out[mode] = (result, device, list(log))
    return cfg, out


class TestUnitracePath:
    def test_total_l0_time_positive(self, device_runs):
        _, out = device_runs
        for result, device, _ in out.values():
            assert device.total_l0_time() > 0
            assert result.total_device_seconds == pytest.approx(device.total_l0_time())

    def test_report_structure(self, device_runs):
        _, out = device_runs
        _, device, _ = out[ComputeMode.STANDARD]
        by_kind = device.timeline.time_by_kind()
        assert {"blas", "app", "copy"} <= set(by_kind)
        assert 0 < by_kind["blas"] / device.total_l0_time() < 1
        assert "cgemm" in device.timeline.time_by_name()

    def test_mode_changes_modelled_blas_time_only(self, device_runs):
        # The device model is mode-sensitive for BLAS kernels.  At this
        # toy scale launch overhead dominates, so BF16 shows *no*
        # benefit — the paper's small-system observation taken to the
        # extreme; the paper-scale direction is pinned by the
        # PerfStudy tests.
        _, out = device_runs
        _, dev_std, _ = out[ComputeMode.STANDARD]
        _, dev_bf16, _ = out[ComputeMode.FLOAT_TO_BF16]
        blas_std = dev_std.timeline.time_by_kind()["blas"]
        blas_bf16 = dev_bf16.timeline.time_by_kind()["blas"]
        assert blas_bf16 != pytest.approx(blas_std)
        # Non-BLAS kernels are mode-independent.
        assert dev_std.timeline.time_by_kind()["app"] == pytest.approx(
            dev_bf16.timeline.time_by_kind()["app"]
        )

    def test_memory_accounted(self, device_runs):
        cfg, out = device_runs
        _, device, _ = out[ComputeMode.STANDARD]
        assert device.allocated_bytes == estimate_device_bytes(cfg)


class TestVerbosePath:
    def test_nine_calls_per_step(self, device_runs):
        cfg, out = device_runs
        _, _, log = out[ComputeMode.STANDARD]
        # 6 (initial observation) + 9 per step.
        assert len(log) == 6 + 9 * cfg.n_qd_steps

    def test_summaries_by_site(self, device_runs):
        _, out = device_runs
        _, _, log = out[ComputeMode.STANDARD]
        sites = {r.site for r in log}
        assert sites == {"nlp_prop", "calc_energy", "remap_occ"}

    def test_mode_tagged_in_log(self, device_runs):
        _, out = device_runs
        _, _, log = out[ComputeMode.FLOAT_TO_BF16]
        assert all(r.mode is ComputeMode.FLOAT_TO_BF16 for r in log)

    def test_paper_shape_call_shows_model_speedup(self, device_runs):
        # Per-call model speedup is a large-matrix effect: evaluate the
        # paper's actual remap_occ shape through the same record path.
        from repro.gpu import Device

        dev = Device()
        t_std = dev.record_gemm("cgemm", 128, 3968, 262144, ComputeMode.STANDARD)
        t_bf16 = dev.record_gemm("cgemm", 128, 3968, 262144, ComputeMode.FLOAT_TO_BF16)
        assert t_std / t_bf16 == pytest.approx(3.91, abs=0.35)


class TestShadowDynamics:
    def test_bulk_transfers_only_at_block_boundaries(self, device_runs):
        cfg, out = device_runs
        result, device, _ = out[ComputeMode.STANDARD]
        copies = [e for e in device.timeline.events if e.kind == "copy"]
        n_blocks = cfg.n_qd_steps // cfg.nscf
        assert len(copies) == 2 * n_blocks  # h2d + d2h per block
        # Ledger agrees.
        assert result.ledger.total_bytes("d2h") > 0
        psi_bytes = cfg.n_grid * cfg.n_orb * 8
        assert result.ledger.by_name()["psi_h2d"] == psi_bytes * n_blocks
