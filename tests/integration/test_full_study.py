"""Integration: the full Fig. 1/2 accuracy methodology on a small system."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.blas.modes import ComputeMode
from repro.core.study import PrecisionStudy, STUDY_MODES
from repro.dcmesh.simulation import SimulationConfig


@pytest.fixture(scope="module")
def study_result():
    cfg = SimulationConfig.small_test(
        mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=60, nscf=30
    )
    return PrecisionStudy(cfg).run()


class TestStudyStructure:
    def test_all_modes_ran(self, study_result):
        assert set(study_result.results) == {ComputeMode.STANDARD, *STUDY_MODES}

    def test_all_observables_covered(self, study_result):
        assert set(study_result.deviations) == {"nexc", "javg", "ekin"}

    def test_identical_time_grids(self, study_result):
        ref = study_result.results[ComputeMode.STANDARD].column("time_fs")
        for res in study_result.results.values():
            np.testing.assert_array_equal(res.column("time_fs"), ref)

    def test_series_lookup(self, study_result):
        s = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16)
        assert s.observable == "ekin"
        with pytest.raises(KeyError):
            study_result.series("ekin", ComputeMode.STANDARD)

    def test_max_deviation_table_complete(self, study_result):
        rows = study_result.max_deviation_table()
        assert len(rows) == 3 * len(STUDY_MODES)


class TestPaperFindings:
    """The qualitative claims of Section V, on our scaled system."""

    def test_bf16_family_deviates_most(self, study_result):
        for obs in ("ekin", "nexc"):
            d = {
                m: study_result.series(obs, m).max_deviation for m in STUDY_MODES
            }
            assert d[ComputeMode.FLOAT_TO_BF16] == max(d.values()), obs

    def test_bf16_trade_off_ladder(self, study_result):
        # "These three variants allow a trade-off between accuracy and
        # performance ... BF16x3 being the most accurate."
        d = {
            m: study_result.series("ekin", m).max_deviation
            for m in (
                ComputeMode.FLOAT_TO_BF16,
                ComputeMode.FLOAT_TO_BF16X2,
                ComputeMode.FLOAT_TO_BF16X3,
            )
        }
        assert (
            d[ComputeMode.FLOAT_TO_BF16]
            > d[ComputeMode.FLOAT_TO_BF16X2]
            > d[ComputeMode.FLOAT_TO_BF16X3]
        )

    def test_tf32_between_bf16_and_bf16x2(self, study_result):
        # Table IV logic: TF32 has more mantissa bits than BF16.
        d_bf16 = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16).max_deviation
        d_tf32 = study_result.series("ekin", ComputeMode.FLOAT_TO_TF32).max_deviation
        assert d_tf32 < d_bf16

    def test_complex3m_near_fp32_noise(self, study_result):
        d_3m = study_result.series("ekin", ComputeMode.COMPLEX_3M).max_deviation
        d_bf16 = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16).max_deviation
        assert d_3m < d_bf16 / 50

    def test_javg_deviation_orders_below_ekin(self, study_result):
        # Fig. 1: current-density deviations are "negligible" compared
        # to the energy deviations.
        d_j = study_result.series("javg", ComputeMode.FLOAT_TO_BF16).max_deviation
        d_e = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16).max_deviation
        assert d_j < d_e / 100

    def test_deviation_grows_over_simulation(self, study_result):
        # "The deviation increases over the course of the simulation."
        s = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16)
        n = len(s.deviation)
        early = np.mean(s.deviation[1 : n // 3])
        late = np.mean(s.deviation[-n // 3 :])
        assert late > early

    def test_relative_deviation_at_most_percent_level(self, study_result):
        # Section V-A: "deviations relative to the absolute values ...
        # are roughly ... in the order of 1%".
        rel = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16).relative()
        assert np.nanmax(rel) < 0.05


class TestErrorBudget:
    """Section V-B's bounds must explain the measured Fig. 1 drift."""

    def test_measured_drift_tracks_predicted_ordering(self, study_result):
        from repro.core.error_budget import budget_table

        devs = {
            m: study_result.series("ekin", m)
            for m in (
                ComputeMode.FLOAT_TO_BF16,
                ComputeMode.FLOAT_TO_TF32,
                ComputeMode.FLOAT_TO_BF16X2,
            )
        }
        rows = budget_table(devs, dt=study_result.config.dt, h_nl_norm=1.0)
        by_mode = {r[0]: r for r in rows}
        # Predicted per-step errors and measured final deviations must
        # order identically.
        predicted = [by_mode[m][1] for m in
                     ("FLOAT_TO_BF16", "FLOAT_TO_TF32", "FLOAT_TO_BF16X2")]
        measured = [by_mode[m][2] for m in
                    ("FLOAT_TO_BF16", "FLOAT_TO_TF32", "FLOAT_TO_BF16X2")]
        assert predicted == sorted(predicted, reverse=True)
        assert measured == sorted(measured, reverse=True)

    def test_amplification_mode_consistent(self, study_result):
        # If the per-call bound is the driver, the dynamics amplify each
        # mode's injection by a comparable factor (within ~100x across
        # an 8-bit-to-11-bit spread of modes).
        from repro.core.error_budget import budget_table

        devs = {
            m: study_result.series("ekin", m)
            for m in (ComputeMode.FLOAT_TO_BF16, ComputeMode.FLOAT_TO_TF32)
        }
        rows = budget_table(devs, dt=study_result.config.dt, h_nl_norm=1.0)
        amps = [r[4] for r in rows]
        assert max(amps) / min(amps) < 100

    def test_drift_exponent_physical(self, study_result):
        from repro.core.error_budget import fit_drift

        s = study_result.series("ekin", ComputeMode.FLOAT_TO_BF16)
        fit = fit_drift(s.deviation)
        # Between bounded oscillation (0) and coherent linear drift (1),
        # with sane headroom.
        assert -0.5 < fit.exponent < 2.0


class TestDeterminism:
    def test_rerun_is_bitwise_identical(self):
        cfg = SimulationConfig.small_test(
            mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=20, nscf=10
        )
        from repro.dcmesh.simulation import Simulation

        sim = Simulation(cfg)
        sim.setup()
        a = sim.run(mode=ComputeMode.FLOAT_TO_TF32)
        b = sim.run(mode=ComputeMode.FLOAT_TO_TF32)
        for col in ("ekin", "nexc", "javg", "etot"):
            np.testing.assert_array_equal(a.column(col), b.column(col))

    def test_parallel_study_equals_serial(self):
        from repro.core.study import PrecisionStudy

        cfg = SimulationConfig.small_test(
            mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=10, nscf=10
        )
        serial = PrecisionStudy(cfg, modes=(ComputeMode.FLOAT_TO_BF16,)).run()
        par = PrecisionStudy(cfg, modes=(ComputeMode.FLOAT_TO_BF16,)).run(
            parallel=True, max_workers=2
        )
        for mode in serial.results:
            for col in ("ekin", "nexc", "javg"):
                np.testing.assert_array_equal(
                    serial.results[mode].column(col),
                    par.results[mode].column(col),
                )

    def test_spawned_parallel_study_keeps_ozaki_slices(self, tmp_path):
        """Under ``spawn`` nothing is inherited: the workers must get the
        slice count from the caller's snapshot (``fork`` would copy it
        and hide a missing field)."""
        script = tmp_path / "spawn_study.py"
        script.write_text(
            "import multiprocessing\n"
            "import numpy as np\n"
            "from repro.blas.modes import ComputeMode, set_ozaki_slices\n"
            "from repro.core.study import PrecisionStudy\n"
            "from repro.dcmesh.simulation import SimulationConfig\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    set_ozaki_slices(2)\n"
            "    cfg = SimulationConfig.small_test(\n"
            "        mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=4, nscf=2)\n"
            "    study = PrecisionStudy(cfg, modes=(ComputeMode.OZAKI_INT8,))\n"
            "    serial = study.run()\n"
            "    par = study.run(parallel=True, max_workers=2)\n"
            "    for mode, res in serial.results.items():\n"
            "        other = par.results[mode]\n"
            "        assert np.array_equal(res.final_psi.view(np.uint64),\n"
            "                              other.final_psi.view(np.uint64)), mode\n"
            "        for col in ('ekin', 'nexc', 'javg'):\n"
            "            assert np.array_equal(res.column(col), other.column(col))\n"
            "    print('bitwise')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "bitwise"

    def test_env_var_run_equals_api_run(self, monkeypatch):
        from repro.dcmesh.simulation import Simulation

        cfg = SimulationConfig.small_test(
            mesh_shape=(10, 10, 10), n_orb=20, n_qd_steps=10, nscf=10
        )
        sim = Simulation(cfg)
        sim.setup()
        via_api = sim.run(mode=ComputeMode.FLOAT_TO_BF16)
        monkeypatch.setenv("MKL_BLAS_COMPUTE_MODE", "FLOAT_TO_BF16")
        via_env = sim.run()
        monkeypatch.delenv("MKL_BLAS_COMPUTE_MODE")
        np.testing.assert_array_equal(via_api.column("nexc"), via_env.column("nexc"))
        assert via_env.mode is ComputeMode.FLOAT_TO_BF16
