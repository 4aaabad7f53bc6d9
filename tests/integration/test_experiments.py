"""Integration: every experiment driver regenerates its paper artifact."""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "figure1", "figure2", "figure3a", "figure3b",
            "pareto", "report", "claims",
        }

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="valid ids"):
            get_experiment("table99")


class TestStaticTables:
    def test_table1_matches_paper(self):
        out = run_experiment("table1")
        assert out["rows"] == out["paper_rows"]

    def test_table2_speedups(self):
        out = run_experiment("table2")
        ours = {r[0]: r[2] for r in out["rows"]}
        for name, expected in out["paper_rows"]:
            assert ours[name] == pytest.approx(expected, rel=0.02), name

    def test_table3_matches_config(self):
        out = run_experiment("table3")
        assert out["rows"] == out["derived_from_config"] == out["paper_rows"]

    def test_table4_matches_paper(self):
        out = run_experiment("table4")
        assert out["rows"] == out["paper_rows"]

    def test_table5_capacity_boundary(self):
        out = run_experiment("table5")
        fits = {row[0]: row[4] for row in out["rows"]}
        assert fits[40] and fits[135]       # the paper's systems fit
        assert not fits[320]                 # the next size does not

    def test_table6_anchor_and_bounds(self):
        out = run_experiment("table6")
        rows = {r[0]: (r[1], r[2]) for r in out["rows"]}
        obs, theo = rows["FLOAT_TO_BF16"]
        paper_obs, paper_theo = out["paper_anchors"]["FLOAT_TO_BF16"]
        assert obs == pytest.approx(paper_obs, rel=0.1)
        assert theo == pytest.approx(paper_theo, rel=0.02)
        assert all(o < t for o, t in rows.values())

    def test_table7_matches_paper_shapes(self):
        out = run_experiment("table7")
        # All fields match except the paper's own 3978-vs-3968 quirk in
        # the last row's n.
        for ours, paper in zip(out["rows"], out["paper_rows"]):
            assert ours[:3] == paper[:3]
            assert abs(ours[3] - paper[3]) <= 10
            assert ours[4] == paper[4]


class TestPerformanceFigures:
    def test_figure3a_anchors(self):
        out = run_experiment("figure3a")
        rows = {(r[0], r[1]): r[2] for r in out["rows"]}
        assert rows[("135-atom", "FP32")] == pytest.approx(1472, rel=0.15)
        assert rows[("135-atom", "FP64")] == pytest.approx(2800, rel=0.15)
        assert rows[("135-atom", "BF16")] == pytest.approx(972, rel=0.25)

    def test_figure3b_monotone_rows(self):
        out = run_experiment("figure3b")
        rows = out["rows"]
        # Speedups grow down each mode column (with N_orb).
        for col in range(1, len(rows[0])):
            series = [r[col] for r in rows]
            assert series == sorted(series), f"column {col}"

    def test_csv_outputs_written(self, tmp_path):
        run_experiment("table6", output_dir=str(tmp_path))
        run_experiment("figure3b", output_dir=str(tmp_path))
        assert (tmp_path / "table6.csv").exists()
        assert (tmp_path / "figure3b.csv").exists()


@pytest.mark.slow
class TestAccuracyFigures:
    @pytest.fixture(scope="class")
    def fig1(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("fig1")
        return run_experiment("figure1", output_dir=str(out_dir)), out_dir

    def test_figure1_rows_cover_grid(self, fig1):
        out, _ = fig1
        assert len(out["rows"]) == 3 * 5  # observables x modes

    def test_figure1_bf16_dominates(self, fig1):
        out, _ = fig1
        ekin = {r[1]: r[2] for r in out["rows"] if r[0] == "ekin"}
        assert ekin["FLOAT_TO_BF16"] == max(ekin.values())

    def test_figure1_csvs(self, fig1):
        _, out_dir = fig1
        for name in ("figure1_summary.csv", "figure1_ekin.csv",
                     "figure1_nexc.csv", "figure1_javg.csv"):
            assert (out_dir / name).exists(), name

    def test_figure2_no_divergence(self, tmp_path):
        out = run_experiment("figure2", output_dir=str(tmp_path))
        # "BF16, TF32, and BF16X3 ... do not show any signs of
        # divergence": the late-vs-early log-deviation trend is small.
        for mode, mean_log, final_log, trend in out["rows"]:
            assert trend < 3.0, mode
        assert (tmp_path / "figure2_javg_log10.csv").exists()


class TestPareto:
    def test_static_and_adaptive_points(self, tmp_path):
        from repro.blas.modes import ComputeMode
        from repro.experiments import pareto

        out = pareto.run(
            fast=True, output_dir=str(tmp_path), modes=(ComputeMode.FLOAT_TO_BF16,)
        )
        rows = {r[0]: r for r in out["rows"]}
        assert set(rows) == {"FLOAT_TO_BF16", "ADAPTIVE"}
        assert all(r[-1] in ("yes", "NO") for r in out["rows"])
        assert out["scheduler"]["unhandled_breaches"] == 0
        assert (tmp_path / "pareto.csv").read_text().count("\n") == 1 + len(rows)
        assert "Pareto frontier" in (tmp_path / "pareto_figure.txt").read_text()


@pytest.mark.slow
class TestReport:
    def test_report_generation(self, tmp_path):
        out = run_experiment("report", output_dir=str(tmp_path))
        report = tmp_path / "REPORT.md"
        assert report.exists()
        text = report.read_text()
        assert "all anchors within band" in text
        assert "## table6" in text and "## figure1" in text
        # CSVs written alongside.
        assert (tmp_path / "table6.csv").exists()
        assert (tmp_path / "figure3a.csv").exists()


class TestRunnerCli:
    def test_list_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out and "figure3a" in out

    def test_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["table4"]) == 0
        assert "Mantissa" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        from repro.experiments.runner import main

        assert main(["tableX"]) == 2
        assert "valid ids" in capsys.readouterr().err

    def test_output_dir(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()

    def test_jobs_fan_out_keeps_serial_order_and_backend(self, monkeypatch, capsys):
        from repro.blas import backend as backend_mod
        from repro.blas.backend import NumpyBackend, active_backend, register_backend
        from repro.blas.modes import get_compute_mode
        from repro.experiments import runner

        class Shadow(NumpyBackend):
            name = "runner-shadow"

        def fake_run(name, fast=True, output_dir=None):
            seen = f"{active_backend().cache_key} {get_compute_mode().env_value}"
            return {"text": f"{name}: {seen}"}

        fakes = {"fake_a": (None, "first"), "fake_b": (None, "second")}
        monkeypatch.setattr(runner, "EXPERIMENTS", fakes)
        monkeypatch.setattr(runner, "run_experiment", fake_run)
        register_backend(Shadow.name, Shadow)
        try:
            assert runner.main(["all", "--jobs", "2", "--backend", Shadow.name]) == 0
        finally:
            with backend_mod._instances_lock:
                backend_mod._FACTORIES.pop(Shadow.name, None)
                backend_mod._instances.pop(Shadow.name, None)
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert lines == [
            "fake_a: runner-shadow STANDARD",
            "fake_b: runner-shadow STANDARD",
        ]

    def test_switches_reset_when_an_experiment_raises(self, tmp_path):
        from repro.core.scheduler import adaptive_enabled
        from repro.experiments.runner import main
        from repro.telemetry.drift import drift_enabled

        (tmp_path / "f").write_text("a file, not a directory")
        with pytest.raises(NotADirectoryError):
            main(
                [
                    "table1", "--drift-budget", "--adaptive",
                    "--output", str(tmp_path / "f" / "out"),
                ]
            )
        assert not drift_enabled()
        assert not adaptive_enabled()
