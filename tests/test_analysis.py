"""Tests for the analysis/reproduction harness."""

import pytest

from repro.analysis.figures import Series, ascii_chart, format_series_table, to_csv
from repro.analysis.tables import (
    format_class_table,
    format_path_census_table,
    format_summary_line,
)
from repro.sim import SimulationConfig, WorkloadSpec, run_simulation
from repro.sim.metrics import PathCensus


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("s", [1, 2], [1.0])

    def test_table_formatting(self):
        table = format_series_table(
            "Title",
            "rate",
            [Series("basic", [60, 120], [0.9, 0.8]), Series("random", [60, 120], [0.7, 0.5])],
        )
        assert "Title" in table
        assert "basic" in table and "random" in table
        assert "0.900" in table and "0.500" in table

    def test_table_requires_aligned_x(self):
        with pytest.raises(ValueError):
            format_series_table(
                "T", "x", [Series("a", [1], [1.0]), Series("b", [2], [1.0])]
            )

    def test_empty_table(self):
        assert "(no data)" in format_series_table("T", "x", [])

    def test_csv(self):
        csv = to_csv([Series("a", [1, 2], [0.5, 0.25])], x_label="rate")
        lines = csv.strip().split("\n")
        assert lines[0] == "rate,a"
        assert lines[1] == "1.0,0.5"

    def test_csv_empty(self):
        assert to_csv([]) == ""

    def test_ascii_chart_renders(self):
        chart = ascii_chart(
            [Series("up", [0, 1, 2], [0.0, 0.5, 1.0])], width=20, height=6
        )
        assert "o = up" in chart
        assert "o" in chart.split("\n")[0] + chart.split("\n")[1]

    def test_ascii_chart_empty(self):
        assert ascii_chart([]) == "(no data)"

    def test_ascii_chart_flat_series(self):
        chart = ascii_chart([Series("flat", [0, 1], [1.0, 1.0])], width=10, height=4)
        assert "flat" in chart


class TestTableFormatting:
    def test_path_census_table(self):
        census_a, census_b = PathCensus(), PathCensus()
        for _ in range(3):
            census_a.record("A", "Qa-Qb")
        census_a.record("A", "Qa-Qc")
        census_b.record("A", "Qa-Qb")
        text = format_path_census_table(
            "Table X", "A", {"basic": census_a, "tradeoff": census_b}
        )
        assert "Qa-Qb" in text and "Qa-Qc" in text
        assert "75.0%" in text and "100.0%" in text

    def test_class_table_and_summary(self):
        config = SimulationConfig(seed=0, workload=WorkloadSpec(rate_per_60tu=80, horizon=200))
        result = run_simulation(config)
        text = format_class_table("Table Y", {80.0: result})
        assert "norm.-short" in text and "fat-long" in text
        assert "80 ssn.s/60 TUs" in text
        line = format_summary_line(result)
        assert "algorithm=basic" in line and "success=" in line


class TestExperimentRunners:
    """Smoke tests of the lighter experiment runners (quick mode)."""

    def test_complexity_runner(self):
        from repro.analysis.experiments import run_complexity

        report = run_complexity(seed=0, quick=True)
        assert "K\\Q" in report.text
        assert "fitted" in report.text
        # Growing the problem must grow the cost.  (The fitted exponents
        # are asserted with proper bounds in the benchmark suite; at the
        # quick runner's micro sizes wall-clock noise under system load
        # would make tight exponent bounds flaky here.)
        rows = {(k, q): t for k, q, t in report.extras["rows"]}
        assert rows[(8, 8)] > rows[(2, 2)]

    def test_dag_ablation_runner(self):
        from repro.analysis.experiments import run_dag_ablation

        report = run_dag_ablation(seed=0, quick=True)
        assert report.extras["feasible"] > 0
        assert "heuristic" in report.text

    def test_cli_list(self, capsys):
        from repro.analysis.reproduce import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "tab34" in out

    def test_cli_runs_experiment_to_files(self, tmp_path, capsys, monkeypatch):
        # shrink the quick horizon further so CLI smoke test stays fast
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_horizon", lambda quick: 150.0)
        monkeypatch.setattr(experiments, "_rates", lambda quick: [60, 180])
        from repro.analysis.reproduce import main

        assert main(["-e", "fig13", "--quick", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig13.txt").exists()
        assert (tmp_path / "fig13.csv").exists()
        out = capsys.readouterr().out
        assert "Figure 13(a)" in out


class TestArtifactRunnersMicro:
    """Micro-scale smoke of the heavy artifact runners (monkeypatched)."""

    @pytest.fixture(autouse=True)
    def shrink(self, monkeypatch):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_horizon", lambda quick: 150.0)
        monkeypatch.setattr(experiments, "_rates", lambda quick: [60.0, 200.0])

    def test_fig11_runner(self):
        from repro.analysis.experiments import run_fig11

        report = run_fig11(seed=1, quick=True)
        assert "Figure 11(a)" in report.text and "Figure 11(b)" in report.text
        assert len(report.series) == 6  # 3 success + 3 qos
        assert len(report.results) == 6  # 3 algorithms x 2 rates

    def test_tab12_runner(self):
        from repro.analysis.experiments import run_tables_1_2

        report = run_tables_1_2(seed=1, quick=True)
        assert "Table 1" in report.text and "Table 2" in report.text
        assert "bottleneck" in report.text

    def test_tab34_runner(self):
        from repro.analysis.experiments import run_tables_3_4

        report = run_tables_3_4(seed=1, quick=True)
        assert "Table 3" in report.text and "Table 4" in report.text
        assert "fat-long" in report.text

    def test_fig12_runner(self):
        from repro.analysis.experiments import run_fig12

        report = run_fig12(seed=1, quick=True)
        assert "Figure 12(a)" in report.text and "Figure 12(b)" in report.text
        names = {s.name for s in report.series}
        assert any("E=8" in name for name in names)

    def test_fig13_runner(self):
        from repro.analysis.experiments import run_fig13

        report = run_fig13(seed=1, quick=True)
        assert "Figure 13(a)" in report.text

    def test_ablation_runner(self):
        from repro.analysis.experiments import run_ablation

        report = run_ablation(seed=1, quick=True)
        assert "basic/psi=ratio" in report.text
        assert "tradeoff/psi=log" in report.text


class TestComplexitySpeedupGuard:
    def test_zero_warm_time_yields_none_not_inf(self):
        # The complexity experiment's cache-speedup line: a timer-
        # granularity zero warm time must degrade to None ("n/a" in the
        # report), never emit float("inf") into the report extras.
        from repro.analysis.experiments import finite_speedup

        assert finite_speedup(1e-6, 0.0) is None
        assert finite_speedup(1e-6, -1.0) is None
        assert finite_speedup(1e300, 1e-300) is None  # overflows to inf
        assert finite_speedup(4.0, 2.0) == 2.0
