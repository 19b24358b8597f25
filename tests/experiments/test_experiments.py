"""Tests for the experiment harnesses (scaled-down runs)."""

import pytest

from repro.designs.ml_core import build_ml_core_datapath1
from repro.designs.suite import suite_by_name
from repro.experiments.fig1 import profile_summary, run_delay_profile
from repro.experiments.fig5 import run_extraction_ablation
from repro.experiments.fig6 import run_expansion_ablation
from repro.experiments.fig7 import run_estimation_accuracy
from repro.experiments.fig8 import run_aig_correlation
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.tables import (format_csv, format_table,
                                      geometric_mean, pearson_correlation,
                                      percentile)


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            geometric_mean([])

    def test_geometric_mean_rejects_zero_without_floor(self):
        with pytest.raises(ValueError, match="zero"):
            geometric_mean([4.0, 0.0])
        assert geometric_mean([4.0, 0.0], floor=1e-9) > 0.0

    def test_geometric_mean_rejects_negatives_even_with_floor(self):
        with pytest.raises(ValueError, match="negative"):
            geometric_mean([4.0, -1.0], floor=1e-9)

    def test_pearson_correlation_perfect(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_pearson_correlation_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="equal length"):
            pearson_correlation([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least two"):
            pearson_correlation([1.0], [1.0])
        with pytest.raises(ValueError, match="constant"):
            pearson_correlation([1.0, 1.0], [1.0, 2.0])
        assert pearson_correlation([1.0], [1.0], strict=False) == 0.0
        assert pearson_correlation([1.0, 1.0], [1.0, 2.0],
                                   strict=False) == 0.0

    def test_percentile(self):
        assert percentile([3.0], 95.0) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0], 100.0) == 2.0
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 150.0)

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [30, 40]])
        assert "a" in text and "30" in text
        assert len(text.splitlines()) == 4

    def test_format_table_markdown(self):
        text = format_table(["a", "b"], [[1, 2]], style="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| a")
        assert set(lines[1]) == {"|", "-"}
        with pytest.raises(ValueError, match="unknown table style"):
            format_table(["a"], [], style="latex")

    def test_format_csv_quotes_commas(self):
        text = format_csv(["name", "n"], [["a,b", 1]])
        assert text == 'name,n\n"a,b",1\n'


class TestTable1:
    @pytest.fixture(scope="class")
    def small_result(self):
        cases = [suite_by_name("ML-core datapath1"), suite_by_name("rrot")]
        return run_table1(cases, subgraphs_per_iteration=8, max_iterations=4)

    def test_rows_and_ratios(self, small_result):
        assert len(small_result.rows) == 2
        assert 0 < small_result.register_ratio <= 1.0
        assert small_result.runtime_ratio > 1.0
        for row in small_result.rows:
            assert row.isdc_registers <= row.sdc_registers
            assert row.isdc_stages <= row.sdc_stages

    def test_formatting_contains_summary_rows(self, small_result):
        text = format_table1(small_result)
        assert "Geo. Mean" in text
        assert "Ratio" in text
        assert "ML-core datapath1" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def small_design(self):
        return build_ml_core_datapath1(lanes=4, width=16), 2500.0

    def test_extraction_ablation_runs_both_strategies(self, small_design):
        design, clock = small_design
        curves = run_extraction_ablation(subgraph_counts=(4,), iterations=3,
                                         design=design, clock_period_ps=clock)
        assert set(curves) == {("delay", 4), ("fanout", 4)}
        for curve in curves.values():
            assert len(curve.registers) >= 1
            assert min(curve.registers) <= curve.registers[0]

    def test_expansion_ablation_runs_three_strategies(self, small_design):
        design, clock = small_design
        curves = run_expansion_ablation(subgraph_counts=(4,), iterations=3,
                                        design=design, clock_period_ps=clock)
        assert {key[0] for key in curves} == {"path", "cone", "window"}

    def test_window_no_worse_than_path(self, small_design):
        design, clock = small_design
        curves = run_expansion_ablation(subgraph_counts=(8,), iterations=4,
                                        design=design, clock_period_ps=clock)
        assert curves[("window", 8)].final_registers <= \
            curves[("path", 8)].final_registers


class TestProfiles:
    @pytest.fixture(scope="class")
    def points(self):
        cases = [suite_by_name("ML-core datapath1"), suite_by_name("rrot")]
        return run_delay_profile(cases, clock_scales=(1.0, 1.5), compute_aig=True)

    def test_profile_points_overestimate(self, points):
        summary = profile_summary(points)
        assert summary["num_points"] > 0
        assert summary["mean_overestimation"] > 0.0
        assert summary["fraction_overestimated"] > 0.5

    def test_aig_correlation_positive(self, points):
        result = run_aig_correlation(points=points)
        assert result.correlation > 0.6
        assert result.ps_per_level > 0


class TestEstimationAccuracy:
    def test_error_shrinks_with_iterations(self):
        cases = [suite_by_name("ML-core datapath1")]
        result = run_estimation_accuracy(cases, max_iterations=4,
                                         subgraphs_per_iteration=8)
        assert len(result.isdc_error) >= 2
        assert result.final_isdc_error <= result.isdc_error[0]
        assert result.final_isdc_error <= result.final_sdc_error + 1e-9
