"""Tests for axis grouping and metric reducers."""

import pytest

from repro.report.aggregate import DEFAULT_REDUCERS, REDUCERS, aggregate
from repro.report.frame import ReportFrame, ReportRow, load_artifact_store


def _frame(rows):
    return ReportFrame([
        ReportRow(f"job{i}", "test", axes, metrics)
        for i, (axes, metrics) in enumerate(rows)])


class TestReducers:
    def test_geomean_mean_percentiles(self):
        frame = _frame([({"design": "x"}, {"iterations": float(v)})
                        for v in (2, 8, 8, 8)])
        report = aggregate(frame, group_by=("design",),
                           metrics=("iterations",),
                           reducers=("count", "geomean", "mean", "p50",
                                     "p95", "min", "max", "sum"))
        (group,) = report.groups
        values = group.values["iterations"]
        assert values["count"] == 4
        assert values["geomean"] == pytest.approx((2 * 8 * 8 * 8) ** 0.25)
        assert values["mean"] == pytest.approx(6.5)
        assert values["p50"] == pytest.approx(8.0)
        assert values["p95"] == pytest.approx(8.0)
        assert values["min"] == 2.0 and values["max"] == 8.0
        assert values["sum"] == 26.0

    def test_p95_interpolates(self):
        frame = _frame([({}, {"iterations": float(v)})
                        for v in range(1, 101)])
        report = aggregate(frame, group_by=(), metrics=("iterations",),
                           reducers=("p95",))
        assert report.groups[0].values["iterations"]["p95"] == \
            pytest.approx(95.05)

    def test_geomean_over_zeros_yields_none_not_nan(self):
        frame = _frame([({}, {"evaluations": 0.0}),
                        ({}, {"evaluations": 5.0})])
        report = aggregate(frame, group_by=(), metrics=("evaluations",),
                           reducers=("geomean", "mean"))
        values = report.groups[0].values["evaluations"]
        assert values["geomean"] is None
        assert values["mean"] == pytest.approx(2.5)

    def test_metric_absent_from_all_rows_yields_none(self):
        frame = _frame([({}, {"iterations": 1.0})])
        report = aggregate(frame, group_by=(), metrics=("runtime_s",))
        values = report.groups[0].values["runtime_s"]
        assert values["count"] == 0  # the sample size is a fact, not n/a
        assert all(value is None for name, value in values.items()
                   if name != "count")

    def test_metric_count_tracks_rows_carrying_the_metric(self):
        frame = _frame([({}, {"iterations": 1.0, "runtime_s": 0.5}),
                        ({}, {"iterations": 2.0})])
        report = aggregate(frame, group_by=(), metrics=("runtime_s",),
                           reducers=("count", "mean"))
        (group,) = report.groups
        assert group.count == 2                       # rows in the group
        assert group.values["runtime_s"]["count"] == 1  # rows with the metric


class TestGrouping:
    def test_groups_are_sorted_and_counted(self):
        frame = _frame([
            ({"design": "b", "extraction": "fanout"}, {"iterations": 1.0}),
            ({"design": "a", "extraction": "delay"}, {"iterations": 2.0}),
            ({"design": "a", "extraction": "delay"}, {"iterations": 4.0}),
        ])
        report = aggregate(frame, group_by=("design", "extraction"),
                           metrics=("iterations",), reducers=("mean",))
        assert [group.key for group in report.groups] == \
            [("a", "delay"), ("b", "fanout")]
        assert [group.count for group in report.groups] == [2, 1]
        assert report.num_rows == 3

    def test_alias_m_groups_by_subgraph_count(self, store_path):
        frame = load_artifact_store(store_path)
        report = aggregate(frame, group_by=("m",), metrics=("iterations",),
                           reducers=("count",))
        assert report.group_by == ("subgraphs_per_iteration",)
        assert [group.key for group in report.groups] == [(4,), (8,)]
        assert all(group.count == 2 for group in report.groups)

    def test_source_axis_separates_inputs(self):
        frame = ReportFrame([
            ReportRow("j1", "old.jsonl", {}, {"iterations": 1.0}),
            ReportRow("j1", "new.jsonl", {}, {"iterations": 2.0}),
        ])
        report = aggregate(frame, group_by=("source",),
                           metrics=("iterations",), reducers=("mean",))
        assert [group.key for group in report.groups] == \
            [("new.jsonl",), ("old.jsonl",)]

    def test_rows_missing_an_axis_group_under_none(self):
        frame = _frame([({"design": "x", "backend": "local"},
                         {"iterations": 1.0}),
                        ({"design": "x"}, {"iterations": 3.0})])
        report = aggregate(frame, group_by=("backend",),
                           metrics=("iterations",), reducers=("mean",))
        assert {group.key for group in report.groups} == {(None,), ("local",)}


class TestValidation:
    def test_unknown_reducer_rejected(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            aggregate(ReportFrame(), reducers=("median",))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            aggregate(ReportFrame(), metrics=("registers",))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            aggregate(ReportFrame(), group_by=("designs",))

    def test_default_reducers_are_known(self):
        assert set(DEFAULT_REDUCERS) <= set(REDUCERS)

    def test_payload_shape(self):
        frame = _frame([({"design": "x"}, {"iterations": 2.0})])
        payload = aggregate(frame, group_by=("design",),
                            metrics=("iterations",),
                            reducers=("mean",)).to_payload()
        assert payload["kind"] == "summary"
        assert payload["groups"] == [
            {"key": {"design": "x"}, "count": 1,
             "values": {"iterations": {"mean": 2.0}}}]
