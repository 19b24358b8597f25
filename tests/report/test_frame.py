"""Tests for the unified report frame and its loaders."""

import json

import pytest

from repro.report.frame import (ReportFrame, ReportRow, load_any,
                                load_artifact_store, load_experiment_payload,
                                load_frames, metric_spec, resolve_axis)
from repro.store import StoreFormatError
from tests.report.conftest import make_spec, synthetic_result, write_store


class TestRunStoreLoading:
    """A campaign run store loads through the unified store loader."""

    def test_rows_carry_axes_and_metrics(self, store_path, spec):
        frame = load_artifact_store(store_path)
        assert len(frame.rows) == len(spec.jobs())
        row = frame.rows[0]
        assert row.axes["design"] == "rrot"
        assert row.axes["extraction"] in ("fanout", "delay")
        assert row.axes["subgraphs_per_iteration"] in (4, 8)
        assert row.axes["backend"] == "estimator"
        assert row.metrics["registers_initial"] >= 20
        assert row.metrics["runtime_s"] == 0.25
        # Derived metrics appear when their inputs do.
        assert 0 < row.metrics["register_ratio"] < 1
        assert row.metrics["register_reduction"] == pytest.approx(
            1 - row.metrics["register_ratio"])

    def test_rows_sorted_by_job_id(self, store_path):
        frame = load_artifact_store(store_path)
        ids = [row.job_id for row in frame.rows]
        assert ids == sorted(ids)

    def test_source_defaults_to_file_name(self, store_path):
        assert load_artifact_store(store_path).rows[0].source == "store.jsonl"
        assert load_artifact_store(store_path, source="x").rows[0].source == "x"

    def test_torn_trailing_line_is_tolerated_and_file_untouched(
            self, store_path):
        original = store_path.read_bytes()
        store_path.write_bytes(original + b'{"kind": "job", "job_')
        frame = load_artifact_store(store_path)
        assert len(frame.rows) == 4
        # Read-only analysis must not repair (rewrite) the store.
        assert store_path.read_bytes().endswith(b'{"kind": "job", "job_')

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact_store(tmp_path / "nope.jsonl")

    def test_unresolvable_header_design_loads_without_axes(self, store_path):
        # The header's spec names a design no process can resolve: the
        # store still loads, its rows just carry no configuration axes.
        text = store_path.read_text()
        store_path.write_text(text.replace('"designs": ["rrot"]',
                                           '"designs": ["no such row"]', 1))
        frame = load_artifact_store(store_path)
        assert len(frame.rows) == 4
        assert frame.rows[0].axes == {"design": "rrot"}

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "campaign-job", "key": "x", "schema": 2, '
                        '"body": {}}\n')
        with pytest.raises(ValueError, match="no campaign header"):
            load_artifact_store(path)


class TestPayloadLoading:
    def test_campaign_payload(self, tmp_path, spec, store_path):
        from repro.campaign.store import RunStore

        store = RunStore.load(store_path)
        payload = {"schema": 3, "experiment": "campaign", "quick": True,
                   "jobs": 1, "solver": "full", "elapsed_s": 1.0,
                   "data": store.final_payload(spec)}
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(payload))

        frame = load_experiment_payload(path)
        assert len(frame.rows) == len(spec.jobs())
        assert {row.job_id for row in frame.rows} == store.completed
        # Payload jobs carry no wall-clock runtime.
        assert all("runtime_s" not in row.metrics for row in frame.rows)
        assert frame.rows[0].axes["extraction"] in ("fanout", "delay")

    def test_table1_payload_including_schema1(self, tmp_path):
        # Schema-1 payloads predate solver/evaluations/phase columns.
        row = {"benchmark": "rrot", "clock_period_ps": 2000.0,
               "sdc_slack_ps": 100.0, "sdc_stages": 4, "sdc_registers": 40,
               "sdc_time_s": 0.1, "isdc_slack_ps": 60.0, "isdc_stages": 3,
               "isdc_registers": 30, "isdc_time_s": 1.5,
               "isdc_iterations": 5}
        payload = {"schema": 1, "experiment": "table1", "quick": False,
                   "jobs": 1, "elapsed_s": 2.0, "data": {"rows": [row]}}
        path = tmp_path / "table1.json"
        path.write_text(json.dumps(payload))

        frame = load_experiment_payload(path)
        (loaded,) = frame.rows
        assert loaded.axes["design"] == "rrot"
        assert "solver" not in loaded.axes
        assert loaded.metrics["registers_initial"] == 40.0
        assert loaded.metrics["registers_final"] == 30.0
        assert loaded.metrics["iterations"] == 5.0
        assert "evaluations" not in loaded.metrics
        assert loaded.metrics["register_ratio"] == pytest.approx(0.75)

    def test_table1_job_ids_stable_across_payloads(self, tmp_path):
        def write(name, registers):
            row = {"benchmark": "crc32", "clock_period_ps": 1500.0,
                   "isdc_registers": registers}
            path = tmp_path / name
            path.write_text(json.dumps({"schema": 4, "experiment": "table1",
                                        "data": {"rows": [row]}}))
            return path

        first = load_experiment_payload(write("a.json", 10))
        second = load_experiment_payload(write("b.json", 99))
        assert first.rows[0].job_id == second.rows[0].job_id

    def test_figure_payload_rejected(self, tmp_path):
        path = tmp_path / "fig5.json"
        path.write_text(json.dumps({"schema": 4, "experiment": "fig5",
                                    "data": {"curves": []}}))
        with pytest.raises(ValueError, match="fig5"):
            load_experiment_payload(path)

    def test_non_payload_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError, match="not a runner --json payload"):
            load_experiment_payload(path)


class TestArtifactStoreLoading:
    def test_unified_store_loads_like_a_run_store(self, store_path):
        from repro.campaign.store import RunStore

        run_store = RunStore.load(store_path)
        store_frame = load_artifact_store(store_path, source="s")
        assert {row.job_id for row in store_frame.rows} == run_store.completed
        for row in store_frame.rows:
            record = run_store.results[row.job_id]
            assert row.axes["design"] == record["design"]
            assert row.metrics["runtime_s"] == record["runtime_s"]

    def test_mixed_store_adds_payload_rows_and_skips_other_kinds(
            self, tmp_path, store_path):
        from repro.store import ArtifactStore, StoreRecord, payload_record

        store = ArtifactStore(store_path).open_for_append()
        num_campaign_rows = len(load_artifact_store(store_path).rows)
        store.put(StoreRecord(kind="synth-eval", key="e1", schema=1,
                              body={"backend": "x", "fingerprint": "fp"}))
        store.put(payload_record(
            {"schema": 6, "experiment": "table1",
             "data": {"rows": [{"benchmark": "crc32",
                                "clock_period_ps": 1500.0,
                                "isdc_registers": 12}]}}))
        store.put(payload_record(
            {"schema": 6, "experiment": "fig5", "data": {"curves": []}}))
        frame = load_artifact_store(store_path)
        assert len(frame.rows) == num_campaign_rows + 1
        table1_rows = [row for row in frame.rows
                       if row.axes.get("design") == "crc32"]
        assert table1_rows[0].metrics["registers_final"] == 12.0

    def test_legacy_run_store_is_refused_by_load_any(self, tmp_path, spec):
        legacy = tmp_path / "legacy.jsonl"
        jobs = spec.jobs()
        lines = [json.dumps({"kind": "header", "schema": 1,
                             "name": spec.name,
                             "fingerprint": spec.fingerprint(),
                             "num_jobs": len(jobs),
                             "spec": spec.to_dict()})]
        for job in jobs:
            lines.append(json.dumps({"kind": "job", "job_id": job.job_id,
                                     "design": job.design,
                                     "result": synthetic_result(job),
                                     "runtime_s": 0.25}))
        legacy.write_text("\n".join(lines) + "\n")
        before = legacy.read_bytes()
        with pytest.raises(StoreFormatError,
                           match=r"legacy\.jsonl line 1 is a non-envelope "
                                 r"record.*re-run"):
            load_any(legacy)
        assert legacy.read_bytes() == before


class TestSniffingAndMerging:
    def test_load_any_detects_both_kinds(self, tmp_path, store_path):
        payload_path = tmp_path / "t1.json"
        payload_path.write_text(json.dumps(
            {"schema": 4, "experiment": "table1",
             "data": {"rows": [{"benchmark": "rrot",
                                "clock_period_ps": 2000.0,
                                "isdc_registers": 30}]}}))
        assert len(load_any(store_path).rows) == 4
        assert len(load_any(payload_path).rows) == 1

    def test_load_frames_concatenates(self, tmp_path, store_path):
        other = tmp_path / "other.jsonl"
        write_store(other, make_spec(name="other", subgraph_counts=[16]))
        frame = load_frames([store_path, other])
        assert len(frame.rows) == 6
        assert {row.source for row in frame.rows} == \
            {"store.jsonl", "other.jsonl"}

    def test_by_job_id_first_occurrence_wins(self):
        a = ReportRow("j1", "a", {}, {"iterations": 1.0})
        b = ReportRow("j1", "b", {}, {"iterations": 2.0})
        assert ReportFrame([a, b]).by_job_id()["j1"].source == "a"


class TestNameResolution:
    def test_axis_aliases(self):
        assert resolve_axis("m") == "subgraphs_per_iteration"
        assert resolve_axis("clock") == "clock_period_ps"
        assert resolve_axis("design") == "design"

    def test_unknown_axis_names_known_ones(self):
        with pytest.raises(ValueError, match="known axes.*design"):
            resolve_axis("flavour")

    def test_unknown_metric_names_known_ones(self):
        with pytest.raises(ValueError, match="known metrics.*registers_final"):
            metric_spec("bogus")

    def test_metric_directions(self):
        assert not metric_spec("registers_final").higher_is_better
        assert metric_spec("register_reduction").higher_is_better
