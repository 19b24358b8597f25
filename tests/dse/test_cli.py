"""Tests of ``runner dse``: dispatch, payloads, and the report wiring."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import main
from repro.experiments.serialize import SCHEMA_VERSION, experiment_payload
from repro.report.diff import diff_frames
from repro.report.frame import load_experiment_payload, metric_spec

SMALL = ("gen:seed=9,depth=5,width=3,fanout=2,bits=8,inputs=3,"
         "clock=2000,mix=add3+xor2+sub1+rotr1")


def dse_envelope(min_clock_ps: float, design: str = SMALL,
                 warm_hit_rate: float = 0.5) -> dict:
    """A minimal dse envelope (current schema) for loader/diff tests."""
    return {
        "schema": SCHEMA_VERSION, "experiment": "dse", "quick": False,
        "jobs": 1, "solver": "full", "elapsed_s": 0.1,
        "data": {
            "mode": "minclock", "resolution_ps": 10.0, "max_stages": None,
            "speculate": 2,
            "designs": [{
                "design": design, "mode": "minclock",
                "start_clock_ps": 2000.0, "min_clock_ps": min_clock_ps,
                "converged": True, "num_probes": 12, "probes": [],
                "front": [],
                "warm": {"warm_hit_rate": warm_hit_rate, "lp_rebuilds": 4,
                         "solve_time_s": 0.05},
                "elapsed_s": 0.1,
            }],
        },
    }


class TestDseCommand:
    def test_minclock_end_to_end_with_json(self, tmp_path, capsys):
        json_path = tmp_path / "out" / "dse.json"
        assert main(["dse", "--designs", SMALL, "--resolution-ps", "50",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Min clock (ps)" in out and "dse minclock" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["experiment"] == "dse"
        design = payload["data"]["designs"][0]
        assert design["converged"]
        assert design["min_clock_ps"] is not None
        # Probes are sorted by period and carry only deterministic fields.
        periods = [p["clock_period_ps"] for p in design["probes"]]
        assert periods == sorted(periods)
        assert "solve_time_s" not in design["probes"][0]

    def test_store_flag_archives_probes_and_payload(self, tmp_path, capsys):
        from repro.dse.search import probe_key
        from repro.store import ArtifactStore

        store_path = tmp_path / "dse-store.jsonl"
        assert main(["dse", "--designs", SMALL, "--resolution-ps", "50",
                     "--store", str(store_path)]) == 0
        capsys.readouterr()
        store = ArtifactStore.load(store_path)
        kinds = store.kinds()
        assert kinds["payload"] == 1
        assert kinds["dse-probe"] >= 2
        probe = next(iter(store.kind("dse-probe")))
        body = probe.body
        assert probe.key == probe_key(body["design"], body["mode"],
                                      body["clock_period_ps"],
                                      body["max_stages"])
        # Probe bodies are deterministic: no provenance or wall clock.
        assert "solve_time_s" not in body and "elapsed_s" not in body
        # Re-running the same search supersedes its probes, never
        # duplicates them (payload records are content-addressed over
        # their data, which includes wall-clock fields, so those may
        # legitimately differ between runs).
        assert main(["dse", "--designs", SMALL, "--resolution-ps", "50",
                     "--store", str(store_path)]) == 0
        capsys.readouterr()
        rerun = ArtifactStore(store_path).open_for_append()
        report = rerun.compact()
        assert report.kinds["dse-probe"] == kinds["dse-probe"]
        assert report.dropped >= kinds["dse-probe"]

    def test_pareto_mode_prints_front(self, capsys):
        assert main(["dse", "--designs", SMALL, "--mode", "pareto",
                     "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "Registers" in out

    def test_speculate_flag_reaches_the_payload(self, tmp_path):
        json_path = tmp_path / "dse.json"
        assert main(["dse", "--designs", SMALL, "--resolution-ps", "100",
                     "--speculate", "5", "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["data"]["speculate"] == 5

    def test_needs_designs_or_quick(self):
        with pytest.raises(SystemExit):
            main(["dse"])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            main(["dse", "--designs", "no-such-design-anywhere"])

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--speculate", "0"]])
    def test_rejects_non_positive_workers(self, flags):
        with pytest.raises(SystemExit):
            main(["dse", "--designs", SMALL, *flags])


    @pytest.mark.parametrize("flags", [["--resolution-ps", "nan"],
                                       ["--resolution-ps", "inf"],
                                       ["--max-stages", "0"],
                                       ["--max-stages", "-3"]])
    def test_rejects_non_finite_resolution_and_stageless_cap(self, flags,
                                                             capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dse", "--designs", SMALL, *flags])
        assert exit_info.value.code == 2
        named = flags[0][2:].replace("-", "_")  # --max-stages: max_stages
        assert named in capsys.readouterr().err


class TestSerializeAndReportWiring:
    def test_experiment_payload_accepts_dse_results(self):
        from repro.dse.search import run_dse

        result = run_dse([SMALL], resolution_ps=100.0)
        payload = experiment_payload("dse", result)
        assert payload["schema"] == SCHEMA_VERSION == 9
        assert payload["data"]["designs"][0]["design"] == SMALL

    def test_frame_loads_dse_payload(self, tmp_path):
        path = tmp_path / "dse.json"
        path.write_text(json.dumps(dse_envelope(min_clock_ps=750.0)))
        frame = load_experiment_payload(path)
        assert len(frame.rows) == 1
        row = frame.rows[0]
        assert row.value("design") == SMALL
        assert row.value("clock_period_ps") == 2000.0
        assert row.metrics["min_clock_ps"] == 750.0
        assert row.metrics["dse_probes"] == 12.0
        assert row.metrics["warm_hit_rate"] == 0.5
        assert row.metrics["lp_rebuilds"] == 4.0

    def test_min_clock_is_a_lower_is_better_metric(self):
        assert not metric_spec("min_clock_ps").higher_is_better
        assert metric_spec("warm_hit_rate").higher_is_better

    def _frames(self, tmp_path, old_clock: float, new_clock: float):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(dse_envelope(min_clock_ps=old_clock)))
        new.write_text(json.dumps(dse_envelope(min_clock_ps=new_clock)))
        return (load_experiment_payload(old, source="old"),
                load_experiment_payload(new, source="new"))

    def test_diff_flags_a_min_clock_increase_as_regression(self, tmp_path):
        baseline, candidate = self._frames(tmp_path, 750.0, 800.0)
        report = diff_frames(baseline, candidate, metric="min_clock_ps")
        assert report.num_regressed == 1 and report.exit_code == 1

    def test_diff_accepts_a_min_clock_decrease(self, tmp_path):
        baseline, candidate = self._frames(tmp_path, 750.0, 700.0)
        report = diff_frames(baseline, candidate, metric="min_clock_ps")
        assert report.num_regressed == 0 and report.exit_code == 0

    def test_report_diff_cli_gates_on_min_clock(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(dse_envelope(min_clock_ps=750.0)))
        new.write_text(json.dumps(dse_envelope(min_clock_ps=800.0)))
        assert main(["report", "diff", str(old), str(new),
                     "--metric", "min_clock_ps"]) == 1
        assert main(["report", "diff", str(old), str(old),
                     "--metric", "min_clock_ps"]) == 0
        capsys.readouterr()
