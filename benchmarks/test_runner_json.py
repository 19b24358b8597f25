"""Benchmark consuming the runner's ``--json`` artefact.

Exercises the full CLI path (``table1 --quick --jobs N --json PATH``) and
validates the machine-readable payload the rest of the tooling consumes:
schema envelope, per-row columns, and the deterministic quality figures
matching a direct in-process run.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import main
from repro.experiments.serialize import SCHEMA_VERSION

ROW_COLUMNS = {
    "benchmark", "clock_period_ps",
    "sdc_slack_ps", "sdc_stages", "sdc_registers", "sdc_time_s",
    "isdc_slack_ps", "isdc_stages", "isdc_registers", "isdc_time_s",
    "isdc_iterations", "isdc_evaluations", "isdc_solver_time_s",
    "isdc_synthesis_time_s",
}


@pytest.mark.benchmark(group="runner-json")
def test_table1_json_artifact(benchmark, tmp_path):
    path = tmp_path / "table1.json"

    def run():
        assert main(["table1", "--quick", "--jobs", "2",
                     "--json", str(path)]) == 0
        return json.loads(path.read_text())

    payload = benchmark.pedantic(run, rounds=1, iterations=1)

    assert payload["schema"] == SCHEMA_VERSION
    assert payload["experiment"] == "table1"
    assert payload["quick"] is True
    assert payload["jobs"] == 2
    assert "solver" not in payload  # one re-solve path, no strategy field
    assert payload["elapsed_s"] > 0

    rows = payload["data"]["rows"]
    assert len(rows) == 4  # the --quick case subset
    for row in rows:
        assert set(row) == ROW_COLUMNS
        assert row["isdc_registers"] <= row["sdc_registers"]
        assert row["isdc_stages"] <= row["sdc_stages"]
        assert row["isdc_solver_time_s"] > 0
        assert row["isdc_synthesis_time_s"] > 0
        assert row["isdc_solver_time_s"] + row["isdc_synthesis_time_s"] <= \
            row["isdc_time_s"]

    summary = payload["data"]["summary"]
    assert 0 < summary["register_ratio"] <= 1.0
    assert 0 < summary["stage_ratio"] <= 1.0
