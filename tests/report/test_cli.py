"""Tests for the ``runner report`` CLI: modes, formats, exit codes."""

import json

import pytest

from repro.experiments.runner import main
from repro.experiments.serialize import SCHEMA_VERSION
from tests.report.conftest import make_spec, synthetic_result, write_store


#: The envelope the retired service benchmark committed (schema 8, the
#: ``service`` experiment kind ``runner report`` no longer reads).
RETIRED_SERVICE_PAYLOAD = {
    "schema": 8, "experiment": "service", "quick": False, "jobs": 2,
    "solver": "full", "elapsed_s": 0.17712981499789748,
    "store_key": "47168aec12eb6298a3d605345b19c2e9",
    "data": {
        "workload": {"name": "quick", "submitted": 600, "unique": 16,
                     "dup": 2, "hot_fraction": 0.9, "concurrency": 12,
                     "jobs": 2, "batch_window_ms": 5.0, "max_batch": 16},
        "requests_per_s": 3936.214329081877,
        "p50_latency_s": 2.9655999242095277e-05,
        "p95_latency_s": 0.02084635299979709,
        "warm_hit_rate": 0.86, "coalesce_rate": 0.11333333333333333,
        "warm_speedup": 730.986152141692,
        "warm_latency_s": 3.0850912748586454e-05,
        "cold_latency_s": 0.02255159000014828,
        "ok": 600, "errors": 0,
        "served": {"cold": 16, "warm": 516, "coalesced": 68},
        "cold_computed": 16, "parity_checked": 2,
        "elapsed_s": 0.15243072399971425,
        "service_stats": {"requests": 600, "warm_hits": 516,
                          "coalesced": 68, "cold_done": 16},
    },
}


@pytest.fixture
def two_stores(tmp_path, spec):
    """(identical-content baseline, candidate) store paths."""
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    write_store(old, spec)
    write_store(new, spec)
    return old, new


@pytest.fixture
def perturbed_store(tmp_path, spec):
    """A store whose first job has one extra final register."""
    path = tmp_path / "perturbed.jsonl"

    def result_fn(job):
        bump = 1 if job.index == 0 else 0
        return synthetic_result(job, registers_final=10 + job.index + bump)

    write_store(path, spec, result_fn)
    return path


class TestSummaryMode:
    def test_default_summary(self, store_path, capsys):
        assert main(["report", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "registers_final/geomean" in out
        assert "4 rows in 1 groups" in out

    def test_group_by_alias_and_multiple_metrics(self, store_path, capsys):
        assert main(["report", str(store_path), "--group-by", "m,extraction",
                     "--metric", "registers_final,iterations"]) == 0
        out = capsys.readouterr().out
        assert "subgraphs_per_iteration" in out
        assert "iterations/p95" in out

    def test_multiple_inputs_pool_rows(self, two_stores, capsys):
        old, new = two_stores
        assert main(["report", str(old), str(new),
                     "--group-by", "source"]) == 0
        out = capsys.readouterr().out
        assert "old.jsonl" in out and "new.jsonl" in out

    def test_out_and_json_artifacts(self, store_path, tmp_path, capsys):
        out_path = tmp_path / "sub" / "report.md"
        json_path = tmp_path / "sub" / "report.json"
        assert main(["report", str(store_path), "--format", "md",
                     "--out", str(out_path), "--json", str(json_path)]) == 0
        assert out_path.read_text().startswith("| design")
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["experiment"] == "report"
        assert payload["data"]["kind"] == "summary"
        assert payload["data"]["num_rows"] == 4

    def test_unknown_metric_is_a_usage_error(self, store_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(store_path), "--metric", "bogus"])
        assert excinfo.value.code == 2
        assert "known metrics" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2

    def test_retired_service_payload_is_a_one_line_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "service.json"
        path.write_text(json.dumps(RETIRED_SERVICE_PAYLOAD))
        for argv in (["report", str(path)],
                     ["report", "diff", str(path), str(path),
                      "--metric", "warm_hit_rate"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert "'service' payload" in err
            assert "supported experiments: campaign, dse, table1" in err

    def test_help_works(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--group-by" in out and "--threshold" in out


class TestDiffMode:
    def test_identical_stores_zero_delta_exit_zero(self, two_stores, capsys):
        old, new = two_stores
        assert main(["report", "diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out
        assert "verdict: OK" in out

    def test_perturbed_store_fails_at_default_threshold(
            self, store_path, perturbed_store, capsys):
        assert main(["report", "diff", str(store_path),
                     str(perturbed_store)]) == 1
        out = capsys.readouterr().out
        assert "1 regressed" in out
        assert "verdict: FAIL" in out

    def test_threshold_flag_tolerates_the_perturbation(
            self, store_path, perturbed_store):
        # The perturbation is 1 register on a 10-register job: 10 % worse.
        assert main(["report", "diff", str(store_path), str(perturbed_store),
                     "--threshold", "0.2"]) == 0

    def test_baseline_flag_is_equivalent(self, store_path, perturbed_store):
        assert main(["report", str(perturbed_store),
                     "--baseline", str(store_path)]) == 1
        assert main(["report", str(store_path),
                     "--baseline", str(store_path)]) == 0

    def test_diff_json_payload(self, store_path, perturbed_store, tmp_path):
        json_path = tmp_path / "diff.json"
        assert main(["report", "diff", str(store_path), str(perturbed_store),
                     "--json", str(json_path)]) == 1
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["data"]["kind"] == "diff"
        assert payload["data"]["num_regressed"] == 1
        assert payload["data"]["exit_code"] == 1

    def test_diff_needs_exactly_two_inputs(self, store_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "diff", str(store_path)])
        assert excinfo.value.code == 2

    def test_diff_and_baseline_are_exclusive(self, two_stores):
        old, new = two_stores
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "diff", str(old), str(new),
                  "--baseline", str(old)])
        assert excinfo.value.code == 2

    def test_diff_rejects_multiple_metrics(self, two_stores):
        old, new = two_stores
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "diff", str(old), str(new),
                  "--metric", "iterations,evaluations"])
        assert excinfo.value.code == 2

    def test_stores_of_different_specs_join_nothing_and_fail(
            self, store_path, tmp_path, capsys):
        # Zero joined jobs means the diff verified nothing; that must not
        # read as a green CI gate.
        other = tmp_path / "other.jsonl"
        write_store(other, make_spec(subgraph_counts=[16]))
        assert main(["report", "diff", str(store_path), str(other)]) == 1
        out = capsys.readouterr().out
        assert "0 jobs joined" in out
        assert "4 jobs only in baseline" in out
        assert "2 jobs only in candidate" in out
        assert "verdict: FAIL" in out

    def test_same_basename_inputs_stay_distinguishable(self, tmp_path, spec,
                                                       capsys):
        for branch in ("main", "pr"):
            (tmp_path / branch).mkdir()
            write_store(tmp_path / branch / "sweep.jsonl", spec)
        assert main(["report", str(tmp_path / "main" / "sweep.jsonl"),
                     str(tmp_path / "pr" / "sweep.jsonl"),
                     "--group-by", "source"]) == 0
        out = capsys.readouterr().out
        assert "8 rows in 2 groups" in out
