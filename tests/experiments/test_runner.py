"""Tests for the experiment CLI runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import main, run_experiment_result
from repro.experiments.serialize import SCHEMA_VERSION, experiment_payload
from repro.store import ArtifactStore, StoreRecord


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment_result("table7")


def test_quick_fig8_report_contains_correlation():
    _, report = run_experiment_result("fig8", quick=True)
    assert "Pearson correlation" in report
    assert "ps/level" in report


def test_quick_fig5_report_lists_both_strategies():
    _, report = run_experiment_result("fig5", quick=True)
    assert "fanout" in report
    assert "delay" in report


def test_json_flag_writes_machine_readable_payload(tmp_path, capsys):
    path = tmp_path / "artifacts" / "fig5.json"
    assert main(["fig5", "--quick", "--json", str(path)]) == 0
    assert "fanout" in capsys.readouterr().out

    payload = json.loads(path.read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["experiment"] == "fig5"
    assert payload["quick"] is True
    assert payload["jobs"] == 1
    assert payload["elapsed_s"] > 0
    curves = payload["data"]["curves"]
    assert {curve["strategy"] for curve in curves} == {"delay", "fanout"}
    for curve in curves:
        assert curve["registers"]
        assert all(isinstance(r, int) for r in curve["registers"])


def test_jobs_flag_yields_identical_quality_results():
    serial, _ = run_experiment_result("fig5", quick=True, jobs=1)
    parallel, _ = run_experiment_result("fig5", quick=True, jobs=4)
    assert serial == parallel  # dict of frozen dataclasses: field-wise equality


def test_campaign_cli_runs_resumes_and_serializes(tmp_path, capsys):
    store = tmp_path / "campaign.jsonl"
    first_json = tmp_path / "first.json"
    second_json = tmp_path / "second.json"

    assert main(["campaign", "--quick", "--out", str(store),
                 "--json", str(first_json)]) == 0
    out = capsys.readouterr().out
    assert "12 executed, 0 resumed" in out

    # Re-running with --resume answers everything from the checkpoints and
    # produces the identical deterministic payload.
    assert main(["campaign", "--quick", "--out", str(store), "--resume",
                 "--json", str(second_json)]) == 0
    assert "0 executed, 12 resumed" in capsys.readouterr().out

    first = json.loads(first_json.read_text())
    second = json.loads(second_json.read_text())
    assert first["schema"] == SCHEMA_VERSION
    assert first["experiment"] == "campaign"
    assert first["data"]["num_jobs"] == 12
    assert json.dumps(first["data"], sort_keys=True) == \
        json.dumps(second["data"], sort_keys=True)


def test_campaign_without_store_refuses_resume(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--quick", "--resume"])


def test_campaign_needs_spec_or_quick():
    with pytest.raises(SystemExit):
        main(["campaign"])


def test_campaign_spec_file_drives_the_sweep(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "from-file",
        "designs": ["rrot"],
        "subgraph_counts": [4],
        "max_iterations": 2,
        "backend": "estimator",
        "use_characterized_delays": False,
    }))
    assert main(["campaign", "--spec", str(spec_path)]) == 0
    assert "campaign 'from-file': 1 jobs" in capsys.readouterr().out


def test_campaign_flags_rejected_for_other_experiments(tmp_path):
    with pytest.raises(SystemExit):
        main(["fig8", "--quick", "--out", str(tmp_path / "x.jsonl")])


def test_payload_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        experiment_payload("table7", object())


def test_payload_roundtrips_through_json():
    result, _ = run_experiment_result("fig8", quick=True)
    payload = experiment_payload("fig8", result, quick=True, jobs=1,
                                 elapsed_s=1.0)
    decoded = json.loads(json.dumps(payload))
    assert decoded["data"]["num_points"] == len(result.points)
    assert decoded["data"]["correlation"] == pytest.approx(result.correlation)


def test_campaign_design_flag_runs_named_designs(capsys):
    assert main(["campaign", "--design", "examples/loop_accum.ir",
                 "--design",
                 "loop:seed=2,depth=3,width=2,bits=16,inputs=2,phis=1,"
                 "dist=1,clock=2500"]) == 0
    out = capsys.readouterr().out
    assert "examples/loop_accum.ir" in out
    # 2 designs x quick axes (2 extraction x 2 subgraph budgets) = 8 jobs.
    assert "8 jobs" in out


def test_campaign_design_flag_extends_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "mini", "designs": ["rrot"], "subgraph_counts": [4],
        "max_iterations": 2, "backend": "estimator",
        "use_characterized_delays": False}))
    assert main(["campaign", "--spec", str(spec_path),
                 "--design", "examples/loop_accum.ir"]) == 0
    out = capsys.readouterr().out
    assert "rrot" in out and "examples/loop_accum.ir" in out


def test_design_flag_rejected_for_other_experiments():
    with pytest.raises(SystemExit):
        main(["fig8", "--quick", "--design", "rrot"])


_MINI_SPEC = {"name": "mini", "designs": ["rrot"], "subgraph_counts": [4],
              "max_iterations": 1, "backend": "estimator",
              "use_characterized_delays": False}


def _spec_args(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    return ["--spec", str(path)]


def _store_args(tmp_path, resume_spec):
    """An existing --out store written for the mini spec, then reused."""
    store = tmp_path / "store.jsonl"
    assert main(["campaign", *_spec_args(tmp_path, json.dumps(_MINI_SPEC)),
                 "--out", str(store)]) == 0
    args = _spec_args(tmp_path, json.dumps(resume_spec))
    resume = ["--resume"] if resume_spec != _MINI_SPEC else []
    return [*args, "--out", str(store), *resume]


# case -> (argv builder, fragments the one-line message must contain)
BAD_CAMPAIGN_INPUTS = {
    "missing-file": (lambda tmp: ["--spec", str(tmp / "absent.json")],
                     ["absent.json", "file not found"]),
    "malformed-json": (lambda tmp: _spec_args(tmp, "{bad"),
                       ["spec.json", "invalid JSON"]),
    "deeply-nested-json": (lambda tmp: _spec_args(
        tmp, "[" * 100_000 + "]" * 100_000),
        ["spec.json", "invalid JSON", "nested too deeply"]),
    "non-object": (lambda tmp: _spec_args(tmp, "[1, 2]"),
                   ["spec.json", "JSON object"]),
    "unknown-field": (lambda tmp: _spec_args(
        tmp, json.dumps({**_MINI_SPEC, "solvers": ["full"]})),
        ["spec.json", "unknown field 'solvers'"]),
    "empty-designs": (lambda tmp: _spec_args(
        tmp, json.dumps({**_MINI_SPEC, "designs": []})),
        ["spec.json", "'designs'"]),
    "unknown-design": (lambda tmp: _spec_args(
        tmp, json.dumps({**_MINI_SPEC, "designs": ["no such row"]})),
        ["spec.json", "'designs'", "no such row"]),
    "existing-out": (lambda tmp: _store_args(tmp, _MINI_SPEC),
                     ["--out", "store.jsonl", "already exists"]),
    "store-mismatch": (lambda tmp: _store_args(
        tmp, {**_MINI_SPEC, "name": "other"}),
        ["--out", "store.jsonl", "cannot resume"]),
}


@pytest.mark.parametrize("case", sorted(BAD_CAMPAIGN_INPUTS))
def test_campaign_bad_input_is_one_line_and_exit_2(case, tmp_path, capsys):
    build, fragments = BAD_CAMPAIGN_INPUTS[case]
    argv = build(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def _never_called(*args, **kwargs):
    raise AssertionError("the run started despite an unreadable store")


# case -> (argv before the store path, function the refusal must pre-empt)
LEGACY_STORE_INPUTS = {
    "table1-store": (["table1", "--quick", "--store"],
                     "repro.experiments.runner.run_experiment_result"),
    "dse-store": (["dse", "--designs", "rrot", "--store"],
                  "repro.dse.cli.run_dse"),
    "campaign-resume-out": (["campaign", "--quick", "--resume", "--out"],
                            "repro.campaign.executor.execute_job"),
}


@pytest.mark.parametrize("case", sorted(LEGACY_STORE_INPUTS))
def test_legacy_store_is_refused_before_the_run(case, tmp_path, capsys,
                                                monkeypatch):
    argv, guarded = LEGACY_STORE_INPUTS[case]
    monkeypatch.setattr(guarded, _never_called)
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text(json.dumps(
        {"kind": "header", "schema": 1, "name": "sweep",
         "fingerprint": "f" * 32, "num_jobs": 0, "spec": {}}) + "\n")
    before = legacy.read_bytes()
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, str(legacy)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    for fragment in (argv[-1], "legacy.jsonl line 1 is a non-envelope record",
                     "re-run the command that wrote this file"):
        assert fragment in err
    assert legacy.read_bytes() == before


def test_cli_help_prints_no_runtime_warning():
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.runner", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""


def test_closed_stdout_ends_quietly(tmp_path):
    """``runner store ls STORE | head -1``: no traceback, exit status 1.

    The listing (~200 kB) outgrows the pipe and both stdio buffers, so the
    runner is still writing when the reader leaves after one line.
    """
    path = tmp_path / "big.jsonl"
    ArtifactStore(path).open_for_append().put_many(
        StoreRecord(kind="payload", key=f"p{index:05d}", schema=6, body={})
        for index in range(3000))
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.runner", "store", "ls",
         str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = process.stdout.readline()
    process.stdout.close()
    stderr = process.communicate(timeout=60)[1].decode()
    assert first.startswith(b"payload"), first
    assert "Traceback" not in stderr, stderr
    assert "BrokenPipeError" not in stderr, stderr
    assert process.returncode == 1
