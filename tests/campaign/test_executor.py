"""Tests for the campaign executor: sharding, checkpointing, resume parity."""

import json

from repro.campaign import RunStore, quick_spec, run_campaign
from repro.campaign.spec import CampaignSpec


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _spec():
    return CampaignSpec(
        name="exec-test",
        designs=["gen:seed=0,depth=4,width=3,fanout=2,bits=16,inputs=3,clock=2500",
                 "gen:seed=1,depth=4,width=3,fanout=2,bits=16,inputs=3,clock=2500",
                 "rrot"],
        extraction=["fanout", "delay"],
        subgraph_counts=[4, 8],
        max_iterations=2,
        backend="estimator",
        use_characterized_delays=False,
    )


def test_quick_campaign_completes_with_store(tmp_path):
    spec = _spec()
    result = run_campaign(spec, RunStore(tmp_path / "run.jsonl"))
    assert result.executed == 12 and result.skipped == 0
    assert result.payload["num_jobs"] == 12
    for entry in result.payload["jobs"]:
        outcome = entry["result"]
        assert outcome["final"]["registers"] <= outcome["initial"]["registers"]
        assert outcome["schedule"]  # serialized final schedule present
        assert len(outcome["registers_by_iteration"]) == \
            outcome["iterations"] + 1


def test_interrupted_campaign_resumes_and_matches(tmp_path):
    spec = _spec()
    reference = run_campaign(spec, RunStore(tmp_path / "ref.jsonl"))

    # Simulate a kill after 4 completed jobs: header + 4 records survive.
    path = tmp_path / "killed.jsonl"
    full = (tmp_path / "ref.jsonl").read_text().splitlines()
    path.write_text("\n".join(full[:5]) + "\n")

    resumed = run_campaign(spec, RunStore(path), resume=True)
    assert resumed.skipped == 4
    assert resumed.executed == 8
    assert _canonical(resumed.payload) == _canonical(reference.payload)


def test_parallel_execution_matches_serial(tmp_path):
    spec = _spec()
    serial = run_campaign(spec, RunStore(tmp_path / "serial.jsonl"))
    parallel = run_campaign(spec, RunStore(tmp_path / "parallel.jsonl"), jobs=4)
    assert _canonical(serial.payload) == _canonical(parallel.payload)


def test_in_memory_run_without_store():
    result = run_campaign(quick_spec(num_designs=1))
    assert result.payload["num_jobs"] == 4


def test_completed_store_skips_everything(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    first = run_campaign(spec, RunStore(path))
    again = run_campaign(spec, RunStore(path), resume=True)
    assert again.executed == 0
    assert again.skipped == 12
    assert _canonical(again.payload) == _canonical(first.payload)
