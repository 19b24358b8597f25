"""Tests for the JSONL run store: checkpointing, resume, corruption handling."""

import json

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunStore, StoreMismatchError
from repro.store import StoreFormatError


def _spec(**overrides):
    defaults = dict(name="store-test", designs=["rrot"],
                    extraction=["fanout", "delay"], subgraph_counts=[4, 8],
                    max_iterations=2, backend="estimator",
                    use_characterized_delays=False)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _fake_result(job):
    return {"design": job.design, "final": {"registers": 10 + job.index}}


def test_fresh_store_writes_header(tmp_path):
    spec = _spec()
    store = RunStore(tmp_path / "run.jsonl")
    store.open(spec)
    header = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[0])
    assert header["kind"] == "campaign-header"
    assert header["key"] == spec.fingerprint()
    assert header["body"]["fingerprint"] == spec.fingerprint()
    assert header["body"]["num_jobs"] == len(spec.jobs())


def _legacy_store_file(path, spec, jobs_with_results):
    """Write a pre-unification schema-1 run store file."""
    lines = [json.dumps({
        "kind": "header", "schema": 1, "name": spec.name,
        "fingerprint": spec.fingerprint(), "num_jobs": len(spec.jobs()),
        "spec": spec.to_dict()})]
    for job, result in jobs_with_results:
        lines.append(json.dumps({
            "kind": "job", "job_id": job.job_id, "design": job.design,
            "result": result, "runtime_s": 0.25}))
    path.write_text("\n".join(lines) + "\n")


def _refused_unchanged(path, load):
    """``load(path)`` raises the typed format error and leaves ``path`` as-is."""
    before = path.read_bytes()
    with pytest.raises(StoreFormatError,
                       match=r"line 1 is a non-envelope record.*re-run"):
        load(path)
    assert path.read_bytes() == before


def test_schema1_store_is_refused_by_load(tmp_path):
    spec = _spec()
    path = tmp_path / "legacy.jsonl"
    jobs = spec.jobs()
    _legacy_store_file(path, spec, [(job, _fake_result(job))
                                    for job in jobs[:2]])
    _refused_unchanged(path, RunStore.load)


def test_schema1_store_is_refused_on_resume(tmp_path):
    spec = _spec()
    path = tmp_path / "legacy.jsonl"
    jobs = spec.jobs()
    _legacy_store_file(path, spec, [(job, _fake_result(job))
                                    for job in jobs[:2]])
    _refused_unchanged(path, lambda p: RunStore(p).open(spec, resume=True))


def test_format_error_is_not_a_campaign_mismatch(tmp_path):
    path = tmp_path / "legacy.jsonl"
    _legacy_store_file(path, _spec(), [])
    with pytest.raises(StoreFormatError) as excinfo:
        RunStore(path).open(_spec(max_iterations=3), resume=True)
    assert not isinstance(excinfo.value, StoreMismatchError)
    assert isinstance(excinfo.value, ValueError)


def test_final_payload_survives_compaction(tmp_path):
    from repro.store import ArtifactStore

    spec = _spec()
    path = tmp_path / "run.jsonl"
    store = RunStore(path)
    store.open(spec)
    jobs = spec.jobs()
    for job in jobs:
        store.record(job, _fake_result(job), runtime_s=0.5)
    # Duplicate a checkpoint (a resumed worker re-recording) to give the
    # compactor something to drop.
    store.record(jobs[0], _fake_result(jobs[0]), runtime_s=0.9)
    payload = store.final_payload(spec)

    compactor = ArtifactStore(path).open_for_append()
    report = compactor.compact()
    assert report.dropped == 1

    resumed = RunStore(path)
    resumed.open(spec, resume=True)
    assert resumed.missing(spec) == []
    assert json.dumps(resumed.final_payload(spec), sort_keys=True) == \
        json.dumps(payload, sort_keys=True)


def test_records_append_and_reload(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    store = RunStore(path)
    store.open(spec)
    jobs = spec.jobs()
    for job in jobs[:2]:
        store.record(job, _fake_result(job), runtime_s=0.5)

    resumed = RunStore(path)
    resumed.open(spec, resume=True)
    assert resumed.completed == {jobs[0].job_id, jobs[1].job_id}
    assert resumed.missing(spec) == jobs[2:]
    assert resumed.results[jobs[0].job_id]["result"] == _fake_result(jobs[0])


def test_existing_store_refused_without_resume(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    RunStore(path).open(spec)
    with pytest.raises(FileExistsError):
        RunStore(path).open(spec)


def test_resume_rejects_a_different_campaign(tmp_path):
    path = tmp_path / "run.jsonl"
    RunStore(path).open(_spec())
    with pytest.raises(StoreMismatchError):
        RunStore(path).open(_spec(max_iterations=3), resume=True)


def test_corrupted_trailing_line_is_truncated(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    store = RunStore(path)
    store.open(spec)
    jobs = spec.jobs()
    for job in jobs[:3]:
        store.record(job, _fake_result(job), runtime_s=0.1)

    # A kill mid-append leaves a torn final line without a newline.
    with path.open("a") as handle:
        handle.write('{"kind": "job", "job_id": "torn')

    resumed = RunStore(path)
    resumed.open(spec, resume=True)
    assert resumed.completed == {job.job_id for job in jobs[:3]}
    # The torn bytes are gone, so future appends start on a clean boundary.
    assert not path.read_text().rstrip("\n").splitlines()[-1].startswith(
        '{"kind": "job", "job_id": "torn')
    resumed.record(jobs[3], _fake_result(jobs[3]), runtime_s=0.1)
    reread = RunStore(path)
    reread.open(spec, resume=True)
    assert reread.completed == {job.job_id for job in jobs}


def test_corrupt_final_line_with_newline_is_also_dropped(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    store = RunStore(path)
    store.open(spec)
    jobs = spec.jobs()
    store.record(jobs[0], _fake_result(jobs[0]), runtime_s=0.1)
    with path.open("a") as handle:
        handle.write("{broken json}\n")
    resumed = RunStore(path)
    resumed.open(spec, resume=True)
    assert resumed.completed == {jobs[0].job_id}


def test_corruption_before_the_tail_is_an_error(tmp_path):
    spec = _spec()
    path = tmp_path / "run.jsonl"
    store = RunStore(path)
    store.open(spec)
    jobs = spec.jobs()
    store.record(jobs[0], _fake_result(jobs[0]), runtime_s=0.1)
    lines = path.read_text().splitlines()
    lines.insert(1, "{garbage in the middle}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt at line"):
        RunStore(path).open(spec, resume=True)


def test_final_payload_is_ordered_and_wall_clock_free(tmp_path):
    spec = _spec()
    store = RunStore(tmp_path / "run.jsonl")
    store.open(spec)
    jobs = spec.jobs()
    # Record in reverse completion order; the payload must follow spec order.
    for job in reversed(jobs):
        store.record(job, _fake_result(job), runtime_s=123.0)
    payload = store.final_payload(spec)
    assert [entry["job_id"] for entry in payload["jobs"]] == \
        [job.job_id for job in jobs]
    assert "runtime_s" not in json.dumps(payload)


def test_final_payload_requires_completion(tmp_path):
    spec = _spec()
    store = RunStore(tmp_path / "run.jsonl")
    store.open(spec)
    with pytest.raises(KeyError):
        store.final_payload(spec)


def test_in_memory_store_supports_the_full_protocol():
    spec = _spec()
    store = RunStore()
    store.open(spec)
    for job in spec.jobs():
        store.record(job, _fake_result(job), runtime_s=0.0)
    assert store.final_payload(spec)["num_jobs"] == len(spec.jobs())
