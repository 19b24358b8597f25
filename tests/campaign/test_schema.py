"""Campaign body schema 3: job configs carry no ``jobs`` or ``cache_path``.

:class:`~repro.isdc.config.IsdcConfig` lost those two fields, so every job
id (a hash of the job's config payload) changed while spec fingerprints did
not.  A schema-2 store therefore matches a current spec by fingerprint but
names none of its jobs: every reader must refuse it through the header
check instead of re-running (or mis-joining) every job.  The ``result``
bodies themselves are unchanged.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import RunStore, StoreMismatchError
from repro.campaign.spec import quick_spec
from repro.experiments.runner import main
from repro.isdc.config import IsdcConfig
from repro.report.frame import load_artifact_store

#: SHA-256 of the canonical JSON list of the ``result`` bodies of
#: ``runner campaign --quick``, in job order, as written by the last
#: schema-2 release.
QUICK_RESULTS_SHA256 = \
    "954761e2b8077f6a6ecf027af64d917966b67fe0de08d055b11a4e7639b3b90b"


def _quick_campaign(tmp_path, capsys):
    store, payload = tmp_path / "quick.jsonl", tmp_path / "quick.json"
    assert main(["campaign", "--quick", "--out", str(store),
                 "--json", str(payload)]) == 0
    capsys.readouterr()
    return store, json.loads(payload.read_text())


def _as_schema_2(store, tmp_path):
    """A copy of ``store`` whose header record claims campaign schema 2."""
    lines = store.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    assert header["kind"] == "campaign-header" and header["schema"] == 3
    header["schema"] = 2
    old = tmp_path / "schema2.jsonl"
    old.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    return old


def test_job_configs_hold_no_pool_or_disk_cache_fields():
    assert len(dataclasses.fields(IsdcConfig)) == 13
    for job in quick_spec().jobs():
        assert "jobs" not in job.config and "cache_path" not in job.config


def test_quick_result_bodies_are_unchanged(tmp_path, capsys):
    _, payload = _quick_campaign(tmp_path, capsys)
    assert payload["data"]["schema"] == 3
    results = [job["result"] for job in payload["data"]["jobs"]]
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == \
        QUICK_RESULTS_SHA256


def test_resume_refuses_a_schema_2_store(tmp_path, capsys):
    store, _ = _quick_campaign(tmp_path, capsys)
    old = _as_schema_2(store, tmp_path)
    before = old.read_bytes()
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--quick", "--out", str(old), "--resume"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "campaign schema 2, expected 3" in err
    assert old.read_bytes() == before


def test_run_store_load_refuses_a_schema_2_store(tmp_path, capsys):
    store, _ = _quick_campaign(tmp_path, capsys)
    assert len(RunStore.load(store).results) == 12
    with pytest.raises(StoreMismatchError, match="campaign schema 2"):
        RunStore.load(_as_schema_2(store, tmp_path))


def test_report_refuses_a_schema_2_store(tmp_path, capsys):
    store, _ = _quick_campaign(tmp_path, capsys)
    assert len(load_artifact_store(store).rows) == 12
    old = _as_schema_2(store, tmp_path)
    with pytest.raises(StoreMismatchError, match="campaign schema 2"):
        load_artifact_store(old)
    with pytest.raises(SystemExit) as excinfo:
        main(["report", str(old)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "campaign schema 2, expected 3" in err
