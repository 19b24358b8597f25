"""Tests of ``runner store``: dispatch and the maintenance subcommands."""

import json

import pytest

from repro.experiments.runner import main
from repro.store import ArtifactStore, StoreRecord


def _seeded_store(path, duplicates=0):
    store = ArtifactStore(path).open_for_append()
    store.put(StoreRecord(kind="campaign-header", key="f" * 32, schema=2,
                          body={"fingerprint": "f" * 32, "spec": {}}))
    store.put(StoreRecord(kind="payload", key="p1", schema=6,
                          body={"experiment": "dse"}))
    for version in range(duplicates):
        store.put(StoreRecord(kind="payload", key="p1", schema=6,
                              body={"experiment": "dse", "v": version}))
    return store


class TestDispatch:
    def test_runner_routes_the_store_subcommand(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        _seeded_store(path)
        assert main(["store", "ls", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign-header" in out and "payload" in out
        assert "2 records" in out

    def test_missing_input_is_a_clean_cli_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "verify", str(tmp_path / "nope.jsonl")])


class TestSubcommands:
    def test_ls_filters_by_kind_and_emits_json(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        _seeded_store(path)
        assert main(["store", "ls", str(path), "--kind", "payload",
                     "--json"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert lines == [{"kind": "payload", "key": "p1", "schema": 6}]

    def test_verify_reports_duplicates_and_torn_tail(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        _seeded_store(path, duplicates=2)
        with path.open("a") as handle:
            handle.write('{"kind": "payload", "key": "to')
        assert main(["store", "verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 records" in out
        assert "2 superseded duplicates" in out
        assert "torn tail: yes" in out

    def test_ls_lists_legacy_synth_eval_records(self, tmp_path, capsys):
        """A store holding the retired disk cache's records still lists."""
        path = tmp_path / "store.jsonl"
        store = _seeded_store(path)
        store.put(StoreRecord(kind="synth-eval", key="e1", schema=1,
                              body={"fingerprint": "fp"}))
        assert main(["store", "ls", str(path), "--kind", "synth-eval",
                     "--json"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert lines == [{"kind": "synth-eval", "key": "e1", "schema": 1}]

    def test_compact_drops_superseded_records(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        _seeded_store(path, duplicates=3)
        assert len(path.read_text().splitlines()) == 5
        assert main(["store", "compact", str(path)]) == 0
        assert "dropped 3 superseded records" in capsys.readouterr().out
        assert len(path.read_text().splitlines()) == 2

    def test_gc_applies_the_retention_policy(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        store = _seeded_store(path)
        for index in range(8):
            store.put(StoreRecord(kind="synth-eval", key=f"e{index}",
                                  schema=1, body={}))
        assert main(["store", "gc", str(path), "--max-records", "4"]) == 0
        out = capsys.readouterr().out
        assert "kept 4" in out
        survivors = ArtifactStore.load(path)
        assert len(survivors) == 4
        # The campaign header is pinned against size pressure.
        assert survivors.get("campaign-header", "f" * 32) is not None

    @pytest.mark.parametrize("command", ["ls", "verify", "compact", "gc"])
    def test_legacy_file_is_one_error_line_and_exit_2(self, tmp_path, capsys,
                                                      command):
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text(json.dumps(
            {"kind": "header", "schema": 1, "name": "sweep",
             "fingerprint": "f" * 32, "num_jobs": 0, "spec": {}}) + "\n")
        before = legacy.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["store", command, str(legacy)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "legacy.jsonl line 1 is a non-envelope record" in err
        assert "re-run the command that wrote this file" in err
        assert legacy.read_bytes() == before


def test_deeply_nested_record_is_one_error_line_and_exit_2(tmp_path, capsys):
    """A record nested past the JSON decoder's recursion limit is a corrupt
    line (typed ``ValueError``), not a ``RecursionError`` traceback."""
    path = tmp_path / "deep.jsonl"
    _seeded_store(path)
    deep = '{"kind": "payload", "key": "d", "schema": 1, "body": {"x": ' \
        + "[" * 100_000 + "]" * 100_000 + "}}\n"
    with path.open("a") as handle:
        handle.write(deep + json.dumps(
            {"kind": "payload", "key": "p2", "schema": 1, "body": {}}) + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["store", "ls", str(path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "is corrupt at line 3" in err
