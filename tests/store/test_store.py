"""Tests for the ArtifactStore: appends, compaction, GC, verify."""

import json

import pytest

from repro.store import ArtifactStore, GcPolicy, StoreFormatError, StoreRecord


def _record(kind="payload", key="k1", schema=1, body=None, t=None):
    return StoreRecord(kind=kind, key=key, schema=schema,
                       body=body if body is not None else {"v": key}, t=t)


class TestPutAndGet:
    def test_put_appends_one_envelope_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ArtifactStore(path).open_for_append()
        store.put(_record(key="a"))
        store.put(_record(key="b"))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["key"] for line in lines] == ["a", "b"]
        assert all(set(line) == {"kind", "key", "schema", "body"}
                   for line in lines)

    def test_last_record_wins_per_identity(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl").open_for_append()
        store.put(_record(key="a", body={"v": 1}))
        store.put(_record(key="a", body={"v": 2}))
        assert len(store) == 1
        assert store.get("payload", "a").body == {"v": 2}
        reloaded = ArtifactStore.load(store.path)
        assert reloaded.get("payload", "a").body == {"v": 2}

    def test_kinds_are_distinct_key_spaces(self):
        store = ArtifactStore()
        store.put(_record(kind="payload", key="a"))
        store.put(_record(kind="dse-probe", key="a"))
        assert len(store) == 2
        assert ("payload", "a") in store and ("dse-probe", "a") in store
        assert [r.kind for r in store.kind("dse-probe")] == ["dse-probe"]
        assert store.kinds() == {"payload": 1, "dse-probe": 1}

    def test_in_memory_store_supports_the_protocol(self):
        store = ArtifactStore()
        assert store.put_many([_record(key="a"), _record(key="b")]) == 2
        assert store.get("payload", "a") is not None
        assert store.compact().num_records == 2


class TestCrashTolerance:
    def test_open_for_append_truncates_the_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ArtifactStore(path).open_for_append().put(_record(key="a"))
        with path.open("a") as handle:
            handle.write('{"kind": "payload", "key": "to')
        store = ArtifactStore(path).open_for_append()
        assert len(store) == 1
        assert path.read_text().endswith("}\n")
        store.put(_record(key="b"))
        assert len(ArtifactStore.load(path)) == 2

    def test_load_is_read_only_even_with_a_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ArtifactStore(path).open_for_append().put(_record(key="a"))
        with path.open("a") as handle:
            handle.write('{"torn')
        before = path.read_bytes()
        assert len(ArtifactStore.load(path)) == 1
        assert path.read_bytes() == before

    def test_strict_load_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{broken}\n' + _record(key="a").to_line())
        with pytest.raises(ValueError, match="corrupt at line"):
            ArtifactStore.load(path)

    def test_strict_load_raises_on_non_envelope_records(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"kind": "header", "fingerprint": "legacy"}\n')
        with pytest.raises(ValueError, match="non-envelope"):
            ArtifactStore.load(path)

    def test_strict_load_names_the_first_offending_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(_record(key="a").to_line() + "\n"
                        + '{"key": "ab", "backend": "x"}\n{"foreign": 1}\n')
        with pytest.raises(StoreFormatError) as excinfo:
            ArtifactStore.load(path)
        message = str(excinfo.value)
        assert f"{path} line 3 is a non-envelope record" in message
        assert '"backend": "x"' in message
        assert "re-run the command that wrote this file" in message

    def test_tolerant_load_counts_and_skips(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('not json\n{"foreign": true}\n'
                        + _record(key="a").to_line())
        store = ArtifactStore.load(path, tolerant=True)
        assert len(store) == 1 and store.skipped_lines == 2


class TestCompaction:
    def test_compact_drops_superseded_records_atomically(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ArtifactStore(path).open_for_append()
        for version in range(5):
            store.put(_record(key="hot", body={"v": version}))
        store.put(_record(key="cold"))
        report = store.compact()
        assert report.dropped == 4
        assert report.num_records == 2
        assert report.bytes_after < report.bytes_before
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert ArtifactStore.load(path).get("payload", "hot").body == {"v": 4}

    def test_compact_preserves_first_appearance_order(self, tmp_path):
        """A campaign header appended first stays first after compaction."""
        path = tmp_path / "store.jsonl"
        store = ArtifactStore(path).open_for_append()
        store.put(_record(kind="campaign-header", key="fp"))
        store.put(_record(kind="campaign-job", key="j1"))
        store.put(_record(kind="campaign-header", key="fp", body={"v": 2}))
        store.compact()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "campaign-header"
        assert first["body"] == {"v": 2}

    def test_repeated_runs_stop_growing_the_file(self, tmp_path):
        """Compaction bounds the file: re-putting the same identities and
        compacting converges to a fixed size instead of growing forever."""
        path = tmp_path / "store.jsonl"
        sizes = []
        for _ in range(3):
            store = ArtifactStore(path).open_for_append()
            for key in ("a", "b", "c"):
                store.put(_record(key=key))
            store.compact()
            sizes.append(path.stat().st_size)
        assert sizes[0] == sizes[1] == sizes[2]


class TestGc:
    def test_age_policy_drops_old_timestamped_records(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl").open_for_append()
        store.put(_record(key="old", t=1000.0))
        store.put(_record(key="new", t=2000.0))
        store.put(_record(key="ageless"))  # no timestamp: never ages out
        report = store.gc(GcPolicy(max_age_s=500.0), now=2100.0)
        assert report.dropped == 1
        assert store.get("payload", "old") is None
        assert store.get("payload", "new") is not None
        assert store.get("payload", "ageless") is not None

    def test_size_pressure_evicts_oldest_unpinned_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl").open_for_append()
        store.put(_record(kind="campaign-header", key="fp"))
        for key in ("a", "b", "c", "d"):
            store.put(_record(key=key))
        store.gc(GcPolicy(max_records=3), now=0.0)
        assert len(store) == 3
        # The pinned header survives; the oldest payloads went first.
        assert store.get("campaign-header", "fp") is not None
        assert store.get("payload", "a") is None
        assert store.get("payload", "d") is not None

    def test_max_bytes_shrinks_the_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ArtifactStore(path).open_for_append()
        for index in range(50):
            store.put(_record(key=f"k{index:02d}"))
        budget = path.stat().st_size // 2
        store.gc(GcPolicy(max_bytes=budget), now=0.0)
        assert path.stat().st_size <= budget


class TestVerify:
    def test_verify_reports_health_without_modifying(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ArtifactStore(path).open_for_append()
        store.put(_record(key="a"))
        store.put(_record(key="a", body={"v": 2}))
        with path.open("a") as handle:
            handle.write('{"torn')
        before = path.read_bytes()
        report = ArtifactStore.load(path).verify()
        assert report.num_records == 1
        assert report.dropped == 1
        assert report.torn_tail
        assert path.read_bytes() == before

    def test_legacy_synth_eval_records_still_load(self, tmp_path):
        """Files written by the retired synthesis disk cache hold
        ``synth-eval`` records; the store accepts any kind, so they load,
        verify and compact like any other record."""
        path = tmp_path / "evals.jsonl"
        body = {"fingerprint": "fp", "backend": "SynthesisFlow,sky130",
                "name": "blk", "delay_ps": 1.0, "num_gates": 1,
                "num_gates_unoptimized": 1, "area_um2": 0.1,
                "aig_depth": None, "node_ids": [4]}
        lines = [{"kind": "synth-eval", "key": key, "schema": 1,
                  "body": body, "t": 1.0} for key in ("e1", "e2", "e1")]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = ArtifactStore.load(path)
        assert store.kinds() == {"synth-eval": 2}
        assert store.get("synth-eval", "e1").body == body
        report = store.verify()
        assert (report.num_records, report.dropped) == (2, 1)
        assert not report.torn_tail
        ArtifactStore(path).open_for_append().compact()
        assert len(path.read_text().splitlines()) == 2
