"""The committed legacy fixtures still migrate and load, byte for byte.

``tests/fixtures/legacy/`` holds one file per historical on-disk format:
a schema-1 campaign run store, a flat cache JSONL, and one runner
``--json`` payload per envelope schema 2-5.  These files are frozen --
they are what real users have on disk -- so this module is the contract
that ``runner store migrate`` plus :mod:`repro.report.frame` keep reading
them forever.  CI runs this file as the ``store-migration`` smoke job.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.store import RunStore
from repro.report.frame import (load_any, load_artifact_store,
                                load_experiment_payload, load_run_store)
from repro.store import ArtifactStore, migrate_file, sniff_format

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "legacy"
PAYLOADS = sorted(FIXTURES.glob("payload_schema*.json"))


def _freeze(path):
    return path.read_bytes()


class TestFixtureInventory:
    def test_all_formats_are_represented(self):
        assert sniff_format(FIXTURES / "campaign_v1.jsonl") == "run-store-v1"
        assert sniff_format(FIXTURES / "cache_v1.jsonl") == "cache-jsonl"
        assert [path.name for path in PAYLOADS] == [
            "payload_schema2.json", "payload_schema3.json",
            "payload_schema4.json", "payload_schema5.json"]
        for path in PAYLOADS:
            assert sniff_format(path) == "payload-json"

    def test_payload_fixtures_cover_schemas_2_to_5(self):
        schemas = [json.loads(path.read_text())["schema"] for path in PAYLOADS]
        assert schemas == [2, 3, 4, 5]


class TestCampaignFixture:
    def test_loads_read_only_through_every_entry_point(self):
        path = FIXTURES / "campaign_v1.jsonl"
        before = _freeze(path)
        store = RunStore.load(path)
        assert store.header["name"] == "fixture-sweep"
        assert len(store.results) == store.header["num_jobs"] == 4
        frame = load_any(path)
        assert len(frame.rows) == 4
        assert frame.rows[0].axes["design"] == "rrot"
        assert path.read_bytes() == before  # analysis never migrates

    def test_migrated_store_yields_a_byte_identical_frame(self, tmp_path):
        legacy = FIXTURES / "campaign_v1.jsonl"
        unified = tmp_path / "unified.jsonl"
        detected, added = migrate_file(legacy, unified)
        assert detected == "run-store-v1" and added == 5
        legacy_rows = load_run_store(legacy, source="s").rows
        migrated_rows = load_artifact_store(unified, source="s").rows
        assert migrated_rows == legacy_rows

    def test_final_payload_survives_migration_and_compaction(self, tmp_path):
        legacy = FIXTURES / "campaign_v1.jsonl"
        unified = tmp_path / "unified.jsonl"
        migrate_file(legacy, unified)

        def loaded(path):
            store = RunStore.load(path)
            return json.dumps([store.header, store.results], sort_keys=True)

        want = loaded(legacy)
        assert loaded(unified) == want
        ArtifactStore(unified).open_for_append().compact()
        assert loaded(unified) == want


class TestCacheFixture:
    def test_migrates_to_synth_eval_records(self, tmp_path):
        from repro.store import synth_eval_key

        legacy = FIXTURES / "cache_v1.jsonl"
        before = _freeze(legacy)
        unified = tmp_path / "unified.jsonl"
        detected, added = migrate_file(legacy, unified)
        assert detected == "cache-jsonl" and added == 3
        store = ArtifactStore.load(unified)
        assert store.kinds() == {"synth-eval": 3}
        for record in store.kind("synth-eval"):
            assert record.key == synth_eval_key(record.body["backend"],
                                                record.body["fingerprint"])
        assert legacy.read_bytes() == before

    def test_legacy_records_never_match_explicit_signatures(self, tmp_path):
        # Legacy attribute-probed signatures are invalidated by design: the
        # explicit signature() family tags never collide with them, so a
        # migrated cache entry is a clean miss, not a wrong answer.
        from repro.synth.flow import SynthesisFlow

        legacy = json.loads(
            (FIXTURES / "cache_v1.jsonl").read_text().splitlines()[0])
        assert not legacy["backend"].startswith("SynthesisFlow(")
        assert SynthesisFlow().signature().startswith("SynthesisFlow(")


class TestPayloadFixtures:
    @pytest.mark.parametrize("path", PAYLOADS, ids=lambda p: p.stem)
    def test_loads_directly_and_through_the_migrated_store(self, path,
                                                           tmp_path):
        before = _freeze(path)
        direct = load_experiment_payload(path, source="s").rows
        assert direct, f"{path.name} produced no rows"
        unified = tmp_path / "unified.jsonl"
        detected, added = migrate_file(path, unified)
        assert detected == "payload-json" and added == 1
        migrated = load_artifact_store(unified, source="s").rows
        assert migrated == direct
        assert path.read_bytes() == before


class TestFoldedStore:
    def test_all_fixtures_fold_into_one_store_and_load(self, tmp_path):
        unified = tmp_path / "unified.jsonl"
        sources = [FIXTURES / "campaign_v1.jsonl",
                   FIXTURES / "cache_v1.jsonl", *PAYLOADS]
        for source in sources:
            migrate_file(source, unified)
        store = ArtifactStore.load(unified)
        assert store.kinds() == {"campaign-header": 1, "campaign-job": 4,
                                 "synth-eval": 3, "payload": 4}
        frame = load_any(unified)
        # 4 campaign jobs + 4 payload-campaign jobs (same ids, both kept as
        # rows) + 1 + 1 table1 rows + 1 dse row.
        assert len(frame.rows) == 11
        designs = {row.axes.get("design") for row in frame.rows}
        assert {"rrot", "crc32"} <= designs

    def test_folding_twice_changes_nothing(self, tmp_path):
        unified = tmp_path / "unified.jsonl"
        for _ in range(2):
            for source in (FIXTURES / "campaign_v1.jsonl",
                           FIXTURES / "cache_v1.jsonl", *PAYLOADS):
                migrate_file(source, unified)
        store = ArtifactStore.load(unified)
        assert len(store) == 12
