"""The committed runner ``--json`` payload fixtures still load, byte for byte.

``tests/fixtures/legacy/`` holds one runner ``--json`` payload per
envelope schema 2-5.  These files are frozen: the report frame reads old
payloads through the same field-tolerant code as new ones, and this module
is the contract that it keeps doing so without modifying them.
"""

import json
from pathlib import Path

import pytest

from repro.report.frame import (load_any, load_artifact_store,
                                load_experiment_payload)
from repro.store import ArtifactStore, payload_record

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "legacy"
PAYLOADS = sorted(FIXTURES.glob("payload_schema*.json"))


class TestFixtureInventory:
    def test_payload_fixtures_cover_schemas_2_to_5(self):
        assert [path.name for path in PAYLOADS] == [
            "payload_schema2.json", "payload_schema3.json",
            "payload_schema4.json", "payload_schema5.json"]
        schemas = [json.loads(path.read_text())["schema"] for path in PAYLOADS]
        assert schemas == [2, 3, 4, 5]


class TestPayloadFixtures:
    @pytest.mark.parametrize("path", PAYLOADS, ids=lambda p: p.stem)
    def test_loads_directly(self, path):
        before = path.read_bytes()
        rows = load_experiment_payload(path, source="s").rows
        assert rows, f"{path.name} produced no rows"
        assert path.read_bytes() == before

    @pytest.mark.parametrize("path", PAYLOADS, ids=lambda p: p.stem)
    def test_loads_through_a_unified_store(self, path, tmp_path):
        before = path.read_bytes()
        direct = load_experiment_payload(path, source="s").rows
        unified = tmp_path / "unified.jsonl"
        ArtifactStore(unified).open_for_append().put(
            payload_record(json.loads(before)))
        assert load_artifact_store(unified, source="s").rows == direct
        assert load_any(unified, source="s").rows == direct
        assert path.read_bytes() == before

    def test_all_payloads_share_one_store(self, tmp_path):
        unified = tmp_path / "unified.jsonl"
        store = ArtifactStore(unified).open_for_append()
        for _ in range(2):
            for path in PAYLOADS:
                store.put(payload_record(json.loads(path.read_text())))
        store.compact()
        loaded = ArtifactStore.load(unified)
        assert loaded.kinds() == {"payload": len(PAYLOADS)}
        direct = [row for path in PAYLOADS
                  for row in load_experiment_payload(path, source="s").rows]
        rows = load_any(unified, source="s").rows
        assert sorted(map(repr, rows)) == sorted(map(repr, direct))
