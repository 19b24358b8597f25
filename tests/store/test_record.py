"""Tests for the store record envelope and the content-key scheme."""

import json

import pytest

from repro.store import (CAMPAIGN_BODY_SCHEMA, KEY_BYTES, StoreRecord,
                         campaign_header_record, campaign_job_record,
                         canonical_json, content_key, is_store_record,
                         payload_key, payload_record)


class TestContentKey:
    def test_key_is_hex_of_fixed_length(self):
        key = content_key({"design": "rrot", "config": {"m": 8}})
        assert len(key) == KEY_BYTES * 2
        int(key, 16)  # raises if not hex

    def test_key_is_insertion_order_independent(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_key_is_value_sensitive(self):
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_matches_campaign_job_id_scheme(self):
        """Store keys use the exact digest scheme campaign job ids use."""
        import hashlib

        payload = {"design": "rrot", "config": {"clock_period_ps": 1000}}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()[:32]
        assert content_key(payload) == expected

    def test_canonical_json_has_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})


class TestStoreRecord:
    def test_round_trips_through_dict_and_line(self):
        record = StoreRecord(kind="payload", key=content_key({"x": 1}),
                             schema=3, body={"x": 1})
        assert StoreRecord.from_dict(record.to_dict()) == record
        assert StoreRecord.from_dict(json.loads(record.to_line())) == record

    def test_timestamp_rides_on_the_envelope_but_not_identity(self):
        plain = StoreRecord(kind="payload", key="ab", schema=1, body={})
        stamped = StoreRecord(kind="payload", key="ab", schema=1, body={},
                              t=123.5)
        assert "t" not in plain.to_dict()
        assert stamped.to_dict()["t"] == 123.5
        assert plain.identity == stamped.identity

    def test_from_dict_rejects_malformed_envelopes(self):
        with pytest.raises(ValueError, match="not a store record"):
            StoreRecord.from_dict({"kind": "payload", "key": "ab"})

    @pytest.mark.parametrize("envelope", [
        None,
        [],
        {"kind": "payload", "key": "ab", "schema": 1},        # no body
        {"kind": "payload", "key": "", "schema": 1, "body": {}},
        {"kind": "", "key": "ab", "schema": 1, "body": {}},
        {"kind": "payload", "key": "ab", "schema": "1", "body": {}},
        {"kind": "header", "fingerprint": "ab"},              # legacy campaign
        {"key": "ab", "backend": "x", "name": "n"},           # legacy cache
    ])
    def test_is_store_record_rejects(self, envelope):
        assert not is_store_record(envelope)

    def test_is_store_record_accepts_unknown_kinds(self):
        """The store is kind-agnostic; STORE_KINDS is documentation."""
        assert is_store_record({"kind": "future-kind", "key": "ab",
                                "schema": 9, "body": {"v": 1}})


class TestRecordBuilders:
    """Kinds, keys, schemas and bodies of the records the entry points write.

    The pinned digests and lines are what earlier builds wrote; a change
    here orphans every record already on disk.
    """

    ENVELOPE = {"schema": 9, "experiment": "table1", "quick": True,
                "elapsed_s": 1.0, "data": {"rows": [{"benchmark": "rrot"}]}}

    def test_body_schemas_are_pinned(self):
        assert CAMPAIGN_BODY_SCHEMA == 3

    def test_campaign_header_record_is_keyed_by_fingerprint(self):
        body = {"name": "sweep", "fingerprint": "f" * 32, "num_jobs": 2,
                "spec": {"name": "sweep"}}
        record = campaign_header_record(body)
        assert record.to_line() == (
            '{"kind": "campaign-header", "key": "' + "f" * 32 + '", '
            '"schema": 3, "body": {"name": "sweep", "fingerprint": "'
            + "f" * 32 + '", "num_jobs": 2, "spec": {"name": "sweep"}}}\n')

    def test_campaign_job_record_is_keyed_by_job_id(self):
        body = {"design": "rrot", "result": {"final": {"registers": 9}},
                "runtime_s": 0.5}
        record = campaign_job_record("a" * 32, body)
        assert record.identity == ("campaign-job", "a" * 32)
        assert record.schema == CAMPAIGN_BODY_SCHEMA
        assert record.body is body

    def test_payload_key_covers_only_experiment_and_data(self):
        key = payload_key(self.ENVELOPE)
        assert key == "517fd311c3ddec292a1926ff55c787a2"
        rerun = dict(self.ENVELOPE, quick=False, elapsed_s=9.0, schema=3)
        assert payload_key(rerun) == key
        changed = dict(self.ENVELOPE, data={"rows": []})
        assert payload_key(changed) != key

    def test_payload_record_takes_its_schema_from_the_envelope(self):
        record = payload_record(self.ENVELOPE)
        assert record.identity == ("payload", payload_key(self.ENVELOPE))
        assert record.schema == 9
        assert record.body == self.ENVELOPE
        unversioned = {"experiment": "fig5", "data": {}}
        assert payload_record(unversioned).schema == 0
