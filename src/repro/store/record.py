"""The unified store record envelope and its content-addressed key space.

Every artefact the reproduction persists -- campaign checkpoints,
experiment payloads, DSE probes, served results -- is one JSON record with the
same four-field envelope::

    {"kind": "<kind>", "key": "<content hash>", "schema": N, "body": {...}}

``kind`` names the record family (:data:`STORE_KINDS`), ``key`` is the
content hash the record is addressed by (a campaign job id, a payload
digest, a DSE probe key or a service request key), ``schema`` versions the *body* of that kind, and
``body`` carries the artefact itself.  An optional fifth field ``t`` (epoch
seconds) may ride on the envelope for age-based garbage collection; it is
never part of the record's identity and deterministic consumers ignore it.

Keys are produced by :func:`content_key`: the first 32 hex characters of the
SHA-256 of the canonical JSON of the identifying payload -- the same scheme
campaign job ids have always used, so every key space is stable across
processes, machines and ``PYTHONHASHSEED`` values.

    >>> content_key({"design": "rrot", "config": {}})  # doctest: +ELLIPSIS
    '...'
    >>> len(content_key({"a": 1})) == KEY_BYTES * 2
    True
    >>> record = StoreRecord(kind="payload", key=content_key({"x": 1}),
    ...                      schema=1, body={"x": 1})
    >>> StoreRecord.from_dict(record.to_dict()) == record
    True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

#: Record families the store knows about.  The store itself is
#: kind-agnostic (any string is accepted); this tuple documents the kinds
#: the rest of the system reads and writes.
STORE_KINDS = (
    "campaign-header",  # one per campaign: spec + fingerprint (key = fingerprint)
    "campaign-job",     # one per completed job (key = content-addressed job id)
    "payload",          # one per runner --json payload (key = payload digest)
    "dse-probe",        # one per DSE probe outcome (key = probe key)
    "service-result",   # one per served scheduling request (key = request key)
)

#: Bytes of SHA-256 kept in a content key (hex length is twice this).
KEY_BYTES = 16


def canonical_json(payload: Any) -> str:
    """The canonical JSON form content keys are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: Any) -> str:
    """Content-addressed key of a JSON-serialisable payload.

    The first ``KEY_BYTES`` bytes (hex) of the SHA-256 of the canonical
    JSON -- independent of dict insertion order, hash seeds and platform.
    """
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return digest[:KEY_BYTES * 2]


@dataclass(frozen=True)
class StoreRecord:
    """One artefact in the unified store.

    Attributes:
        kind: record family (see :data:`STORE_KINDS`).
        key: content-addressed identity within the kind's key space.
        schema: body schema version of this kind.
        body: the artefact payload (plain JSON-serialisable data).
        t: optional epoch-seconds timestamp for age-based GC; never part
            of the record's identity.
    """

    kind: str
    key: str
    schema: int
    body: dict = field(default_factory=dict)
    t: float | None = None

    @property
    def identity(self) -> tuple[str, str]:
        """The ``(kind, key)`` pair records are addressed by."""
        return (self.kind, self.key)

    def to_dict(self) -> dict:
        """Plain-dict form (the envelope exactly as it appears on disk)."""
        envelope: dict = {"kind": self.kind, "key": self.key,
                          "schema": self.schema, "body": self.body}
        if self.t is not None:
            envelope["t"] = self.t
        return envelope

    def to_line(self) -> str:
        """One JSONL line (newline included), ready to append."""
        return json.dumps(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, envelope: dict) -> "StoreRecord":
        """Parse an envelope dict back into a record.

        Raises:
            ValueError: the dict is not a well-formed store envelope.
        """
        if not is_store_record(envelope):
            raise ValueError(
                f"not a store record envelope: {envelope!r:.120}")
        return cls(kind=envelope["kind"], key=envelope["key"],
                   schema=int(envelope["schema"]),
                   body=envelope["body"], t=envelope.get("t"))


def is_store_record(obj: Any) -> bool:
    """Whether ``obj`` is a well-formed store record envelope."""
    return (isinstance(obj, dict)
            and isinstance(obj.get("kind"), str) and bool(obj.get("kind"))
            and isinstance(obj.get("key"), str) and bool(obj.get("key"))
            and isinstance(obj.get("schema"), int)
            and isinstance(obj.get("body"), dict))


#: Body schema of campaign records written by the unified store.  Schema 3
#: job configs lost two fields of :class:`~repro.isdc.config.IsdcConfig`, so
#: job ids changed; a schema-2 store is refused on resume and load.
CAMPAIGN_BODY_SCHEMA = 3


def campaign_header_record(header_body: dict) -> StoreRecord:
    """Store record for a campaign header body (name/fingerprint/spec)."""
    return StoreRecord(kind="campaign-header",
                       key=header_body["fingerprint"],
                       schema=CAMPAIGN_BODY_SCHEMA, body=header_body)


def campaign_job_record(job_id: str, body: dict) -> StoreRecord:
    """Store record for one completed campaign job."""
    return StoreRecord(kind="campaign-job", key=job_id,
                       schema=CAMPAIGN_BODY_SCHEMA, body=body)


def payload_key(envelope: dict) -> str:
    """Content key of a runner payload (experiment name + data body)."""
    return content_key({"experiment": envelope.get("experiment"),
                        "data": envelope.get("data")})


def payload_record(envelope: dict) -> StoreRecord:
    """Store record archiving one runner ``--json`` payload envelope."""
    return StoreRecord(kind="payload", key=payload_key(envelope),
                       schema=int(envelope.get("schema", 0)), body=envelope)


__all__ = ["CAMPAIGN_BODY_SCHEMA", "KEY_BYTES", "STORE_KINDS", "StoreRecord",
           "campaign_header_record", "campaign_job_record", "canonical_json",
           "content_key", "is_store_record", "payload_key", "payload_record"]
