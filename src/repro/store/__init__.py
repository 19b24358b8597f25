"""The unified content-addressed artifact store.

One store module owns every byte the reproduction persists.  The campaign
run store, the runner ``--json`` payload archive, DSE probes and served
results are all views over one append-only JSONL file of ``(kind, key,
schema, body)`` record envelopes keyed by content hash (campaign job id,
payload digest, DSE probe key, service request key).

* :mod:`repro.store.record` -- the envelope and the content-key scheme;
* :mod:`repro.store.jsonl` -- crash-safe O_APPEND writes and the
  torn-trailing-line-tolerant parser (shared durability semantics);
* :mod:`repro.store.store` -- :class:`ArtifactStore`: last-wins key
  lookup, offline compaction (atomic rewrite-and-rename) and size/age
  GC;
* :mod:`repro.store.cli` -- the ``runner store`` subcommand
  (``ls`` / ``verify`` / ``compact`` / ``gc``).

The store is the only on-disk format any entry point reads: a strict
load that meets a line which is not a record envelope -- such as a file
written before the store existed -- raises :class:`StoreFormatError`,
and such a file is regenerated by re-running the command that wrote it.
See ``docs/file-formats.md`` for the on-disk format.
"""

from repro.store.jsonl import (append_line, append_lines, parse_jsonl_tail,
                               truncate_torn_tail)
from repro.store.lock import FileLock, LockTimeoutError
from repro.store.record import (CAMPAIGN_BODY_SCHEMA, KEY_BYTES, STORE_KINDS,
                                StoreRecord, campaign_header_record,
                                campaign_job_record, canonical_json,
                                content_key, is_store_record, payload_key,
                                payload_record)
from repro.store.store import (ArtifactStore, GcPolicy, StoreFormatError,
                               StoreReport)

__all__ = [
    "ArtifactStore",
    "CAMPAIGN_BODY_SCHEMA",
    "FileLock",
    "GcPolicy",
    "LockTimeoutError",
    "KEY_BYTES",
    "STORE_KINDS",
    "StoreFormatError",
    "StoreRecord",
    "StoreReport",
    "append_line",
    "append_lines",
    "campaign_header_record",
    "campaign_job_record",
    "canonical_json",
    "content_key",
    "is_store_record",
    "parse_jsonl_tail",
    "payload_key",
    "payload_record",
    "truncate_torn_tail",
]
