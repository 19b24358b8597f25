"""The campaign run store: a typed view over the unified artifact store.

On disk a campaign is a set of unified store records
(:mod:`repro.store`): one ``campaign-header`` record (key = the spec's
fingerprint) and one ``campaign-job`` record per completed job (key = the
content-addressed job id)::

    {"kind": "campaign-header", "key": "<fingerprint>", "schema": 3,
     "body": {"name": ..., "fingerprint": ..., "num_jobs": N, "spec": {...}}}
    {"kind": "campaign-job", "key": "<job id>", "schema": 3,
     "body": {"design": ..., "result": {...}, "runtime_s": ...}}

The store is the campaign's durability layer: the executor appends (and
flushes) a record the moment a job completes, so killing a sweep loses at
most the jobs in flight.  On resume the header's spec fingerprint must match
the requested spec -- a store can never silently satisfy a *different*
campaign -- and already-recorded job ids are skipped.  Because job ids are
content hashes of ``(design, config)``, a store file may safely hold other
record kinds (cache entries, payloads) alongside a campaign; the view only
reads its own kinds.

A kill can leave a torn final line (no trailing newline, or half-written
JSON).  Loading tolerates exactly that -- the shared parser lives in
:mod:`repro.store.jsonl` -- a corrupt *trailing* line is truncated away
(its job simply re-runs) while corruption anywhere earlier is an error.
Every read goes through :class:`~repro.store.ArtifactStore`, so a file
that is not a unified store -- such as a run store written before the
store existed -- is refused with :class:`~repro.store.StoreFormatError`
and left untouched; re-run the campaign to regenerate it.

Everything in the ``result`` payload is deterministic (no wall-clock
fields); per-job ``runtime_s`` lives beside it and never enters
:meth:`RunStore.final_payload`, so two stores of the same campaign --
interrupted-and-resumed or not, before or after ``runner store compact``,
under any ``PYTHONHASHSEED`` -- agree byte for byte on the final payload.

An in-memory store (``path=None``) exercises the same record/export
machinery without touching disk::

    >>> from repro.campaign.spec import CampaignSpec
    >>> spec = CampaignSpec(name="demo", designs=["rrot"],
    ...                     subgraph_counts=[4], max_iterations=2,
    ...                     backend="estimator",
    ...                     use_characterized_delays=False)
    >>> store = RunStore()                  # in-memory: no durability
    >>> store.open(spec)
    >>> job = spec.jobs()[0]
    >>> store.record(job, {"final": {"registers": 9}}, runtime_s=0.1)
    >>> store.completed == {job.job_id}
    True
    >>> store.missing(spec)
    []
    >>> store.final_payload(spec)["jobs"][0]["result"]
    {'final': {'registers': 9}}

For *analysis* of a finished (or interrupted) store -- where the spec is
whatever the file says it is -- use :meth:`RunStore.load`, which reads any
campaign's store without demanding a matching spec.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.store import (CAMPAIGN_BODY_SCHEMA, ArtifactStore,
                         campaign_header_record, campaign_job_record)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.campaign.spec import CampaignJob, CampaignSpec

#: Campaign body schema in the unified store.
STORE_SCHEMA_VERSION = CAMPAIGN_BODY_SCHEMA


class StoreMismatchError(ValueError):
    """The store on disk belongs to a different campaign or schema."""


class RunStore:
    """Checkpointed results of one campaign, keyed by job id.

    Args:
        path: store file backing the campaign; ``None`` keeps everything
            in memory (no durability, useful for API runs and tests).

    Attributes:
        path: the backing file (or ``None``).
        results: job id -> job body (``design``, ``result``, ``runtime_s``).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.results: dict[str, dict] = {}
        self._header: dict | None = None
        self._store: ArtifactStore | None = None

    # ------------------------------------------------------------- lifecycle

    def open(self, spec: "CampaignSpec", resume: bool = False,
             jobs: "list[CampaignJob] | None" = None) -> None:
        """Bind the store to ``spec``, loading checkpoints when resuming.

        Args:
            spec: the campaign about to run.
            resume: load an existing file instead of refusing to overwrite.
            jobs: the spec's expanded job list, if the caller already has it
                (saves re-expanding the cross product).

        Raises:
            FileExistsError: the file exists and ``resume`` is false.
            StoreMismatchError: the file's header disagrees with ``spec``.
            StoreFormatError: the file is not a unified store.
            ValueError: the file is corrupt before its final line.
        """
        self._header = {
            "name": spec.name,
            "fingerprint": spec.fingerprint(),
            "num_jobs": len(spec.jobs() if jobs is None else jobs),
            "spec": spec.to_dict(),
        }
        if self.path is None:
            return
        self._store = ArtifactStore(self.path)
        if self.path.exists() and self.path.stat().st_size > 0:
            if not resume:
                raise FileExistsError(
                    f"run store {self.path} already exists; pass resume=True "
                    "(--resume) to continue it or choose another path")
            self._load()
        else:
            self._store.open_for_append()
            self._store.put(campaign_header_record(self._header))

    def _load(self) -> None:
        store = self._store.open_for_append()
        header = self._find_header(store, self.path)
        if header.get("fingerprint") != self._header["fingerprint"]:
            raise StoreMismatchError(
                f"run store {self.path} belongs to campaign "
                f"{header.get('name')!r} (fingerprint "
                f"{header.get('fingerprint')!r}); it cannot resume this one")
        for record in store.kind("campaign-job"):
            self.results[record.key] = record.body

    def _find_header(self, store: ArtifactStore, path: Path) -> dict:
        """Pick this campaign's header record, validating its schema.

        The header under the requested spec's fingerprint wins (a shared
        store may hold several campaigns); with no bound spec -- or no
        exact match -- the first header in the file is returned so the
        mismatch error can name the foreign campaign.

        Raises:
            StoreMismatchError: no header record, or a foreign schema.
        """
        wanted = (self._header or {}).get("fingerprint")
        if wanted is not None:
            exact = store.get("campaign-header", wanted)
            if exact is not None:
                return self.validated_header(exact, path)
        for record in store.kind("campaign-header"):
            return self.validated_header(record, path)
        raise StoreMismatchError(f"run store {path} has no campaign header")

    @staticmethod
    def validated_header(record, path: Path) -> dict:
        """The body of a ``campaign-header`` record of the current schema.

        Job ids hash each job's config, so a store of another schema names
        its jobs differently: resuming it would silently re-run every job,
        and reading it would join no job to its spec.

        Raises:
            StoreMismatchError: the header has a foreign campaign schema.
        """
        if record.schema != STORE_SCHEMA_VERSION:
            raise StoreMismatchError(
                f"run store {path} has campaign schema {record.schema}, "
                f"expected {STORE_SCHEMA_VERSION}")
        return record.body

    # ------------------------------------------------------------- analysis

    @classmethod
    def load(cls, path: str | Path) -> "RunStore":
        """Open an existing store read-only, for analysis.

        Unlike :meth:`open`, no spec is required: the header on disk *is*
        the campaign identity, so any store -- finished, interrupted, even
        one with a torn trailing line -- loads as-is (the file is never
        modified; a torn tail is simply ignored).  This is the entry point
        the report engine (:mod:`repro.report`) uses.

        Raises:
            FileNotFoundError: no file at ``path``.
            StoreMismatchError: the file has no campaign header or a
                foreign campaign schema.
            StoreFormatError: the file is not a unified store.
            ValueError: the file is corrupt before its final line.
        """
        store = cls(path)
        artifacts = ArtifactStore.load(store.path)
        store._header = store._find_header(artifacts, store.path)
        for record in artifacts.kind("campaign-job"):
            store.results[record.key] = record.body
        return store

    @property
    def header(self) -> dict | None:
        """The campaign header (name, fingerprint, job count, full spec)."""
        return self._header

    # --------------------------------------------------------------- records

    def record(self, job: "CampaignJob", result: dict,
               runtime_s: float) -> None:
        """Checkpoint one completed job (appended and flushed immediately)."""
        body = {
            "design": job.design,
            "result": result,
            "runtime_s": runtime_s,
        }
        self.results[job.job_id] = body
        if self._store is not None:
            self._store.put(campaign_job_record(job.job_id, body))

    @property
    def completed(self) -> set[str]:
        """Ids of all checkpointed jobs."""
        return set(self.results)

    def missing(self, spec: "CampaignSpec",
                jobs: "list[CampaignJob] | None" = None) -> list["CampaignJob"]:
        """The spec's jobs that have no checkpoint yet, in canonical order."""
        jobs = spec.jobs() if jobs is None else jobs
        return [job for job in jobs if job.job_id not in self.results]

    # ---------------------------------------------------------------- export

    def final_payload(self, spec: "CampaignSpec",
                      jobs: "list[CampaignJob] | None" = None) -> dict:
        """Deterministic summary of the whole campaign.

        Jobs appear in the spec's canonical order with their deterministic
        ``result`` payloads only -- no wall-clock fields -- so the payload is
        byte-identical across runs, resumes, compactions and
        ``PYTHONHASHSEED`` values.

        Raises:
            KeyError: if any job of the spec has not completed yet.
        """
        entries = []
        for job in (spec.jobs() if jobs is None else jobs):
            record = self.results[job.job_id]
            entries.append({
                "job_id": job.job_id,
                "design": job.design,
                "config": job.config,
                "result": record["result"],
            })
        return {
            "schema": STORE_SCHEMA_VERSION,
            "name": spec.name,
            "fingerprint": spec.fingerprint(),
            "num_jobs": len(entries),
            "jobs": entries,
        }


__all__ = ["RunStore", "StoreMismatchError", "STORE_SCHEMA_VERSION"]
