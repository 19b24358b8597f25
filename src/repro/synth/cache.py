"""Memoisation of subgraph synthesis evaluations.

Subgraph evaluation dominates ISDC runtime (the paper reports a 40x runtime
multiplier), and identical subgraphs recur across iterations once the schedule
stabilises.  The cache keys on a *structural fingerprint* of the induced
subgraph (op kinds, widths, attributes, edges and boundary -- see
:mod:`repro.synth.fingerprint`), so a hit is guaranteed to be a structurally
identical block even across distinct graphs, distinct node ids, or graphs
that happen to share a name.

An optional on-disk layer makes repeated experiment runs warm: pass
``disk_path`` (or a shared :class:`~repro.store.ArtifactStore` via ``store``)
and every fresh evaluation is persisted as a ``synth-eval`` artifact-store
record, every future cache construction pre-loads matching records.  Records
are scoped by the backend's configuration signature
(:func:`backend_signature`): an estimator's guesses are never served as STA
numbers and two differently-characterised libraries never share records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.ir.graph import DataflowGraph
from repro.store import (SYNTH_EVAL_BODY_SCHEMA, ArtifactStore, StoreRecord,
                         synth_eval_key)
from repro.synth.backend import FlowBackend
from repro.synth.fingerprint import subgraph_fingerprint
from repro.synth.report import SynthesisReport
from repro.tech.library import TechLibrary


def backend_signature(backend: FlowBackend) -> str:
    """Configuration signature of a backend, for persisted-record scoping.

    Reports persisted by one backend configuration must never be served to a
    differently-configured one, so every disk record carries this signature
    and mismatching records are skipped on load.  Backends declare it via
    :meth:`~repro.synth.backend.FlowBackend.signature`, which covers
    everything that changes reported numbers -- including the *content*
    identity of the technology library / delay model.
    """
    return backend.signature()


@dataclass
class CacheStatistics:
    """Hit/miss counters of an :class:`EvaluationCache`.

    A *miss* is any lookup the in-memory layer could not answer.  Misses
    split into ``disk_hits`` (answered by a disk-warmed record, no synthesis
    run) and ``synth_runs`` (forwarded to the backend); ``misses ==
    disk_hits + synth_runs`` always holds.  Consumers reporting "distinct
    subgraphs synthesised" must read ``synth_runs``, not ``misses``.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    synth_runs: int = 0
    disk_loaded: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class EvaluationCache:
    """Caches :class:`SynthesisReport` objects per structural fingerprint.

    Args:
        backend: the downstream flow used on cache misses; anything
            satisfying :class:`~repro.synth.backend.FlowBackend` (including a
            plain :class:`~repro.synth.flow.SynthesisFlow`).
        disk_path: optional path to an artifact-store file.  Existing
            ``synth-eval`` records under this backend's signature are
            pre-loaded; fresh evaluations are appended.  The file is opened
            tolerantly: corrupt or foreign-format lines degrade to a cold
            cache, never to a failed run.
        store: an already-open :class:`~repro.store.ArtifactStore` to share
            (e.g. one file holding campaign records and evaluations);
            mutually exclusive with ``disk_path``.

    Attributes:
        backend: the wrapped flow backend.
        stats: hit/miss counters.
    """

    def __init__(self, backend, disk_path: str | Path | None = None,
                 store: ArtifactStore | None = None) -> None:
        if disk_path is not None and store is not None:
            raise ValueError("pass disk_path or store, not both")
        self.backend = backend
        self.stats = CacheStatistics()
        self._entries: dict[str, SynthesisReport] = {}
        # Disk-warmed records live in a second-level dict so that answering
        # from them is visible in the accounting (stats.disk_hits) instead of
        # masquerading as a synthesis run.
        self._disk_entries: dict[str, SynthesisReport] = {}
        self._backend_key = backend_signature(backend)
        if store is not None:
            self._store: ArtifactStore | None = store
        elif disk_path is not None:
            self._store = ArtifactStore(disk_path).open_for_append(
                tolerant=True)
        else:
            self._store = None
        self._load_disk()

    @property
    def library(self) -> TechLibrary:
        """The wrapped backend's technology library.

        Lets a cache stand wherever a backend is expected, e.g. as the flow
        of a :class:`~repro.sdc.pipeline.PipelineAnalyzer`, whose register
        overhead must come from the library that timed the stages.
        """
        return self.backend.library

    # -------------------------------------------------------------- evaluate

    def evaluate(self, graph: DataflowGraph, node_ids: Iterable[int],
                 name: str = "") -> SynthesisReport:
        """Return the (possibly cached) synthesis report of one subgraph."""
        return self.evaluate_batch(graph, [tuple(node_ids)], [name])[0]

    def evaluate_batch(self, graph: DataflowGraph,
                       node_sets: Sequence[Iterable[int]],
                       names: Sequence[str] | None = None
                       ) -> list[SynthesisReport]:
        """Evaluate a batch of subgraphs, answering from the cache where possible.

        Only the distinct missing subgraphs are forwarded to the backend (in
        one ``evaluate_batch`` call, so a parallel backend fans them out);
        duplicates within the batch are evaluated once and counted as one
        miss plus hits, matching serial semantics.  A miss answered by the
        disk-warmed layer counts as a disk hit, not a synthesis run.  Results
        come back in input order.

        Args:
            graph: the containing dataflow graph.
            node_sets: one node-id collection per subgraph.
            names: optional per-subgraph report names (used on misses only).

        Returns:
            One report per requested node set, in the same order.
        """
        normalized = [tuple(sorted(set(node_ids))) for node_ids in node_sets]
        if names is None:
            names = [""] * len(normalized)
        keys = [subgraph_fingerprint(graph, node_ids) for node_ids in normalized]

        missing_order: list[str] = []
        missing_seen: set[str] = set()
        missing_sets: list[tuple[int, ...]] = []
        missing_names: list[str] = []
        for key, node_ids, name in zip(keys, normalized, names):
            if key in self._entries or key in missing_seen:
                self.stats.hits += 1
                continue
            self.stats.misses += 1
            if key in self._disk_entries:
                self.stats.disk_hits += 1
                self._entries[key] = self._disk_entries[key]
                continue
            self.stats.synth_runs += 1
            missing_order.append(key)
            missing_seen.add(key)
            missing_sets.append(node_ids)
            missing_names.append(name)

        if missing_sets:
            reports = self.backend.evaluate_batch(graph, missing_sets,
                                                  missing_names)
            for key, report in zip(missing_order, reports):
                self._entries[key] = report
                self._store_disk(key, report)

        return [self._entries[key] for key in keys]

    # ------------------------------------------------------------ disk layer

    def _load_disk(self) -> None:
        """Warm the second-level dict from the store's ``synth-eval`` records.

        Only records written under *this* backend's signature are loaded;
        records from other configurations stay on disk, ignored.  Malformed
        bodies are skipped, never fatal.
        """
        if self._store is None:
            return
        for record in self._store.kind("synth-eval"):
            body = record.body
            if body.get("backend") != self._backend_key:
                continue  # persisted by a differently-configured backend
            try:
                report = SynthesisReport(
                    name=body["name"],
                    delay_ps=float(body["delay_ps"]),
                    num_gates=int(body["num_gates"]),
                    num_gates_unoptimized=int(body["num_gates_unoptimized"]),
                    area_um2=float(body["area_um2"]),
                    aig_depth=body.get("aig_depth"),
                    node_ids=tuple(body.get("node_ids") or ()),
                )
                fingerprint = body["fingerprint"]
            except (KeyError, TypeError, ValueError):
                continue  # skip malformed bodies rather than fail the run
            if fingerprint not in self._disk_entries:
                self._disk_entries[fingerprint] = report
                self.stats.disk_loaded += 1

    def _store_disk(self, key: str, report: SynthesisReport) -> None:
        if self._store is None:
            return
        body = {
            "fingerprint": key,
            "backend": self._backend_key,
            "name": report.name,
            "delay_ps": report.delay_ps,
            "num_gates": report.num_gates,
            "num_gates_unoptimized": report.num_gates_unoptimized,
            "area_um2": report.area_um2,
            "aig_depth": report.aig_depth,
            "node_ids": list(report.node_ids),
        }
        self._store.put(StoreRecord(
            kind="synth-eval",
            key=synth_eval_key(self._backend_key, key),
            schema=SYNTH_EVAL_BODY_SCHEMA,
            body=body,
            t=time.time()))

    # -------------------------------------------------------------- plumbing

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all cached entries and reset statistics.

        The disk store and the records pre-loaded from it are untouched, so
        lookups after a clear can still be answered by the disk layer.
        """
        self._entries.clear()
        self.stats = CacheStatistics(disk_loaded=len(self._disk_entries))
