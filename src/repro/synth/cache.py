"""Memoisation of subgraph synthesis evaluations.

Subgraph evaluation dominates ISDC runtime (the paper reports a 40x runtime
multiplier), and identical subgraphs recur across iterations once the schedule
stabilises.  The cache keys on a *structural fingerprint* of the induced
subgraph (op kinds, widths, attributes, edges and boundary -- see
:mod:`repro.synth.fingerprint`), so a hit is guaranteed to be a structurally
identical block even across distinct graphs, distinct node ids, or graphs
that happen to share a name.

The cache is a pure in-memory memo, owned by one ISDC loop (or one
experiment) and bound to one backend, so its keys need no backend scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.ir.graph import DataflowGraph
from repro.synth.backend import FlowBackend
from repro.synth.fingerprint import subgraph_fingerprint
from repro.synth.report import SynthesisReport
from repro.tech.library import TechLibrary


@dataclass
class CacheStatistics:
    """Lookup counters of an :class:`EvaluationCache`.

    Every lookup the cache could not answer is forwarded to the backend,
    so ``synth_runs`` counts both the misses and the distinct subgraphs
    synthesised.
    """

    hits: int = 0
    synth_runs: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.synth_runs

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class EvaluationCache:
    """Caches :class:`SynthesisReport` objects per structural fingerprint.

    Args:
        backend: the downstream flow used on cache misses; anything
            satisfying :class:`~repro.synth.backend.FlowBackend` (including a
            plain :class:`~repro.synth.flow.SynthesisFlow`).

    Attributes:
        backend: the wrapped flow backend.
        stats: hit/miss counters.
    """

    def __init__(self, backend: FlowBackend) -> None:
        self.backend = backend
        self.stats = CacheStatistics()
        self._entries: dict[str, SynthesisReport] = {}

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

        Only the distinct missing subgraphs are forwarded to the backend, in
        one ``evaluate_batch`` call; duplicates within the batch are
        evaluated once and counted as one miss plus hits, matching serial
        semantics.  Results come back in input order.

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

        return [self._entries[key] for key in keys]

    # -------------------------------------------------------------- plumbing

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all cached entries and reset statistics."""
        self._entries.clear()
        self.stats = CacheStatistics()
