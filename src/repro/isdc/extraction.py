"""Subgraph extraction from a pipeline schedule (paper Section III-B).

Each iteration, ISDC looks at the *previous* schedule and extracts a handful
of combinational subgraphs to send to the downstream flow:

1. **Candidate paths** run from a node ``vi`` to a node ``vj`` scheduled in
   the same stage, where ``vj``'s result is registered (it crosses a stage
   boundary or feeds a primary output).  For every registered ``vj`` the
   candidate uses the in-stage ancestor ``vi`` with the largest estimated
   critical-path delay.
2. **Ranking** is either delay-driven (largest estimated delay first) or
   fanout-driven (the paper's Eq. 3 score: wide registers with few consumers
   first, delay as a tie-breaker).
3. **Expansion** turns the selected path into the evaluated subgraph: the
   path itself, the root's in-stage input cone, or a window merging cones of
   same-stage roots that share leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.isdc.config import ExpansionStrategy, ExtractionStrategy, IsdcConfig
from repro.isdc.delay_matrix import DelayMatrix
from repro.kernel import (
    GraphView,
    NOT_CONNECTED,
    UNREACHED,
    longest_path_from,
    reachable_indices,
    reconstruct_path,
)
from repro.sdc.scheduler import Schedule


class _ScheduleContext:
    """Shared per-extraction arrays over one (schedule, delay matrix) pair.

    Everything derived from the schedule that costs O(n) to build -- the
    kernel view, the dense stage vector, per-stage traversal masks, the
    individual-delay diagonal, the registered-node list -- is computed once
    here and reused across every candidate of an extraction pass, keeping the
    per-candidate work proportional to the swept cone, not the graph.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.view = GraphView.from_dataflow(schedule.graph)
        stages = schedule.stages
        self.stage_vector = np.asarray(
            [stages[nid] for nid in self.view.order_ids()], dtype=np.int64)
        self._stage_masks: dict[int, np.ndarray] = {}
        self._cones: dict[int, np.ndarray] = {}
        self._scratch = np.zeros(self.view.num_nodes, dtype=bool)
        self._delays: np.ndarray | None = None
        self._delays_for: DelayMatrix | None = None
        self._aligned_for: DelayMatrix | None = None
        self._aligned = False
        self._registered: list[int] | None = None

    def stage_mask(self, stage: int) -> np.ndarray:
        """Traversal mask for one stage: same-stage, non-source nodes."""
        if stage not in self._stage_masks:
            self._stage_masks[stage] = ((self.stage_vector == stage)
                                        & ~self.view.source_mask)
        return self._stage_masks[stage]

    def cone_indices(self, root: int) -> np.ndarray:
        """In-stage ancestor cone of ``root`` as ascending dense indices.

        Frontier-compressed and cached per root (candidate enumeration, path
        reconstruction and window expansion all revisit the same cones): the
        sweep reuses one scratch visited buffer, so each cone costs
        O(cone), not O(n).  Like the traversal mask, the result excludes a
        source root.  Do not mutate the returned array.
        """
        if root not in self._cones:
            self._cones[root] = reachable_indices(
                self.view, [self.view.index_of[root]], backward=True,
                mask=self.stage_mask(self.schedule.stage_of(root)),
                scratch=self._scratch)
        return self._cones[root]

    def cone_mask(self, root: int) -> np.ndarray:
        """Boolean in-stage ancestor cone of ``root`` over dense indices."""
        mask = np.zeros(self.view.num_nodes, dtype=bool)
        mask[self.cone_indices(root)] = True
        return mask

    def cone_ids(self, root: int) -> set[int]:
        """In-stage ancestor cone of ``root`` as node ids (root included).

        ``root`` is part of its own cone by definition, even when the
        traversal mask would reject it (a source root).
        """
        cone = set(self.view.ids_of(self.cone_indices(root)))
        cone.add(root)
        return cone

    def matrix_aligned(self, delay_matrix: DelayMatrix) -> bool:
        """True when the matrix rows/columns are this context's dense indices.

        Always the case in the ISDC loop (the matrix is built from the same
        graph's view); checked once per matrix so candidate scoring can index
        :attr:`DelayMatrix.matrix` directly with cone indices.
        """
        if self._aligned_for is not delay_matrix:
            self._aligned = delay_matrix.index_of == self.view.index_of
            self._aligned_for = delay_matrix
        return self._aligned

    def individual_delays(self, delay_matrix: DelayMatrix) -> np.ndarray:
        """The matrix diagonal (isolated node delays) in dense order."""
        if self._delays is None or self._delays_for is not delay_matrix:
            matrix_indices = np.asarray(
                [delay_matrix.index_of[nid] for nid in self.view.order_ids()],
                dtype=np.int64)
            self._delays = delay_matrix.matrix[matrix_indices, matrix_indices]
            self._delays_for = delay_matrix
        return self._delays

    def registered_nodes(self) -> list[int]:
        """Registered nodes of the schedule (cached, ascending id order)."""
        if self._registered is None:
            self._registered = _registered_nodes(self)
        return self._registered


@dataclass(frozen=True)
class CandidatePath:
    """One candidate combinational path from the previous schedule.

    Attributes:
        source: node id of ``vi`` (start of the path).
        sink: node id of ``vj`` (the registered root).
        stage: pipeline stage both nodes live in.
        delay_ps: estimated critical-path delay ``D(ccp(vi, vj))``.
        score: ranking score (depends on the extraction strategy).
        path_nodes: nodes on the critical path, source to sink; empty when
            the extractor's expansion never reads it (see
            :meth:`SubgraphExtractor.extract`).
    """

    source: int
    sink: int
    stage: int
    delay_ps: float
    score: float
    path_nodes: tuple[int, ...]


def registered_nodes(schedule: Schedule) -> list[int]:
    """Nodes whose result is stored in a pipeline register.

    A node's result is registered when at least one consumer is scheduled in
    a later stage, or when the node has no consumers at all (it feeds a
    primary output of the pipeline).  Source nodes never hold registers.
    """
    return _registered_nodes(_ScheduleContext(schedule))


def _registered_nodes(context: _ScheduleContext) -> list[int]:
    view = context.view
    if view.num_nodes == 0:
        return []
    stages = context.stage_vector
    # Worst user stage per node via one segmented max over the successor CSR.
    counts = view.succ_indptr[1:] - view.succ_indptr[:-1]
    worst_user_stage = np.full(view.num_nodes, np.iinfo(np.int64).min,
                               dtype=np.int64)
    nonempty = counts > 0
    if view.succ_indices.size:
        worst_user_stage[nonempty] = np.maximum.reduceat(
            stages[view.succ_indices], view.succ_indptr[:-1][nonempty])
    registered = (~view.source_mask
                  & (~nonempty | (worst_user_stage > stages)))
    return sorted(view.ids_of(np.nonzero(registered)[0]))


def in_stage_ancestors(schedule: Schedule, root: int) -> set[int]:
    """Non-source ancestors of ``root`` scheduled in the same stage (root included)."""
    return _ScheduleContext(schedule).cone_ids(root)


def cone_leaves(graph: DataflowGraph, cone: set[int]) -> frozenset[int]:
    """Boundary nodes feeding a cone: operands of cone members outside the cone."""
    leaves: set[int] = set()
    for node_id in cone:
        for operand in graph.operands_of(node_id):
            if operand not in cone:
                leaves.add(operand)
    return frozenset(leaves)


def _critical_in_stage_path(context: _ScheduleContext,
                            delay_matrix: DelayMatrix,
                            source: int, sink: int) -> tuple[int, ...]:
    """One maximum-delay path from ``source`` to ``sink`` within their stage.

    Uses the individual delays from the matrix diagonal for the longest-path
    computation (the per-segment feedback delays do not decompose onto single
    nodes, so individual delays are the consistent choice here).
    """
    view = context.view
    cone = context.cone_mask(sink)
    source_index = view.index_of[source]
    if not cone[source_index]:
        return (sink,)
    delays = context.individual_delays(delay_matrix)
    values, parents = longest_path_from(view, delays, source_index, mask=cone)
    sink_index = view.index_of[sink]
    if values[sink_index] == UNREACHED:
        return (sink,)
    dense = reconstruct_path(parents, source_index, sink_index)
    return tuple(view.ids_of(dense))


def fanout_score(graph: DataflowGraph, sink: int, delay_ps: float,
                 clock_period_ps: float) -> float:
    """The paper's Eq. 3 fanout-driven score for a candidate path.

    ``(bit_count(r(vj)) + D(ccp)/Tclk) / (num_users(r(vj)) + 1)`` -- wide
    registers with few consumers score highest; the delay ratio mostly breaks
    ties (any valid schedule keeps it below 1.0).  Estimates *above* the
    clock period -- common in early iterations, before feedback lands -- keep
    their real ratio so over-period candidates still rank by delay instead of
    collapsing onto one flattened score.
    """
    node = graph.node(sink)
    ratio = delay_ps / clock_period_ps if clock_period_ps > 0 else 0.0
    return (node.width + ratio) / (graph.num_users(sink) + 1)


def _best_source(context: _ScheduleContext, delay_matrix: DelayMatrix,
                 sink: int) -> int:
    """The in-stage ancestor of ``sink`` with the largest estimated delay.

    Ties between equal-delay sources break toward the smallest node id --
    historically ``max()`` over id-sorted cone members, here the first
    ``argmax`` over the id-ordered gathered matrix column (identical, and
    independent of ``PYTHONHASHSEED``).  ``sink`` itself when the cone holds
    no other node.
    """
    view = context.view
    sink_index = view.index_of[sink]
    cone = context.cone_indices(sink)
    sources = cone[cone != sink_index]
    if sources.size == 0:
        return sink
    if not context.matrix_aligned(delay_matrix):
        return max(sorted(view.ids_of(sources)),
                   key=lambda nid: (delay_matrix.get(nid, sink)
                                    if delay_matrix.is_connected(nid, sink)
                                    else 0.0))
    ids = np.asarray(view.ids_of(sources), dtype=np.int64)
    by_id = np.argsort(ids)
    delays = delay_matrix.matrix[sources[by_id], sink_index]
    delays = np.where(delays == NOT_CONNECTED, 0.0, delays)
    return int(ids[by_id[np.argmax(delays)]])


def enumerate_candidate_paths(schedule: Schedule, delay_matrix: DelayMatrix,
                              strategy: ExtractionStrategy,
                              clock_period_ps: float) -> list[CandidatePath]:
    """All candidate paths of a schedule, scored but not yet truncated.

    One candidate is produced per registered node: the in-stage path ending
    at it with the largest estimated delay.  A registered node that is alone
    in its stage still yields a (single-node) candidate -- measuring it
    removes the characterisation guard band on that operation, which is often
    what unlocks merging it with a neighbouring stage.
    """
    return _enumerate_candidate_paths(_ScheduleContext(schedule), delay_matrix,
                                      strategy, clock_period_ps,
                                      with_paths=True)


def _enumerate_candidate_paths(context: _ScheduleContext,
                               delay_matrix: DelayMatrix,
                               strategy: ExtractionStrategy,
                               clock_period_ps: float,
                               with_paths: bool) -> list[CandidatePath]:
    """The candidates of :func:`enumerate_candidate_paths`.

    ``with_paths`` off leaves every ``path_nodes`` empty and skips the
    critical-path search; sources, delays, scores and order are the same.
    """
    schedule = context.schedule
    graph = schedule.graph
    candidates: list[CandidatePath] = []
    for sink in context.registered_nodes():
        best_source = _best_source(context, delay_matrix, sink)
        delay = delay_matrix.get(best_source, sink)
        if delay <= 0:
            continue
        if strategy is ExtractionStrategy.FANOUT:
            score = fanout_score(graph, sink, delay, clock_period_ps)
        else:
            score = delay
        path = (_critical_in_stage_path(context, delay_matrix, best_source,
                                        sink) if with_paths else ())
        candidates.append(CandidatePath(
            source=best_source, sink=sink, stage=schedule.stage_of(sink),
            delay_ps=delay, score=score, path_nodes=path))
    candidates.sort(key=lambda c: (-c.score, c.sink))
    return candidates


class SubgraphExtractor:
    """Extracts the per-iteration set of subgraphs to evaluate.

    Args:
        config: the ISDC configuration (strategies and the per-iteration
            subgraph budget ``m``).
    """

    def __init__(self, config: IsdcConfig) -> None:
        self.config = config

    def expand(self, schedule: Schedule, candidate: CandidatePath) -> frozenset[int]:
        """Expand one candidate path into the node set to synthesise."""
        return self._expand(_ScheduleContext(schedule), candidate)

    def _expand(self, context: _ScheduleContext, candidate: CandidatePath
                ) -> frozenset[int]:
        expansion = self.config.expansion
        if expansion is ExpansionStrategy.PATH:
            return frozenset(candidate.path_nodes)
        cone = context.cone_ids(candidate.sink)
        if expansion is ExpansionStrategy.CONE:
            return frozenset(cone)
        return self._expand_window(context, candidate, cone)

    def _expand_window(self, context: _ScheduleContext,
                       candidate: CandidatePath,
                       cone: set[int]) -> frozenset[int]:
        """Merge cones of same-stage registered roots that share leaves."""
        schedule = context.schedule
        graph = schedule.graph
        leaves = cone_leaves(graph, cone)
        window = set(cone)
        if not leaves:
            return frozenset(window)
        for other_root in context.registered_nodes():
            if other_root == candidate.sink:
                continue
            if schedule.stage_of(other_root) != candidate.stage:
                continue
            other_cone = context.cone_ids(other_root)
            if leaves & cone_leaves(graph, other_cone):
                window.update(other_cone)
        return frozenset(window)

    def extract(self, schedule: Schedule, delay_matrix: DelayMatrix
                ) -> list[tuple[CandidatePath, frozenset[int]]]:
        """Top-m candidates of the schedule, expanded and de-duplicated.

        Critical paths are searched only under the ``PATH`` expansion, the
        one that reads them; otherwise every ``path_nodes`` is empty.
        """
        context = _ScheduleContext(schedule)
        candidates = _enumerate_candidate_paths(
            context, delay_matrix, self.config.extraction,
            self.config.clock_period_ps,
            with_paths=self.config.expansion is ExpansionStrategy.PATH)
        selected: list[tuple[CandidatePath, frozenset[int]]] = []
        seen: set[frozenset[int]] = set()
        for candidate in candidates:
            if len(selected) >= self.config.subgraphs_per_iteration:
                break
            node_set = self._expand(context, candidate)
            if not node_set or node_set in seen:
                continue
            seen.add(node_set)
            selected.append((candidate, node_set))
        return selected
