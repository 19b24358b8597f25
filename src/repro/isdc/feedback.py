"""Downstream evaluation of extracted subgraphs (the feedback half of the loop)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import DataflowGraph
from repro.isdc.extraction import CandidatePath
from repro.synth.backend import FlowBackend
from repro.synth.cache import EvaluationCache


@dataclass(frozen=True)
class SubgraphFeedback:
    """Measured delay of one evaluated subgraph.

    Attributes:
        candidate: the candidate path the subgraph was grown from.
        node_ids: IR nodes covered by the subgraph.
        delay_ps: post-synthesis critical-path delay reported by the flow.
        estimated_delay_ps: the scheduler's estimate before feedback (the
            candidate's matrix entry), for reporting estimation error.
        num_gates: logic-gate count of the synthesised subgraph.
    """

    candidate: CandidatePath
    node_ids: frozenset[int]
    delay_ps: float
    estimated_delay_ps: float
    num_gates: int


class FeedbackEngine:
    """Runs extracted subgraphs through the downstream flow, with memoisation.

    In the paper this corresponds to dispatching subgraphs to Yosys/OpenSTA;
    here every per-iteration batch goes through the evaluation cache in one
    call, and the distinct misses go to the backend in input order.

    Args:
        backend: any :class:`~repro.synth.backend.FlowBackend` (see
            :func:`~repro.synth.backend.create_backend`).
    """

    def __init__(self, backend: FlowBackend) -> None:
        self.backend = backend
        self.cache = EvaluationCache(backend)

    def evaluate(self, graph: DataflowGraph,
                 subgraphs: list[tuple[CandidatePath, frozenset[int]]]
                 ) -> list[SubgraphFeedback]:
        """Evaluate a batch of subgraphs and return their feedback records."""
        reports = self.cache.evaluate_batch(
            graph, [node_ids for _, node_ids in subgraphs])
        feedback: list[SubgraphFeedback] = []
        for (candidate, node_ids), report in zip(subgraphs, reports):
            feedback.append(SubgraphFeedback(
                candidate=candidate,
                node_ids=node_ids,
                delay_ps=report.delay_ps,
                estimated_delay_ps=candidate.delay_ps,
                num_gates=report.num_gates,
            ))
        return feedback

    @property
    def evaluations(self) -> int:
        """Number of distinct subgraphs actually synthesised so far."""
        return self.cache.stats.synth_runs
