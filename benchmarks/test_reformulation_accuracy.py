"""Ablation: O(n^2) delay propagation (Alg. 2) vs. O(n^3) Floyd-Warshall.

Section III-D argues the O(n^2) re-propagation is accurate enough; this bench
compares both reformulations' stage-delay estimates against post-synthesis
ground truth after one round of feedback, and times them.
"""

from __future__ import annotations

import pytest

from repro.designs.suite import suite_by_name
from repro.isdc.config import IsdcConfig
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.extraction import SubgraphExtractor
from repro.isdc.feedback import FeedbackEngine
from repro.isdc.reformulate import floyd_warshall_refine, propagate_delays
from repro.sdc.scheduler import SdcScheduler
from repro.synth.estimator import CharacterizedOperatorModel
from repro.synth.flow import SynthesisFlow


def _stage_error(graph, schedule, matrix, flow):
    """Mean relative stage-delay estimation error of a delay matrix."""
    import numpy as np

    errors = []
    for stage, node_ids in schedule.stage_node_map().items():
        operations = [nid for nid in node_ids if not graph.node(nid).is_source]
        if not operations:
            continue
        indices = [matrix.index_of[nid] for nid in operations]
        block = matrix.matrix[np.ix_(indices, indices)]
        estimated = float(block.max())
        actual = flow.evaluate_subgraph(graph, operations).delay_ps
        if actual > 0:
            errors.append(abs(estimated - actual) / actual)
    return sum(errors) / len(errors) if errors else 0.0


def _prepare(case_name="ML-core datapath2", clock=2500.0):
    case = suite_by_name(case_name)
    graph = case.build()
    model = CharacterizedOperatorModel()
    result = SdcScheduler(model, clock_period_ps=case.clock_period_ps).schedule(graph)
    matrix = DelayMatrix(graph, result.delay_matrix.copy(), dict(result.index_of))
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=16)
    subgraphs = SubgraphExtractor(config).extract(result.schedule, matrix)
    feedback = FeedbackEngine(SynthesisFlow()).evaluate(graph, subgraphs)
    for record in feedback:
        matrix.update_with_subgraph(record.node_ids, record.delay_ps)
    return graph, result.schedule, matrix


@pytest.mark.benchmark(group="reformulation")
@pytest.mark.parametrize("method", ["alg2_quadratic", "floyd_warshall_cubic"])
def test_reformulation_accuracy(benchmark, method):
    graph, schedule, matrix = _prepare()
    flow = SynthesisFlow()
    naive_error = _stage_error(graph, schedule, matrix.copy(), flow)

    def reformulate():
        working = matrix.copy()
        if method == "alg2_quadratic":
            propagate_delays(working)
        else:
            floyd_warshall_refine(working)
        return working

    refined = benchmark(reformulate)
    refined_error = _stage_error(graph, schedule, refined, flow)

    print(f"\n{method}: naive error {naive_error:.1%} -> refined error "
          f"{refined_error:.1%}")

    # Both reformulations keep the estimates at least as accurate as not
    # propagating the feedback at all, and remain within a sane error band.
    assert refined_error <= naive_error + 0.05
    assert refined_error < 1.0
