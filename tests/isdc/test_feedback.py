"""Tests for the feedback engine (downstream evaluation of subgraphs)."""

from repro.isdc.config import IsdcConfig
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.extraction import SubgraphExtractor
from repro.isdc.feedback import FeedbackEngine
from repro.sdc.scheduler import SdcScheduler
from repro.synth.flow import SynthesisFlow
from repro.tech.delay_model import OperatorModel


def _schedule_and_matrix(graph, clock=1500.0, model=None):
    model = model or OperatorModel(pessimism=1.0)
    result = SdcScheduler(model, clock_period_ps=clock).schedule(graph)
    matrix = DelayMatrix(graph, result.delay_matrix.copy(), dict(result.index_of))
    return result.schedule, matrix


def test_feedback_records_are_consistent(adder_chain_graph, library):
    schedule, matrix = _schedule_and_matrix(adder_chain_graph)
    config = IsdcConfig(clock_period_ps=1500.0, subgraphs_per_iteration=8)
    subgraphs = SubgraphExtractor(config).extract(schedule, matrix)
    engine = FeedbackEngine(SynthesisFlow(library))
    feedback = engine.evaluate(adder_chain_graph, subgraphs)
    assert len(feedback) == len(subgraphs)
    for record in feedback:
        assert record.delay_ps > 0
        assert record.num_gates > 0
        assert record.node_ids
        assert record.estimated_delay_ps == record.candidate.delay_ps


def test_feedback_delay_never_exceeds_estimate_sum(adder_chain_graph, library):
    """Measured subgraph delays must not exceed the sum of characterised
    per-operation delays -- the gap between the two is the recoverable slack."""
    from repro.synth.estimator import CharacterizedOperatorModel

    model = CharacterizedOperatorModel(library, pessimism=1.0)
    schedule, matrix = _schedule_and_matrix(adder_chain_graph, clock=2000.0,
                                            model=model)
    config = IsdcConfig(clock_period_ps=2000.0, subgraphs_per_iteration=8)
    subgraphs = SubgraphExtractor(config).extract(schedule, matrix)
    engine = FeedbackEngine(SynthesisFlow(library))
    for record in engine.evaluate(adder_chain_graph, subgraphs):
        naive_sum = sum(matrix.individual_delay(nid) for nid in record.node_ids)
        assert record.delay_ps <= naive_sum * 1.01 + 1e-6


def test_cache_reused_across_iterations(adder_chain_graph, library):
    schedule, matrix = _schedule_and_matrix(adder_chain_graph)
    config = IsdcConfig(clock_period_ps=1500.0, subgraphs_per_iteration=4)
    extractor = SubgraphExtractor(config)
    engine = FeedbackEngine(SynthesisFlow(library))
    first = extractor.extract(schedule, matrix)
    engine.evaluate(adder_chain_graph, first)
    misses_after_first = engine.evaluations
    engine.evaluate(adder_chain_graph, first)
    assert engine.evaluations == misses_after_first
    assert engine.cache.stats.hits >= len(first)
