"""Tests for the pluggable flow-backend layer."""

import pytest

from repro.synth.backend import (
    BACKENDS,
    EstimatorBackend,
    FlowBackend,
    create_backend,
)
from repro.synth.flow import SynthesisFlow


def _stage_sets(graph):
    names = {n.name: n.node_id for n in graph.nodes()}
    return [
        [names["s1"]],
        [names["s1"], names["s2"]],
        [names["s2"], names["s3"]],
        [names["s1"], names["s2"], names["s3"], names["product"]],
    ]


def test_backends_satisfy_protocol(library):
    assert isinstance(EstimatorBackend(library), FlowBackend)
    assert isinstance(SynthesisFlow(library), FlowBackend)


def test_create_backend_registry(library):
    assert type(create_backend("local", library)) is SynthesisFlow
    assert isinstance(create_backend("estimator", library), EstimatorBackend)
    assert set(BACKENDS) == {"local", "estimator"}
    with pytest.raises(ValueError, match="unknown flow backend"):
        create_backend("yosys")


def test_create_backend_estimator_ignores_synthesis_knobs(library):
    backend = create_backend("estimator", library, optimize=True,
                             compute_aig=True)
    assert isinstance(backend, EstimatorBackend)


def test_serial_batch_matches_individual_evaluations(adder_chain_graph, library):
    flow = SynthesisFlow(library)
    sets = _stage_sets(adder_chain_graph)
    batch = flow.evaluate_batch(adder_chain_graph, sets)
    individual = [flow.evaluate_subgraph(adder_chain_graph, s) for s in sets]
    assert [r.delay_ps for r in batch] == [r.delay_ps for r in individual]
    assert [r.num_gates for r in batch] == [r.num_gates for r in individual]


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_batch_is_identical_to_individual_reports(kind, adder_chain_graph,
                                                  library):
    backend = create_backend(kind, library)
    sets = _stage_sets(adder_chain_graph)
    batch = backend.evaluate_batch(adder_chain_graph, sets)
    individual = [backend.evaluate_subgraph(adder_chain_graph, s)
                  for s in sets]
    assert batch == individual  # frozen dataclasses: field-wise equality


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_batch_preserves_order_and_names(kind, adder_chain_graph, library):
    sets = _stage_sets(adder_chain_graph)
    names = [f"block{i}" for i in range(len(sets))]
    reports = create_backend(kind, library).evaluate_batch(
        adder_chain_graph, sets, names)
    assert [r.name for r in reports] == names
    assert [r.node_ids for r in reports] == \
        [tuple(sorted(s)) for s in sets]


def test_estimator_backend_is_cheap_but_consistent(adder_chain_graph, library):
    estimator = EstimatorBackend(library)
    sets = _stage_sets(adder_chain_graph)
    reports = estimator.evaluate_batch(adder_chain_graph, sets)
    # Longer chains estimate no faster than their prefixes.
    assert reports[1].delay_ps >= reports[0].delay_ps
    assert reports[3].delay_ps >= reports[1].delay_ps
    for report in reports:
        assert report.delay_ps > 0
        assert report.num_gates == report.num_gates_unoptimized


def test_estimator_backend_drives_the_analyzer(adder_chain_graph, library):
    """The estimator slots into the same consumers as the local backend."""
    from repro.sdc.pipeline import PipelineAnalyzer
    from repro.sdc.scheduler import SdcScheduler
    from repro.tech.delay_model import OperatorModel

    schedule = SdcScheduler(OperatorModel(library),
                            clock_period_ps=2500.0).schedule(
        adder_chain_graph).schedule
    analyzer = PipelineAnalyzer(flow=EstimatorBackend(library),
                                library=library)
    report = analyzer.report(schedule)
    assert report.num_stages == schedule.num_stages
    assert all(d >= 0 for d in report.stage_delays_ps)
