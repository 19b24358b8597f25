"""Tests for the subgraph evaluation cache."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.synth.cache import EvaluationCache
from repro.synth.flow import SynthesisFlow


def test_cache_hits_and_misses(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    first = cache.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    second = cache.evaluate(adder_chain_graph, [names["s2"], names["s1"]])
    assert first is second
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_different_subsets_are_distinct(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache.evaluate(adder_chain_graph, [names["s1"]])
    cache.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    assert cache.stats.misses == 2
    assert len(cache) == 2


def test_clear_resets_everything(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    cache.evaluate(adder_chain_graph, [adder_chain_graph.node_ids()[4]])
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.total == 0


def _sum_graph(name: str, width: int = 16):
    builder = GraphBuilder(name)
    x = builder.param("x", width)
    y = builder.param("y", width)
    total = builder.add(x, y, name="total")
    builder.output(total, name="out")
    return builder.graph, (total.node_id,)


def test_same_name_different_structure_do_not_collide(library):
    """The seed cache keyed on (graph.name, node_ids) and conflated distinct
    graphs sharing a name; structural keys must not."""
    graph_a, nodes_a = _sum_graph("design", width=8)
    graph_b, nodes_b = _sum_graph("design", width=32)
    cache = EvaluationCache(SynthesisFlow(library))
    report_a = cache.evaluate(graph_a, nodes_a)
    report_b = cache.evaluate(graph_b, nodes_b)
    assert cache.stats.misses == 2
    assert report_a.delay_ps != report_b.delay_ps


def test_structurally_identical_blocks_hit_across_graphs(library):
    graph_a, nodes_a = _sum_graph("first")
    graph_b, nodes_b = _sum_graph("second")
    cache = EvaluationCache(SynthesisFlow(library))
    first = cache.evaluate(graph_a, nodes_a)
    second = cache.evaluate(graph_b, nodes_b)
    assert first is second
    assert cache.stats.hits == 1


def test_batch_accounting_matches_serial_semantics(adder_chain_graph, library):
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache = EvaluationCache(SynthesisFlow(library))
    sets = [
        [names["s1"]],
        [names["s1"], names["s2"]],
        [names["s2"], names["s1"]],  # duplicate of the previous set
        [names["s1"]],               # duplicate of the first set
    ]
    reports = cache.evaluate_batch(adder_chain_graph, sets)
    assert cache.stats.misses == 2
    assert cache.stats.synth_runs == 2  # every miss synthesises
    assert cache.stats.hits == 2
    assert reports[1] is reports[2]
    assert reports[0] is reports[3]
    assert len(cache) == 2


class _CountingBackend:
    """Records every batch the cache forwards to the wrapped flow."""

    def __init__(self, inner):
        self.inner = inner
        self.library = inner.library
        self.batches = []

    def evaluate_subgraph(self, graph, node_ids, name=""):
        return self.evaluate_batch(graph, [node_ids], [name])[0]

    def evaluate_batch(self, graph, node_sets, names=None):
        self.batches.append([tuple(s) for s in node_sets])
        return self.inner.evaluate_batch(graph, node_sets, names)


def test_only_distinct_misses_reach_the_backend(adder_chain_graph, library):
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    s1, s2, product = names["s1"], names["s2"], names["product"]
    backend = _CountingBackend(SynthesisFlow(library))
    cache = EvaluationCache(backend)
    cache.evaluate_batch(adder_chain_graph, [[s1], [s2, s1], [s1, s2], [s1]])
    cache.evaluate_batch(adder_chain_graph, [[s1], [s1, s2]])  # all hits
    cache.evaluate(adder_chain_graph, [product])
    assert backend.batches == [[(s1,), (s1, s2)], [(product,)]]
    forwarded = sum(len(batch) for batch in backend.batches)
    assert cache.stats.misses == cache.stats.synth_runs == forwarded == 3
    assert cache.stats.hits == 4


def test_accounting_is_independent_of_the_backend(adder_chain_graph, library):
    from repro.synth.backend import EstimatorBackend

    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    # [s2] is structurally the same 16-bit add as [s1]: a hit on both.
    sets = [[names["s1"]], [names["product"]], [names["s1"], names["s2"]],
            [names["s2"]], [names["s3"], names["product"]]]
    local = EvaluationCache(SynthesisFlow(library))
    estimator = EvaluationCache(EstimatorBackend(library))
    local.evaluate_batch(adder_chain_graph, sets)
    estimated = estimator.evaluate_batch(adder_chain_graph, sets)
    direct = EstimatorBackend(library).evaluate_batch(adder_chain_graph, sets)
    assert [(r.delay_ps, r.num_gates) for r in estimated] == \
        [(r.delay_ps, r.num_gates) for r in direct]
    assert (estimator.stats.hits, estimator.stats.misses) == \
        (local.stats.hits, local.stats.misses) == (1, 4)


def test_empty_cache_is_not_discarded_by_the_analyzer(library):
    """An empty EvaluationCache is falsy (__len__); the analyzer must keep it."""
    from repro.sdc.pipeline import PipelineAnalyzer

    cache = EvaluationCache(SynthesisFlow(library))
    analyzer = PipelineAnalyzer(flow=cache, library=library)
    assert analyzer.flow is cache


def test_analyzer_over_cache_uses_the_backend_library(adder_chain_graph,
                                                     library):
    """An analyzer given only a cache charges the cached backend's register
    overhead, not the default library's."""
    import dataclasses

    from repro.sdc.pipeline import PipelineAnalyzer
    from repro.sdc.scheduler import SdcScheduler

    slow_flops = dataclasses.replace(
        library, register_delay_ps=library.register_delay_ps + 275.0)
    cache = EvaluationCache(SynthesisFlow(slow_flops))
    assert cache.library is slow_flops

    schedule = SdcScheduler(clock_period_ps=2500.0).schedule(
        adder_chain_graph).schedule
    report = PipelineAnalyzer(flow=cache).report(schedule)
    expected = (schedule.clock_period_ps - max(report.stage_delays_ps)
                - slow_flops.register_delay_ps)
    assert report.slack_ps == expected
    default = PipelineAnalyzer(flow=SynthesisFlow(library)).report(schedule)
    assert report.slack_ps == pytest.approx(default.slack_ps - 275.0)
