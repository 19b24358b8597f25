"""Tests for the downstream synthesis flow."""

import pytest

from repro.synth.flow import SynthesisFlow


class TestEvaluateSubgraph:
    def test_report_fields(self, synthesis_flow, adder_chain_graph):
        node_ids = [n.node_id for n in adder_chain_graph.nodes()
                    if n.name in ("s1", "s2")]
        report = synthesis_flow.evaluate_subgraph(adder_chain_graph, node_ids)
        assert report.delay_ps > 0
        assert report.num_gates > 0
        assert report.num_gates <= report.num_gates_unoptimized
        assert report.area_um2 > 0
        assert report.node_ids == tuple(sorted(node_ids))
        assert 0.0 <= report.gate_reduction < 1.0

    def test_chained_subgraph_subadditive(self, synthesis_flow, adder_chain_graph):
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        single = synthesis_flow.evaluate_subgraph(adder_chain_graph, [names["s1"]])
        double = synthesis_flow.evaluate_subgraph(adder_chain_graph,
                                                  [names["s1"], names["s2"]])
        assert double.delay_ps < 2 * single.delay_ps
        assert double.delay_ps >= single.delay_ps

    def test_evaluate_graph_matches_full_subgraph(self, synthesis_flow,
                                                  diamond_graph):
        whole = synthesis_flow.evaluate_graph(diamond_graph)
        explicit = synthesis_flow.evaluate_subgraph(diamond_graph,
                                                    diamond_graph.node_ids())
        assert whole.delay_ps == pytest.approx(explicit.delay_ps)

    def test_unoptimized_flow_is_slower_or_equal(self, adder_chain_graph, library):
        optimized = SynthesisFlow(library, optimize=True)
        raw = SynthesisFlow(library, optimize=False)
        node_ids = [n.node_id for n in adder_chain_graph.nodes()
                    if n.name in ("s1", "s2", "s3")]
        assert optimized.evaluate_subgraph(adder_chain_graph, node_ids).delay_ps <= \
            raw.evaluate_subgraph(adder_chain_graph, node_ids).delay_ps

    def test_aig_depth_recorded_when_requested(self, adder_chain_graph, library):
        flow = SynthesisFlow(library, compute_aig=True)
        report = flow.evaluate_graph(adder_chain_graph)
        assert report.aig_depth is not None
        assert report.aig_depth > 0

    def test_stage_delay_skips_sources(self, synthesis_flow, adder_chain_graph):
        sources = [n.node_id for n in adder_chain_graph.nodes() if n.is_source]
        assert synthesis_flow.stage_delay(adder_chain_graph, sources) == 0.0

    def test_source_only_subgraph_is_free(self, synthesis_flow, adder_chain_graph):
        param = adder_chain_graph.parameters()[0]
        report = synthesis_flow.evaluate_subgraph(adder_chain_graph,
                                                  [param.node_id])
        assert report.delay_ps == 0.0
