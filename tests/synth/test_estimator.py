"""Tests for the characterised operator model and the naive estimator."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.ops import OpKind
from repro.synth.estimator import CharacterizedOperatorModel, NaiveDelayEstimator
from repro.synth.flow import SynthesisFlow
from repro.tech.delay_model import OperatorModel


@pytest.fixture(scope="module")
def characterized():
    return CharacterizedOperatorModel(pessimism=1.0)


class TestCharacterizedModel:
    def test_matches_single_op_synthesis(self, characterized, library):
        builder = GraphBuilder("char_check")
        x = builder.param("x", 16)
        y = builder.param("y", 16)
        total = builder.add(x, y)
        builder.output(total)
        flow = SynthesisFlow(library)
        measured = flow.evaluate_subgraph(builder.graph, [total.node_id]).delay_ps
        assert characterized.node_delay(total) == pytest.approx(measured)

    def test_free_ops_are_zero(self, characterized):
        builder = GraphBuilder()
        x = builder.param("x", 16)
        sliced = builder.bit_slice(x, 0, 8)
        assert characterized.node_delay(sliced) == 0.0

    def test_caching_returns_same_value(self, characterized):
        builder = GraphBuilder()
        x = builder.param("x", 16)
        y = builder.param("y", 16)
        first = builder.add(x, y)
        second = builder.add(y, x)
        assert characterized.node_delay(first) == characterized.node_delay(second)

    def test_pessimism_scales(self):
        base = CharacterizedOperatorModel(pessimism=1.0)
        padded = CharacterizedOperatorModel(pessimism=1.3)
        builder = GraphBuilder()
        x = builder.param("x", 8)
        y = builder.param("y", 8)
        total = builder.add(x, y)
        assert padded.node_delay(total) == pytest.approx(1.3 * base.node_delay(total))

    def test_invalid_pessimism_rejected(self):
        with pytest.raises(ValueError):
            CharacterizedOperatorModel(pessimism=0.5)

    def test_preload_characterises_graph(self, adder_chain_graph):
        model = CharacterizedOperatorModel(pessimism=1.0)
        model.preload(adder_chain_graph)
        for node in adder_chain_graph.nodes():
            assert model.node_delay(node) >= 0.0


class TestNaiveEstimator:
    def test_path_delay_is_sum(self, adder_chain_graph):
        estimator = NaiveDelayEstimator(OperatorModel(pessimism=1.0))
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        path = [names["s1"], names["s2"], names["s3"]]
        total = estimator.path_delay(adder_chain_graph, path)
        individual = sum(estimator.node_delay(adder_chain_graph.node(nid))
                         for nid in path)
        assert total == pytest.approx(individual)

    def test_critical_path_delay(self, diamond_graph):
        estimator = NaiveDelayEstimator(OperatorModel(pessimism=1.0))
        names = {n.name: n.node_id for n in diamond_graph.nodes()}
        delay = estimator.critical_path_delay(diamond_graph, names["base"],
                                              names["join"])
        # The add branch (right) is slower than the xor branch (left).
        expected = sum(estimator.node_delay(diamond_graph.node(names[n]))
                       for n in ("base", "right", "join"))
        assert delay == pytest.approx(expected)

    def test_unreachable_pair_returns_negative(self, diamond_graph):
        estimator = NaiveDelayEstimator()
        params = [p.node_id for p in diamond_graph.parameters()]
        assert estimator.critical_path_delay(diamond_graph, params[0], params[1]) == -1.0

    def test_naive_sum_exceeds_synthesised_chain(self, adder_chain_graph, library):
        """The over-estimation gap that motivates the whole paper (Fig. 1)."""
        estimator = NaiveDelayEstimator(CharacterizedOperatorModel(library))
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        path = [names["s1"], names["s2"], names["s3"]]
        estimated = estimator.path_delay(adder_chain_graph, path)
        measured = SynthesisFlow(library).evaluate_subgraph(
            adder_chain_graph, path).delay_ps
        assert estimated > measured


class TestGeneratedDesignCharacterization:
    """Regression: MUL nodes carry ``width`` in their attrs as well."""

    def test_every_mul_of_a_generated_design_characterizes(self):
        from repro.designs.generator import GeneratorParams, case_from_name

        graph = case_from_name(GeneratorParams(seed=0).name).build()
        muls = [node for node in graph.nodes() if node.kind is OpKind.MUL]
        assert muls and all("width" in node.attrs for node in muls)
        model = CharacterizedOperatorModel(pessimism=1.0)
        for node in muls:
            assert model._characterize(node) > 0.0

    def test_default_isdc_schedules_a_small_generated_design(self):
        from repro.designs.generator import GeneratorParams, case_from_name
        from repro.isdc import IsdcConfig, IsdcScheduler

        case = case_from_name(GeneratorParams(seed=0, depth=3, width=2).name)
        graph = case.build()
        assert any(node.kind is OpKind.MUL for node in graph.nodes())
        config = IsdcConfig(clock_period_ps=case.clock_period_ps)
        assert config.use_characterized_delays
        result = IsdcScheduler(config).schedule(graph)
        assert result.final_schedule.num_stages >= 1
