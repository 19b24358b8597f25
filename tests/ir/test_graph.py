"""Tests for the DataflowGraph container."""

import pytest

from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind

from tests.ir.helpers import to_networkx


@pytest.fixture
def small_graph():
    graph = DataflowGraph("small")
    x = graph.add_node(OpKind.PARAM, (), width=8, name="x")
    y = graph.add_node(OpKind.PARAM, (), width=8, name="y")
    total = graph.add_node(OpKind.ADD, (x.node_id, y.node_id), name="total")
    graph.add_node(OpKind.OUTPUT, (total.node_id,), name="out")
    return graph


class TestConstruction:
    def test_node_count(self, small_graph):
        assert len(small_graph) == 4

    def test_ids_are_sequential(self, small_graph):
        assert small_graph.node_ids() == [0, 1, 2, 3]

    def test_width_inference_from_operands(self, small_graph):
        assert small_graph.node(2).width == 8

    def test_unknown_operand_rejected(self):
        graph = DataflowGraph()
        with pytest.raises(KeyError):
            graph.add_node(OpKind.NOT, (42,))

    def test_duplicate_operands_allowed(self):
        graph = DataflowGraph()
        x = graph.add_node(OpKind.PARAM, (), width=4, name="x")
        doubled = graph.add_node(OpKind.ADD, (x.node_id, x.node_id))
        assert doubled.operands == (x.node_id, x.node_id)
        # num_users counts distinct consumers.
        assert graph.num_users(x.node_id) == 1

    def test_auto_generated_names_are_unique(self, small_graph):
        names = [node.name for node in small_graph.nodes()]
        assert len(names) == len(set(names))


class TestAccessors:
    def test_users(self, small_graph):
        assert small_graph.users_of(0) == [2]
        assert small_graph.users_of(2) == [3]
        assert small_graph.users_of(3) == []

    def test_parameters_and_outputs(self, small_graph):
        assert [n.name for n in small_graph.parameters()] == ["x", "y"]
        assert [n.name for n in small_graph.outputs()] == ["out"]

    def test_outputs_fall_back_to_sinks(self):
        graph = DataflowGraph()
        x = graph.add_node(OpKind.PARAM, (), width=4)
        inverted = graph.add_node(OpKind.NOT, (x.node_id,))
        assert [n.node_id for n in graph.outputs()] == [inverted.node_id]

    def test_source_ids(self, small_graph):
        assert small_graph.source_ids() == {0, 1}

    def test_contains(self, small_graph):
        assert 0 in small_graph
        assert 99 not in small_graph


class TestInterop:
    def test_to_networkx_preserves_structure(self, small_graph):
        nx_graph = to_networkx(small_graph)
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.has_edge(0, 2)
        assert nx_graph.has_edge(2, 3)
        assert not nx_graph.has_edge(0, 1)

    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy("clone")
        clone.add_node(OpKind.NOT, (0,))
        assert len(clone) == len(small_graph) + 1
        assert clone.name == "clone"

    def test_results_are_single_valued(self, small_graph):
        node = small_graph.node(2)
        assert len(node.results) == 1
        assert node.result.width == 8
        assert node.result.node_id == 2
