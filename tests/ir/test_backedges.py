"""Tests for loop back-edges: graph storage, builder, verifier, interpreter."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.analysis import graph_statistics, topological_order
from repro.ir.graph import DataflowGraph
from repro.ir.interpreter import (evaluate_loop, evaluate_loop_outputs,
                                  simulate_pipelined_loop)
from repro.ir.ops import OpKind
from repro.ir.verify import IRVerificationError, verify_graph

from tests.ir.helpers import to_networkx


def _accumulator():
    """sum += x each iteration; returns (graph, phi, add)."""
    builder = GraphBuilder("accum")
    x = builder.param("x", 16)
    zero = builder.constant(0, 16)
    acc = builder.phi(zero, name="acc")
    total = builder.add(acc, x, name="total")
    builder.output(total, name="out")
    builder.back_edge(acc, total, distance=1)
    return builder.graph, acc, total


class TestGraphStorage:
    def test_back_edge_recorded_and_sorted(self):
        graph, acc, total = _accumulator()
        edges = graph.back_edges()
        assert len(edges) == 1
        assert edges[0].phi == acc.node_id
        assert edges[0].src == total.node_id
        assert edges[0].distance == 1
        assert graph.has_back_edges
        assert graph.back_edge_of(acc.node_id) == edges[0]

    def test_back_edge_requires_phi_target(self):
        builder = GraphBuilder("g")
        x = builder.param("x", 8)
        y = builder.add(x, x)
        with pytest.raises(ValueError, match="phi"):
            builder.graph.add_back_edge(y.node_id, x.node_id, 1)

    def test_back_edge_rejects_duplicate_and_bad_distance(self):
        graph, acc, total = _accumulator()
        with pytest.raises(ValueError):
            graph.add_back_edge(acc.node_id, total.node_id, 1)
        builder = GraphBuilder("g")
        z = builder.constant(0, 8)
        phi = builder.phi(z)
        with pytest.raises(ValueError):
            builder.graph.add_back_edge(phi.node_id, z.node_id, 0)

    def test_back_edge_rejects_missing_nodes(self):
        graph, acc, _ = _accumulator()
        with pytest.raises(KeyError):
            graph.add_back_edge(999, acc.node_id, 1)

    def test_remove_node_guards_back_edge_source(self):
        graph, _, total = _accumulator()
        with pytest.raises(ValueError):
            graph.remove_node(total.node_id)

    def test_copy_carries_back_edges(self):
        graph, _, _ = _accumulator()
        clone = graph.copy()
        assert clone.back_edges() == graph.back_edges()
        # and the copy is independent
        clone._back_edges.clear()
        assert graph.has_back_edges

    def test_forward_graph_stays_a_dag(self):
        graph, acc, total = _accumulator()
        order = topological_order(graph)
        assert order.index(acc.node_id) < order.index(total.node_id)

    def test_statistics_count_back_edges(self):
        graph, _, _ = _accumulator()
        assert graph_statistics(graph).num_back_edges == 1

    def test_networkx_export_marks_back_edges(self):
        graph, acc, total = _accumulator()
        exported = to_networkx(graph)
        data = exported.get_edge_data(total.node_id, acc.node_id)
        assert data["back"] is True and data["distance"] == 1


class TestVerifier:
    def test_valid_loop_graph_verifies(self):
        graph, _, _ = _accumulator()
        verify_graph(graph)

    def test_phi_without_back_edge_rejected(self):
        builder = GraphBuilder("g")
        z = builder.constant(0, 8)
        builder.phi(z)
        with pytest.raises(IRVerificationError, match="back-edge"):
            verify_graph(builder.graph)

    def test_width_mismatch_rejected(self):
        graph = DataflowGraph("g")
        wide = graph.add_node(OpKind.PARAM, [], width=16, name="x")
        phi = graph.add_node(OpKind.PHI, [wide.node_id], width=16)
        narrow = graph.add_node(OpKind.BIT_SLICE, [phi.node_id], width=8,
                                start=0)
        graph.add_back_edge(phi.node_id, narrow.node_id, 1)
        with pytest.raises(IRVerificationError, match="width|bit"):
            verify_graph(graph)


class TestLoopInterpreter:
    def test_accumulator_golden_sums(self):
        graph, _, total = _accumulator()
        history = evaluate_loop(graph, {"x": 3}, iterations=5)
        assert [frame[total.node_id] for frame in history] == [3, 6, 9, 12, 15]

    def test_streaming_inputs_consume_one_value_per_iteration(self):
        graph, _, total = _accumulator()
        history = evaluate_loop(graph, {"x": [1, 2, 3, 4]}, iterations=4)
        assert [frame[total.node_id] for frame in history] == [1, 3, 6, 10]

    def test_short_input_stream_rejected(self):
        graph, _, _ = _accumulator()
        with pytest.raises(ValueError):
            evaluate_loop(graph, {"x": [1, 2]}, iterations=4)

    def test_distance_two_reads_two_iterations_back(self):
        builder = GraphBuilder("fib")
        one = builder.constant(1, 16)
        acc = builder.phi(one, name="acc")
        double = builder.add(acc, acc, name="double")
        builder.output(double)
        builder.back_edge(acc, double, distance=2)
        history = evaluate_loop(builder.graph, {}, iterations=5)
        # iterations 0 and 1 see the init (1); from 2 on, value(i-2)*2.
        values = [frame[double.node_id] for frame in history]
        assert values == [2, 2, 4, 4, 8]

    def test_evaluate_loop_outputs_names_outputs(self):
        graph, _, _ = _accumulator()
        outputs = evaluate_loop_outputs(graph, {"x": 2}, iterations=3)
        assert [frame["out"] for frame in outputs] == [2, 4, 6]

    def test_pipelined_simulation_matches_golden(self):
        graph, acc, total = _accumulator()
        stages = {n.node_id: 0 for n in graph.nodes()}
        golden = evaluate_loop(graph, {"x": 7}, iterations=6)
        simulated = simulate_pipelined_loop(graph, stages, ii=1,
                                            inputs={"x": 7}, iterations=6)
        assert simulated == golden

    def test_pipelined_simulation_rejects_late_back_edge_value(self):
        graph, acc, total = _accumulator()
        # total lands one stage after the phi: at II 1 x distance 1 the
        # carried value is not registered in time.
        stages = {n.node_id: 0 for n in graph.nodes()}
        stages[total.node_id] = 1
        out = [n for n in graph.nodes() if n.kind is OpKind.OUTPUT]
        stages[out[0].node_id] = 1
        with pytest.raises(ValueError):
            simulate_pipelined_loop(graph, stages, ii=1, inputs={"x": 1},
                                    iterations=3)

    def test_pipelined_simulation_rejects_missing_stage(self):
        graph, _, total = _accumulator()
        stages = {n.node_id: 0 for n in graph.nodes()}
        del stages[total.node_id]
        with pytest.raises(ValueError):
            simulate_pipelined_loop(graph, stages, ii=1, inputs={"x": 1},
                                    iterations=2)
