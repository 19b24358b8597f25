"""Tests for the ISDC delay matrix (Algorithm 1)."""

import pytest

from repro.isdc.delay_matrix import DelayMatrix
from repro.sdc.delays import node_delays
from repro.tech.delay_model import OperatorModel


@pytest.fixture
def matrix(adder_chain_graph):
    delays = node_delays(adder_chain_graph, OperatorModel(pessimism=1.0))
    return DelayMatrix.from_graph(adder_chain_graph, delays), delays


class TestInitialisation:
    def test_diagonal_is_individual_delay(self, matrix, adder_chain_graph):
        delay_matrix, delays = matrix
        for node in adder_chain_graph.nodes():
            assert delay_matrix.individual_delay(node.node_id) == \
                pytest.approx(delays[node.node_id])

    def test_connected_pairs_hold_path_sums(self, matrix, adder_chain_graph):
        delay_matrix, delays = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        expected = delays[names["s1"]] + delays[names["s2"]] + delays[names["s3"]]
        assert delay_matrix.get(names["s1"], names["s3"]) == pytest.approx(expected)

    def test_unconnected_pairs(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        params = [p.node_id for p in adder_chain_graph.parameters()]
        assert not delay_matrix.is_connected(params[0], params[1])


class TestSubgraphUpdate:
    def test_update_lowers_covered_pairs(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        before = delay_matrix.get(names["s1"], names["s2"])
        changed = delay_matrix.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        assert changed > 0
        assert delay_matrix.get(names["s1"], names["s2"]) == 100.0
        assert delay_matrix.get(names["s1"], names["s2"]) < before

    def test_update_never_raises_estimates(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        delay_matrix.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        changed = delay_matrix.update_with_subgraph([names["s1"], names["s2"]], 500.0)
        assert changed == 0
        assert delay_matrix.get(names["s1"], names["s2"]) == 100.0

    def test_update_does_not_touch_uncovered_pairs(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        untouched = delay_matrix.get(names["s2"], names["s3"])
        delay_matrix.update_with_subgraph([names["s1"], names["s2"]], 1.0)
        assert delay_matrix.get(names["s2"], names["s3"]) == pytest.approx(untouched)

    def test_update_preserves_disconnection(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        params = [p.node_id for p in adder_chain_graph.parameters()]
        delay_matrix.update_with_subgraph(params, 1.0)
        assert not delay_matrix.is_connected(params[0], params[1])

    def test_batch_update(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        total = delay_matrix.update_with_feedback([
            ([names["s1"], names["s2"]], 200.0),
            ([names["s2"], names["s3"]], 250.0),
        ])
        assert total >= 2

    def test_copy_is_independent(self, matrix, adder_chain_graph):
        delay_matrix, _ = matrix
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        clone = delay_matrix.copy()
        clone.update_with_subgraph([names["s1"], names["s2"]], 1.0)
        assert delay_matrix.get(names["s1"], names["s2"]) > 1.0


class TestQueries:
    def test_connected_pairs_over_threshold(self, matrix):
        delay_matrix, _ = matrix
        assert delay_matrix.connected_pairs_over(0.0) > 0
        assert delay_matrix.connected_pairs_over(1e12) == 0
