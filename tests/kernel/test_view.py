"""Tests for the levelized-CSR GraphView: construction, caching, invalidation."""

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.node import Node
from repro.ir.ops import OpKind
from repro.kernel import GraphView

from tests.kernel.reference import (
    graph_adjacency,
    reference_longest_path_lengths,
    reference_topological_order,
)


class TestConstruction:
    def test_order_matches_reference_kahn(self, diamond_graph):
        view = GraphView.from_dataflow(diamond_graph)
        assert view.order_ids() == reference_topological_order(
            *graph_adjacency(diamond_graph))

    def test_index_of_is_topological_position(self, adder_chain_graph):
        view = GraphView.from_dataflow(adder_chain_graph)
        assert view.index_of == {nid: i for i, nid in
                                 enumerate(view.order_ids())}

    def test_csr_preserves_operand_order_and_duplicates(self):
        builder = GraphBuilder("dup")
        x = builder.param("x", 8)
        doubled = builder.add(x, x, name="doubled")
        builder.output(doubled)
        view = GraphView.from_dataflow(builder.graph)
        dense = view.index_of[doubled.node_id]
        preds = view.pred_indices[view.pred_indptr[dense]:
                                  view.pred_indptr[dense + 1]]
        assert list(preds) == [view.index_of[x.node_id]] * 2

    def test_levels_match_reference_depths(self, diamond_graph):
        view = GraphView.from_dataflow(diamond_graph)
        ids, operands, _users = graph_adjacency(diamond_graph)
        expected = reference_longest_path_lengths(view.order_ids(), operands)
        assert {nid: int(view.levels[view.index_of[nid]]) for nid in ids} == \
            expected

    def test_level_grouping_partitions_all_nodes(self, diamond_graph):
        view = GraphView.from_dataflow(diamond_graph)
        seen = np.concatenate([view.level_nodes(level)
                               for level in range(view.num_levels)])
        assert sorted(seen) == list(range(view.num_nodes))
        for level in range(view.num_levels):
            assert all(view.levels[i] == level for i in view.level_nodes(level))

    def test_source_mask(self, diamond_graph):
        view = GraphView.from_dataflow(diamond_graph)
        for node in diamond_graph.nodes():
            assert view.source_mask[view.index_of[node.node_id]] == \
                node.is_source

    def test_empty_graph(self):
        view = GraphView.from_dataflow(GraphBuilder("empty").graph)
        assert view.num_nodes == 0 and view.num_levels == 0
        assert view.order_ids() == []

    def test_cycle_raises_with_graph_name(self):
        builder = GraphBuilder("loopy")
        a = builder.param("a", 8)
        b = builder.add(a, a, name="b")
        c = builder.add(b, a, name="c")
        graph = builder.graph
        # White-box: rewire b to consume c, closing a cycle the public API
        # cannot produce.
        graph._nodes[b.node_id] = Node(b.node_id, OpKind.ADD,
                                       (c.node_id, a.node_id), 8, "b")
        graph._users[c.node_id].append(b.node_id)
        with pytest.raises(ValueError, match="'loopy' contains a cycle"):
            GraphView.from_dataflow(graph)

class TestCaching:
    def test_dataflow_view_is_cached(self, diamond_graph):
        assert GraphView.from_dataflow(diamond_graph) is \
            GraphView.from_dataflow(diamond_graph)

    def test_structural_edit_invalidates(self, diamond_graph):
        before = GraphView.from_dataflow(diamond_graph)
        node = diamond_graph.add_node(
            OpKind.XOR, [diamond_graph.node_ids()[0]] * 2)
        after = GraphView.from_dataflow(diamond_graph)
        assert after is not before
        assert node.node_id in after.index_of
        assert node.node_id not in before.index_of

    def test_rename_does_not_invalidate(self, diamond_graph):
        before = GraphView.from_dataflow(diamond_graph)
        diamond_graph.set_name(diamond_graph.node_ids()[0], "renamed")
        assert GraphView.from_dataflow(diamond_graph) is before

    def test_copies_do_not_share_cache(self, diamond_graph):
        original = GraphView.from_dataflow(diamond_graph)
        clone = diamond_graph.copy()
        clone_view = GraphView.from_dataflow(clone)
        assert clone_view is not original
        assert clone_view.order_ids() == original.order_ids()

class TestAigView:
    def test_levels_match_direct_recurrence(self):
        from repro.aig.aig import Aig, literal_node

        aig = Aig("lvl")
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.mark_output(abc)
        expected: dict[int, int] = {}
        for node in aig.nodes():
            if not node.is_and:
                expected[node.node_id] = 0
            else:
                expected[node.node_id] = 1 + max(
                    expected[literal_node(node.fanin0)],
                    expected[literal_node(node.fanin1)])
        assert aig.levels() == expected
        assert aig.depth() == 2

    def test_strash_hit_keeps_cached_view(self):
        from repro.aig.aig import Aig

        aig = Aig("strash")
        a = aig.add_input("a")
        b = aig.add_input("b")
        first = aig.add_and(a, b)
        before = GraphView.from_aig(aig)
        assert aig.add_and(a, b) == first  # structural hash hit, no new node
        assert GraphView.from_aig(aig) is before
        aig.add_and(first, a)
        assert GraphView.from_aig(aig) is not before
