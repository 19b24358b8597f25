"""The GraphView cache: reuse while the structure holds, rebuild on any edit.

Views are cached on the container keyed by ``structural_version``.  A
non-structural edit (rename, output marking) keeps the cached object; any
structural edit (adding or removing a node) makes the next ``from_*``
call rebuild from scratch, and that rebuild must equal, field by field, a
view built on a fresh ``copy()`` of the edited container -- same Kahn order,
same CSR arrays (operand order and duplicates included), same levels and
level grouping, same source mask.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.aig.aig import Aig
from repro.designs.generator import GeneratorParams, build_generated_design
from repro.ir.ops import OpKind
from repro.kernel import GraphView

_FIELDS = ("order", "pred_indptr", "pred_indices", "succ_indptr",
           "succ_indices", "levels", "level_order", "level_starts",
           "source_mask")


def assert_views_equal(actual: GraphView, expected: GraphView) -> None:
    assert actual.order_ids() == expected.order_ids()
    assert actual.index_of == expected.index_of
    assert actual.num_levels == expected.num_levels
    for field in _FIELDS:
        assert np.array_equal(getattr(actual, field),
                              getattr(expected, field)), field


def _base_graph(seed: int = 2):
    return build_generated_design(GeneratorParams(seed=seed, depth=5,
                                                  width=4))


class TestReuse:
    def test_cached_view_is_reused_after_non_structural_edits(self):
        graph = _base_graph()
        view = GraphView.from_dataflow(graph)
        assert GraphView.from_dataflow(graph) is view
        graph.set_name(graph.node_ids()[0], "renamed")  # not structural
        assert GraphView.from_dataflow(graph) is view

    def test_copy_does_not_share_the_cache(self):
        graph = _base_graph()
        view = GraphView.from_dataflow(graph)
        clone = graph.copy()
        assert GraphView.from_dataflow(clone) is not view
        assert_views_equal(GraphView.from_dataflow(clone), view)

    def test_rebuilt_view_is_cached(self):
        graph = _base_graph()
        GraphView.from_dataflow(graph)
        ids = graph.node_ids()
        graph.add_node(OpKind.ADD, (ids[0], ids[1]))
        rebuilt = GraphView.from_dataflow(graph)
        assert GraphView.from_dataflow(graph) is rebuilt


class TestRebuildAfterEdits:
    def _rebuilt_and_fresh(self, graph, edit):
        view = GraphView.from_dataflow(graph)
        edit(graph)
        rebuilt = GraphView.from_dataflow(graph)
        assert rebuilt is not view  # a structural edit really happened
        return rebuilt, GraphView.from_dataflow(graph.copy())

    def test_flat_adds_on_old_nodes(self):
        graph = _base_graph()
        old_ids = graph.node_ids()
        rng = random.Random(0)

        def edit(g):
            for _ in range(12):
                g.add_node(OpKind.XOR,
                           (rng.choice(old_ids), rng.choice(old_ids)))

        assert_views_equal(*self._rebuilt_and_fresh(graph, edit))

    def test_chained_adds_consume_new_nodes(self):
        graph = _base_graph()
        rng = random.Random(1)

        def edit(g):
            fresh = []
            for _ in range(10):
                pool = g.node_ids() if not fresh else fresh
                node = g.add_node(OpKind.ADD, (rng.choice(g.node_ids()),
                                               rng.choice(pool)))
                fresh.append(node.node_id)

        assert_views_equal(*self._rebuilt_and_fresh(graph, edit))

    def test_removals_and_adds_mixed(self):
        graph = _base_graph()

        def edit(g):
            sinks = [n.node_id for n in g.nodes()
                     if not g.users_of(n.node_id) and not n.is_source]
            for sink in sinks[:3]:
                g.remove_node(sink)
            survivors = g.node_ids()
            g.add_node(OpKind.OR, (survivors[0], survivors[-1]))

        rebuilt, fresh = self._rebuilt_and_fresh(graph, edit)
        assert rebuilt.num_nodes == len(graph)
        assert_views_equal(rebuilt, fresh)

    def test_add_then_remove_same_node_rebuilds_the_same_view(self):
        graph = _base_graph()
        view = GraphView.from_dataflow(graph)
        ids = graph.node_ids()
        node = graph.add_node(OpKind.AND, (ids[0], ids[1]))
        graph.remove_node(node.node_id)
        rebuilt = GraphView.from_dataflow(graph)
        assert rebuilt is not view  # version moved by two
        assert_views_equal(rebuilt, view)

    def test_duplicate_operands_survive_a_rebuild(self):
        graph = _base_graph()
        GraphView.from_dataflow(graph)
        target = graph.node_ids()[-1]
        node = graph.add_node(OpKind.ADD, (target, target))  # u + u
        graph.add_node(OpKind.XOR, (node.node_id, node.node_id))
        assert_views_equal(GraphView.from_dataflow(graph),
                           GraphView.from_dataflow(graph.copy()))

    def test_aig_adds_rebuild(self):
        def build(view_midway: bool):
            aig = Aig("cached")
            rng = random.Random(5)
            literals = [aig.add_input(f"in{i}") for i in range(4)]
            for _ in range(16):
                literals.append(aig.add_and(rng.choice(literals),
                                            rng.choice(literals)))
            view = GraphView.from_aig(aig) if view_midway else None
            for _ in range(6):
                literals.append(aig.add_xor(rng.choice(literals),
                                            rng.choice(literals)))
            return aig, view

        aig, stale = build(view_midway=True)
        rebuilt = GraphView.from_aig(aig)
        assert rebuilt is not stale
        assert_views_equal(rebuilt, GraphView.from_aig(build(False)[0]))


class TestContainerRemovalErrors:
    def test_dataflow_remove_node(self):
        graph = _base_graph()
        with pytest.raises(KeyError):
            graph.remove_node(10**9)
        used = next(nid for nid in graph.node_ids() if graph.users_of(nid))
        with pytest.raises(ValueError, match="still has users"):
            graph.remove_node(used)

_EDIT_OPS = (OpKind.ADD, OpKind.SUB, OpKind.XOR, OpKind.AND, OpKind.OR)


class TestRandomEditSequences:
    """The core property: after any edit sequence the cached path returns
    exactly the view a from-scratch build on a copy produces."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_edits=st.integers(min_value=1, max_value=24),
           chain=st.booleans())
    def test_view_after_edits_equals_view_of_copy(self, seed, num_edits,
                                                  chain):
        graph = _base_graph(seed=seed % 7)
        GraphView.from_dataflow(graph)
        rng = random.Random(seed)
        fresh: list[int] = []
        for _ in range(num_edits):
            sinks = [n.node_id for n in graph.nodes()
                     if not graph.users_of(n.node_id) and not n.is_source]
            roll = rng.random()
            if roll < 0.25 and sinks:
                graph.remove_node(rng.choice(sinks))
            else:
                pool = graph.node_ids()
                if chain and fresh and rng.random() < 0.5:
                    operands = (rng.choice(pool), rng.choice(fresh))
                else:
                    operands = (rng.choice(pool), rng.choice(pool))
                node = graph.add_node(rng.choice(_EDIT_OPS), operands)
                fresh.append(node.node_id)
            fresh = [nid for nid in fresh if nid in graph]
        assert_views_equal(GraphView.from_dataflow(graph),
                           GraphView.from_dataflow(graph.copy()))
