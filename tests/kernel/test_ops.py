"""Unit tests for the vectorized kernel primitives."""

import numpy as np
import pytest

from repro.designs.generator import GeneratorParams, build_generated_design
from repro.ir.builder import GraphBuilder
from repro.kernel import (
    GraphView,
    NOT_CONNECTED,
    UNREACHED,
    critical_path_matrix,
    forward_propagate,
    longest_path_from,
    path_delay,
    reachable_indices,
    reachable_mask,
    reconstruct_path,
)


@pytest.fixture
def equal_diamond():
    """A diamond whose two branches have *equal* delay (tie-break fodder)."""
    builder = GraphBuilder("equal_diamond")
    a = builder.param("a", 8)
    base = builder.add(a, a, name="base")
    left = builder.add(base, a, name="left")
    right = builder.add(base, a, name="right")
    join = builder.add(left, right, name="join")
    builder.output(join)
    return builder.graph, {"base": base.node_id, "left": left.node_id,
                           "right": right.node_id, "join": join.node_id}


class TestForwardPropagate:
    def test_values_follow_longest_path(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        delays = view.delay_vector({n.node_id: 1.0 for n in graph.nodes()})
        values, _ = longest_path_from(view, delays, view.index_of[names["base"]])
        assert values[view.index_of[names["join"]]] == 3.0

    def test_topo_tie_break_prefers_earliest_position(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        delays = view.delay_vector({n.node_id: 1.0 for n in graph.nodes()})
        _values, parents = longest_path_from(view, delays,
                                             view.index_of[names["base"]])
        dense = reconstruct_path(parents, view.index_of[names["base"]],
                                 view.index_of[names["join"]])
        # 'left' was created before 'right', so it has the earlier
        # topological position and must win the equal-delay tie.
        assert view.ids_of(dense) == [names["base"], names["left"],
                                      names["join"]]

    def test_masked_floor_propagation(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        delays = view.delay_vector({n.node_id: 2.0 for n in graph.nodes()})
        mask = np.zeros(view.num_nodes, dtype=bool)
        mask[[view.index_of[names["left"]], view.index_of[names["join"]]]] = True
        values, _ = forward_propagate(view, delays, mask=mask, floor=0.0)
        # 'left' has no in-mask predecessors: starts from the floor.
        assert values[view.index_of[names["left"]]] == 2.0
        assert values[view.index_of[names["join"]]] == 4.0
        assert values[view.index_of[names["base"]]] == UNREACHED

    def test_unreachable_stays_unreached(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        delays = view.delay_vector({n.node_id: 1.0 for n in graph.nodes()})
        values, _ = longest_path_from(view, delays,
                                      view.index_of[names["join"]])
        assert values[view.index_of[names["base"]]] == UNREACHED

    def test_reconstruct_path_raises_without_path(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        parents = np.full(view.num_nodes, -1, dtype=np.int64)
        with pytest.raises(ValueError, match="no recorded path"):
            reconstruct_path(parents, view.index_of[names["base"]],
                             view.index_of[names["join"]])


class TestReachability:
    def test_forward_and_backward(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        downstream = reachable_mask(view, [view.index_of[names["left"]]])
        ids = set(view.ids_of(np.nonzero(downstream)[0]))
        assert names["left"] in ids and names["join"] in ids
        assert names["right"] not in ids
        upstream = reachable_mask(view, [view.index_of[names["join"]]],
                                  backward=True)
        assert upstream.sum() >= 4  # join, left, right, base, a

    def test_mask_restricts_traversal(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        mask = np.ones(view.num_nodes, dtype=bool)
        mask[view.index_of[names["left"]]] = False
        mask[view.index_of[names["right"]]] = False
        blocked = reachable_mask(view, [view.index_of[names["base"]]],
                                 mask=mask)
        assert set(view.ids_of(np.nonzero(blocked)[0])) == {names["base"]}

    def test_seed_outside_mask_is_dropped(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        mask = np.zeros(view.num_nodes, dtype=bool)
        result = reachable_mask(view, [view.index_of[names["base"]]],
                                mask=mask)
        assert not result.any()


class TestCriticalPathMatrix:
    def test_small_matrix_values(self, equal_diamond):
        graph, names = equal_diamond
        view = GraphView.from_dataflow(graph)
        delays = view.delay_vector({n.node_id: 1.0 for n in graph.nodes()})
        matrix = critical_path_matrix(view, delays)
        base = view.index_of[names["base"]]
        join = view.index_of[names["join"]]
        left = view.index_of[names["left"]]
        right = view.index_of[names["right"]]
        assert matrix[base, join] == 3.0
        assert matrix[base, base] == 1.0
        assert matrix[left, right] == NOT_CONNECTED
        assert matrix[join, base] == NOT_CONNECTED

    def test_empty_graph(self):
        view = GraphView.from_dataflow(GraphBuilder("empty").graph)
        assert critical_path_matrix(view, np.empty(0)).shape == (0, 0)


class TestPathDelay:
    def test_mapping_and_callable_agree(self):
        delays = {1: 1.5, 2: 2.5, 3: 3.0}
        assert path_delay(delays, [1, 2, 3]) == 7.0
        assert path_delay(lambda nid: delays[nid], [1, 2, 3]) == 7.0

    def test_empty_path(self):
        assert path_delay({}, []) == 0.0


class TestReachableIndices:
    def test_matches_reachable_mask(self):
        graph = build_generated_design(GeneratorParams(seed=9, depth=7,
                                                       width=5))
        view = GraphView.from_dataflow(graph)
        scratch = np.zeros(view.num_nodes, dtype=bool)
        for backward in (False, True):
            for seed in range(0, view.num_nodes, 5):
                indices = reachable_indices(view, [seed], backward=backward,
                                            scratch=scratch)
                assert not scratch.any()  # scratch handed back clean
                assert np.all(np.diff(indices) > 0)
                mask = reachable_mask(view, [seed], backward=backward)
                assert np.array_equal(np.nonzero(mask)[0], indices)

    def test_duplicate_seeds_and_mask(self):
        graph = build_generated_design(GeneratorParams(seed=9, depth=7,
                                                       width=5))
        view = GraphView.from_dataflow(graph)
        seeds = [0, 0, 1, 1]
        allowed = np.zeros(view.num_nodes, dtype=bool)
        allowed[: view.num_nodes // 2] = True
        indices = reachable_indices(view, seeds, mask=allowed)
        mask = reachable_mask(view, seeds, mask=allowed)
        assert np.array_equal(np.nonzero(mask)[0], indices)
        assert np.all(np.diff(indices) > 0)
