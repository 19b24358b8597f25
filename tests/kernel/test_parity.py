"""Kernel/reference parity across the Table-I suite and seeded gen: designs.

These are the refactor's safety net (and the executable form of the
"byte-identical before/after" acceptance criterion): every kernel primitive
is checked against the historical pure-Python implementation preserved in
:mod:`repro.kernel.reference` -- exact array equality, not approximate.
The delay matrix and STA are also checked on an 89- to 2117-node ladder
of generated designs; ``benchmarks/test_speedup_gates.py`` times the
largest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.designs.generator import (
    LEAN_OP_MIX,
    GeneratorParams,
    build_generated_design,
)
from repro.designs.suite import table1_suite
from repro.ir.builder import GraphBuilder
from repro.kernel import (
    GraphView,
    UNREACHED,
    longest_path_from,
    reachable_mask,
    reconstruct_path,
)
from repro.kernel import critical_path_matrix as kernel_matrix
from repro.kernel.reference import (
    graph_adjacency,
    reference_critical_path_between,
    reference_critical_path_matrix,
    reference_in_stage_ancestors,
    reference_longest_path_lengths,
    reference_reachable_from,
    reference_reaching_to,
    reference_sta,
    reference_subgraph_longest_path,
    reference_topological_order,
)
from repro.sdc.delays import NOT_CONNECTED, critical_path_between, node_delays
from repro.tech.delay_model import OperatorModel

_TABLE1_NAMES = [case.name for case in table1_suite()]
_GEN_PARAMS = [GeneratorParams(seed=seed, depth=6, width=4)
               for seed in (0, 11, 23)]

#: A size ladder of generated designs, 89 to 2117 nodes.
_LADDER_NAMES = [GeneratorParams(seed=7, depth=depth, width=width,
                                 op_mix=LEAN_OP_MIX).name
                 for depth, width in ((8, 8), (14, 20), (20, 40), (28, 60))]


def _build(name: str):
    if name.startswith("gen:"):
        return build_generated_design(GeneratorParams.from_name(name))
    for case in table1_suite():
        if case.name == name:
            return case.build()
    raise KeyError(name)


def _all_designs():
    for name in _TABLE1_NAMES:
        yield name, _build(name)
    for params in _GEN_PARAMS:
        yield params.name, build_generated_design(params)


@pytest.mark.parametrize("design_name", _TABLE1_NAMES
                         + [p.name for p in _GEN_PARAMS])
class TestGraphParity:
    def test_topological_order(self, design_name):
        graph = _build(design_name)
        view = GraphView.from_dataflow(graph)
        assert view.order_ids() == reference_topological_order(
            *graph_adjacency(graph))

    def test_levels_match_reference(self, design_name):
        graph = _build(design_name)
        view = GraphView.from_dataflow(graph)
        ids, operands, _users = graph_adjacency(graph)
        expected = reference_longest_path_lengths(view.order_ids(), operands)
        assert {nid: int(view.levels[view.index_of[nid]])
                for nid in ids} == expected

    def test_reachability_sets_match(self, design_name):
        graph = _build(design_name)
        view = GraphView.from_dataflow(graph)
        _ids, operands, users = graph_adjacency(graph)
        for nid in graph.node_ids()[::5]:
            forward = reachable_mask(view, [view.index_of[nid]])
            assert set(view.ids_of(np.nonzero(forward)[0])) == \
                reference_reachable_from(users, nid)
            backward = reachable_mask(view, [view.index_of[nid]],
                                      backward=True)
            assert set(view.ids_of(np.nonzero(backward)[0])) == \
                reference_reaching_to(operands, nid)

    def test_critical_path_between_matches(self, design_name):
        graph = _build(design_name)
        delays = node_delays(graph, OperatorModel())
        ids, operands, users = graph_adjacency(graph)
        order = reference_topological_order(ids, operands, users)
        node_ids = graph.node_ids()
        for source in node_ids[::6]:
            for sink in node_ids[::7]:
                expected = reference_critical_path_between(
                    order, users, delays, source, sink)
                assert critical_path_between(graph, delays, source, sink) == \
                    expected


@pytest.mark.parametrize("design_name", _TABLE1_NAMES
                         + [p.name for p in _GEN_PARAMS] + _LADDER_NAMES)
def test_critical_path_matrix_byte_identical(design_name):
    graph = _build(design_name)
    delays = node_delays(graph, OperatorModel())
    ids, operands, users = graph_adjacency(graph)
    order = reference_topological_order(ids, operands, users)
    expected, expected_index = reference_critical_path_matrix(
        order, operands, delays)
    view = GraphView.from_dataflow(graph)
    actual = kernel_matrix(view, view.delay_vector(delays))
    assert expected_index == view.index_of
    assert np.array_equal(expected, actual)


class TestStaParity:
    """Arrival-time STA vs the reference loop on lowered designs."""

    @pytest.mark.parametrize("design_name", ["rrot", "binary divide",
                                             "hsv2rgb", "crc32"]
                             + _LADDER_NAMES)
    def test_lowered_design(self, design_name):
        from repro.netlist.lowering import lower_graph
        from repro.netlist.sta import StaticTimingAnalysis

        netlist = lower_graph(_build(design_name)).netlist
        sta = StaticTimingAnalysis()
        expected_delay, expected_path, expected_arrival = reference_sta(
            netlist, sta.gate_delay)
        result = sta.run(netlist)
        assert result.critical_path_delay_ps == expected_delay
        assert result.critical_path == expected_path
        assert result.arrival_times == expected_arrival


class TestSubgraphAndScheduleParity:
    def test_estimator_subgraph_longest_path(self):
        from repro.synth.backend import EstimatorBackend

        graph = _build("rrot")
        backend = EstimatorBackend()
        node_ids = [n.node_id for n in graph.nodes() if not n.is_source]
        members = set(node_ids[: len(node_ids) // 2])
        ids, operands, users = graph_adjacency(graph)
        order = reference_topological_order(ids, operands, users)
        best = reference_subgraph_longest_path(
            order, operands, members,
            lambda nid: (0.0 if graph.node(nid).is_source
                         else backend.model.node_delay(graph.node(nid))))
        expected = max(best.values(), default=0.0)
        report = backend.evaluate_subgraph(graph, members)
        assert report.delay_ps == expected

    def test_in_stage_ancestors_matches_reference(self):
        from repro.isdc.extraction import in_stage_ancestors, registered_nodes
        from repro.sdc.scheduler import SdcScheduler

        graph = _build("rrot")
        schedule = SdcScheduler(clock_period_ps=2500.0).schedule(graph).schedule
        _ids, operands, _users = graph_adjacency(graph)
        is_source = {n.node_id: n.is_source for n in graph.nodes()}
        roots = registered_nodes(schedule)
        assert roots  # the schedule must register something
        for root in roots:
            assert in_stage_ancestors(schedule, root) == \
                reference_in_stage_ancestors(operands, is_source,
                                             schedule.stages, root)

    def test_in_stage_ancestors_includes_source_root(self):
        from repro.isdc.extraction import in_stage_ancestors
        from repro.sdc.scheduler import SdcScheduler

        graph = _build("rrot")
        schedule = SdcScheduler(clock_period_ps=2500.0).schedule(graph).schedule
        param = graph.parameters()[0].node_id
        _ids, operands, _users = graph_adjacency(graph)
        is_source = {n.node_id: n.is_source for n in graph.nodes()}
        assert in_stage_ancestors(schedule, param) == {param}
        assert in_stage_ancestors(schedule, param) == \
            reference_in_stage_ancestors(operands, is_source,
                                         schedule.stages, param)

    def test_registered_nodes_semantics(self):
        from repro.isdc.extraction import registered_nodes
        from repro.sdc.scheduler import SdcScheduler

        graph = _build("rrot")
        schedule = SdcScheduler(clock_period_ps=2500.0).schedule(graph).schedule
        expected = []
        for node in graph.nodes():
            if node.is_source:
                continue
            users = graph.users_of(node.node_id)
            stage = schedule.stage_of(node.node_id)
            if not users or any(schedule.stage_of(u) > stage for u in users):
                expected.append(node.node_id)
        assert registered_nodes(schedule) == expected


_BINARY_OPS = ["add", "sub", "xor", "and_", "or_"]


@st.composite
def random_graphs(draw):
    builder = GraphBuilder("random_kernel")
    pool = [builder.param("p0", 8), builder.param("p1", 8),
            builder.param("p2", 8)]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        method = draw(st.sampled_from(_BINARY_OPS))
        left = draw(st.sampled_from(pool))
        right = draw(st.sampled_from(pool))
        pool.append(getattr(builder, method)(left, right))
    builder.output(pool[-1])
    return builder.graph


class TestRandomGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs())
    def test_matrix_and_paths_match_reference(self, graph):
        delays = node_delays(graph, OperatorModel())
        ids, operands, users = graph_adjacency(graph)
        order = reference_topological_order(ids, operands, users)
        expected_matrix, expected_index = reference_critical_path_matrix(
            order, operands, delays)
        view = GraphView.from_dataflow(graph)
        assert view.order_ids() == order
        assert np.array_equal(
            expected_matrix, kernel_matrix(view, view.delay_vector(delays)))
        assert expected_index == view.index_of
        source, sink = ids[0], ids[-1]
        assert critical_path_between(graph, delays, source, sink) == \
            reference_critical_path_between(order, users, delays, source, sink)

    @settings(max_examples=40, deadline=None)
    @given(graph=random_graphs())
    def test_single_source_values_match_matrix(self, graph):
        delays = node_delays(graph, OperatorModel())
        view = GraphView.from_dataflow(graph)
        vector = view.delay_vector(delays)
        matrix = kernel_matrix(view, vector)
        source = view.index_of[graph.node_ids()[0]]
        values, parents = longest_path_from(view, vector, source)
        for dense in range(view.num_nodes):
            if values[dense] == UNREACHED:
                assert dense != source
                assert matrix[source, dense] == NOT_CONNECTED
            else:
                assert values[dense] == matrix[source, dense]
                path = reconstruct_path(parents, source, dense)
                assert sum(vector[i] for i in path) == pytest.approx(
                    values[dense])
