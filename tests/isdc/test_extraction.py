"""Tests for subgraph extraction: candidates, Eq. 3 scoring, cones, windows."""

import pytest

from repro.designs.generator import case_from_name
from repro.designs.suite import table1_suite
from repro.ir.builder import GraphBuilder
from repro.isdc.config import ExpansionStrategy, ExtractionStrategy, IsdcConfig
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.extraction import (
    SubgraphExtractor,
    cone_leaves,
    enumerate_candidate_paths,
    fanout_score,
    in_stage_ancestors,
    registered_nodes,
)
from repro.sdc.delays import node_delays
from repro.sdc.scheduler import Schedule, SdcScheduler
from repro.tech.delay_model import OperatorModel


@pytest.fixture
def staged_design():
    """A two-stage schedule with known structure.

    Stage 0: a1 = x + y, a2 = a1 ^ z, wide = a1 * x (all 16-bit);
    stage 1: final = wide + a2.  Both ``a2`` and ``wide`` are registered.
    """
    builder = GraphBuilder("staged")
    x = builder.param("x", 16)
    y = builder.param("y", 16)
    z = builder.param("z", 16)
    a1 = builder.add(x, y, name="a1")
    a2 = builder.xor(a1, z, name="a2")
    wide = builder.mul(a1, x, name="wide")
    final = builder.add(wide, a2, name="final")
    out = builder.output(final, name="out")
    graph = builder.graph
    stages = {x.node_id: 0, y.node_id: 0, z.node_id: 0, a1.node_id: 0,
              a2.node_id: 0, wide.node_id: 0, final.node_id: 1, out.node_id: 1}
    schedule = Schedule(graph=graph, clock_period_ps=2500.0, stages=stages)
    delays = node_delays(graph, OperatorModel(pessimism=1.0))
    matrix = DelayMatrix.from_graph(graph, delays)
    names = {n.name: n.node_id for n in graph.nodes()}
    return schedule, matrix, names


class TestRegisteredNodes:
    def test_only_boundary_crossing_results(self, staged_design):
        schedule, _, names = staged_design
        registered = set(registered_nodes(schedule))
        assert names["a2"] in registered
        assert names["wide"] in registered
        assert names["a1"] not in registered   # consumed within stage 0
        assert names["final"] not in registered  # consumed by OUTPUT in-stage
        assert names["out"] in registered        # the pipeline's output flop

    def test_sources_never_registered(self, staged_design):
        schedule, _, names = staged_design
        assert names["a1"] not in registered_nodes(schedule)
        for param in schedule.graph.parameters():
            assert param.node_id not in registered_nodes(schedule)


class TestConesAndWindows:
    def test_in_stage_ancestors(self, staged_design):
        schedule, _, names = staged_design
        cone = in_stage_ancestors(schedule, names["wide"])
        assert cone == {names["wide"], names["a1"]}

    def test_cone_leaves_are_outside(self, staged_design):
        schedule, _, names = staged_design
        cone = in_stage_ancestors(schedule, names["wide"])
        leaves = cone_leaves(schedule.graph, cone)
        assert names["wide"] not in leaves
        assert all(leaf not in cone for leaf in leaves)

    def test_window_merges_overlapping_cones(self, staged_design):
        schedule, matrix, names = staged_design
        config = IsdcConfig(clock_period_ps=2500.0, expansion=ExpansionStrategy.WINDOW)
        extractor = SubgraphExtractor(config)
        candidates = enumerate_candidate_paths(schedule, matrix,
                                               ExtractionStrategy.FANOUT, 2500.0)
        wide_candidate = next(c for c in candidates if c.sink == names["wide"])
        window = extractor.expand(schedule, wide_candidate)
        # a2's cone shares the leaf x/y producer a1's inputs with wide's cone,
        # so the window swallows both registered roots of stage 0.
        assert names["wide"] in window and names["a2"] in window

    def test_path_expansion_is_thinner_than_cone(self, staged_design):
        schedule, matrix, names = staged_design
        candidates = enumerate_candidate_paths(schedule, matrix,
                                               ExtractionStrategy.FANOUT, 2500.0)
        wide_candidate = next(c for c in candidates if c.sink == names["wide"])
        path_set = SubgraphExtractor(IsdcConfig(
            clock_period_ps=2500.0, expansion=ExpansionStrategy.PATH)).expand(
                schedule, wide_candidate)
        cone_set = SubgraphExtractor(IsdcConfig(
            clock_period_ps=2500.0, expansion=ExpansionStrategy.CONE)).expand(
                schedule, wide_candidate)
        assert path_set <= cone_set


class TestScoring:
    def test_fanout_score_prefers_fewer_users(self, staged_design):
        schedule, _, names = staged_design
        graph = schedule.graph
        # Same width, same delay: the value with fewer consumers scores higher.
        single_user = fanout_score(graph, names["wide"], 1000.0, 2500.0)
        builder_score = fanout_score(graph, names["a2"], 1000.0, 2500.0)
        assert graph.num_users(names["wide"]) == graph.num_users(names["a2"]) == 1
        assert single_user == pytest.approx(builder_score)

    def test_fanout_score_delay_is_tie_breaker_only(self, staged_design):
        schedule, _, names = staged_design
        graph = schedule.graph
        low = fanout_score(graph, names["wide"], 10.0, 2500.0)
        high = fanout_score(graph, names["wide"], 2490.0, 2500.0)
        assert high > low
        assert high - low < 1.0

    def test_fanout_score_preserves_ordering_above_clock_period(self, staged_design):
        """Estimates beyond the clock period must keep ranking by delay, not
        collapse onto one clamped ratio (the seed flattened both to 0.999)."""
        schedule, _, names = staged_design
        graph = schedule.graph
        over = fanout_score(graph, names["wide"], 3000.0, 2500.0)
        further_over = fanout_score(graph, names["wide"], 5000.0, 2500.0)
        under = fanout_score(graph, names["wide"], 2400.0, 2500.0)
        assert further_over > over > under

    def test_delay_strategy_orders_by_delay(self, staged_design):
        schedule, matrix, names = staged_design
        candidates = enumerate_candidate_paths(schedule, matrix,
                                               ExtractionStrategy.DELAY, 2500.0)
        delays = [c.delay_ps for c in candidates]
        assert delays == sorted(delays, reverse=True)
        assert candidates[0].sink == names["wide"]  # mul chain is the slowest


class TestTieBreaking:
    def test_equal_delay_sources_pick_lowest_node_id(self):
        """max() over equal-delay sources must tie-break on sorted node ids,
        not on set iteration order."""
        builder = GraphBuilder("ties")
        x = builder.param("x", 8)
        y = builder.param("y", 8)
        left = builder.add(x, y, name="left")
        right = builder.add(y, x, name="right")
        root = builder.xor(left, right, name="root")
        out = builder.output(root, name="out")
        graph = builder.graph
        stages = {n.node_id: 0 for n in graph.nodes()}
        stages[out.node_id] = 1  # `root` crosses the boundary -> registered
        schedule = Schedule(graph=graph, clock_period_ps=2500.0, stages=stages)
        delays = node_delays(graph, OperatorModel(pessimism=1.0))
        matrix = DelayMatrix.from_graph(graph, delays)
        # Both in-stage ancestors of `root` carry the same delay estimate.
        assert matrix.get(left.node_id, root.node_id) == \
            pytest.approx(matrix.get(right.node_id, root.node_id))
        for _ in range(3):
            candidates = enumerate_candidate_paths(
                schedule, matrix, ExtractionStrategy.DELAY, 2500.0)
            root_candidate = next(c for c in candidates if c.sink == root.node_id)
            assert root_candidate.source == min(left.node_id, right.node_id)


class TestExtractor:
    def test_respects_subgraph_budget(self, staged_design):
        schedule, matrix, _ = staged_design
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=1)
        selected = SubgraphExtractor(config).extract(schedule, matrix)
        assert len(selected) == 1

    def test_deduplicates_identical_subgraphs(self, staged_design):
        schedule, matrix, _ = staged_design
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=16,
                            expansion=ExpansionStrategy.WINDOW)
        selected = SubgraphExtractor(config).extract(schedule, matrix)
        node_sets = [frozenset(nodes) for _, nodes in selected]
        assert len(node_sets) == len(set(node_sets))

    def test_subgraphs_never_contain_sources(self, staged_design):
        schedule, matrix, _ = staged_design
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=16,
                            expansion=ExpansionStrategy.CONE)
        for _, nodes in SubgraphExtractor(config).extract(schedule, matrix):
            for node_id in nodes:
                assert not schedule.graph.node(node_id).is_source

    def test_subgraphs_stay_within_one_stage(self, staged_design):
        schedule, matrix, _ = staged_design
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=16,
                            expansion=ExpansionStrategy.WINDOW)
        for candidate, nodes in SubgraphExtractor(config).extract(schedule, matrix):
            stages = {schedule.stage_of(nid) for nid in nodes}
            assert stages == {candidate.stage}


def _baseline(design: str):
    """The design's baseline SDC schedule and delay matrix at its clock."""
    case = case_from_name(design)
    result = SdcScheduler(clock_period_ps=case.clock_period_ps).schedule(
        case.build())
    matrix = DelayMatrix(result.schedule.graph, result.delay_matrix,
                         dict(result.index_of))
    return result.schedule, matrix, case.clock_period_ps


@pytest.mark.parametrize("design", [
    *(case.name for case in table1_suite()), "examples/loop_accum.ir"])
def test_extract_skips_paths_without_changing_its_selection(design):
    """``extract`` searches critical paths only under ``PATH``; under every
    expansion it selects the node sets, in the candidate order, that
    expanding the path-carrying candidates of
    :func:`enumerate_candidate_paths` selects."""
    schedule, matrix, clock = _baseline(design)
    for expansion in ExpansionStrategy:
        config = IsdcConfig(clock_period_ps=clock, expansion=expansion,
                            subgraphs_per_iteration=len(schedule.graph))
        extractor = SubgraphExtractor(config)
        expected, seen = [], set()
        for candidate in enumerate_candidate_paths(
                schedule, matrix, config.extraction, clock):
            node_set = extractor.expand(schedule, candidate)
            if node_set and node_set not in seen:
                seen.add(node_set)
                expected.append((candidate, node_set))
        selected = extractor.extract(schedule, matrix)
        assert selected, (design, expansion)
        assert [(c.source, c.sink, c.stage, c.delay_ps, c.score, nodes)
                for c, nodes in selected] \
            == [(c.source, c.sink, c.stage, c.delay_ps, c.score, nodes)
                for c, nodes in expected], (design, expansion)
        with_paths = expansion is ExpansionStrategy.PATH
        for (candidate, _), (reference, _) in zip(selected, expected):
            assert candidate.path_nodes == (
                reference.path_nodes if with_paths else ())
